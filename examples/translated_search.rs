//! Translated search: nucleotide contigs against a protein database.
//!
//! Sequencing projects produce DNA; protein databases store proteins.
//! Tools in the SWIPE/BLAST family bridge the gap by translating the
//! DNA in all six reading frames and searching the translations. This
//! example builds a DNA contig that *contains* a known protein's coding
//! sequence (plus flanking junk on the reverse strand), six-frame
//! translates it with `swdual-bio`, and searches a synthetic protein
//! database in which that protein was planted — the right frame wins.
//!
//! Run with: `cargo run --release --example translated_search`

use swdual_repro::align::{tiered_score, QueryProfiles, TierStats};
use swdual_repro::bio::translate::{reverse_complement, six_frame};
use swdual_repro::bio::{Alphabet, ScoringScheme, Sequence};
use swdual_repro::datagen::{synthetic_database, LengthModel};

/// Reverse-translate a protein into one valid codon sequence (always
/// picking a canonical codon per amino acid).
fn codon_for(aa: u8) -> &'static [u8; 3] {
    match aa {
        b'A' => b"GCT",
        b'R' => b"CGT",
        b'N' => b"AAT",
        b'D' => b"GAT",
        b'C' => b"TGT",
        b'Q' => b"CAA",
        b'E' => b"GAA",
        b'G' => b"GGT",
        b'H' => b"CAT",
        b'I' => b"ATT",
        b'L' => b"CTT",
        b'K' => b"AAA",
        b'M' => b"ATG",
        b'F' => b"TTT",
        b'P' => b"CCT",
        b'S' => b"TCT",
        b'T' => b"ACT",
        b'W' => b"TGG",
        b'Y' => b"TAT",
        b'V' => b"GTT",
        other => panic!("no codon for {:?}", other as char),
    }
}

fn main() {
    // A protein database with 150 synthetic entries.
    let database = synthetic_database("prot", 150, LengthModel::Fixed(120), 77);
    let target_index = 42;
    let target = database.get(target_index).unwrap().clone();

    // Encode the target protein as DNA and embed it, reverse-
    // complemented, inside a longer contig (so the hit is on frame 3-5).
    let mut coding: Vec<u8> = Vec::new();
    for &code in target.codes() {
        let aa = Alphabet::Protein.decode_byte(code);
        coding.extend_from_slice(codon_for(aa));
    }
    let coding = Alphabet::Dna.encode(&coding).expect("valid codons");
    let rc = reverse_complement(&coding);
    let mut contig: Vec<u8> = Alphabet::Dna.encode(b"ACGTACGTAGGTTAACC").unwrap();
    contig.extend_from_slice(&rc);
    contig.extend(Alphabet::Dna.encode(b"TTGACCAGTT").unwrap());
    let contig = Sequence::from_codes("contig1", Alphabet::Dna, contig);
    println!(
        "contig {} nt; target protein {} ({} aa) hidden on the reverse strand",
        contig.len(),
        target.id,
        target.len()
    );

    // Six-frame translate and search each frame.
    let scheme = ScoringScheme::protein_default();
    let frames = six_frame(&contig).expect("nucleotide input");
    let mut best: (i32, String, usize) = (i32::MIN, String::new(), 0);
    for frame in &frames {
        let profiles = QueryProfiles::build(frame.codes(), &scheme.matrix);
        let mut stats = TierStats::default();
        let scores: Vec<i32> = database
            .iter()
            .map(|s| tiered_score(&profiles, s.codes(), &scheme, &mut stats))
            .collect();
        let (arg, &max) = scores.iter().enumerate().max_by_key(|&(_, s)| *s).unwrap();
        println!(
            "{:<16} best hit {} score {}",
            frame.id,
            database.get(arg).unwrap().id,
            max
        );
        if max > best.0 {
            best = (max, frame.id.clone(), arg);
        }
    }

    println!(
        "\nwinner: {} -> {} (score {})",
        best.1,
        database.get(best.2).unwrap().id,
        best.0
    );
    assert_eq!(best.2, target_index, "the planted protein must win");
    assert!(
        best.1.ends_with("frame3") || best.1.ends_with("frame4") || best.1.ends_with("frame5"),
        "the hit must come from the reverse strand"
    );
    println!("translated search recovered the planted coding sequence ✓");
}
