//! Device scoring: every way the simulated GPU searches a database —
//! one resident kernel, serial chunks, double-buffered chunks — must
//! return exactly the scalar Gotoh score of every subject, in original
//! database order, whether residency sorted the subjects or not.
//!
//! Schemes cover the whole tier ladder the device scores through:
//! BLOSUM62 with random gaps escalates high-scoring subjects from the
//! byte tier to the 16-bit tier, and the adversarial high-reward DNA
//! schemes reject byte profiles outright or overflow 16 bits, reaching
//! the scalar tier.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swdual_align::scalar::gotoh_score;
use swdual_align::{tiered_score, QueryProfiles, TierStats};
use swdual_bio::seq::{Sequence, SequenceSet};
use swdual_bio::{Alphabet, Matrix, ScoringScheme};
use swdual_gpusim::chunked::{chunked_search, overlapped_search};
use swdual_gpusim::{DeviceSpec, GpuDevice};

/// Random non-empty residue strings over codes `0..symbols`.
fn residues(symbols: u8, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..symbols, 1..max_len)
}

/// BLOSUM62 with random affine penalties.
fn blosum_scheme() -> impl Strategy<Value = ScoringScheme> {
    (1i32..16, 1i32..5).prop_map(|(gs, ge)| ScoringScheme::new(Matrix::blosum62().clone(), gs, ge))
}

/// Adversarial high-score DNA schemes (as in `align`'s kernel
/// proptests): rewards past the byte profile's bias limit, so some
/// draws start at the 16-bit tier and long self-matches overflow it.
fn adversarial_scheme() -> impl Strategy<Value = ScoringScheme> {
    (60i32..160, -160i32..-60, 0i32..14, 0i32..6).prop_map(|(ma, mi, gs, ge)| {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, ma, mi), gs, ge)
    })
}

/// `subjects` as a database, with the query itself planted at `plant`
/// (modulo the length) so high-scoring self-matches escalate tiers.
fn database(alphabet: Alphabet, query: &[u8], subjects: &[Vec<u8>], plant: usize) -> SequenceSet {
    let mut all = subjects.to_vec();
    all.insert(plant % (all.len() + 1), query.to_vec());
    let mut set = SequenceSet::new(alphabet);
    for (i, s) in all.into_iter().enumerate() {
        set.push(Sequence::from_codes(format!("s{i}"), alphabet, s))
            .unwrap();
    }
    set
}

/// Run all three device paths, sorted and unsorted, against the oracle.
fn check_device_paths(
    query: &[u8],
    db: &SequenceSet,
    scheme: &ScoringScheme,
) -> Result<(), TestCaseError> {
    let want: Vec<i32> = db
        .iter()
        .map(|s| gotoh_score(query, s.codes(), scheme))
        .collect();
    let longest = db.iter().map(|s| s.len() as u64).max().unwrap();
    for sorted in [false, true] {
        let mut dev = GpuDevice::new(DeviceSpec::toy(1 << 20));
        let resident = dev.upload(db, sorted).unwrap();
        let got = dev.search(query, &resident, scheme).scores;
        prop_assert_eq!(&got, &want, "resident search, sorted={}", sorted);

        // Room for ~3 of the longest subjects: the database really
        // splits, and each double-buffered half still holds one subject.
        let capacity = 3 * longest;
        let mut dev = GpuDevice::new(DeviceSpec::toy(capacity));
        let serial = chunked_search(&mut dev, db, query, scheme, sorted).unwrap();
        prop_assert_eq!(&serial.scores, &want, "chunked search, sorted={}", sorted);
        let mut dev = GpuDevice::new(DeviceSpec::toy(capacity));
        let piped = overlapped_search(&mut dev, db, query, scheme, sorted).unwrap();
        prop_assert_eq!(&piped.scores, &want, "overlapped search, sorted={}", sorted);
        if db.total_residues() > capacity {
            prop_assert!(serial.chunks > 1 && piped.chunks > 1);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn device_paths_equal_gotoh_on_blosum(
        q in residues(20, 120),
        subjects in prop::collection::vec(residues(20, 140), 0..10),
        plant in 0usize..16,
        sch in blosum_scheme(),
    ) {
        let db = database(Alphabet::Protein, &q, &subjects, plant);
        check_device_paths(&q, &db, &sch)?;
    }

    #[test]
    fn device_paths_equal_gotoh_on_adversarial_dna(
        q in residues(4, 320),
        subjects in prop::collection::vec(residues(4, 200), 0..8),
        plant in 0usize..16,
        sch in adversarial_scheme(),
    ) {
        let db = database(Alphabet::Dna, &q, &subjects, plant);
        check_device_paths(&q, &db, &sch)?;
    }
}

#[test]
fn device_paths_reach_every_tier() {
    // A 600-residue DNA self-match at reward 60 scores 36_000 > i16::MAX
    // (scalar tier); a 10-residue planted prefix scores 600, past a
    // byte (16-bit tier); two-residue subjects stay in bytes.
    let scheme = ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, 60, -60), 10, 2);
    let query: Vec<u8> = (0..600u32).map(|i| ((i * 7 + i / 5) % 4) as u8).collect();
    let subjects = vec![vec![0, 1], query[..10].to_vec(), vec![3, 3]];
    let db = database(Alphabet::Dna, &query, &subjects, 2);

    // The host-side tier counts prove the case exercises all three tiers.
    let profiles = QueryProfiles::build(&query, &scheme.matrix);
    let mut stats = TierStats::default();
    for s in &db {
        tiered_score(&profiles, s.codes(), &scheme, &mut stats);
    }
    assert!(stats.byte_resolved > 0, "{stats:?}");
    assert!(stats.escalated_16 > 0, "{stats:?}");
    assert!(stats.escalated_scalar > 0, "{stats:?}");

    check_device_paths(&query, &db, &scheme).unwrap();
}
