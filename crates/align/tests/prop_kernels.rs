//! Property tests: every kernel must agree exactly with the scalar Gotoh
//! reference on arbitrary sequences and arbitrary scoring schemes, and
//! tracebacks must reconstruct alignments whose recomputed score equals
//! the reported score.

use proptest::prelude::*;
use swdual_align::banded::{banded_gotoh_score, bandwidth_for};
use swdual_align::dispatch::{Backend, QueryProfiles};
use swdual_align::scalar::{gotoh_score, sw_linear_score};
use swdual_align::striped::striped_score_exact;
use swdual_align::tiered::{tiered_score, TierStats};
use swdual_align::traceback::{self, Mode};
use swdual_bio::{Alphabet, Matrix, ScoringScheme};

/// Random protein residues (codes 0..20, the unambiguous amino acids).
fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..max_len)
}

/// Random DNA residues (codes 0..4).
fn dna_residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

/// Random scoring scheme: random match/mismatch matrix and random gap
/// penalties, including degenerate (zero) penalties.
fn scheme() -> impl Strategy<Value = ScoringScheme> {
    (1i32..12, -12i32..0, 0i32..12, 0i32..6).prop_map(|(ma, mi, gs, ge)| {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Protein, ma, mi), gs, ge)
    })
}

/// Random *biological* scheme: BLOSUM62 with random affine penalties.
fn blosum_scheme() -> impl Strategy<Value = ScoringScheme> {
    (1i32..16, 1i32..5).prop_map(|(gs, ge)| ScoringScheme::new(Matrix::blosum62().clone(), gs, ge))
}

/// Adversarial high-score schemes: match rewards spanning the byte
/// profile's bias-rejection boundary (|min| or max past 120, spread
/// past 250), so some draws force the 16-bit tier from the start while
/// others saturate bytes mid-run.
fn adversarial_scheme() -> impl Strategy<Value = ScoringScheme> {
    (60i32..160, -160i32..-60, 0i32..14, 0i32..6).prop_map(|(ma, mi, gs, ge)| {
        ScoringScheme::new(Matrix::match_mismatch(Alphabet::Dna, ma, mi), gs, ge)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn striped_agrees_with_scalar(q in residues(120), s in residues(160), sch in scheme()) {
        prop_assert_eq!(striped_score_exact(&q, &s, &sch), gotoh_score(&q, &s, &sch));
    }

    #[test]
    fn striped_agrees_on_blosum(q in residues(120), s in residues(160), sch in blosum_scheme()) {
        prop_assert_eq!(striped_score_exact(&q, &s, &sch), gotoh_score(&q, &s, &sch));
    }

    #[test]
    fn local_traceback_score_matches_and_rescoares(
        q in residues(80),
        s in residues(80),
        sch in scheme(),
    ) {
        let aln = traceback::local(&q, &s, &sch);
        prop_assert_eq!(aln.score, gotoh_score(&q, &s, &sch));
        prop_assert!(aln.is_consistent());
        prop_assert_eq!(aln.rescore(&q, &s, &sch), aln.score);
        // Local alignments never start or end with a gap column.
        if let (Some(first), Some(last)) = (aln.ops.first(), aln.ops.last()) {
            prop_assert!(first.consumes_query() && first.consumes_subject());
            prop_assert!(last.consumes_query() && last.consumes_subject());
        }
    }

    #[test]
    fn global_traceback_spans_everything(
        q in residues(60),
        s in residues(60),
        sch in blosum_scheme(),
    ) {
        let aln = traceback::global(&q, &s, &sch);
        prop_assert!(aln.is_consistent());
        prop_assert_eq!(aln.query_start, 0);
        prop_assert_eq!(aln.query_end, q.len());
        prop_assert_eq!(aln.subject_start, 0);
        prop_assert_eq!(aln.subject_end, s.len());
        prop_assert_eq!(aln.rescore(&q, &s, &sch), aln.score);
    }

    #[test]
    fn semiglobal_traceback_consumes_query(
        q in residues(50),
        s in residues(70),
        sch in blosum_scheme(),
    ) {
        let aln = traceback::align(&q, &s, &sch, Mode::SemiGlobal);
        prop_assert!(aln.is_consistent());
        if !q.is_empty() {
            prop_assert_eq!(aln.query_start, 0);
            prop_assert_eq!(aln.query_end, q.len());
            prop_assert_eq!(aln.rescore(&q, &s, &sch), aln.score);
        }
        // Semi-global ≥ global: end gaps are free.
        let global = traceback::global(&q, &s, &sch);
        prop_assert!(aln.score >= global.score);
    }

    #[test]
    fn local_dominates_other_modes(
        q in residues(50),
        s in residues(50),
        sch in blosum_scheme(),
    ) {
        // The best local score is >= any anchored variant's score.
        let local = gotoh_score(&q, &s, &sch);
        let global = traceback::global(&q, &s, &sch);
        let semi = traceback::align(&q, &s, &sch, Mode::SemiGlobal);
        prop_assert!(local >= global.score.max(0).min(local)); // trivial guard
        prop_assert!(local >= semi.score || local == 0 && semi.score <= 0);
        prop_assert!(semi.score >= global.score);
    }

    #[test]
    fn banded_is_lower_bound_and_converges(
        q in residues(70),
        s in residues(70),
        sch in blosum_scheme(),
        bw in 0usize..16,
    ) {
        let full = gotoh_score(&q, &s, &sch);
        let banded = banded_gotoh_score(&q, &s, &sch, bw, 0);
        prop_assert!(banded <= full);
        // Full-width band equals the unbanded kernel.
        let wide = bandwidth_for(q.len(), s.len(), q.len().max(s.len()));
        prop_assert_eq!(banded_gotoh_score(&q, &s, &sch, wide, 0), full);
    }

    #[test]
    fn byte_kernel_pipeline_agrees_with_scalar(
        q in residues(100),
        s in residues(140),
        sch in scheme(),
    ) {
        prop_assert_eq!(
            swdual_align::striped8::striped8_score_exact(&q, &s, &sch),
            gotoh_score(&q, &s, &sch)
        );
    }

    #[test]
    fn byte_kernel_on_blosum(q in residues(100), s in residues(140), sch in blosum_scheme()) {
        prop_assert_eq!(
            swdual_align::striped8::striped8_score_exact(&q, &s, &sch),
            gotoh_score(&q, &s, &sch)
        );
    }

    #[test]
    fn linear_space_global_matches_full_traceback(
        q in residues(70),
        s in residues(70),
        sch in scheme(),
    ) {
        let full = traceback::global(&q, &s, &sch);
        let lin = swdual_align::linspace::global_linear_space(&q, &s, &sch);
        prop_assert_eq!(lin.score, full.score);
        prop_assert!(lin.is_consistent());
        prop_assert_eq!(lin.rescore(&q, &s, &sch), lin.score);
    }

    #[test]
    fn linear_space_local_matches_scalar(
        q in residues(70),
        s in residues(70),
        sch in blosum_scheme(),
    ) {
        let lin = swdual_align::linspace::local_linear_space(&q, &s, &sch);
        prop_assert_eq!(lin.score, gotoh_score(&q, &s, &sch));
        prop_assert!(lin.is_consistent());
        if !lin.is_empty() {
            prop_assert_eq!(lin.rescore(&q, &s, &sch), lin.score);
        }
    }

    #[test]
    fn linear_gap_equals_gotoh_with_zero_open(
        q in residues(90),
        s in residues(90),
        gap in 0i32..8,
        ma in 1i32..8,
        mi in -8i32..0,
    ) {
        let m = Matrix::match_mismatch(Alphabet::Protein, ma, mi);
        let sch = ScoringScheme::new(m.clone(), 0, gap);
        prop_assert_eq!(
            sw_linear_score(&q, &s, &m, gap),
            gotoh_score(&q, &s, &sch)
        );
    }

    #[test]
    fn score_invariants(q in residues(60), s in residues(60), sch in blosum_scheme()) {
        let score = gotoh_score(&q, &s, &sch);
        // Local scores are non-negative.
        prop_assert!(score >= 0);
        // Symmetry (BLOSUM62 is symmetric).
        prop_assert_eq!(score, gotoh_score(&s, &q, &sch));
        // Self-comparison upper-bounds cross-comparison scores
        // (q vs q contains the perfect diagonal).
        let self_q = gotoh_score(&q, &q, &sch);
        prop_assert!(self_q >= score);
    }

    #[test]
    fn appending_residues_never_decreases_score(
        q in residues(40),
        s in residues(40),
        extra in residues(10),
        sch in blosum_scheme(),
    ) {
        // Local alignment over a superstring can only be at least as good.
        let base = gotoh_score(&q, &s, &sch);
        let mut s_ext = s.clone();
        s_ext.extend_from_slice(&extra);
        prop_assert!(gotoh_score(&q, &s_ext, &sch) >= base);
    }

    // ---- dispatched-backend bit-exactness -------------------------------
    //
    // Every SIMD backend reachable on this host must return results that
    // are bit-identical to the scalar lane-array oracle on BOTH kernel
    // tiers, including the `None` saturation signal — an AVX2 build that
    // escalates on different subjects than the scalar build would make
    // results host-dependent.

    #[test]
    fn backends_bit_exact_on_protein(
        q in residues(120),
        s in residues(160),
        sch in scheme(),
    ) {
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch);
        let want16 = oracle.score16(&s, &sch);
        // The oracle's word tier itself must match the Gotoh reference
        // whenever it does not saturate.
        if let Some(w) = want16 {
            prop_assert_eq!(w, gotoh_score(&q, &s, &sch));
        }
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn backends_bit_exact_on_blosum(
        q in residues(120),
        s in residues(160),
        sch in blosum_scheme(),
    ) {
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch);
        let want16 = oracle.score16(&s, &sch);
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn backends_bit_exact_on_adversarial_dna(
        q in dna_residues(100),
        s in dna_residues(140),
        sch in adversarial_scheme(),
    ) {
        // High-magnitude scores: byte profiles are often rejected
        // outright and 16-bit saturation is reachable; the saturation
        // *signal* must also agree across backends.
        let oracle = QueryProfiles::build_for(Backend::Scalar, &q, &sch.matrix);
        let want8 = oracle.score8(&s, &sch);
        let want16 = oracle.score16(&s, &sch);
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            prop_assert_eq!(p.score8(&s, &sch), want8, "byte tier, backend {}", backend);
            prop_assert_eq!(p.score16(&s, &sch), want16, "word tier, backend {}", backend);
        }
    }

    #[test]
    fn tiered_pipeline_exact_on_every_backend(
        q in residues(90),
        subjects in prop::collection::vec(residues(120), 0..6),
        sch in blosum_scheme(),
    ) {
        for backend in Backend::available() {
            let p = QueryProfiles::build_for(backend, &q, &sch.matrix);
            let mut stats = TierStats::default();
            for s in &subjects {
                prop_assert_eq!(
                    tiered_score(&p, s, &sch, &mut stats),
                    gotoh_score(&q, s, &sch),
                    "backend {}", backend
                );
            }
            prop_assert_eq!(stats.subjects, subjects.len() as u64);
            prop_assert_eq!(
                stats.byte_resolved + stats.escalated_16 + stats.escalated_scalar,
                stats.subjects
            );
        }
    }
}
