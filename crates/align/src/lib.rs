//! # swdual-align — Smith-Waterman / Gotoh alignment kernels
//!
//! Implements the comparison algorithms of the paper (§II). The
//! baselines it measures against (§V, Table I: SWIPE, STRIPED, SWPS3)
//! enter the reproduction as calibrated rates in `platform::calib`, not
//! as separate kernels here; this crate is what actually computes every
//! score on the host:
//!
//! * [`scalar`] — reference implementations: linear-gap Smith-Waterman
//!   (paper Eq. 1) and the Gotoh affine-gap recurrences (Eqs. 2–4).
//!   Every other kernel is property-tested against these.
//! * [`traceback`] — full-matrix alignment with traceback, producing an
//!   [`alignment::Alignment`] like the paper's Figure 1 (local, global
//!   and semi-global modes).
//! * [`banded`] — banded Gotoh for bounded-divergence comparisons.
//! * [`profile`] — query profiles: the substitution matrix re-indexed by
//!   query position, the layout trick shared by STRIPED, SWIPE and
//!   CUDASW++.
//! * [`striped`] — Farrar's striped vertical SIMD kernel [18]
//!   (the STRIPED baseline), with saturating 16-bit lanes and scalar
//!   recompute on overflow; [`striped8`] is its biased-byte twin.
//!
//! All kernels consume residues already encoded by `swdual-bio` and score
//! with a [`swdual_bio::ScoringScheme`]. Scores are `i32` end-to-end;
//! vectorised kernels use narrower saturating lanes internally and fall
//! back to the scalar kernel when a score would overflow the lane type —
//! exactly how SWIPE and STRIPED handle the same problem.
//!
//! On top of the kernels sits a runtime [`dispatch`] layer (detect the
//! host ISA once, route through AVX2 / NEON / `std::simd` / scalar
//! backends), a [`profile_cache`] that reuses built query profiles
//! across jobs, and the [`tiered`] SWIPE-style pipeline (byte lanes →
//! 16-bit lanes → scalar), the one database scoring path: CPU workers
//! and the simulated GPU both score every subject through
//! [`QueryProfiles`] + [`tiered_score`].

#![cfg_attr(feature = "portable-simd", feature(portable_simd))]

pub mod alignment;
pub mod banded;
pub mod dispatch;
pub mod linspace;
pub mod profile;
pub mod profile_cache;
pub mod scalar;
pub mod simd_avx2;
pub mod simd_neon;
pub mod simd_portable;
pub mod striped;
pub mod striped8;
pub mod tiered;
pub mod traceback;
pub mod wide;

pub use alignment::{AlignOp, Alignment};
pub use dispatch::{Backend, QueryProfiles};
pub use profile_cache::ProfileCache;
pub use scalar::{gotoh_score, sw_linear_score};
pub use tiered::{tiered_score, TierStats};
