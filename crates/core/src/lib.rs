//! # uic-core
//!
//! The paper's primary contribution: **social-welfare maximization under
//! the UIC model** (WelMax, Problem 1) and the **bundleGRD** greedy
//! allocation algorithm (Algorithm 1) with its `(1 − 1/e − ε)`
//! approximation guarantee (Theorem 2).
//!
//! * [`problem`] — [`WelMaxInstance`]: graph + utility model + budget
//!   vector, with the canonical budget-sorted item indexing, assembled
//!   by the [`WelMax`] builder.
//! * [`accounting`] — the block-accounting welfare decomposition of
//!   Lemma 5 (`ρ_{W^N}(𝒮^Grd) = Σ_i σ(S_i^GrdE)·Δ_i`) and the Lemma 7
//!   upper bound for arbitrary allocations — used by tests and the
//!   ablation experiments to cross-validate the Monte-Carlo estimator.
//! * [`exact`] — brute-force WelMax solver for tiny instances (exhaustive
//!   allocation search over exact welfare), powering empirical
//!   approximation-ratio checks.
//! * [`solver`] — the unified solver API and the one entry point of every
//!   algorithm: the [`Allocator`] trait over all ten registry entries
//!   (bundleGRD, the eight baselines and the warm-arena `warm-grd`), the
//!   string-keyed [`solver::registry`], and typed per-algorithm parameter
//!   structs with config-text serialization. [`solver::BundleGrd`] is
//!   bundleGRD itself: run PRIMA once on the budget vector, then assign
//!   item `i` to the top-`b_i` seeds of the shared ordering. Notably the
//!   algorithm never reads the valuation, prices, or noise — the
//!   guarantee only needs *supermodular valuation + additive price/noise*
//!   (§4.2.1: "It reflects the power of bundling").
//! * [`objective`] — [`ObjectiveSpec`]: the `objective=` key of the spec
//!   text format, resolving to the pluggable welfare objectives of
//!   `uic-diffusion` (utilitarian / maximin / CES / per-community).

pub mod accounting;
pub mod exact;
pub mod objective;
pub mod problem;
pub mod solver;

pub use accounting::{greedy_welfare_decomposition, upper_bound_welfare};
pub use exact::solve_welmax_bruteforce;
pub use objective::{ObjectiveSpec, PER_COMMUNITY_PARTITION_SEED};
pub use problem::{InstanceError, WelMax, WelMaxInstance};
pub use solver::{
    registry, score_report, Allocator, RegistryEntry, RegistryError, SolveCtx, Unsupported, WarmGrd,
};
// The unified report type lives in uic-diffusion (below every algorithm
// crate); re-export it here so `uic_core::{Allocator, SolveReport}` is a
// complete import for solver users.
pub use uic_diffusion::SolveReport;
