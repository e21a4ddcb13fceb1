//! # uic-baselines
//!
//! The engines of the baselines of §4.3.1.2 whose machinery is their own,
//! plus the reference allocators around them. Every solver's public entry
//! point is its registry type in `uic_core::solver`
//! (`<dyn uic_core::Allocator>::by_name("bundle-disj")`); the functions
//! here are the engines those types call, and the small solvers
//! (item-disj, degree-top, PageRank-top, the budgeted BDHS) run entirely
//! inside their registry type.
//!
//! * [`mod@bundle_disj`] — **bundle-disj**: greedily forms minimum-size
//!   bundles with non-negative *deterministic* utility, allocates each
//!   bundle to a fresh seed chunk, then recycles surplus budgets into
//!   existing bundles. Needs the deterministic utilities as input
//!   (bundleGRD famously does not).
//! * [`rr_sim`] — **RR-SIM+** and **RR-CIM**: the Com-IC two-item
//!   algorithms of Lu et al., reimplemented on TIM-scale RR sampling
//!   (self-influence sets for RR-SIM+; forward-simulate the partner item
//!   then complement-aware reverse sampling for RR-CIM).
//! * [`bdhs`] — **BDHS-Step** / **BDHS-Concave**: the
//!   network-externality welfare benchmarks of Bhattacharya et al. under
//!   the paper's conversion (§4.3.4.4): every node receives the best
//!   bundle, adoption driven by 1-step live-edge support or the concave
//!   `1−(1−p)^s` 2-hop support function. No propagation, no budget —
//!   bundleGRD is swept against these horizontal benchmarks in Fig. 9.
//! * [`mc_greedy`] — the *direct* pair-greedy on the welfare objective
//!   (no guarantee — ρ is neither sub- nor supermodular — and brutally
//!   expensive; the honest strawman bundleGRD is measured against).
//! * [`heuristics`] — **PageRank**, the ranking of the `pagerank-top`
//!   comparison point (KKT'03).
//!
//! The seed-selection engines return the workspace-wide
//! [`uic_diffusion::SolveReport`] unscored — welfare statistics are
//! attached by the `Allocator::solve` entry point in `uic-core`.

pub mod bdhs;
pub mod bundle_disj;
pub mod heuristics;
pub mod mc_greedy;
pub mod rr_sim;

pub use bdhs::{bdhs_concave_welfare, bdhs_step_welfare, bdhs_step_welfare_exact, best_bundle};
pub use bundle_disj::bundle_disj;
pub use heuristics::pagerank;
pub use mc_greedy::mc_greedy_welfare_for;
pub use rr_sim::{rr_cim, rr_sim_plus};
