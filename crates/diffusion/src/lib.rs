//! # uic-diffusion
//!
//! Diffusion-model simulation and estimation for the UIC reproduction:
//!
//! * [`allocation`] — seed allocations `𝒮 ⊆ V × I` with per-item budget
//!   validation (§3.2.1).
//! * [`ic`] — the classic single-item Independent Cascade model: forward
//!   simulation, Monte-Carlo spread `σ(S)`, and exact spread by edge-world
//!   enumeration on tiny graphs.
//! * [`lt`] — the Linear Threshold model (needed because §5 notes the
//!   results "carry over unchanged to any triggering model"): the forward
//!   reference simulator that `uic-im`'s LT RR-set sampler is tested
//!   against.
//! * [`worlds`] — sampled live-edge worlds `W^E` and their enumeration
//!   with probabilities (the possible-world semantics of §4.1.1).
//! * [`engine`] — the one UIC cascade kernel ([`CascadeState`]): one
//!   stamped record per node, live out-edge spans per expanded node (no
//!   per-edge memo), integer-threshold coins keyed by weight class, an
//!   ordered outcome from a two-level bitset, and the
//!   [`engine::EdgeOracle`] trait unifying lazy sampling with
//!   fixed-world replay. The kernel allocates nothing per cascade after
//!   warm-up.
//! * [`uic`] — the paper's multi-item **utility-driven IC** diffusion
//!   (Fig. 1): desire/adoption sets, one-shot edge tests, per-noise-world
//!   adoption oracle. A thin API layer over [`engine`].
//! * [`objective`] — pluggable [`WelfareObjective`] aggregations
//!   (utilitarian, maximin, CES, per-community) applied per possible
//!   world; the utilitarian default reproduces the paper bit-for-bit.
//! * [`welfare`] — Monte-Carlo social-welfare estimation
//!   `ρ(𝒮) = E_{W^N} E_{W^E} [ Σ_v U(A_v) ]`, parallelized with
//!   deterministic seed splitting; plus exact tiny-instance welfare.
//! * [`report`] — [`SolveReport`], the unified result every WelMax
//!   allocator returns: allocation, welfare mean ± CI, timing, RR-set
//!   counters, seed, and budget usage.

pub mod allocation;
pub mod engine;
pub mod ic;
pub mod lt;
pub mod objective;
pub mod personalized;
pub mod report;
pub mod uic;
pub mod welfare;
pub mod worlds;

pub use allocation::Allocation;
pub use engine::{CascadeState, EdgeOracle, LazyCoins, WorldOracle};
pub use ic::{exact_spread, simulate_ic, spread_mc};
pub use lt::simulate_lt;
pub use objective::{
    default_objective, Ces, Maximin, ObjectiveError, PerCommunity, Utilitarian, WelfareObjective,
};
pub use personalized::{
    personalized_welfare_mc, simulate_uic_personalized, PersonalizedOutcome, PersonalizedSimulator,
};
pub use report::SolveReport;
pub use uic::{simulate_uic, simulate_uic_in_world, UicOutcome, UicSimulator};
pub use welfare::{exact_welfare_given_noise, exact_welfare_given_noise_for, WelfareEstimator};
pub use worlds::{enumerate_edge_worlds, LiveEdgeWorld};
