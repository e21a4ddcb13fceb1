//! # uic-im
//!
//! Scalable influence-maximization machinery (§2.1 and §4.2.3 of the
//! paper), built on reverse-reachable (RR) set sampling:
//!
//! * [`rrset`] — RR-set samplers for the IC and LT models with
//!   deterministic per-set seed splitting and parallel batch generation;
//!   [`rrset::RrCollection`] owns the sampled sets in a flat CSR arena
//!   with a persistent, incrementally-grown inverted index, and custom
//!   reverse processes plug in through [`rrset::RrSampler`].
//! * [`mod@node_selection`] — the greedy max-coverage `NodeSelection`
//!   procedure shared by all RIS algorithms (returns the full greedy
//!   *ordering* plus cumulative coverage, which is what makes prefix
//!   reuse possible), built on a zero-allocation epoch-stamped CELF
//!   kernel.
//! * [`mod@plan`] — [`plan::SelectionPlan`]: one memoized greedy run
//!   per arena prefix, answering smaller budgets as `O(k)` slices and
//!   larger ones by resuming the cached CELF state bit-identically —
//!   the serving layer's query plan cache.
//! * [`mod@imm`] — IMM of Tang et al. (2015) with the Chen (2018) fix: the
//!   final RR collection is regenerated from scratch before the last
//!   `NodeSelection`. It is PRIMA on the single budget `[k]`.
//! * [`mod@prima`] — **PRIMA** (Algorithm 2): the prefix-preserving
//!   multi-budget IMM extension that powers bundleGRD; its seed ordering
//!   is simultaneously near-optimal for *every* budget in the vector.
//!   One certification loop over a [`WarmArena`] serves IMM, offline
//!   PRIMA (final selection on regenerated sets) and the warm-arena
//!   [`warm_prima_on`] (final selection on the arena prefix).
//! * [`greedy`] — CELF-style lazy greedy over an arbitrary monotone
//!   submodular oracle (exact spread on tiny graphs in tests; MC spread
//!   otherwise), used to validate approximation ratios empirically.
//! * [`mod@opim`] — OPIM-C (Tang et al., 2018): online doubling with
//!   per-round lower/upper approximation certificates. Named in §4.2.3
//!   as not prefix-preserving.

pub mod greedy;
pub mod imm;
pub mod node_selection;
pub mod opim;
pub mod plan;
pub mod prima;
pub mod rrset;

pub use greedy::{greedy_celf, greedy_mc_spread};
pub use imm::{imm, ImmResult};
pub use node_selection::{node_selection, node_selection_prefix_indexed, NodeSelectionResult};
pub use opim::{opim_c, OpimResult};
pub use plan::SelectionPlan;
pub use prima::{prima, warm_prima, warm_prima_on, ExclusiveArena, PrimaResult, WarmArena};
pub use rrset::{DiffusionModel, RrCollection, RrSampler, StandardRrSampler};
