//! # uic-datasets
//!
//! Everything the experiments consume:
//!
//! * [`generators`] — synthetic network generators (directed/undirected
//!   preferential attachment, Erdős–Rényi).
//! * [`cache`] — the [`SnapshotCache`]: generated networks keyed by a
//!   hash of (generator spec, scale, seed, weighting), stored in the
//!   `uic_graph::snapshot` binary format so repeated runs load in
//!   milliseconds instead of regenerating.
//! * [`networks`] — the five named stand-ins for the paper's Table 2
//!   datasets (Flixster, Douban-Book, Douban-Movie, Twitter, Orkut) at
//!   laptop scale, with the substitution rationale in DESIGN.md. Each is
//!   deterministic given its seed and carries the paper's default
//!   weighted-cascade probabilities `1/d_in(v)`.
//! * [`communities`] — deterministic multi-source-BFS community
//!   partitioning, the node → community labeling behind the
//!   per-community welfare objective.
//! * [`configs`] — the utility/budget configurations of Table 3
//!   (two-item Configs 1–4) and Table 4 (multi-item Configs 5–8),
//!   including the level-wise random supermodular generator and budget
//!   split helpers (uniform / max-min / large-skew / moderate-skew).
//! * [`real_params`] — the learned "real Param" of Table 5 (PS4 bundle:
//!   console, controller, three games) as a [`uic_items::UtilityModel`].
//! * [`spec`] — the plain-text `key=value` configuration format
//!   ([`SpecMap`], [`SolverSpec`]) that the solver registry in `uic-core`
//!   serializes its per-algorithm parameters to and from.
//! * [`auction`] — an English-auction simulator plus a hidden-bid
//!   valuation learner in the spirit of Jiang & Leyton-Brown (2007),
//!   regenerating Table-5-style parameters from synthetic bid histories
//!   (the substitution for the paper's eBay mining pipeline).

pub mod auction;
pub mod cache;
pub mod communities;
pub mod configs;
pub mod generators;
pub mod networks;
pub mod real_params;
pub mod spec;

pub use cache::{CacheKey, SnapshotCache, CACHE_ENV_VAR};
pub use communities::community_partition;
pub use configs::{budget_splits, Config, TwoItemConfig};
pub use generators::{erdos_renyi, preferential_attachment, PaOptions};
pub use networks::{named_network, network_degree_table, network_stats_table, NamedNetwork};
pub use real_params::{real_param_model, real_params_table, REAL_ITEM_NAMES};
pub use spec::{SolverSpec, SpecError, SpecMap, MAX_SPEC_PAIRS, MAX_SPEC_TEXT_LEN, MAX_TOKEN_LEN};
