//! # uic-graph
//!
//! Compact directed influence graphs for the UIC reproduction.
//!
//! A social network `G = (V, E, p)` is stored in **compressed sparse row**
//! (CSR) form with `u32` node ids and `f32` edge probabilities, in both
//! forward (out-neighbor) and reverse (in-neighbor) orientation — forward
//! for cascade simulation, reverse for RR-set sampling. This mirrors the
//! layouts used by production IM codebases and follows the perf-book
//! guidance (small integer ids, contiguous adjacency, no per-node
//! allocations).
//!
//! Edge weights live behind a compact representation
//! ([`EdgeWeights`]): weighted-cascade and constant-probability graphs
//! derive every probability from the CSR structure and allocate **zero**
//! per-edge weight bytes; consumers branch on the structural
//! [`WeightClass`] instead of scanning lists for uniformity.
//!
//! Modules:
//! * [`graph`] — the [`Graph`] type, CSR accessors, and the
//!   [`ArcProbs`] per-node probability views.
//! * [`builder`] — [`GraphBuilder`] plus edge-probability [`Weighting`]
//!   schemes (weighted cascade `1/d_in(v)`, constant, trivalency, uniform).
//! * [`snapshot`] — the versioned binary snapshot format (magic, version,
//!   checksum, bulk little-endian CSR sections) with typed load errors.
//!   Sections are padded to alignment boundaries so files load
//!   **zero-copy**: checksum-verify, then pointer-cast section views
//!   over one mapped (or owned, aligned) buffer. Any other format
//!   version is rejected as unsupported.
//! * [`storage`] — [`SectionStorage`], the owned-or-borrowed section
//!   representation behind every CSR array.
//! * [`traversal`] — Tarjan SCC and subgraph extraction (used to take
//!   the largest SCC of the Flixster stand-in and BFS prefixes for the
//!   scalability test).
//! * [`community`] — node → community labelings ([`CommunityLabels`]),
//!   the graph-side carrier for fairness-aware welfare objectives.
//! * [`io`] — plain-text edge-list reader/writer.
//! * [`stats`] — the degree statistics reported in Table 2.

pub mod builder;
pub mod community;
pub mod graph;
pub mod io;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod traversal;

pub use builder::{GraphBuilder, Weighting};
pub use community::{CommunityError, CommunityLabels};
pub use graph::{
    ArcProbs, EdgeWeights, Graph, GraphError, MemoryFootprint, NodeId, WeightClass, WeightSpec,
};
pub use snapshot::{
    load_snapshot, load_snapshot_owned, read_snapshot, read_snapshot_bytes, save_snapshot,
    write_snapshot, SnapshotError,
};
pub use stats::GraphStats;
pub use storage::{SectionElem, SectionStorage};
pub use traversal::{
    bfs_prefix_subgraph, induced_subgraph, largest_scc, strongly_connected_components,
};
