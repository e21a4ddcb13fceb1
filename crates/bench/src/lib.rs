//! # uic-bench
//!
//! Criterion micro-benchmarks of single layers, each the source of a
//! number recorded in a `BENCH_*.json` file or the README. Run one with
//! `cargo bench -p uic-bench --bench <name>`; end-to-end and per-layer
//! numbers come from the `uic-bench/` harness, and full-scale paper
//! tables and figures from the `uic-exp` binary.
//!
//! Targets:
//! * `engine` — the dense cascade engine against its hash-map reference.
//! * `graph_io` — stand-in generation against snapshot save and load.
//! * `rrset_pipeline` — RR-set generation plus greedy seed selection.
//! * `scaling` — RR generation, selection and welfare at pinned worker
//!   counts.
//! * `selection_plan` — cold greedy selection against plan-cache slices.
//! * `serve_latency` — per-query latency and throughput over loopback
//!   TCP against an in-process `uic-serve`.
//! * `welfare_objectives` — estimator cost per welfare objective.
