//! `uic-bench`: the workspace's one benchmark harness.
//!
//! Four workloads (see [`workloads`]) drive the program only through
//! its public API and the `uic-serve` binary, and report the
//! end-to-end metrics of `BENCHMARK.json` from untimed-by-tracing runs
//! and the per-layer metrics from a separate traced replay (see
//! [`layers`]). Every run checks the program's answers; a failed check
//! fails the run. See `README.md` beside this crate for the command
//! line, the metric table and how to read a trace.

pub mod affinity;
pub mod arena;
pub mod compare;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod offline;
pub mod report;
pub mod server;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod workloads;
