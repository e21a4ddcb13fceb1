//! # uic-util
//!
//! Shared low-level utilities for the UIC workspace:
//!
//! * [`fxhash`] — a fast, non-cryptographic hasher (FxHash) plus `HashMap`/
//!   `HashSet` aliases tuned for small integer keys, per the Rust perf-book
//!   guidance for hashing-heavy database workloads.
//! * [`bitset`] — dense bitsets and a timestamped visit-tag array that makes
//!   repeated graph traversals O(1) to "clear".
//! * [`epoch`] — epoch-stamped dense maps ([`EpochMap`]) generalizing the
//!   visit-tag trick to arbitrary per-slot values; the
//!   zero-allocation-per-cascade state substrate of the diffusion engine.
//! * [`hint`] — [`prefetch`], the one cache hint the reverse RR walks and
//!   the forward cascade kernel issue ahead of their queues.
//! * [`parallel`] — the shared worker-count heuristic
//!   ([`parallelism`]) used by every fork-join loop (RR-set generation,
//!   welfare estimation) so sizing policy lives in exactly one place,
//!   with a process-wide cached hardware width overridable via the
//!   `UIC_THREADS` environment variable.
//! * [`rng`] — deterministic, splittable random number generation
//!   (SplitMix64 seeding + xoshiro256++ streams) so that every experiment in
//!   the reproduction is replayable from a single `u64` seed, independent of
//!   thread count.
//! * [`special`] — special functions (`ln_gamma`, `log_choose`, `normal_cdf`)
//!   needed by the IMM/PRIMA sample-size bounds (Eqs. 7–8 of the paper) and
//!   the GAP-parameter conversion (Eq. 12).
//! * [`stats`] — streaming mean/variance and confidence intervals for
//!   Monte-Carlo estimators.
//! * [`table`] — a tiny aligned-table / CSV renderer used by the experiment
//!   harness to print the paper's tables and figure series.
//! * [`json`] — a deterministic, serde-free compact JSON writer
//!   ([`JsonWriter`]) used by the `uic-serve` response path.
//! * [`metrics`] — lock-free service instrumentation: monotone
//!   [`Counter`]s and a fixed-window [`LatencyRing`] for p50/p99
//!   snapshots.
//! * `failpoint` — deterministic fault injection
//!   ([`fail_point!`](crate::fail_point)) for chaos testing the serving
//!   stack; compiled to empty blocks unless the `failpoints` cargo
//!   feature is enabled.

pub mod bitset;
pub mod epoch;
pub mod failpoint;
pub mod fxhash;
pub mod hint;
pub mod json;
pub mod metrics;
pub mod parallel;
pub mod rng;
pub mod special;
pub mod stats;
pub mod table;

pub use bitset::{BitSet, VisitTags};
pub use epoch::EpochMap;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hint::prefetch;
pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, LatencyRing};
pub use parallel::{hardware_parallelism, parallelism, THREADS_ENV_VAR};
pub use rng::{coin_threshold, split_seed, UicRng};
pub use special::{ln_gamma, log_choose, normal_cdf, normal_quantile};
pub use stats::{mean, OnlineStats};
pub use table::Table;

/// Injects a named failpoint. With the `failpoints` cargo feature *of
/// the calling crate* enabled (which must forward to
/// `uic-util/failpoints`), the point consults the
/// `failpoint` registry; otherwise the macro expands to an empty
/// block — zero code, zero cost.
///
/// Two forms:
///
/// ```ignore
/// // Side-effect only: `delay(ms)` sleeps, `panic` panics, `return`
/// // rules are evaluated but ignored (no failure arm here).
/// uic_util::fail_point!("serve.dispatch");
///
/// // With a failure arm: a fired `return` rule early-returns the
/// // closure's value from the enclosing function.
/// uic_util::fail_point!("serve.topup", || Err(ServeError::new(..)));
/// ```
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            let _ = $crate::failpoint::eval($name);
        }
    }};
    ($name:expr, $on_trigger:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            if $crate::failpoint::eval($name) {
                #[allow(clippy::redundant_closure_call)]
                return ($on_trigger)();
            }
        }
    }};
}
