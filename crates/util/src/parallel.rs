//! Worker-count sizing shared by every fork-join loop in the workspace.
//!
//! Both the RR-set generator and the welfare estimator need the same
//! decision: how many scoped threads are worth spawning for `work_items`
//! independent tasks? Spawning is only profitable when each worker gets a
//! minimum useful chunk (the `grain`), so the answer is
//! `min(hardware, ⌈work_items / grain⌉)`, never less than one.
//!
//! The hardware width is resolved **once per process** (see
//! [`hardware_parallelism`]): `available_parallelism()` takes a syscall
//! on some platforms, and several hot loops size themselves per call.
//! The `UIC_THREADS` environment variable overrides the detected width
//! globally, so benches and CI can pin every fork-join loop to a fixed
//! width without touching individual `with_threads` call sites.

use std::sync::OnceLock;

/// Environment variable that pins the process-wide worker width (any
/// positive integer). Read once, at the first sizing decision.
pub const THREADS_ENV_VAR: &str = "UIC_THREADS";

/// Pure resolution logic behind [`hardware_parallelism`], separated so
/// the override parsing is unit-testable without mutating the process
/// environment: a parseable positive `UIC_THREADS` wins, anything else
/// falls back to the detected width.
fn resolve_width(env: Option<&str>, detected: usize) -> usize {
    env.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(detected)
        .max(1)
}

/// The process-wide worker width every fork-join loop sizes against:
/// `available_parallelism()` (queried **once**, then cached — hot loops
/// re-size on every call) unless the `UIC_THREADS` environment variable
/// pins a different width.
pub fn hardware_parallelism() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let detected = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let env = std::env::var(THREADS_ENV_VAR).ok();
        resolve_width(env.as_deref(), detected)
    })
}

/// Number of worker threads for `work_items` independent tasks of
/// roughly uniform cost, given the minimum useful chunk `grain` (items
/// per worker below which spawn overhead dominates).
///
/// Returns at least 1 and never exceeds [`hardware_parallelism`], so the
/// result can be fed straight into a scoped-thread spawn loop. A `grain`
/// of 0 is treated as 1.
///
/// ```
/// // One item can never use two workers…
/// assert_eq!(uic_util::parallelism(1, 256), 1);
/// // …and a zero-item loop still gets a (degenerate) single worker.
/// assert_eq!(uic_util::parallelism(0, 64), 1);
/// ```
pub fn parallelism(work_items: usize, grain: usize) -> usize {
    hardware_parallelism()
        .min(work_items.div_ceil(grain.max(1)))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workloads_stay_sequential() {
        assert_eq!(parallelism(0, 256), 1);
        assert_eq!(parallelism(1, 256), 1);
        assert_eq!(parallelism(256, 256), 1);
    }

    #[test]
    fn worker_count_is_bounded_by_work_and_hardware() {
        // `hardware_parallelism` (not raw available_parallelism): the
        // suite must hold under a `UIC_THREADS` pin too (the 2-thread CI
        // job runs with it set).
        let hw = hardware_parallelism();
        // Enough work for every core: capped by hardware only.
        assert_eq!(parallelism(hw * 1000, 1), hw);
        // Work for exactly three grains: at most three workers.
        assert_eq!(parallelism(300, 100), hw.min(3));
    }

    #[test]
    fn zero_grain_is_treated_as_one() {
        let hw = hardware_parallelism();
        assert_eq!(parallelism(4, 0), hw.min(4));
    }

    #[test]
    fn width_is_cached_and_stable() {
        let a = hardware_parallelism();
        let b = hardware_parallelism();
        assert_eq!(a, b);
        assert!(a >= 1);
    }

    #[test]
    fn env_override_resolution() {
        assert_eq!(resolve_width(None, 8), 8);
        assert_eq!(resolve_width(Some("2"), 8), 2);
        assert_eq!(resolve_width(Some(" 16 "), 1), 16);
        // Unparseable, empty, and zero values fall back to detection.
        assert_eq!(resolve_width(Some("many"), 8), 8);
        assert_eq!(resolve_width(Some(""), 8), 8);
        assert_eq!(resolve_width(Some("0"), 8), 8);
        // Detection of 0 (cannot happen, but) still yields a worker.
        assert_eq!(resolve_width(None, 0), 1);
    }
}
