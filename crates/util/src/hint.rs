//! Cache hints shared by the hot graph walks.

/// Asks the CPU to pull the cache line holding `p` into L1. Any address
/// is allowed, even one past a slice's end: a prefetch never faults and
/// has no observable effect besides timing. A no-op off x86-64.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a cache hint with no memory-safety
    // preconditions; it never dereferences `p` architecturally.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
