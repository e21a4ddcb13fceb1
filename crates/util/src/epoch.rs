//! Epoch-stamped dense maps — the zero-allocation-per-cascade state
//! substrate of the diffusion engine.
//!
//! [`EpochMap`] generalizes the [`VisitTags`](crate::VisitTags) trick from
//! "was slot `i` visited?" to "what value does slot `i` hold this round?":
//! a flat value array plus a generation-stamp array, where `reset()` is a
//! single epoch bump instead of an `O(n)` clear. A slot's value is only
//! meaningful while its stamp equals the current epoch, so a Monte-Carlo
//! loop can run millions of cascades against the same allocation without
//! touching the allocator or re-zeroing node state.

/// A dense `usize → T` map over a fixed key range with `O(1)` bulk reset.
///
/// Values live in a flat `Box<[T]>`; a parallel stamp array records the
/// epoch in which each slot was last written. [`EpochMap::reset`]
/// increments the epoch, logically emptying the map without writing the
/// value array at all. The stamp array is only rewritten on the
/// (effectively impossible) `u32` epoch wraparound.
#[derive(Debug, Clone)]
pub struct EpochMap<T> {
    values: Box<[T]>,
    stamp: Box<[u32]>,
    epoch: u32,
}

impl<T: Copy + Default> EpochMap<T> {
    /// Creates an empty map addressing keys `0..n`.
    pub fn new(n: usize) -> Self {
        EpochMap {
            values: vec![T::default(); n].into_boxed_slice(),
            stamp: vec![0; n].into_boxed_slice(),
            epoch: 1,
        }
    }

    /// Number of addressable slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the map addresses zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Logically removes every entry in `O(1)`.
    #[inline]
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: physically clear once every 2^32 resets.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether slot `i` holds a value written since the last reset.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// The current value of slot `i`, if written since the last reset.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if self.contains(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// The current value of slot `i`, or `T::default()` if unwritten.
    #[inline]
    pub fn get_or_default(&self, i: usize) -> T {
        if self.contains(i) {
            self.values[i]
        } else {
            T::default()
        }
    }

    /// Writes `v` into slot `i`; returns whether the slot was previously
    /// unwritten in this epoch.
    #[inline]
    pub fn insert(&mut self, i: usize, v: T) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        self.values[i] = v;
        fresh
    }

    /// Mutable access to slot `i`, default-initializing it if unwritten.
    /// Returns `(value, fresh)` where `fresh` says whether this call
    /// created the entry.
    #[inline]
    pub fn slot(&mut self, i: usize) -> (&mut T, bool) {
        let fresh = self.stamp[i] != self.epoch;
        if fresh {
            self.stamp[i] = self.epoch;
            self.values[i] = T::default();
        }
        (&mut self.values[i], fresh)
    }

    /// Mutable access to slot `i` if it was written since the last reset.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if self.stamp[i] == self.epoch {
            Some(&mut self.values[i])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_reset() {
        let mut m: EpochMap<u64> = EpochMap::new(4);
        assert_eq!(m.len(), 4);
        assert!(!m.contains(2));
        assert!(m.insert(2, 7));
        assert!(!m.insert(2, 9));
        assert_eq!(m.get(2), Some(9));
        assert_eq!(m.get(0), None);
        assert_eq!(m.get_or_default(0), 0);
        m.reset();
        assert_eq!(m.get(2), None);
        assert!(m.insert(2, 1), "fresh again after reset");
    }

    #[test]
    fn slot_default_initializes_once() {
        let mut m: EpochMap<(u32, u32)> = EpochMap::new(3);
        m.insert(1, (5, 6));
        m.reset();
        let (v, fresh) = m.slot(1);
        assert!(fresh, "stale value from the prior epoch must not leak");
        assert_eq!(*v, (0, 0));
        v.0 = 9;
        let (v, fresh) = m.slot(1);
        assert!(!fresh);
        assert_eq!(*v, (9, 0));
    }

    #[test]
    fn get_mut_respects_epochs() {
        let mut m: EpochMap<u8> = EpochMap::new(2);
        assert!(m.get_mut(0).is_none());
        m.insert(0, 3);
        *m.get_mut(0).unwrap() += 1;
        assert_eq!(m.get(0), Some(4));
        m.reset();
        assert!(m.get_mut(0).is_none());
    }

    #[test]
    fn survives_many_resets() {
        let mut m: EpochMap<u32> = EpochMap::new(2);
        for round in 0..10_000u32 {
            m.reset();
            assert!(!m.contains(0));
            m.insert(0, round);
            assert_eq!(m.get(0), Some(round));
            assert!(!m.contains(1));
        }
    }

    #[test]
    fn empty_maps() {
        let m: EpochMap<u8> = EpochMap::new(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
