//! Dense bitsets and timestamped visit tags for graph traversal.
//!
//! [`BitSet`] is a plain `u64`-word bitset. [`VisitTags`] avoids the
//! `O(n)` clear between traversals that dominates RR-set sampling: each
//! traversal bumps an epoch counter and a slot counts as "visited" only if
//! its stored stamp equals the current epoch.

/// A fixed-capacity dense bitset over `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset addresses zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`; returns whether it was previously unset.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Clears bit `i`; returns whether it was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Zeroes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears the set and re-sizes it to `len` bits, reusing the word
    /// buffer whenever its capacity allows — the scratch-reuse path of
    /// per-query selection state (no allocation once the buffer has
    /// grown to the working-set size).
    pub fn reset_to(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// In-place union with `other` (must have the same length).
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other` (must have the same length).
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |&m| m + 1);
        let mut bs = BitSet::new(len);
        for i in items {
            bs.insert(i);
        }
        bs
    }
}

/// Timestamped visit marks: `O(1)` reset between traversals.
///
/// A slot is considered marked iff its stored stamp equals the current
/// epoch; `reset()` merely increments the epoch. The stamp array is only
/// rewritten on the (effectively impossible) `u32` epoch wraparound.
#[derive(Debug, Clone)]
pub struct VisitTags {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitTags {
    /// Creates tags for `n` slots, all unmarked.
    pub fn new(n: usize) -> Self {
        VisitTags {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// True if there are no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Unmarks every slot in `O(1)`.
    #[inline]
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: physically clear once every 2^32 resets.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks slot `i`; returns whether it was previously unmarked.
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    /// Tests whether slot `i` is marked in the current epoch.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Hints that slot `i` will be marked or tested soon: pulls its
    /// stamp's cache line toward the core. A hint only; it changes no
    /// result.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        crate::prefetch(self.stamp.as_ptr().wrapping_add(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bs = BitSet::new(130);
        assert!(bs.insert(0));
        assert!(bs.insert(64));
        assert!(bs.insert(129));
        assert!(!bs.insert(64));
        assert!(bs.contains(0) && bs.contains(64) && bs.contains(129));
        assert!(!bs.contains(1));
        assert_eq!(bs.count(), 3);
        assert!(bs.remove(64));
        assert!(!bs.remove(64));
        assert_eq!(bs.count(), 2);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut bs = BitSet::new(200);
        for &i in &[5usize, 63, 64, 65, 199] {
            bs.insert(i);
        }
        let got: Vec<usize> = bs.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn union_and_intersection() {
        let a: BitSet = [1usize, 3, 5].into_iter().collect();
        let mut a = {
            let mut big = BitSet::new(10);
            for i in a.iter() {
                big.insert(i);
            }
            big
        };
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(4);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut bs = BitSet::new(100);
        bs.insert(99);
        bs.clear();
        assert_eq!(bs.count(), 0);
    }

    #[test]
    fn reset_to_reuses_capacity_and_clears() {
        let mut bs = BitSet::new(512);
        bs.insert(511);
        let buf = bs.words.as_ptr();
        bs.reset_to(100);
        assert_eq!(bs.len(), 100);
        assert_eq!(bs.count(), 0);
        assert!(bs.insert(99));
        bs.reset_to(512);
        assert_eq!(bs.len(), 512);
        assert_eq!(bs.count(), 0, "stale bits must not leak through resize");
        assert_eq!(bs.words.as_ptr(), buf, "shrink+regrow reuses the buffer");
        bs.reset_to(0);
        assert!(bs.is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let bs: BitSet = [2usize, 9].into_iter().collect();
        assert_eq!(bs.len(), 10);
        assert!(bs.contains(9));
    }

    #[test]
    fn visit_tags_reset_is_logical() {
        let mut vt = VisitTags::new(5);
        assert!(vt.mark(2));
        assert!(!vt.mark(2));
        assert!(vt.is_marked(2));
        vt.reset();
        assert!(!vt.is_marked(2));
        assert!(vt.mark(2));
    }

    #[test]
    fn visit_tags_survive_many_resets() {
        let mut vt = VisitTags::new(3);
        for _ in 0..10_000 {
            vt.reset();
            assert!(vt.mark(1));
            assert!(vt.is_marked(1));
            assert!(!vt.is_marked(0));
        }
    }

    #[test]
    fn empty_sets() {
        let bs = BitSet::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.iter().count(), 0);
        let vt = VisitTags::new(0);
        assert!(vt.is_empty());
    }
}
