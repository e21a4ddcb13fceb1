//! The adoption decision of the UIC model.
//!
//! Fig. 1, step 3: a node with desire set `R` and current adoption `A`
//! adopts `T* = argmax { U(T) | A ⊆ T ⊆ R, U(T) ≥ 0 }`, breaking utility
//! ties in favor of **larger** sets. Lemma 1 shows the union of maximizers
//! is itself a maximizer, so the canonical tie-break result is the union
//! of all maximizing sets — that is what [`AdoptionOracle::adopt`]
//! returns, making node behavior well-defined (Lemma 2: the result is
//! always a local maximum).
//!
//! Decisions are memoized on `(desire, adopted)` — across a cascade most
//! nodes face a handful of distinct situations, so memoization turns the
//! `2^|R∖A|` enumeration into a table lookup. With at most four items
//! the memo is a flat array indexed by the two masks (no hashing, no
//! allocation); larger universes use a hash map.

use crate::itemset::ItemSet;
use crate::utility::UtilityTable;
use uic_util::FxHashMap;

/// Utility-equality tolerance for tie detection.
const TIE_EPS: f64 = 1e-9;

/// Item universes up to this size memoize in a flat array of
/// `4^k ≤ 256` entries.
const DENSE_MEMO_ITEMS: u32 = 4;

/// Memoized adoption decisions against a fixed noise world's utilities.
#[derive(Debug)]
pub struct AdoptionOracle<'a> {
    table: &'a UtilityTable,
    /// The memo up to `DENSE_MEMO_ITEMS` items: entry
    /// `desire << k | adopted` holds the decided mask + 1, or 0 while
    /// undecided.
    dense: [u8; 256],
    /// The memo of larger universes.
    hashed: FxHashMap<(u32, u32), ItemSet>,
    /// Enumeration calls actually performed (diagnostics/benches).
    misses: u64,
    /// Total queries served.
    queries: u64,
}

impl<'a> AdoptionOracle<'a> {
    /// New oracle over a noise world's utility table.
    pub fn new(table: &'a UtilityTable) -> AdoptionOracle<'a> {
        AdoptionOracle {
            table,
            dense: [0; 256],
            hashed: FxHashMap::default(),
            misses: 0,
            queries: 0,
        }
    }

    /// The adoption decision: the canonical (union-of-maximizers) itemset
    /// `T*` with `adopted ⊆ T* ⊆ desire` maximizing `U`, requiring
    /// `U(T*) ≥ 0`.
    ///
    /// Panics if `adopted ⊄ desire` (the model maintains `A ⊆ R`).
    pub fn adopt(&mut self, desire: ItemSet, adopted: ItemSet) -> ItemSet {
        assert!(
            adopted.is_subset_of(desire),
            "adopted {adopted} must be a subset of desire {desire}"
        );
        self.queries += 1;
        let k = self.table.num_items();
        if k <= DENSE_MEMO_ITEMS {
            let slot = (desire.mask() << k | adopted.mask()) as usize;
            if self.dense[slot] != 0 {
                return ItemSet(u32::from(self.dense[slot] - 1));
            }
            self.misses += 1;
            let t = Self::compute(self.table, desire, adopted);
            self.dense[slot] = t.mask() as u8 + 1;
            return t;
        }
        let key = (desire.mask(), adopted.mask());
        if let Some(&t) = self.hashed.get(&key) {
            return t;
        }
        self.misses += 1;
        let t = Self::compute(self.table, desire, adopted);
        self.hashed.insert(key, t);
        t
    }

    fn compute(table: &UtilityTable, desire: ItemSet, adopted: ItemSet) -> ItemSet {
        // Enumerate supersets of `adopted` inside `desire`:
        // candidates = adopted ∪ X for X ⊆ desire ∖ adopted.
        let free = desire.minus(adopted);
        let mut best_util = f64::NEG_INFINITY;
        let mut best_union = ItemSet::EMPTY;
        let mut best_single = ItemSet::EMPTY;
        for x in free.subsets() {
            let t = adopted.union(x);
            let u = table.utility(t);
            if u > best_util + TIE_EPS {
                best_util = u;
                best_union = t;
                best_single = t;
            } else if (u - best_util).abs() <= TIE_EPS {
                // Tie: under supermodular utilities, Lemma 1 makes the
                // union of maximizers a maximizer, so accumulating the
                // union implements the larger-cardinality tie-break
                // canonically. Track the largest single maximizer too for
                // the non-supermodular fallback below.
                best_union = best_union.union(t);
                if t.len() > best_single.len() {
                    best_single = t;
                }
            }
        }
        // Supermodular case: the union itself maximizes (Lemma 1). For
        // general (e.g. submodular/competitive) utilities — supported by
        // the §5 extension — the union may be strictly worse; fall back
        // to the largest-cardinality maximizer, which is always valid.
        let chosen = if (table.utility(best_union) - best_util).abs() <= 2.0 * TIE_EPS {
            best_union
        } else {
            best_single
        };
        // The non-negativity constraint: U(∅)=0 is always a candidate when
        // adopted = ∅, and U(adopted) ≥ 0 holds inductively during a
        // cascade, so the max is ≥ 0 whenever the model invariants hold.
        // Still, guard for direct API misuse with negative-utility inputs.
        if best_util < 0.0 {
            adopted
        } else {
            chosen
        }
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Enumeration (memo-miss) count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// One-shot adoption decision without memoization (convenience for tests
/// and the seed-initialization path).
pub fn adopt_once(table: &UtilityTable, desire: ItemSet, adopted: ItemSet) -> ItemSet {
    AdoptionOracle::new(table).adopt(desire, adopted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemset::ItemSet;
    use crate::utility::UtilityTable;

    /// Example 2 utilities: U(singles) = U({i1,i2}) = −1,
    /// U({i1,i3}) = U({i2,i3}) = 1, U(all) = 4.
    fn example2() -> UtilityTable {
        UtilityTable::from_values(3, vec![0.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 4.0])
    }

    /// Both memo layouts (flat array up to four items, hash map above)
    /// return the fresh enumeration's decision for every `(desire,
    /// adopted)` pair, on first and on repeated queries.
    #[test]
    fn memoized_decisions_equal_fresh_enumeration() {
        for k in [1u32, 3, 4, 5, 6] {
            let values: Vec<f64> = (0..1u32 << k)
                .map(|s| {
                    if s == 0 {
                        0.0
                    } else {
                        ((s * 37 % 11) as f64 - 4.0) / 3.0
                    }
                })
                .collect();
            let t = UtilityTable::from_values(k, values);
            let mut o = AdoptionOracle::new(&t);
            for pass in 0..2 {
                for desire in ItemSet::full(k).subsets() {
                    for adopted in desire.subsets() {
                        let want = AdoptionOracle::compute(&t, desire, adopted);
                        assert_eq!(o.adopt(desire, adopted), want, "k={k} pass {pass}");
                    }
                }
            }
            assert_eq!(o.queries(), 2 * o.misses(), "k={k}: second pass all hits");
        }
    }

    #[test]
    fn rejects_negative_singletons() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        // Desiring only i1: best superset of ∅ is ∅ itself (U=0 > −1).
        assert_eq!(
            o.adopt(ItemSet::singleton(0), ItemSet::EMPTY),
            ItemSet::EMPTY
        );
    }

    #[test]
    fn adopts_profitable_pair() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        let desire = ItemSet::from_items(&[0, 2]);
        assert_eq!(o.adopt(desire, ItemSet::EMPTY), desire);
    }

    #[test]
    fn adopts_full_set_when_desired() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        let all = ItemSet::full(3);
        assert_eq!(o.adopt(all, ItemSet::EMPTY), all);
        // Even with i1,i3 already adopted, the full set still wins.
        assert_eq!(o.adopt(all, ItemSet::from_items(&[0, 2])), all);
    }

    #[test]
    fn result_is_always_local_maximum() {
        // Lemma 2 on the example utilities: every reachable decision is a
        // local maximum.
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        let full = ItemSet::full(3);
        for desire in full.subsets() {
            for adopted in desire.subsets() {
                // Reachable states: adopted is a non-negative local
                // maximum (guaranteed inductively by the model).
                if t.utility(adopted) < 0.0 || !t.is_local_maximum(adopted) {
                    continue;
                }
                let got = o.adopt(desire, adopted);
                assert!(
                    t.is_local_maximum(got),
                    "adopt({desire},{adopted}) = {got} not a local max"
                );
                assert!(adopted.is_subset_of(got));
                assert!(got.is_subset_of(desire));
            }
        }
    }

    #[test]
    fn tie_break_takes_union() {
        // U(a)=U(b)=1, U(ab)=1: tie between {a},{b},{a,b} → union {a,b}.
        let t = UtilityTable::from_values(2, vec![0.0, 1.0, 1.0, 1.0]);
        let mut o = AdoptionOracle::new(&t);
        assert_eq!(o.adopt(ItemSet::full(2), ItemSet::EMPTY), ItemSet::full(2));
    }

    #[test]
    fn zero_utility_bundle_adopted_over_empty() {
        // Deterministic utility exactly 0 ties with ∅ → larger set wins.
        let t = UtilityTable::from_values(1, vec![0.0, 0.0]);
        let mut o = AdoptionOracle::new(&t);
        assert_eq!(
            o.adopt(ItemSet::singleton(0), ItemSet::EMPTY),
            ItemSet::singleton(0)
        );
    }

    #[test]
    fn monotone_in_current_adoption() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        // With i2 (useless alone) stuck in the adoption set, adding i3 to
        // the desire set triggers {i2,i3}; superset of prior adoption.
        let got = o.adopt(ItemSet::from_items(&[1, 2]), ItemSet::EMPTY);
        assert_eq!(got, ItemSet::from_items(&[1, 2]));
    }

    #[test]
    fn memoization_counts() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        let d = ItemSet::full(3);
        o.adopt(d, ItemSet::EMPTY);
        o.adopt(d, ItemSet::EMPTY);
        o.adopt(d, ItemSet::EMPTY);
        assert_eq!(o.queries(), 3);
        assert_eq!(o.misses(), 1);
    }

    #[test]
    fn figure2_walkthrough() {
        // Fig. 2 of the paper (zero noise): U(i1) = 0.1 > 0, U(i2) < 0,
        // and the pair has positive utility. v3 first desires i2 (no
        // adoption), later also desires i1 and adopts {i1,i2}.
        let t = UtilityTable::from_values(2, vec![0.0, 0.1, -0.5, 0.6]);
        let mut o = AdoptionOracle::new(&t);
        // v3 at t=1: desires {i2} only.
        assert_eq!(
            o.adopt(ItemSet::singleton(1), ItemSet::EMPTY),
            ItemSet::EMPTY
        );
        // v3 at t=3: desires {i1,i2}, previously adopted nothing.
        assert_eq!(o.adopt(ItemSet::full(2), ItemSet::EMPTY), ItemSet::full(2));
    }

    #[test]
    #[should_panic(expected = "must be a subset")]
    fn adopted_outside_desire_panics() {
        let t = example2();
        let mut o = AdoptionOracle::new(&t);
        o.adopt(ItemSet::singleton(0), ItemSet::singleton(1));
    }

    #[test]
    fn submodular_utilities_fall_back_to_single_maximizer() {
        // Perfect substitutes: U(a) = U(b) = 2, U(ab) = 1. The union of
        // the tied maximizers {a},{b} is NOT a maximizer (Lemma 1 needs
        // supermodularity); the oracle must return one singleton.
        let t = UtilityTable::from_values(2, vec![0.0, 2.0, 2.0, 1.0]);
        let mut o = AdoptionOracle::new(&t);
        let got = o.adopt(ItemSet::full(2), ItemSet::EMPTY);
        assert_eq!(got.len(), 1, "one substitute, not both: got {got}");
        assert!((t.utility(got) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adopt_once_matches_oracle() {
        let t = example2();
        let d = ItemSet::full(3);
        assert_eq!(
            adopt_once(&t, d, ItemSet::EMPTY),
            AdoptionOracle::new(&t).adopt(d, ItemSet::EMPTY)
        );
    }
}
