//! `NodeSelection(R, k)`: greedy max-coverage over RR sets.
//!
//! The procedure shared by IMM, OPIM-C and PRIMA (§4.2.3: "All RIS
//! algorithms use the same well-known coverage procedure"). Greedily picks
//! the node covering the most uncovered RR sets, `k` times. Because greedy
//! is deterministic on a fixed collection, the result for budget `k` is a
//! *prefix* of the result for any larger budget — the fact PRIMA exploits
//! when switching budgets.
//!
//! Selection consumes the collection's **persistent inverted index**
//! (node → set ids, CSR): the index is brought up to date incrementally
//! on entry, so the IMM/OPIM doubling loops that re-select on a growing
//! collection every round never rebuild it from scratch — only the sets
//! appended since the previous round are merged in.
//!
//! ## The pick invariant (what makes caching and resuming sound)
//!
//! The kernel is a CELF lazy-greedy loop over a max-heap of
//! `(marginal count, NodeId)` pairs. Marginal counts only *decrease* as
//! sets get covered, so a stale heap entry is an upper bound on its
//! node's true marginal; an entry is committed only after its count
//! verifies exact. At that moment every other candidate `u` satisfies
//! `(count[u], u) ≤ (stored[u], u) ≤ (count[v], v)` in tuple order, so
//! **every committed pick is the exact lexicographic argmax of
//! `(current marginal, NodeId)` over unchosen nodes** — the heap's
//! staleness history never influences the output. The pick sequence is
//! therefore a pure function of the residual `(cover counts, covered
//! sets, chosen nodes)` state, which is what lets
//! [`crate::plan::SelectionPlan`] snapshot that state and later
//! *resume* greedy bit-identically to a from-scratch run.
//!
//! ## Zero-coverage nodes and the fill phase
//!
//! Nodes whose prefix list is empty are never seeded into the heap
//! (on realistic RR collections they are the vast majority). This
//! cannot change any pick: a node with an empty list has marginal 0
//! forever, and as long as some unchosen node has a *positive*
//! marginal the argmax strictly beats every zero. The first time the
//! true maximum marginal reaches 0, **all** remaining picks are
//! zero-marginal, and the argmax rule degenerates to "largest unchosen
//! NodeId first"; the kernel switches to an explicit descending-id
//! *fill phase* that reproduces exactly that order (entries that
//! refresh to 0 are dropped from the heap rather than re-pushed — the
//! fill phase supersedes them).
//!
//! ## Scratch reuse
//!
//! All per-call state — the cover counts (an epoch-stamped
//! [`EpochMap`], reset in `O(1)`), the heap's backing buffer, and the
//! covered/chosen bitsets — lives in a thread-local
//! `SelectionScratch`. Steady-state selection on a warm arena
//! allocates nothing beyond the result vectors.

use crate::rrset::RrCollection;
use std::cell::RefCell;
use std::collections::BinaryHeap;
use uic_graph::NodeId;
use uic_util::{BitSet, EpochMap};

/// Result of a greedy max-coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSelectionResult {
    /// Seeds in greedy pick order (length = requested `k`, capped at `n`).
    pub seeds: Vec<NodeId>,
    /// `covered[j]` = number of RR sets covered by the first `j+1` seeds.
    pub covered: Vec<u64>,
    /// Number of RR sets in the collection at selection time.
    pub num_sets: usize,
}

impl NodeSelectionResult {
    /// Coverage fraction `F_R(S_j)` of the first `j` seeds (`j ≥ 1`).
    pub fn coverage_fraction(&self, j: usize) -> f64 {
        assert!(j >= 1 && j <= self.seeds.len(), "prefix {j} out of range");
        if self.num_sets == 0 {
            0.0
        } else {
            self.covered[j - 1] as f64 / self.num_sets as f64
        }
    }

    /// Spread estimate `n · F_R(S_j)` for the first `j` seeds.
    pub fn estimated_spread(&self, num_nodes: u32, j: usize) -> f64 {
        num_nodes as f64 * self.coverage_fraction(j)
    }

    /// The first `k` seeds (prefix view).
    pub fn prefix(&self, k: usize) -> &[NodeId] {
        &self.seeds[..k.min(self.seeds.len())]
    }
}

/// Greedy max-coverage: picks `k` nodes maximizing marginal RR-set
/// coverage. Runs in `O(Σ|R| + n)` amortized using the collection's
/// persistent inverted index and lazy bucketed updates; repeated calls
/// on an unchanged (or incrementally grown) collection reuse the index.
pub fn node_selection(coll: &mut RrCollection, k: u32) -> NodeSelectionResult {
    coll.ensure_index();
    node_selection_prefix_indexed(coll, k, coll.len())
}

/// [`node_selection`] restricted to the arena **prefix** of the first
/// `num_sets` sets (capped at the collection length): coverage is
/// counted, and sets are marked covered, only among ids `< num_sets`.
///
/// RR sets are pure functions of `(seed, index)` and the arena only
/// grows, so a prefix-restricted selection on a big shared collection is
/// bit-identical to [`node_selection`] on a fresh identically-seeded
/// collection grown to exactly `num_sets` — no from-scratch
/// regeneration needed to reproduce an offline run.
///
/// Takes `&coll`: the selection never mutates the collection — only the
/// index bring-up does — so once the index is current
/// ([`RrCollection::ensure_index`], under a shared-arena holder's write
/// lock), any number of selections may run concurrently under read
/// locks. This is the `uic-serve` query path: CELF selection under a
/// shared lock, top-up under the exclusive one.
///
/// # Panics
/// When the index is stale (a holder bug, loudly refused rather than
/// silently mis-counting coverage).
pub fn node_selection_prefix_indexed(
    coll: &RrCollection,
    k: u32,
    num_sets: usize,
) -> NodeSelectionResult {
    assert!(
        coll.index_is_current(),
        "node_selection_prefix_indexed on a stale index"
    );
    let n = coll.num_nodes() as usize;
    let num_sets = num_sets.min(coll.len());
    let k = (k as usize).min(n);
    let mut seeds = Vec::with_capacity(k);
    let mut covered = Vec::with_capacity(k);
    with_scratch(|scratch| {
        scratch.begin(n, num_sets);
        seed_prefix_counts(coll, num_sets, scratch);
        greedy_extend(coll, num_sets, k, scratch, &mut seeds, &mut covered);
    });
    NodeSelectionResult {
        seeds,
        covered,
        num_sets,
    }
}

// ---------------------------------------------------------------------
// The shared kernel: reusable scratch + the CELF loop.
// ---------------------------------------------------------------------

/// Reusable per-thread selection state: cover counts (epoch-stamped, so
/// "reset" is an epoch bump), the heap's backing buffer, and the
/// covered/chosen bitsets. One instance per thread via [`with_scratch`];
/// steady-state selections on a same-sized collection allocate nothing.
#[derive(Debug)]
pub(crate) struct SelectionScratch {
    /// Residual marginal coverage per node. Invariant: a node with a
    /// positive residual count always has a written slot (its prefix
    /// list is non-empty), so an unwritten slot reads as a true 0.
    cover: EpochMap<u32>,
    /// Backing storage for the lazy max-heap (capacity persists across
    /// calls; contents are rebuilt per call).
    heap_buf: Vec<(u32, NodeId)>,
    /// RR sets already covered by committed picks.
    set_covered: BitSet,
    /// Nodes already committed as seeds.
    chosen: BitSet,
}

impl SelectionScratch {
    fn new() -> SelectionScratch {
        SelectionScratch {
            cover: EpochMap::new(0),
            heap_buf: Vec::new(),
            set_covered: BitSet::new(0),
            chosen: BitSet::new(0),
        }
    }

    /// Readies the scratch for a selection over `n` nodes and
    /// `num_sets` sets: epoch-bumps the counts, clears the bitsets in
    /// place, and empties the heap buffer — no allocation unless a
    /// dimension grew.
    pub(crate) fn begin(&mut self, n: usize, num_sets: usize) {
        if self.cover.len() == n {
            self.cover.reset();
        } else {
            self.cover = EpochMap::new(n);
        }
        self.chosen.reset_to(n);
        self.set_covered.reset_to(num_sets);
        self.heap_buf.clear();
    }

    /// Records a residual cover count (resume seeding). Zero counts may
    /// be skipped — an unwritten slot already reads as 0.
    pub(crate) fn set_cover(&mut self, v: usize, count: u32) {
        self.cover.insert(v, count);
    }

    /// Marks a node as already committed (resume seeding).
    pub(crate) fn mark_chosen(&mut self, v: usize) {
        self.chosen.insert(v);
    }

    /// Loads a plan's covered-set bitset into the scratch (resume
    /// seeding) as a word-level copy — `O(num_sets / 64)`, not per-bit.
    /// The scratch must be [`begin`](Self::begin)-ed to the same
    /// `num_sets`.
    pub(crate) fn load_set_covered(&mut self, bits: &BitSet) {
        debug_assert_eq!(bits.len(), self.set_covered.len());
        self.set_covered.clone_from(bits);
    }

    /// The residual cover count of node `v` (post-run snapshot).
    pub(crate) fn cover_of(&self, v: usize) -> u32 {
        self.cover.get_or_default(v)
    }

    /// Word-level copy of the covered-set bitset (post-run snapshot).
    pub(crate) fn clone_set_covered(&self) -> BitSet {
        self.set_covered.clone()
    }
}

thread_local! {
    static SCRATCH: RefCell<SelectionScratch> = RefCell::new(SelectionScratch::new());
}

/// Runs `f` with this thread's [`SelectionScratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SelectionScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The ascending per-node set-id list restricted to ids `< limit` — a
/// `partition_point` per list rather than a filter pass.
#[inline]
fn prefix_ids(coll: &RrCollection, v: NodeId, limit: u32) -> &[u32] {
    let ids = coll.covering_sets(v);
    &ids[..ids.partition_point(|&id| id < limit)]
}

/// Writes the from-scratch cover counts for the `num_sets` prefix into
/// `scratch` (already [`SelectionScratch::begin`]-ed). Only nodes with
/// a non-empty prefix list get a slot — the empty-prefix tail never
/// enters the heap (see the module docs for why that preserves picks).
/// A prefix spanning the whole collection (every offline selection)
/// takes each list's length from the index offsets alone.
pub(crate) fn seed_prefix_counts(
    coll: &RrCollection,
    num_sets: usize,
    scratch: &mut SelectionScratch,
) {
    let whole = num_sets >= coll.len();
    let limit = num_sets as u32;
    for v in 0..coll.num_nodes() {
        let len = if whole {
            coll.covering_sets(v).len()
        } else {
            prefix_ids(coll, v, limit).len()
        };
        if len > 0 {
            scratch.set_cover(v as usize, len as u32);
        }
    }
}

/// The CELF kernel: extends `seeds`/`covered` (cumulative coverage)
/// with greedy picks until `seeds.len() == k`, continuing from whatever
/// committed state `scratch` already holds (empty for a from-scratch
/// run; a plan's residual snapshot for a resume). Every pick is the
/// lexicographic argmax of `(residual count, NodeId)` over unchosen
/// nodes — see the module docs for the staleness and fill-phase
/// arguments — so continuation is bit-identical to a from-scratch run
/// of the same total `k`.
pub(crate) fn greedy_extend(
    coll: &RrCollection,
    num_sets: usize,
    k: usize,
    scratch: &mut SelectionScratch,
    seeds: &mut Vec<NodeId>,
    covered: &mut Vec<u64>,
) {
    debug_assert_eq!(seeds.len(), covered.len());
    let limit = num_sets as u32;
    let n = coll.num_nodes() as usize;
    let mut covered_total = covered.last().copied().unwrap_or(0);
    // Seed the heap with every unchosen node of positive residual count
    // (ascending push order is irrelevant: BinaryHeap::from heapifies).
    let mut heap_buf = std::mem::take(&mut scratch.heap_buf);
    for v in 0..n {
        let c = scratch.cover.get_or_default(v);
        if c > 0 && !scratch.chosen.contains(v) {
            heap_buf.push((c, v as NodeId));
        }
    }
    let mut heap = BinaryHeap::from(heap_buf);
    while seeds.len() < k {
        let Some((stale, v)) = heap.pop() else { break };
        let vi = v as usize;
        if scratch.chosen.contains(vi) {
            continue;
        }
        let current = scratch.cover.get_or_default(vi);
        if stale != current {
            // Stale upper bound. A refreshed positive count re-enters
            // the heap; a zero is dropped — the fill phase below owns
            // all zero-marginal picks.
            if current > 0 {
                heap.push((current, v));
            }
            continue;
        }
        if current == 0 {
            // The heap max verified at 0: every remaining marginal is 0
            // (all other stored entries are ≤ this one and are upper
            // bounds). Hand over to the fill phase.
            break;
        }
        scratch.chosen.insert(vi);
        seeds.push(v);
        covered_total += current as u64;
        covered.push(covered_total);
        // Mark v's sets covered and decrement counts of their members.
        for &rid in prefix_ids(coll, v, limit) {
            if !scratch.set_covered.insert(rid as usize) {
                continue;
            }
            for &u in coll.get(rid as usize) {
                // A member of a just-uncovered set has that set in its
                // prefix list, so its slot is written and positive.
                let (slot, _) = scratch.cover.slot(u as usize);
                *slot = slot.saturating_sub(1);
            }
        }
        scratch.set_cover(vi, 0);
    }
    // Fill phase: every remaining marginal is 0, so the argmax of
    // `(0, NodeId)` is simply the largest unchosen id — exactly the
    // order a full heap of all n nodes would emit.
    let mut v = n;
    while seeds.len() < k && v > 0 {
        v -= 1;
        if scratch.chosen.contains(v) {
            continue;
        }
        scratch.chosen.insert(v);
        seeds.push(v as NodeId);
        covered.push(covered_total);
    }
    // Return the heap's buffer to the scratch for the next call.
    let mut heap_buf = heap.into_vec();
    heap_buf.clear();
    scratch.heap_buf = heap_buf;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection_from_sets(n: u32, sets: Vec<Vec<NodeId>>) -> RrCollection {
        RrCollection::from_raw_sets(n, sets)
    }

    #[test]
    fn picks_highest_coverage_first() {
        // Node 0 covers 3 sets, node 1 covers 2, node 2 covers 1.
        let mut coll =
            collection_from_sets(3, vec![vec![0], vec![0, 1], vec![0], vec![2], vec![1]]);
        let r = node_selection(&mut coll, 2);
        assert_eq!(r.seeds[0], 0);
        assert_eq!(r.covered[0], 3);
        // After 0: remaining uncovered {3:{2}, 4:{1}} — node 1 and 2 tie
        // at 1; either is a valid greedy pick.
        assert_eq!(r.covered[1], 4);
    }

    #[test]
    fn marginal_not_total_coverage_drives_second_pick() {
        // Node 1 has total coverage 2 but zero marginal after node 0.
        let mut coll = collection_from_sets(3, vec![vec![0, 1], vec![0, 1], vec![0], vec![2]]);
        let r = node_selection(&mut coll, 2);
        assert_eq!(r.seeds, vec![0, 2]);
        assert_eq!(r.covered, vec![3, 4]);
    }

    #[test]
    fn coverage_fraction_and_spread() {
        let mut coll = collection_from_sets(4, vec![vec![0], vec![0], vec![1], vec![2]]);
        let r = node_selection(&mut coll, 4);
        assert_eq!(r.num_sets, 4);
        assert!((r.coverage_fraction(1) - 0.5).abs() < 1e-12);
        assert!((r.estimated_spread(4, 1) - 2.0).abs() < 1e-12);
        // full coverage by 3 seeds; 4th seed has zero marginal
        assert!((r.coverage_fraction(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_property_of_greedy() {
        // Greedy for k is a prefix of greedy for k′ > k on the same sets.
        let mut coll = collection_from_sets(
            5,
            vec![
                vec![0, 1],
                vec![0],
                vec![1, 2],
                vec![3],
                vec![3, 4],
                vec![0, 4],
            ],
        );
        let small = node_selection(&mut coll, 2);
        let large = node_selection(&mut coll, 4);
        assert_eq!(small.seeds[..], large.seeds[..2]);
    }

    #[test]
    fn k_capped_at_n() {
        let mut coll = collection_from_sets(2, vec![vec![0], vec![1]]);
        let r = node_selection(&mut coll, 10);
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn budget_beyond_nonzero_nodes_fills_in_descending_id_order() {
        // Regression for the empty-prefix-skip optimization: only nodes
        // 1 (count 2) and 3 (count 1) have coverage; k=5 forces three
        // zero-marginal fill picks, which must come out in descending
        // NodeId order (5, 4, 2) — exactly what a full heap of all n
        // `(0, NodeId)` entries would pop.
        let mut coll = collection_from_sets(6, vec![vec![1], vec![1], vec![3]]);
        let r = node_selection(&mut coll, 5);
        assert_eq!(r.seeds, vec![1, 3, 5, 4, 2]);
        assert_eq!(r.covered, vec![2, 3, 3, 3, 3]);
        // Same with the budget saturating n entirely.
        let r = node_selection(&mut coll, 10);
        assert_eq!(r.seeds, vec![1, 3, 5, 4, 2, 0]);
    }

    #[test]
    fn zero_marginal_tail_within_nonzero_nodes_keeps_heap_order() {
        // Node 2's coverage is entirely eclipsed by node 1: its count
        // refreshes to 0 mid-run, so it is dropped from the heap and
        // must re-emerge via the fill phase in id order with the
        // never-covering nodes.
        let mut coll = collection_from_sets(5, vec![vec![1, 2], vec![1, 2], vec![1]]);
        let r = node_selection(&mut coll, 5);
        // Pick 1 (count 3); node 2 refreshes to 0; fill: 4, 3, 2, 0.
        assert_eq!(r.seeds, vec![1, 4, 3, 2, 0]);
        assert_eq!(r.covered, vec![3, 3, 3, 3, 3]);
    }

    #[test]
    fn empty_collection_selects_arbitrary_nodes_with_zero_coverage() {
        let mut coll = collection_from_sets(3, vec![]);
        let r = node_selection(&mut coll, 2);
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.covered, vec![0, 0]);
        assert_eq!(r.coverage_fraction(2), 0.0);
    }

    #[test]
    fn greedy_matches_bruteforce_max_coverage_for_k1() {
        use uic_util::UicRng;
        // For k=1, greedy is exactly optimal; cross-check on random sets.
        let mut rng = UicRng::new(5);
        for _ in 0..20 {
            let n = 6u32;
            let sets: Vec<Vec<NodeId>> = (0..12)
                .map(|_| {
                    let len = 1 + rng.next_below(3);
                    let mut s: Vec<NodeId> = (0..len).map(|_| rng.next_below(n)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let mut coll = collection_from_sets(n, sets.clone());
            let r = node_selection(&mut coll, 1);
            let best: u64 = (0..n)
                .map(|v| sets.iter().filter(|s| s.contains(&v)).count() as u64)
                .max()
                .unwrap();
            assert_eq!(r.covered[0], best);
        }
    }

    #[test]
    fn selection_tracks_incremental_growth() {
        // Selecting, growing the collection, then selecting again must
        // behave exactly as selecting on a collection built in one shot
        // (the persistent index merges the appended sets).
        use crate::rrset::DiffusionModel;
        use uic_graph::Graph;
        let g = Graph::from_edges(4, &[(0, 1, 0.7), (1, 2, 0.7), (2, 3, 0.7), (3, 0, 0.7)]);
        let mut grown = RrCollection::new(&g, DiffusionModel::IC, 77);
        grown.extend_to(&g, 500);
        let _warm = node_selection(&mut grown, 2);
        grown.extend_to(&g, 2_000);
        let after_growth = node_selection(&mut grown, 2);
        let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 77);
        fresh.extend_to(&g, 2_000);
        let oneshot = node_selection(&mut fresh, 2);
        assert_eq!(after_growth, oneshot);
    }

    #[test]
    fn prefix_selection_matches_a_fresh_collection_of_that_size() {
        // The warm-arena contract for selection: restricting a grown
        // collection to a prefix must select exactly what a fresh
        // identically-seeded collection of that size selects.
        use crate::rrset::DiffusionModel;
        use uic_graph::Graph;
        let g = Graph::from_edges(5, &[(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6), (3, 4, 0.6)]);
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 41);
        warm.extend_to(&g, 3_000);
        warm.ensure_index();
        for prefix in [50usize, 700, 3_000] {
            let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 41);
            fresh.extend_to(&g, prefix);
            assert_eq!(
                node_selection_prefix_indexed(&warm, 2, prefix),
                node_selection(&mut fresh, 2),
                "prefix {prefix}"
            );
        }
        // Full-length and oversized prefixes degrade to node_selection.
        let full = node_selection(&mut warm, 3);
        assert_eq!(node_selection_prefix_indexed(&warm, 3, usize::MAX), full);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coverage_fraction_range_checked() {
        let mut coll = collection_from_sets(2, vec![vec![0]]);
        let r = node_selection(&mut coll, 1);
        r.coverage_fraction(2);
    }
}
