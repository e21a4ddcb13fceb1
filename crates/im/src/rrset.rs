//! Reverse-reachable set sampling (Borgs et al.; §2.1, §4.2.3).
//!
//! An RR set for node `v` is the random set of nodes that *would have
//! influenced* `v`: sample `v` uniformly, then walk the graph backwards,
//! keeping each in-edge alive with its probability (IC) or choosing at
//! most one in-edge per node (LT). The defining property
//! `σ(S) = n · E[ 𝟙{S ∩ R ≠ ∅} ]` turns influence maximization into
//! max-coverage over sampled sets.
//!
//! ## Storage layout
//!
//! [`RrCollection`] keeps every sampled set in one flat **arena**: a
//! single `Vec<NodeId>` of concatenated members plus an offsets array
//! (CSR layout), so a collection of millions of sets costs two
//! allocations instead of one per set, and scanning all sets is a linear
//! walk. Alongside the arena the collection maintains a persistent
//! **inverted index** (node → ids of the sets containing it, also CSR)
//! that is grown *incrementally* as [`RrCollection::extend_with`]
//! appends sets: greedy selection and spread estimation consume the
//! index instead of rebuilding it, which matters for the IMM/OPIM-style
//! doubling loops that re-select on a mostly-unchanged collection every
//! round.
//!
//! ## Determinism
//!
//! Sampling is deterministic given `(sampler, set index)` — set `j` is a
//! pure function of the sampler's seed and `j`, never of the thread
//! count. Parallel generation writes into per-thread local arenas that
//! are merged by bulk copy in deterministic chunk order, so collections
//! are bit-identical for 1, 2 or 64 generation threads (asserted in the
//! test suite).
//!
//! Non-standard reverse processes (the Com-IC baselines' self-influence
//! and complement-aware samplers) plug into the same arena path through
//! the [`RrSampler`] trait instead of materializing nested vectors.

use crossbeam::thread;
use uic_graph::{Graph, NodeId, WeightClass};
use uic_util::{parallelism, prefetch, split_seed, UicRng, VisitTags};

/// Which diffusion model the sampler follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffusionModel {
    /// Independent Cascade: each in-edge flips its own coin.
    IC,
    /// Linear Threshold: each node picks at most one in-edge with
    /// probability proportional to its weight (triggering-set view).
    LT,
}

/// A reverse sampler that writes RR sets directly into a shared arena.
///
/// Implementations must make sample `index` a **pure function** of
/// `(self, index)` — typically by deriving a fresh RNG from
/// `split_seed(seed, index)` — so that [`RrCollection::extend_with`] can
/// distribute indices across threads without changing the resulting
/// collection. Per-thread mutable state (visit tags, per-level buffers,
/// cached possible worlds) lives in the associated `Scratch` type,
/// created once per worker via [`RrSampler::scratch`] on **every**
/// [`RrCollection::extend_with`] call. Top-ups of a few hundred sets are
/// common (warm arenas, PRIMA rounds), so anything the scratch builds up
/// front is paid per call; tables derivable from the graph structure
/// should be sized by what the samples read, not by `n`, and buffers
/// should start empty and grow with use.
pub trait RrSampler: Sync {
    /// Per-worker scratch state (reset or re-derived per sample as the
    /// sampler requires).
    type Scratch: Send;

    /// Builds one worker's scratch for graph `g`.
    fn scratch(&self, g: &Graph) -> Self::Scratch;

    /// Appends the members of RR sample `index` onto `arena`, each at
    /// most once (an empty sample appends nothing), and accumulates the
    /// number of in-edges examined into `width`. Must not touch `arena`
    /// below its length at entry.
    fn sample_into(
        &self,
        g: &Graph,
        index: u64,
        scratch: &mut Self::Scratch,
        arena: &mut Vec<NodeId>,
        width: &mut u64,
    );
}

/// The standard IC/LT reverse sampler used by IMM/OPIM/PRIMA:
/// sample `index` draws its root and coins from stream
/// `split_seed(seed, index)`.
#[derive(Debug, Clone, Copy)]
pub struct StandardRrSampler {
    model: DiffusionModel,
    seed: u64,
}

impl StandardRrSampler {
    /// Sampler for `model` whose sample `index` is a pure function of
    /// `(seed, index)`.
    pub fn new(model: DiffusionModel, seed: u64) -> StandardRrSampler {
        StandardRrSampler { model, seed }
    }
}

/// Per-worker scratch of [`StandardRrSampler`]: visit tags, the coin
/// table of the graph's weight class, and the live-edge buffer of the
/// level-batched IC walk. The table's size follows the class, never the
/// node count alone: O(max in-degree) entries on a weighted-cascade
/// graph, one on a constant graph, none for LT, and one per node only
/// for explicit per-edge weights. The buffer holds one BFS level's live
/// in-edges and grows with the widest level walked.
pub struct StandardScratch {
    tags: VisitTags,
    coins: CoinTable,
    /// One BFS level's live in-edges, then their sources (see
    /// `ic_walk`); grows to the widest level's live-edge count.
    live: Vec<u32>,
}

/// `(p, ln(1 − p))` of an in-list's shared probability, the pair the
/// geometric-jump scan reads per visited node, keyed by what the
/// [`WeightClass`] determines. `p` is NaN where the list is not uniform,
/// or where `p` lies below f64 resolution (`1 − p` rounds to 1, so a
/// jump would divide by zero and turn every edge live); per-edge coins
/// handle those lists exactly.
enum CoinTable {
    /// LT draws one threshold per node and reads no coin table.
    Unused,
    /// `Constant(c)`: one entry shared by every list.
    Constant((f32, f64)),
    /// `InDegree`: entry `d` for in-degree `d`, grown lazily up to the
    /// largest degree a walk has visited.
    InDegree(Vec<(f32, f64)>),
    /// `PerEdge`: one entry per node, from a scan of its in-list (real
    /// datasets are commonly uniform per node without a structural
    /// guarantee).
    PerNode(Vec<(f32, f64)>),
}

/// The coin-table entry for a list whose edges all have probability `p`
/// (NaN: not uniform).
fn coin_entry(mut p: f32) -> (f32, f64) {
    let mut lg = 0.0f64;
    if p > 0.0 && p < 1.0 {
        lg = (1.0 - p as f64).ln();
        if lg == 0.0 {
            p = f32::NAN;
        }
    }
    (p, lg)
}

/// Failures before the next success of a Bernoulli(`p`) run, sampled as
/// `⌊ln U / ln(1 − p)⌋` (`lg` = `ln(1 − p)` < 0). Saturates on the
/// astronomically unlikely `U = 0`.
#[inline]
fn geom_jump(rng: &mut UicRng, lg: f64) -> usize {
    let j = rng.next_f64().ln() / lg;
    if j >= usize::MAX as f64 {
        usize::MAX
    } else {
        j as usize
    }
}

/// The live in-edges of `v` in list order, each reported to `live` as
/// its slot in [`Graph::in_sources`]; adds `d_in(v)` to `width`.
/// `coin(v, d_in(v))` yields the coin-table entry of a non-empty list.
///
/// Where a node's in-edges share one probability (weighted-cascade
/// graphs, and most real datasets), the scan jumps geometrically to the
/// next live edge instead of flipping a coin per edge —
/// distribution-identical to the per-edge scan of [`sample_rr_into`].
/// The draws read only the list's length and probabilities, never its
/// sources or any visit tag.
#[inline(always)]
fn draw_live(
    g: &Graph,
    v: NodeId,
    rng: &mut UicRng,
    width: &mut u64,
    coin: &mut impl FnMut(NodeId, usize) -> (f32, f64),
    mut live: impl FnMut(usize),
) {
    let span = g.in_span(v);
    let d = span.len();
    *width += d as u64;
    if d == 0 {
        return;
    }
    let (p, lg) = coin(v, d);
    if p.is_nan() {
        // Non-uniform in-list: per-edge coins.
        let probs = g.in_arc_probs(v);
        for i in 0..d {
            if rng.coin(probs.get(i) as f64) {
                live(span.start + i);
            }
        }
    } else if p >= 1.0 {
        span.for_each(live);
    } else if p > 0.0 {
        let mut i = geom_jump(rng, lg);
        while i < d {
            live(span.start + i);
            i = i.saturating_add(1).saturating_add(geom_jump(rng, lg));
        }
    }
}

/// The IC reverse BFS of [`StandardRrSampler`]. The arena segment of the
/// set being built is the queue, processed one BFS level (the queued
/// slice `[head, tail)`) at a time in three passes:
///
/// 1. draw every live in-edge of the level in queue order
///    ([`draw_live`]), recording its slot in `live` and prefetching the
///    source it names;
/// 2. read each live source and prefetch its visit tag;
/// 3. mark the sources and push the unmarked ones, in the same order.
///
/// A node's draws depend only on its list and the set's own stream, and
/// nodes pushed while a level runs are only scanned in the next one, so
/// the RNG consumption, the push order and the deduplication are those
/// of a node-by-node scan: every set is unchanged. The passes turn the
/// dependent cache misses of a large graph (list → source → tag) into
/// independent ones. A one-node level takes the node-by-node path.
///
/// Hints never change control flow or the RNG stream: in-list bounds
/// are prefetched when a node is pushed, the first lines of its sources
/// two slots before it is scanned.
fn ic_walk(
    g: &Graph,
    rng: &mut UicRng,
    tags: &mut VisitTags,
    live: &mut Vec<u32>,
    arena: &mut Vec<NodeId>,
    width: &mut u64,
    mut coin: impl FnMut(NodeId, usize) -> (f32, f64),
) {
    tags.reset();
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    let sources = g.in_sources();
    let root = rng.next_below(n);
    tags.mark(root as usize);
    let mut head = arena.len();
    arena.push(root);
    while head < arena.len() {
        let tail = arena.len();
        if tail - head == 1 {
            let v = arena[head];
            head = tail;
            draw_live(g, v, rng, width, &mut coin, |slot| {
                let u = sources[slot];
                if tags.mark(u as usize) {
                    g.prefetch_in_offsets(u);
                    arena.push(u);
                }
            });
            continue;
        }
        live.clear();
        for k in head..tail {
            if k + 2 < tail {
                g.prefetch_in_list(arena[k + 2]);
            }
            draw_live(g, arena[k], rng, width, &mut coin, |slot| {
                prefetch(sources.as_ptr().wrapping_add(slot));
                live.push(slot as u32);
            });
        }
        head = tail;
        for x in live.iter_mut() {
            let u = sources[*x as usize];
            tags.prefetch(u as usize);
            *x = u;
        }
        for &u in live.iter() {
            if tags.mark(u as usize) {
                g.prefetch_in_offsets(u);
                arena.push(u);
            }
        }
    }
}

impl RrSampler for StandardRrSampler {
    type Scratch = StandardScratch;

    fn scratch(&self, g: &Graph) -> StandardScratch {
        let n = g.num_nodes() as usize;
        let coins = match (self.model, g.weight_class()) {
            (DiffusionModel::LT, _) => CoinTable::Unused,
            (DiffusionModel::IC, WeightClass::Constant(c)) => CoinTable::Constant(coin_entry(c)),
            (DiffusionModel::IC, WeightClass::InDegree) => CoinTable::InDegree(Vec::new()),
            (DiffusionModel::IC, WeightClass::PerEdge) => CoinTable::PerNode(
                (0..g.num_nodes())
                    .map(|v| {
                        let probs = g.in_arc_probs(v);
                        let first = if probs.is_empty() { 0.0 } else { probs.get(0) };
                        let uniform = probs.iter().all(|x| x == first);
                        coin_entry(if uniform { first } else { f32::NAN })
                    })
                    .collect(),
            ),
        };
        StandardScratch {
            tags: VisitTags::new(n),
            coins,
            live: Vec::new(),
        }
    }

    fn sample_into(
        &self,
        g: &Graph,
        index: u64,
        scratch: &mut StandardScratch,
        arena: &mut Vec<NodeId>,
        width: &mut u64,
    ) {
        let mut rng = UicRng::new(split_seed(self.seed, index));
        let StandardScratch { tags, coins, live } = scratch;
        match coins {
            CoinTable::Unused => sample_rr_into(g, self.model, &mut rng, tags, arena, width),
            CoinTable::Constant(entry) => {
                let entry = *entry;
                ic_walk(g, &mut rng, tags, live, arena, width, |_, _| entry)
            }
            CoinTable::InDegree(table) => ic_walk(g, &mut rng, tags, live, arena, width, |_, d| {
                if d >= table.len() {
                    // The weighted-cascade probability, exactly as the
                    // graph derives it: `1 / max(d_in, 1)`.
                    table.extend((table.len()..=d).map(|d| coin_entry(1.0 / (d.max(1) as f32))));
                }
                table[d]
            }),
            CoinTable::PerNode(table) => ic_walk(g, &mut rng, tags, live, arena, width, |v, _| {
                table[v as usize]
            }),
        }
    }
}

/// Appends one RR set for a uniformly random root onto `arena` — the
/// straightforward one-coin-per-edge reference sampler.
///
/// [`StandardRrSampler`] draws from the same distribution through a
/// geometric-jump scan on uniform in-lists (consuming the RNG stream
/// differently), so sets produced here and by a collection need not
/// coincide coin-for-coin; tests compare the two statistically.
///
/// `tags` is caller-provided scratch (reset here); `width` accumulates
/// the number of in-edges examined — the `w(R)` of the paper's
/// running-time analysis. The new set occupies `arena[start..]` where
/// `start` is the arena length at entry.
pub fn sample_rr_into(
    g: &Graph,
    model: DiffusionModel,
    rng: &mut UicRng,
    tags: &mut VisitTags,
    arena: &mut Vec<NodeId>,
    width: &mut u64,
) {
    tags.reset();
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    let start = arena.len();
    let root = rng.next_below(n);
    tags.mark(root as usize);
    arena.push(root);
    let mut head = start;
    while head < arena.len() {
        let v = arena[head];
        head += 1;
        let srcs = g.in_neighbors(v);
        let probs = g.in_arc_probs(v);
        *width += srcs.len() as u64;
        match model {
            DiffusionModel::IC => {
                for (i, &u) in srcs.iter().enumerate() {
                    if !tags.is_marked(u as usize) && rng.coin(probs.get(i) as f64) {
                        tags.mark(u as usize);
                        arena.push(u);
                    }
                }
            }
            DiffusionModel::LT => {
                // Choose at most one in-neighbor: edge i with prob p_i,
                // none with prob 1 − Σ p_i.
                let x = rng.next_f64();
                let mut acc = 0.0f64;
                for (i, &u) in srcs.iter().enumerate() {
                    acc += probs.get(i) as f64;
                    if x < acc {
                        if !tags.is_marked(u as usize) {
                            tags.mark(u as usize);
                            arena.push(u);
                        }
                        break;
                    }
                }
            }
        }
    }
}

/// Persistent node → set-id inverted index in CSR layout.
///
/// `start` has `n + 1` entries once built; `ids[start[v]..start[v+1]]`
/// lists, in increasing order, the ids of every indexed set containing
/// node `v`. `sets_indexed` records how many arena sets the index
/// covers; the gap up to `RrCollection::len()` is merged in lazily by
/// [`RrCollection::ensure_index`].
#[derive(Debug, Clone, Default)]
struct InvertedIndex {
    start: Vec<usize>,
    ids: Vec<u32>,
    sets_indexed: usize,
}

/// Between the passes of [`RrCollection::ensure_index`], a node's
/// `start` slot holds its new-entry count above `COUNT_SHIFT` and its
/// old run length below. A set holds a node at most once, so both are
/// at most a set count, which the set-id assertion keeps below 2^32.
const COUNT_SHIFT: u32 = 32;
const RUN_MASK: usize = (1 << COUNT_SHIFT) - 1;
const _: () = assert!(
    usize::BITS >= 64,
    "the index merge packs two u32 counts per usize"
);

/// Merge pass 1 over the nodes `lo..lo + runs.len()`, whose `start`
/// slots are `runs` and whose successor's old offset is `next`: turns
/// each slot into the node's old run length and adds one count per
/// member of `suffix` in range.
fn count_new(runs: &mut [usize], lo: usize, next: usize, suffix: &[NodeId]) {
    let mut hi = next;
    for r in runs.iter_mut().rev() {
        let s = *r;
        *r = hi - s;
        debug_assert!(*r <= RUN_MASK, "a run longer than the set count");
        hi = s;
    }
    let end = lo + runs.len();
    for &v in suffix {
        let v = v as usize;
        if (lo..end).contains(&v) {
            runs[v - lo] += 1 << COUNT_SHIFT;
        }
    }
}

/// Merge pass 3 over the nodes `lo..lo + cursors.len()`: `cursors[i]`
/// is the `ids` offset of node `lo + i`'s next new id, and `out` the
/// slice of `ids` from offset `base` that holds these nodes' lists.
/// Appends the ids of sets `first_new..` to the lists of their members.
fn scatter_new(
    cursors: &mut [usize],
    lo: usize,
    out: &mut [u32],
    base: usize,
    data: &[NodeId],
    offsets: &[usize],
    first_new: usize,
) {
    // Cursors relative to `out` while scattering: indexing `out` by an
    // offset less `base` ran at half the speed on two workers (220k sets
    // on the 1M-node Orkut stand-in).
    if base > 0 {
        cursors.iter_mut().for_each(|c| *c -= base);
    }
    let end = lo + cursors.len();
    for (rid, w) in offsets[first_new..].windows(2).enumerate() {
        let rid = (first_new + rid) as u32;
        for &v in &data[w[0]..w[1]] {
            let v = v as usize;
            if (lo..end).contains(&v) {
                let at = &mut cursors[v - lo];
                out[*at] = rid;
                *at += 1;
            }
        }
    }
    if base > 0 {
        cursors.iter_mut().for_each(|c| *c += base);
    }
}

/// A growable collection of RR sets with deterministic indexing, stored
/// as a flat arena (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct RrCollection {
    num_nodes: u32,
    model: DiffusionModel,
    seed: u64,
    /// CSR offsets: set `i` occupies `data[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated members of every set.
    data: Vec<NodeId>,
    total_width: u64,
    /// Cumulative number of sets ever generated through this collection,
    /// *including* sets discarded by [`RrCollection::reset`] — the
    /// "total work" metric behind Fig. 6 / Table 6.
    generated: u64,
    /// Generation worker-count override (`None` sizes by hardware).
    threads: Option<usize>,
    index: InvertedIndex,
    /// Epoch-stamped set-id marks reused by [`RrCollection::estimate_spread`].
    cover_marks: VisitTags,
}

/// Collections compare by contents (graph size, offsets, members); index
/// state and lifetime counters are intentionally excluded.
impl PartialEq for RrCollection {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes == other.num_nodes
            && self.offsets == other.offsets
            && self.data == other.data
    }
}

impl Eq for RrCollection {}

impl RrCollection {
    /// Empty collection bound to a graph size, model and base seed (the
    /// standard-sampler configuration used by [`RrCollection::extend_to`]).
    pub fn new(g: &Graph, model: DiffusionModel, seed: u64) -> RrCollection {
        RrCollection::empty_with(g.num_nodes(), model, seed)
    }

    /// Empty collection for `num_nodes` nodes, populated through
    /// [`RrCollection::extend_with`] by a custom [`RrSampler`] (the
    /// model/seed of the standard sampler are unused on this path).
    pub fn empty(num_nodes: u32) -> RrCollection {
        RrCollection::empty_with(num_nodes, DiffusionModel::IC, 0)
    }

    fn empty_with(num_nodes: u32, model: DiffusionModel, seed: u64) -> RrCollection {
        RrCollection {
            num_nodes,
            model,
            seed,
            offsets: vec![0],
            data: Vec::new(),
            total_width: 0,
            generated: 0,
            threads: None,
            index: InvertedIndex::default(),
            cover_marks: VisitTags::new(0),
        }
    }

    /// Builds a collection directly from pre-sampled nested sets,
    /// converting them into the arena layout.
    ///
    /// Kept as a compatibility/test constructor: samplers should
    /// implement [`RrSampler`] and go through
    /// [`RrCollection::extend_with`] instead, which writes into the
    /// arena directly. Each set is deduplicated (coverage counting
    /// assumes a node appears at most once per set, which sampled RR
    /// sets guarantee by construction).
    pub fn from_raw_sets(num_nodes: u32, sets: Vec<Vec<NodeId>>) -> RrCollection {
        let mut coll = RrCollection::empty(num_nodes);
        for mut r in sets {
            for &v in &r {
                assert!(v < num_nodes, "node {v} out of range in raw RR set");
            }
            r.sort_unstable();
            r.dedup();
            coll.data.extend_from_slice(&r);
            coll.offsets.push(coll.data.len());
        }
        coll.generated = coll.len() as u64;
        coll
    }

    /// Pins the generation worker-thread count (normally sized by
    /// [`uic_util::parallelism`]). Set `j` is a pure function of
    /// `(sampler, j)`, so this knob only changes how sampling work is
    /// chunked, never the resulting collection (asserted in tests).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Number of sets currently held.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no sets are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members of set `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All sets, in id order, as arena slices.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.offsets.windows(2).map(|w| &self.data[w[0]..w[1]])
    }

    /// Total number of members across all held sets (the arena length).
    pub fn total_entries(&self) -> usize {
        self.data.len()
    }

    /// Graph size the sets were sampled from.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Total in-edges examined across all generated sets.
    pub fn total_width(&self) -> u64 {
        self.total_width
    }

    /// Sets generated over the lifetime (incl. discarded ones).
    pub fn total_generated(&self) -> u64 {
        self.generated
    }

    /// The diffusion model the standard sampler was bound to.
    pub fn model(&self) -> DiffusionModel {
        self.model
    }

    /// The base seed the standard sampler was bound to.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// True when the persistent inverted index covers every held set —
    /// i.e. the read-only query paths
    /// ([`crate::node_selection_prefix_indexed`] and the coverage counts
    /// of the certification loop) may run.
    pub fn index_is_current(&self) -> bool {
        self.index.sets_indexed == self.len()
            && self.index.start.len() == self.num_nodes as usize + 1
    }

    /// Heap bytes held by the arena and its index (the eviction-budget
    /// accounting unit of long-running servers). Capacity, not length:
    /// reserved-but-unused space is real memory too.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<NodeId>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.index.ids.capacity() * std::mem::size_of::<u32>()
            + self.index.start.capacity() * std::mem::size_of::<usize>()
    }

    /// The raw arena: CSR offsets and concatenated members, the exact
    /// state a warm-server spill file needs to persist. Set `i` occupies
    /// `data[offsets[i]..offsets[i + 1]]`.
    pub fn arena_parts(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.data)
    }

    /// Rebuilds a warm, extend-only collection from spilled arena parts.
    ///
    /// The reconstructed collection behaves exactly like the one that
    /// was spilled: sampling is a pure function of `(model, seed,
    /// index)`, so with `generated` restored to the held length, a later
    /// [`RrCollection::extend_to`] continues the identical sample
    /// stream. The index is rebuilt lazily on first use.
    ///
    /// Validates the CSR invariants (offsets start at 0, are
    /// non-decreasing, and end at `data.len()`; members in range) so a
    /// corrupt spill is a typed error, never a panic deep in selection.
    pub fn from_warm_parts(
        num_nodes: u32,
        model: DiffusionModel,
        seed: u64,
        offsets: Vec<usize>,
        data: Vec<NodeId>,
        total_width: u64,
    ) -> Result<RrCollection, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".to_string());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".to_string());
        }
        if *offsets.last().expect("non-empty checked above") != data.len() {
            return Err(format!(
                "final offset {} does not match member count {}",
                offsets.last().expect("non-empty"),
                data.len()
            ));
        }
        if data.iter().any(|&v| v >= num_nodes) {
            return Err(format!("member out of range for n={num_nodes}"));
        }
        let generated = (offsets.len() - 1) as u64;
        Ok(RrCollection {
            num_nodes,
            model,
            seed,
            offsets,
            data,
            total_width,
            generated,
            threads: None,
            index: InvertedIndex::default(),
            cover_marks: VisitTags::new(0),
        })
    }

    /// Discards all held sets (the from-scratch regeneration of the
    /// Chen-2018 IMM fix) while retaining the generation counter; the
    /// seed stream continues, so regenerated sets are fresh.
    pub fn reset(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
        self.index = InvertedIndex::default();
    }

    /// Grows the collection to at least `target` sets with the standard
    /// IC/LT sampler bound at construction, sampling in parallel. Set
    /// `j` (within this growth episode) is a pure function of
    /// `(seed, generated_so_far + j)`, so results are thread-count
    /// independent.
    pub fn extend_to(&mut self, g: &Graph, target: usize) {
        let sampler = StandardRrSampler::new(self.model, self.seed);
        self.extend_with(g, target, &sampler);
    }

    /// Grows the collection to at least `target` sets using `sampler`,
    /// writing into per-thread local arenas merged by bulk copy in
    /// deterministic chunk order (see the module docs).
    pub fn extend_with<S: RrSampler>(&mut self, g: &Graph, target: usize, sampler: &S) {
        assert_eq!(g.num_nodes(), self.num_nodes, "graph mismatch");
        if self.len() >= target {
            return;
        }
        let need = target - self.len();
        let first_index = self.generated;
        let threads = self.threads.unwrap_or_else(|| parallelism(need, 256));
        self.offsets.reserve(need);
        if threads <= 1 {
            let mut scratch = sampler.scratch(g);
            for j in 0..need as u64 {
                sampler.sample_into(
                    g,
                    first_index + j,
                    &mut scratch,
                    &mut self.data,
                    &mut self.total_width,
                );
                self.offsets.push(self.data.len());
            }
        } else {
            let chunk = need.div_ceil(threads);
            let results = thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(need);
                    if lo >= hi {
                        break;
                    }
                    handles.push(scope.spawn(move |_| {
                        let mut scratch = sampler.scratch(g);
                        let mut data: Vec<NodeId> = Vec::new();
                        let mut ends: Vec<usize> = Vec::with_capacity(hi - lo);
                        let mut width = 0u64;
                        for j in lo..hi {
                            sampler.sample_into(
                                g,
                                first_index + j as u64,
                                &mut scratch,
                                &mut data,
                                &mut width,
                            );
                            ends.push(data.len());
                        }
                        (data, ends, width)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rr worker panicked"))
                    .collect::<Vec<_>>()
            })
            .expect("crossbeam scope failed");
            // Merge in parallel: every chunk gets a pre-reserved disjoint
            // output range (chunk t starts at the sum of the lengths of
            // chunks 0..t), so the copies proceed concurrently and land
            // bit-identically to a serial chunk-order append — the merge
            // no longer serializes behind one `extend_from_slice` chain.
            let base0 = self.data.len();
            let total: usize = results.iter().map(|(d, _, _)| d.len()).sum();
            self.data.reserve(total);
            let mut bases = Vec::with_capacity(results.len());
            {
                let mut acc = base0;
                for (d, _, _) in &results {
                    bases.push(acc);
                    acc += d.len();
                }
            }
            let mut rest = &mut self.data.spare_capacity_mut()[..total];
            thread::scope(|scope| {
                for (d, _, _) in &results {
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(d.len());
                    rest = tail;
                    if d.is_empty() {
                        continue;
                    }
                    scope.spawn(move |_| {
                        // SAFETY: `mine` is this chunk's private slice of
                        // the reserved tail — disjoint from every other
                        // chunk's by construction — and `d.len() == mine.len()`.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                d.as_ptr(),
                                mine.as_mut_ptr().cast::<NodeId>(),
                                d.len(),
                            );
                        }
                    });
                }
            })
            .expect("crossbeam scope failed");
            // SAFETY: the scope joined every copy worker (a worker panic
            // propagates above), so all `total` reserved slots are
            // initialized.
            unsafe { self.data.set_len(base0 + total) };
            for ((_, ends, width), base) in results.iter().zip(&bases) {
                self.offsets.extend(ends.iter().map(|&e| base + e));
                self.total_width += *width;
            }
        }
        self.generated += need as u64;
    }

    /// Brings the persistent inverted index up to date with the arena.
    ///
    /// Sets appended since the last call are merged in place: `ids`
    /// grows by exactly the new entries (`reserve_exact`, so
    /// [`RrCollection::heap_bytes`] grows by 4 bytes per entry and an
    /// eviction budget sees no doubling slack), every node's old run
    /// moves up behind the new ids of the nodes before it, and the new
    /// ids land after each run. No node-sized array is allocated, so a
    /// small top-up on a large graph costs two sweeps of `start` plus
    /// the moved bytes; repeated selections or spread estimates on an
    /// unchanged collection pay nothing.
    ///
    /// Public because shared-arena holders (the `uic-serve` sharded
    /// registry) index under their *write* lock so that subsequent
    /// selections — [`crate::node_selection_prefix_indexed`] and the
    /// certification loop's coverage counts — can run under a shared
    /// *read* lock.
    ///
    /// The merge runs in three passes:
    ///
    /// 1. **count** — each node's `start` slot becomes its old run
    ///    length (low half) plus its new-entry count (high half; both
    ///    are set counts, below 2^32 by the set-id assertion);
    /// 2. **move** — one descending sweep over the nodes turns the slots
    ///    back into offsets and moves the old runs up, one block per
    ///    node that gained entries (the runs between two such nodes
    ///    move together), leaving `start[v + 1]` at the slot of `v`'s
    ///    first new id;
    /// 3. **scatter** — the new sets are read in id order and each
    ///    member's cursor `start[v + 1]` advances to its final offset.
    ///
    /// Passes 1 and 3 split the nodes into contiguous ranges, one per
    /// worker: each worker scans the whole suffix and touches only its
    /// own `start` slots and, in pass 3, its own `ids` slots (disjoint
    /// `split_at_mut` slices, no atomics). Pass 3's ranges are balanced
    /// by new entries. Each node's list is its old run followed by its
    /// new ids in increasing order whatever the split, so the index is
    /// bit-identical across thread counts and to a one-shot build.
    pub fn ensure_index(&mut self) {
        let n = self.num_nodes as usize;
        if self.index.start.len() != n + 1 {
            self.index.start = vec![0; n + 1];
        }
        let len = self.len();
        let first_new = self.index.sets_indexed;
        if first_new == len {
            return;
        }
        assert!(len <= u32::MAX as usize, "set ids exceed u32 range");
        let (data, offsets) = (&self.data, &self.offsets);
        let suffix = &data[offsets[first_new]..];
        let threads = self
            .threads
            .unwrap_or_else(|| parallelism(suffix.len() + n, 1 << 14));
        let InvertedIndex { start, ids, .. } = &mut self.index;
        let old_total = ids.len();
        let added = suffix.len();

        // Pass 1: count, over equal node ranges.
        if threads <= 1 {
            count_new(&mut start[..n], 0, old_total, suffix);
        } else {
            let chunk = n.div_ceil(threads).max(1);
            let nexts: Vec<usize> = (1..=threads).map(|t| start[(t * chunk).min(n)]).collect();
            thread::scope(|scope| {
                for ((t, runs), next) in start[..n].chunks_mut(chunk).enumerate().zip(nexts) {
                    scope.spawn(move |_| count_new(runs, t * chunk, next, suffix));
                }
            })
            .expect("crossbeam scope failed");
        }

        // Pass 2: move. `shift` is the number of new entries at nodes
        // below the current one, so the pending block of old runs
        // `old_hi..blk_hi` moves up by `shift` until a node with new
        // entries ends it. Scatter bounds are picked on the way down:
        // range t starts at the first node with `t/threads` of the new
        // entries below it.
        let mut bounds = vec![(0usize, 0usize); threads + 1];
        bounds[threads] = (n, old_total + added);
        let mut next_bound = threads - 1;
        ids.reserve_exact(added);
        ids.resize(old_total + added, 0);
        let (mut old_hi, mut blk_hi, mut shift) = (old_total, old_total, added);
        for v in (0..n).rev() {
            let (run, count) = (start[v] & RUN_MASK, start[v] >> COUNT_SHIFT);
            let new_hi = old_hi + shift;
            if count > 0 {
                ids.copy_within(old_hi..blk_hi, new_hi);
                blk_hi = old_hi;
                shift -= count;
            }
            start[v + 1] = old_hi + shift;
            while next_bound > 0 && shift < added * next_bound / threads {
                bounds[next_bound] = (v + 1, new_hi);
                next_bound -= 1;
            }
            old_hi -= run;
        }
        start[0] = 0;

        // Pass 3: scatter.
        if threads <= 1 {
            scatter_new(&mut start[1..], 0, ids, 0, data, offsets, first_new);
        } else {
            let mut cursors = &mut start[1..];
            let mut out = &mut ids[..];
            thread::scope(|scope| {
                for w in bounds.windows(2) {
                    let ((vlo, base), (vhi, end)) = (w[0], w[1]);
                    let (mine, rest) = std::mem::take(&mut cursors).split_at_mut(vhi - vlo);
                    cursors = rest;
                    let (slots, rest) = std::mem::take(&mut out).split_at_mut(end - base);
                    out = rest;
                    if vlo < vhi {
                        scope.spawn(move |_| {
                            scatter_new(mine, vlo, slots, base, data, offsets, first_new)
                        });
                    }
                }
            })
            .expect("crossbeam scope failed");
        }
        self.index.sets_indexed = len;
    }

    /// Ids (in increasing order) of every indexed set containing `v`.
    /// Callers must run [`RrCollection::ensure_index`] first.
    #[inline]
    pub(crate) fn covering_sets(&self, v: NodeId) -> &[u32] {
        debug_assert_eq!(self.index.sets_indexed, self.len(), "index is stale");
        let v = v as usize;
        &self.index.ids[self.index.start[v]..self.index.start[v + 1]]
    }

    /// Unbiased spread estimate `σ̂(S) = n · (#covered / #sets)`.
    ///
    /// Walks the inverted-index lists of the seeds and counts distinct
    /// set ids against an epoch-stamped scratch — `O(Σ_s |R(s)|)` with
    /// no per-call allocation, instead of scanning the whole collection
    /// (OPIM calls this in its per-round certificate loop).
    pub fn estimate_spread(&mut self, seeds: &[NodeId]) -> f64 {
        let len = self.len();
        if len == 0 {
            return 0.0;
        }
        self.ensure_index();
        let mut marks = std::mem::replace(&mut self.cover_marks, VisitTags::new(0));
        let covered = self.count_covered(seeds, 0..len, &mut marks);
        self.cover_marks = marks;
        self.num_nodes as f64 * covered as f64 / len as f64
    }

    /// Distinct sets with ids in `ids` that contain a node of `seeds`.
    ///
    /// Each seed's id list is ascending, so only its run between two
    /// `partition_point`s is walked. `marks` is caller-owned scratch,
    /// grown to `ids.len()` slots when shorter and reset here, so a
    /// caller that keeps one allocates nothing per call. Takes `&self`:
    /// any number of readers may count concurrently under a shared lock.
    ///
    /// # Panics
    /// When the index is stale — a shared-arena holder bug: top-up and
    /// indexing belong under the write lock.
    pub(crate) fn count_covered(
        &self,
        seeds: &[NodeId],
        ids: std::ops::Range<usize>,
        marks: &mut VisitTags,
    ) -> u64 {
        assert!(self.index_is_current(), "count_covered on a stale index");
        // A budget switch on an unchanged sample lands here; skipping the
        // per-seed binary searches over a large index is most of its cost.
        if ids.is_empty() {
            return 0;
        }
        if marks.len() < ids.len() {
            *marks = VisitTags::new(ids.len());
        }
        marks.reset();
        let (from, to) = (ids.start as u32, ids.end as u32);
        let mut covered = 0u64;
        for &s in seeds {
            let list = self.covering_sets(s);
            let lo = list.partition_point(|&id| id < from);
            let hi = list.partition_point(|&id| id < to);
            for &rid in &list[lo..hi] {
                if marks.mark((rid - from) as usize) {
                    covered += 1;
                }
            }
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_diffusion::exact_spread;
    use uic_graph::WeightSpec;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)])
    }

    #[test]
    fn rr_sets_contain_their_root() {
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 3);
        coll.extend_to(&g, 100);
        for r in coll.iter() {
            assert!(!r.is_empty());
            for &v in r {
                assert!(v < 3);
            }
        }
    }

    /// Entries held by a scratch's coin table.
    fn coin_entries(s: &StandardScratch) -> usize {
        match &s.coins {
            CoinTable::Unused => 0,
            CoinTable::Constant(_) => 1,
            CoinTable::InDegree(t) | CoinTable::PerNode(t) => t.len(),
        }
    }

    #[test]
    fn scratch_size_follows_the_weight_class_not_the_node_count() {
        // 5000 nodes, in-degrees 0..=4 plus one hub of in-degree 40.
        let n = 5_000u32;
        let mut arcs: Vec<(NodeId, NodeId)> = (1..=40).map(|u| (u, 0)).collect();
        for v in 1..n {
            arcs.extend((1..=v % 5).map(|k| ((v + k * 7) % n, v)));
        }
        let max_in = 40;
        let wc = Graph::try_from_arcs(n, &arcs, WeightSpec::InDegree).unwrap();
        let sampler = StandardRrSampler::new(DiffusionModel::IC, 3);
        let mut s = sampler.scratch(&wc);
        assert_eq!(coin_entries(&s), 0, "the degree table grows lazily");
        let (mut arena, mut width) = (Vec::new(), 0u64);
        for j in 0..20_000 {
            sampler.sample_into(&wc, j, &mut s, &mut arena, &mut width);
        }
        let held = coin_entries(&s);
        assert!(
            held > 1 && held <= max_in + 1,
            "weighted cascade holds {held} entries"
        );

        let constant = Graph::try_from_arcs(n, &arcs, WeightSpec::Constant(0.2)).unwrap();
        assert_eq!(coin_entries(&sampler.scratch(&constant)), 1);

        let lt = StandardRrSampler::new(DiffusionModel::LT, 3);
        assert_eq!(coin_entries(&lt.scratch(&wc)), 0);

        let probs = vec![0.1f32; arcs.len()];
        let per_edge = Graph::try_from_arcs(n, &arcs, WeightSpec::PerEdge(&probs)).unwrap();
        assert_eq!(coin_entries(&sampler.scratch(&per_edge)), n as usize);
    }

    #[test]
    fn extension_is_incremental_and_deterministic() {
        let g = path3();
        let mut a = RrCollection::new(&g, DiffusionModel::IC, 7);
        a.extend_to(&g, 50);
        a.extend_to(&g, 120);
        let mut b = RrCollection::new(&g, DiffusionModel::IC, 7);
        b.extend_to(&g, 120);
        assert_eq!(a, b, "same seed ⇒ same collection");
        assert_eq!(a.len(), 120);
        // extend_to with smaller target is a no-op
        a.extend_to(&g, 10);
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn generation_is_thread_count_independent() {
        let g = path3();
        let mut reference = RrCollection::new(&g, DiffusionModel::IC, 7).with_threads(1);
        reference.extend_to(&g, 1000);
        for threads in [2usize, 8] {
            let mut coll = RrCollection::new(&g, DiffusionModel::IC, 7).with_threads(threads);
            coll.extend_to(&g, 1000);
            assert_eq!(coll, reference, "{threads} threads");
            assert_eq!(coll.total_width(), reference.total_width());
        }
    }

    #[test]
    fn reset_keeps_generation_counter_and_freshens_sets() {
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 5);
        coll.extend_to(&g, 60);
        let before = coll.clone();
        coll.reset();
        assert!(coll.is_empty());
        coll.extend_to(&g, 60);
        assert_eq!(coll.total_generated(), 120);
        assert_ne!(coll, before, "regenerated sets must be fresh");
    }

    #[test]
    fn spread_estimate_unbiased_ic() {
        // σ({0}) on 0→1→2 (p=.5) = 1.75; via RR sets.
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 11);
        coll.extend_to(&g, 200_000);
        let est = coll.estimate_spread(&[0]);
        let exact = exact_spread(&g, &[0]);
        assert!((est - exact).abs() < 0.03, "RR {est} vs exact {exact}");
    }

    #[test]
    fn spread_estimate_multiseed() {
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 13);
        coll.extend_to(&g, 200_000);
        let est = coll.estimate_spread(&[0, 2]);
        let exact = exact_spread(&g, &[0, 2]); // 2 + 0.5 = 2.5
        assert!((est - exact).abs() < 0.03, "RR {est} vs exact {exact}");
    }

    #[test]
    fn spread_estimate_stays_correct_across_incremental_growth() {
        // The persistent index must track extend_to: estimates after each
        // growth episode equal those of a fresh identically-seeded
        // collection built in one shot.
        let g = path3();
        let mut grown = RrCollection::new(&g, DiffusionModel::IC, 19);
        for target in [100usize, 1_000, 50_000] {
            grown.extend_to(&g, target);
            let grown_est = grown.estimate_spread(&[0, 2]);
            let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 19);
            fresh.extend_to(&g, target);
            assert_eq!(grown_est, fresh.estimate_spread(&[0, 2]), "at {target}");
        }
    }

    #[test]
    fn prefix_estimates_match_a_fresh_collection_of_that_size() {
        // The warm-arena contract: restricting a grown collection to a
        // prefix is bit-identical to a fresh identically-seeded
        // collection grown to exactly that size.
        let g = path3();
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 37);
        warm.extend_to(&g, 5_000);
        warm.ensure_index();
        let mut marks = VisitTags::new(0);
        for prefix in [1usize, 100, 1_000, 5_000] {
            let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 37);
            fresh.extend_to(&g, prefix);
            let covered = warm.count_covered(&[0, 2], 0..prefix, &mut marks);
            assert_eq!(
                3.0 * covered as f64 / prefix as f64,
                fresh.estimate_spread(&[0, 2]),
                "prefix {prefix}"
            );
            // Cut anywhere, the two ranges add up to the prefix (the
            // budget-switch check's sum).
            let cut = prefix / 3;
            assert_eq!(
                warm.count_covered(&[0, 2], 0..cut, &mut marks)
                    + warm.count_covered(&[0, 2], cut..prefix, &mut marks),
                covered,
                "prefix {prefix}"
            );
        }
        // The full range is what estimate_spread counts; an empty one
        // counts nothing.
        let full = warm.count_covered(&[0], 0..warm.len(), &mut marks);
        assert_eq!(
            3.0 * full as f64 / warm.len() as f64,
            warm.estimate_spread(&[0])
        );
        assert_eq!(warm.count_covered(&[0], 0..0, &mut marks), 0);
    }

    #[test]
    fn lt_rr_sets_estimate_lt_spread() {
        // LT on star into node 2: in-weights (0.6, 0.4).
        // σ_LT({0}) = 1 + 0.6 = 1.6 (node 1 picks 0 w.p. 0.6).
        let g = Graph::from_edges(3, &[(0, 1, 0.6), (2, 1, 0.4)]);
        let mut coll = RrCollection::new(&g, DiffusionModel::LT, 17);
        coll.extend_to(&g, 200_000);
        let est = coll.estimate_spread(&[0]);
        assert!((est - 1.6).abs() < 0.03, "LT RR estimate {est}");
    }

    #[test]
    fn lt_rr_sets_match_the_forward_lt_simulator() {
        // The product's LT sampler against `simulate_lt`, the forward
        // threshold process: both estimate σ_LT(S), so their gap must sit
        // within a few standard errors of the two sample means.
        let lt_graph = Graph::from_edges(4, &[(0, 1, 0.6), (2, 1, 0.4), (1, 3, 0.5), (0, 3, 0.3)]);
        let mut b = uic_graph::GraphBuilder::new(40);
        let mut rng = UicRng::new(3);
        for _ in 0..120 {
            b.add_edge(rng.next_below(40), rng.next_below(40), 1.0);
        }
        let wc_graph = b.build(uic_graph::Weighting::WeightedCascade, 0);
        let (theta, sims) = (100_000usize, 100_000u64);
        for (g, seeds) in [(&lt_graph, vec![0]), (&wc_graph, vec![0, 1, 2])] {
            let n = g.num_nodes() as f64;
            let mut coll = RrCollection::new(g, DiffusionModel::LT, 31);
            coll.extend_to(g, theta);
            let rr = coll.estimate_spread(&seeds);
            let covered = rr / n;
            let rr_var = n * n * covered * (1.0 - covered) / theta as f64;
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for s in 0..sims {
                let spread =
                    uic_diffusion::simulate_lt(g, &seeds, &mut UicRng::new(split_seed(37, s)));
                sum += spread as f64;
                sum_sq += (spread * spread) as f64;
            }
            let mc = sum / sims as f64;
            let mc_var = (sum_sq / sims as f64 - mc * mc) / sims as f64;
            let tol = 5.0 * (rr_var + mc_var).sqrt();
            assert!(
                (rr - mc).abs() < tol,
                "{n} nodes: RR {rr} vs forward LT {mc} (tolerance {tol})"
            );
        }
    }

    #[test]
    fn lt_rr_sets_are_paths() {
        // In the LT triggering view each node has ≤1 chosen in-edge, so
        // RR sets are simple reverse paths — their length is bounded by n.
        let g = Graph::from_edges(3, &[(0, 1, 0.6), (2, 1, 0.4), (1, 2, 0.5)]);
        let mut coll = RrCollection::new(&g, DiffusionModel::LT, 19);
        coll.extend_to(&g, 1000);
        for r in coll.iter() {
            assert!(r.len() <= 3);
        }
    }

    #[test]
    fn width_accumulates() {
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 23);
        coll.extend_to(&g, 100);
        assert!(coll.total_width() > 0);
    }

    #[test]
    fn empty_collection_estimates_zero() {
        let g = path3();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 1);
        assert_eq!(coll.estimate_spread(&[0]), 0.0);
    }

    #[test]
    fn tiny_uniform_probabilities_stay_tiny() {
        // Regression: uniform p > 0 so small that 1 − p rounds to 1 in
        // f64 must fall back to per-edge coins, not degenerate into
        // every-edge-live geometric jumps.
        let g = Graph::from_edges(3, &[(0, 1, 1e-20), (1, 2, 1e-20), (2, 0, 1e-20)]);
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 29);
        coll.extend_to(&g, 2_000);
        for r in coll.iter() {
            assert_eq!(r.len(), 1, "edges at p = 1e-20 must almost never fire");
        }
    }

    #[test]
    fn from_raw_sets_matches_arena_layout() {
        let coll = RrCollection::from_raw_sets(4, vec![vec![2, 0, 2], vec![], vec![3]]);
        assert_eq!(coll.len(), 3);
        assert_eq!(coll.get(0), &[0, 2], "sorted and deduplicated");
        assert_eq!(coll.get(1), &[] as &[NodeId]);
        assert_eq!(coll.get(2), &[3]);
        assert_eq!(coll.total_entries(), 3);
        assert_eq!(coll.total_generated(), 3);
    }

    /// A custom sampler exercising the pluggable arena path: sample `j`
    /// is the singleton `{j mod n}`.
    struct ModSampler {
        n: u32,
    }

    impl RrSampler for ModSampler {
        type Scratch = ();

        fn scratch(&self, _: &Graph) {}

        fn sample_into(
            &self,
            _g: &Graph,
            index: u64,
            _scratch: &mut (),
            arena: &mut Vec<NodeId>,
            width: &mut u64,
        ) {
            arena.push((index % self.n as u64) as NodeId);
            *width += 1;
        }
    }

    #[test]
    fn custom_samplers_share_the_arena_path() {
        let g = path3();
        let mut coll = RrCollection::empty(3);
        coll.extend_with(&g, 9, &ModSampler { n: 3 });
        assert_eq!(coll.len(), 9);
        for (j, r) in coll.iter().enumerate() {
            assert_eq!(r, &[(j % 3) as NodeId]);
        }
        // Every node covers exactly its 3 congruent sets.
        assert_eq!(coll.estimate_spread(&[1]), 1.0);
        assert_eq!(coll.estimate_spread(&[0, 1, 2]), 3.0);
        // The index keeps up with further growth.
        coll.extend_with(&g, 12, &ModSampler { n: 3 });
        assert_eq!(coll.estimate_spread(&[0]), 3.0 * 4.0 / 12.0);
        assert_eq!(coll.total_width(), 12);
    }

    #[test]
    fn custom_sampler_generation_is_thread_count_independent() {
        let g = path3();
        let mut reference = RrCollection::empty(3).with_threads(1);
        reference.extend_with(&g, 1000, &ModSampler { n: 3 });
        for threads in [2usize, 8] {
            let mut coll = RrCollection::empty(3).with_threads(threads);
            coll.extend_with(&g, 1000, &ModSampler { n: 3 });
            assert_eq!(coll, reference, "{threads} threads");
        }
    }

    /// A 600-node weighted-cascade graph with in-degrees 0–8 and a few
    /// hubs, so RR sets range from singletons to dozens of members.
    fn index_test_graph() -> Graph {
        let n = 600u32;
        let mut rng = UicRng::new(41);
        let mut arcs = Vec::new();
        for v in 0..n {
            let d = if v % 97 == 0 { 40 } else { v % 9 };
            arcs.extend((0..d).map(|_| (rng.next_below(n), v)));
        }
        Graph::try_from_arcs(n, &arcs, WeightSpec::InDegree).unwrap()
    }

    #[test]
    fn merged_index_matches_a_one_shot_build_and_grows_exactly() {
        // Random growth schedules mixing empty, single-set and large
        // top-ups, merged on 1 to 8 workers. After every merge the CSR
        // arrays equal a one-shot build of the same sets (so the index
        // never depends on the thread count), and the held bytes grow
        // by one `u32` per new entry (plus the offsets, on the first
        // build): the eviction budget of a shared arena counts
        // capacity, so a merge must not over-reserve.
        let g = index_test_graph();
        let n = g.num_nodes() as usize;
        for schedule in 0..4u64 {
            let mut rng = UicRng::new(schedule);
            let mut targets = Vec::new();
            let mut len = 0usize;
            for _ in 0..12 {
                len += match rng.next_below(4) {
                    0 => 0,
                    1 => 1,
                    2 => rng.next_below(40) as usize,
                    _ => 200 + rng.next_below(2_000) as usize,
                };
                targets.push(len);
            }
            for threads in [1usize, 2, 3, 8] {
                let mut coll =
                    RrCollection::new(&g, DiffusionModel::IC, 53 + schedule).with_threads(threads);
                let mut indexed_entries = 0usize;
                for &target in &targets {
                    coll.extend_to(&g, target);
                    let before = coll.heap_bytes();
                    let start_slots = coll.index.start.len();
                    coll.ensure_index();
                    let new_entries = coll.total_entries() - indexed_entries;
                    indexed_entries = coll.total_entries();
                    let what = format!("schedule {schedule}, {threads} threads, {target} sets");
                    assert_eq!(
                        coll.heap_bytes() - before,
                        4 * new_entries + 8 * (n + 1 - start_slots),
                        "{what}: held bytes"
                    );
                    let mut fresh = RrCollection::new(&g, DiffusionModel::IC, 53 + schedule);
                    fresh.extend_to(&g, target);
                    fresh.ensure_index();
                    assert_eq!(coll.index.start, fresh.index.start, "{what}: start");
                    assert_eq!(coll.index.ids, fresh.index.ids, "{what}: ids");
                }
            }
        }
    }
}
