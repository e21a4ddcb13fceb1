//! The one UIC cascade kernel, shared by every UIC simulator.
//!
//! Per-cascade state handling is *the* hot path of the whole reproduction:
//! the welfare estimator `ρ(𝒮)` (§3.3/§4.1.1) and all baselines it is
//! compared against are Monte-Carlo loops over cascade simulations. The
//! kernel therefore keeps every piece of per-cascade state in flat arrays
//! indexed by the graph's dense `u32` node ids:
//!
//! * **One record per node**, `{stamp, desire, adopted, step, span}`
//!   (24 bytes). A record is valid only while its stamp equals the
//!   cascade's epoch, so starting a cascade is an `O(1)` epoch bump, and
//!   touching a node costs one stamp check on one record. `step` is the
//!   last step in which the node's desire grew (the dedup tag of the
//!   re-decision list); `span` locates its live out-neighbours.
//! * **Live out-edge spans, no per-edge memo.** In the UIC model a node's
//!   out-edges are tested only when that node expands, so at its *first*
//!   expansion every one of them is still untested: the kernel flips them
//!   all, in out-edge order, and appends the live targets to one
//!   per-cascade buffer, recording the node's span. A later expansion
//!   (the node's adoption set grew again) walks that span. Each edge is
//!   still flipped at most once per cascade (Fig. 1), the coins are drawn
//!   in the same order as a per-edge cache would draw them, and the
//!   memory is `O(n)` instead of `O(m)`. Every target is written to the
//!   buffer and the write cursor advances by the coin, so appending a
//!   live target takes no branch.
//! * **Integer-threshold coins.** `next_f64() < p` is exactly
//!   `(next_raw() >> 11) < ⌈p·2^53⌉` for any `f32` probability
//!   ([`uic_util::coin_threshold`]), so an edge coin is one shift and one
//!   integer compare. Thresholds are keyed by the graph's
//!   [`WeightClass`], as the RR sampler keys its coin table: one for a
//!   constant weight; for weighted cascade one per in-degree, from the
//!   same `1.0f32 / d` the graph derives, spread into one entry per
//!   target node so that a coin costs one load; and for explicit weights
//!   one per arc, computed from its stored probability.
//! * **Prefetch along the frontier.** The next frontier nodes are known,
//!   so their records and out-lists are hinted toward the core a few
//!   places ahead. Hints never change control flow or the RNG stream.
//! * **Ordered outcome without a sort.** Informed nodes are marked in a
//!   two-level bitset (one bit per node, one summary bit per 64-node
//!   word) and enumerated in node order, in `O(informed + n/4096)`; the
//!   enumeration also empties the set for the next cascade.
//!
//! The records, the thresholds, the bitset and the buffers are reused
//! from cascade to cascade (about 32 bytes per node on a
//! weighted-cascade graph, 24 on the other classes), and
//! [`CascadeState::run_into`] fills a caller's outcome, so a Monte-Carlo
//! loop allocates nothing per cascade. (The per-world [`AdoptionOracle`]
//! memo is a flat array up to four items; above that it is a hash map,
//! which allocates once a world makes its first decision.)
//!
//! How edge liveness is decided is abstracted behind [`EdgeOracle`],
//! unifying lazy coin sampling ([`LazyCoins`]) with deterministic replay
//! of a pre-sampled [`LiveEdgeWorld`] ([`WorldOracle`]) — the two
//! evaluation modes the paper's possible-world semantics require. How an
//! informed node decides what to adopt is the crate-private
//! `AdoptionRule`: the shared utility table of one noise world for
//! [`crate::UicSimulator`], per-node noise for
//! [`crate::PersonalizedSimulator`]. Both run this one loop.
//!
//! The [`mod@reference`] module keeps the original hash-map implementation as
//! a correctness oracle: the proptest suite below checks dense-vs-
//! reference equivalence on random instances, and `benches/engine.rs`
//! measures the speedup.

use crate::allocation::Allocation;
use crate::uic::UicOutcome;
use crate::worlds::LiveEdgeWorld;
use uic_graph::{ArcProbs, Graph, NodeId, WeightClass};
use uic_items::{AdoptionOracle, ItemSet, UtilityTable};
use uic_util::{coin_threshold, prefetch, UicRng};

/// Decides edge liveness during a cascade, identified by global edge id.
///
/// The engine asks about each edge **at most once per cascade**, at its
/// source's first expansion, walking the source's out-edges in order;
/// it remembers the live targets itself, per node.
pub trait EdgeOracle {
    /// Is the edge with global id `edge_id` live? `threshold` is the
    /// edge's coin threshold ([`uic_util::coin_threshold`] of its
    /// probability): a lazily flipped coin is live when its draw is
    /// below it ([`UicRng::coin_below`]).
    fn is_live(&mut self, edge_id: usize, threshold: u64) -> bool;
}

/// Lazy coin flipping — the Monte-Carlo mode. One coin per asked edge.
pub struct LazyCoins<'a> {
    /// Coin source.
    pub rng: &'a mut UicRng,
}

impl EdgeOracle for LazyCoins<'_> {
    #[inline]
    fn is_live(&mut self, _edge_id: usize, threshold: u64) -> bool {
        self.rng.coin_below(threshold)
    }
}

/// Deterministic replay of a pre-sampled live-edge world — the
/// enumeration / exact-evaluation mode.
pub struct WorldOracle<'a>(pub &'a LiveEdgeWorld);

impl EdgeOracle for WorldOracle<'_> {
    #[inline]
    fn is_live(&mut self, edge_id: usize, _threshold: u64) -> bool {
        self.0.is_live_id(edge_id)
    }
}

/// How an informed node decides what to adopt (Fig. 1, step 3).
pub(crate) trait AdoptionRule {
    /// First contact with `v` in this cascade, before any decision of it.
    fn contact(&mut self, _v: NodeId) {}

    /// `v`'s new adoption set, given its desire set and its adoption so
    /// far (`adopted ⊆ desire`).
    fn adopt(&mut self, v: NodeId, desire: ItemSet, adopted: ItemSet) -> ItemSet;
}

impl AdoptionRule for AdoptionOracle<'_> {
    #[inline]
    fn adopt(&mut self, _v: NodeId, desire: ItemSet, adopted: ItemSet) -> ItemSet {
        AdoptionOracle::adopt(self, desire, adopted)
    }
}

/// Span start of a node whose out-edges are not flipped yet.
const UNEXPANDED: u32 = u32::MAX;

/// Everything the kernel knows about one node in one cascade.
#[derive(Debug, Clone, Copy, Default)]
struct NodeRecord {
    /// Epoch of the cascade that wrote this record; any other value means
    /// the node is untouched in the current cascade.
    stamp: u32,
    /// Desire set `R(v)`.
    desire: ItemSet,
    /// Adoption set `A(v)`.
    adopted: ItemSet,
    /// Last step in which `desire` grew; 0 before the first step.
    step: u32,
    /// `targets[span_start..span_end]` are the live out-neighbours, once
    /// `span_start != UNEXPANDED`.
    span_start: u32,
    span_end: u32,
}

/// Edge-coin thresholds, keyed by the graph's [`WeightClass`].
#[derive(Debug)]
enum CoinThresholds {
    /// Every edge shares one threshold.
    Constant(u64),
    /// Weighted cascade: every edge into `v` has the threshold of `v`'s
    /// in-degree `d`, from the graph's own `1 / max(d, 1)` in `f32`. One
    /// threshold per degree, spread into one entry per target node so
    /// that a coin costs one load.
    InDegree(Box<[u64]>),
    /// Explicit per-edge probabilities: each arc's threshold is computed
    /// from its stored probability when its source expands.
    PerEdge,
}

impl CoinThresholds {
    fn for_graph(g: &Graph) -> CoinThresholds {
        match g.weight_class() {
            WeightClass::Constant(c) => CoinThresholds::Constant(coin_threshold(c)),
            WeightClass::InDegree => {
                let mut by_degree: Vec<u64> = Vec::new();
                let by_node = (0..g.num_nodes())
                    .map(|v| {
                        let d = g.in_degree(v);
                        if d >= by_degree.len() {
                            by_degree.extend(
                                (by_degree.len()..=d)
                                    .map(|d| coin_threshold(1.0 / (d.max(1) as f32))),
                            );
                        }
                        by_degree[d]
                    })
                    .collect();
                CoinThresholds::InDegree(by_node)
            }
            WeightClass::PerEdge => CoinThresholds::PerEdge,
        }
    }
}

/// The nodes informed in the current cascade: one bit per node plus one
/// summary bit per 64-node word, so the set enumerates in node order in
/// `O(informed + n/4096)`.
#[derive(Debug)]
struct InformedSet {
    words: Box<[u64]>,
    summary: Box<[u64]>,
}

impl InformedSet {
    fn new(n: usize) -> InformedSet {
        let words = n.div_ceil(64);
        InformedSet {
            words: vec![0; words].into_boxed_slice(),
            summary: vec![0; words.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    fn insert(&mut self, v: NodeId) {
        let w = v as usize >> 6;
        self.words[w] |= 1 << (v & 63);
        self.summary[w >> 6] |= 1 << (w & 63);
    }

    /// Calls `f` on every member in increasing order and empties the set.
    fn drain(&mut self, mut f: impl FnMut(NodeId)) {
        for (si, summary) in self.summary.iter_mut().enumerate() {
            let mut live_words = std::mem::take(summary);
            while live_words != 0 {
                let w = si * 64 + live_words.trailing_zeros() as usize;
                live_words &= live_words - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    f((w * 64) as NodeId + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Reusable dense cascade state: the per-node records, the live-target
/// buffer, the informed set and the frontier double-buffer of one graph.
///
/// One `CascadeState` serves arbitrarily many cascades on the same graph;
/// every reset is an epoch bump, a cursor rewind or a `Vec::clear`, so a
/// Monte-Carlo loop that reuses its outcome through [`Self::run_into`]
/// allocates nothing for the kernel after its first cascades.
#[derive(Debug)]
pub struct CascadeState {
    records: Box<[NodeRecord]>,
    epoch: u32,
    coins: CoinThresholds,
    /// Live targets of every expanded node, span after span, in
    /// `targets[..used]`; the rest is spare room.
    targets: Vec<NodeId>,
    used: usize,
    informed: InformedSet,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    /// Nodes whose desire grew in the current step, each once.
    step_touched: Vec<NodeId>,
    /// Seed pairs sorted by node id — fixes the coin-consumption order
    /// independently of `Allocation`'s hash iteration order.
    seed_buf: Vec<(NodeId, ItemSet)>,
}

impl CascadeState {
    /// State for graph `g`. It holds `g`'s edge-coin thresholds, so every
    /// cascade it runs must be on `g`.
    pub fn new(g: &Graph) -> CascadeState {
        let n = g.num_nodes() as usize;
        CascadeState {
            records: vec![NodeRecord::default(); n].into_boxed_slice(),
            epoch: 1,
            coins: CoinThresholds::for_graph(g),
            targets: Vec::new(),
            used: 0,
            informed: InformedSet::new(n),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            step_touched: Vec::new(),
            seed_buf: Vec::new(),
        }
    }

    /// One UIC cascade with lazy edge sampling.
    pub fn run_lazy(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        rng: &mut UicRng,
    ) -> UicOutcome {
        self.run_with(g, allocation, table, &mut LazyCoins { rng })
    }

    /// One UIC cascade in a fixed live-edge world (deterministic).
    pub fn run_world(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        world: &LiveEdgeWorld,
    ) -> UicOutcome {
        self.run_with(g, allocation, table, &mut WorldOracle(world))
    }

    /// One UIC cascade against an arbitrary [`EdgeOracle`].
    pub fn run_with<O: EdgeOracle>(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        edges: &mut O,
    ) -> UicOutcome {
        let mut out = UicOutcome::default();
        self.run_into(g, allocation, table, edges, &mut out);
        out
    }

    /// One UIC cascade against an arbitrary [`EdgeOracle`], written into
    /// `out` (its vectors are cleared and refilled, keeping their
    /// capacity).
    ///
    /// Implements Fig. 1 of the paper: seeds desire their allocation and
    /// adopt the utility-maximizing subset; each step, last round's
    /// adopters push their full adoption set over live out-edges; nodes
    /// whose desire grew re-decide `argmax { U(T) | A ⊆ T ⊆ R, U(T) ≥ 0 }`.
    pub fn run_into<O: EdgeOracle>(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        edges: &mut O,
        out: &mut UicOutcome,
    ) {
        out.adoptions.clear();
        out.desires.clear();
        let mut oracle = AdoptionOracle::new(table);
        out.steps = self.cascade(
            g,
            allocation,
            edges,
            &mut oracle,
            |_, v, desire, adopted| {
                out.desires.push((v, desire));
                if !adopted.is_empty() {
                    out.adoptions.push((v, adopted));
                }
            },
        );
    }

    /// The kernel: one cascade of `allocation` under `rule`, then
    /// `visit(rule, v, desire, adopted)` for every informed node in
    /// node-id order. Returns the number of diffusion steps.
    pub(crate) fn cascade<O: EdgeOracle, R: AdoptionRule>(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        edges: &mut O,
        rule: &mut R,
        mut visit: impl FnMut(&R, NodeId, ItemSet, ItemSet),
    ) -> u32 {
        debug_assert_eq!(self.records.len(), g.num_nodes() as usize, "graph mismatch");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: physically clear once every 2^32 cascades.
            self.records.iter_mut().for_each(|r| r.stamp = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let fresh = NodeRecord {
            stamp: epoch,
            span_start: UNEXPANDED,
            ..NodeRecord::default()
        };
        self.used = 0;
        self.frontier.clear();

        // t = 1: seed initialization (Fig. 1 preamble), in node-id order.
        self.seed_buf.clear();
        self.seed_buf
            .extend(allocation.seeds().filter(|(_, items)| !items.is_empty()));
        self.seed_buf.sort_unstable_by_key(|&(v, _)| v);
        for &(v, items) in &self.seed_buf {
            rule.contact(v);
            let adopted = rule.adopt(v, items, ItemSet::EMPTY);
            self.records[v as usize] = NodeRecord {
                desire: items,
                adopted,
                ..fresh
            };
            self.informed.insert(v);
            if !adopted.is_empty() {
                self.frontier.push(v);
            }
        }

        let mut steps = 0u32;
        while !self.frontier.is_empty() {
            steps += 1;
            self.step_touched.clear();
            // Step 1–2: propagate adoption sets over the live out-edges
            // of last round's adopters (tested now, on first expansion).
            for fi in 0..self.frontier.len() {
                // The frontier is known ahead: pull upcoming nodes'
                // records and out-lists toward the core (hints only).
                if let Some(&ahead) = self.frontier.get(fi + 4) {
                    prefetch(&self.records[ahead as usize]);
                    g.prefetch_out_offsets(ahead);
                }
                if let Some(&ahead) = self.frontier.get(fi + 2) {
                    g.prefetch_out_list(ahead);
                }
                let u = self.frontier[fi];
                let a_u = self.records[u as usize].adopted;
                debug_assert!(!a_u.is_empty(), "frontier node {u} adopted nothing");
                let (lo, hi) = self.live_span(g, u, edges);
                for &v in &self.targets[lo..hi] {
                    let rec = &mut self.records[v as usize];
                    if rec.stamp != epoch {
                        *rec = fresh;
                        self.informed.insert(v);
                        rule.contact(v);
                    }
                    if !a_u.minus(rec.desire).is_empty() {
                        rec.desire = rec.desire.union(a_u);
                        if rec.step != steps {
                            rec.step = steps;
                            self.step_touched.push(v);
                        }
                    }
                }
            }
            // Step 3: re-evaluate adoption where desire grew.
            self.next_frontier.clear();
            for &v in &self.step_touched {
                let rec = &mut self.records[v as usize];
                let new_adopted = rule.adopt(v, rec.desire, rec.adopted);
                if new_adopted != rec.adopted {
                    rec.adopted = new_adopted;
                    self.next_frontier.push(v);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        let records = &self.records;
        self.informed.drain(|v| {
            let rec = records[v as usize];
            // A bit with an older stamp was left by a cascade that
            // unwound before its drain; it is cleared here, not visited.
            if rec.stamp == epoch {
                visit(rule, v, rec.desire, rec.adopted);
            }
        });
        steps
    }

    /// `targets` range of `u`'s live out-neighbours, in out-edge order (a
    /// parallel edge appears once per live copy). The first call for `u`
    /// in a cascade asks `edges` about each of its out-edges, in order;
    /// later calls return the recorded span.
    #[inline]
    fn live_span<O: EdgeOracle>(&mut self, g: &Graph, u: NodeId, edges: &mut O) -> (usize, usize) {
        let rec = &mut self.records[u as usize];
        if rec.span_start != UNEXPANDED {
            return (rec.span_start as usize, rec.span_end as usize);
        }
        let nbrs = g.out_neighbors(u);
        let start = self.used;
        if self.targets.len() < start + nbrs.len() {
            let room = (start + nbrs.len()).max(2 * self.targets.len());
            self.targets.resize(room, 0);
        }
        let out = &mut self.targets[start..start + nbrs.len()];
        let first_eid = g.out_edge_id(u, 0);
        // Every target is written; the cursor advances only past live ones.
        let mut live = 0;
        let mut append = |i: usize, v: NodeId, threshold: u64| {
            out[live] = v;
            live += usize::from(edges.is_live(first_eid + i, threshold));
        };
        match &self.coins {
            CoinThresholds::Constant(t) => {
                for (i, &v) in nbrs.iter().enumerate() {
                    append(i, v, *t);
                }
            }
            CoinThresholds::InDegree(by_node) => {
                for (i, &v) in nbrs.iter().enumerate() {
                    append(i, v, by_node[v as usize]);
                }
            }
            CoinThresholds::PerEdge => {
                let ArcProbs::Dense(probs) = g.out_arc_probs(u) else {
                    unreachable!("per-edge weights are stored per arc");
                };
                for (i, (&v, &p)) in nbrs.iter().zip(probs).enumerate() {
                    append(i, v, coin_threshold(p));
                }
            }
        }
        self.used = start + live;
        // Spans fit in u32: a cascade flips each edge at most once, and
        // edge ids are u32.
        rec.span_start = start as u32;
        rec.span_end = self.used as u32;
        (start, self.used)
    }
}

/// The original hash-map cascade implementation, kept as a correctness
/// and performance *reference* for the dense engine.
///
/// Used by the proptest equivalence suite in this module and by
/// `benches/engine.rs`; it is not part of the supported simulation API.
#[doc(hidden)]
pub mod reference {
    use super::*;
    use uic_util::{FxHashMap, VisitTags};

    /// A faithful port of the pre-engine `UicSimulator`: per-cascade
    /// `FxHashMap`s for node state and edge coins, with the same reused
    /// scratch the original owned (visit tags for step dedup, frontier
    /// double-buffer). Consumes the RNG stream in exactly the same order
    /// as [`CascadeState::run_lazy`](super::CascadeState::run_lazy), so
    /// the two are comparable per seed — and benchmarkable head-to-head
    /// without handicapping the hash-map side.
    pub struct ReferenceSimulator {
        touched_tags: VisitTags,
        touched: Vec<NodeId>,
        frontier: Vec<NodeId>,
        next_frontier: Vec<NodeId>,
    }

    impl ReferenceSimulator {
        /// Scratch sized for graph `g`.
        pub fn new(g: &Graph) -> ReferenceSimulator {
            ReferenceSimulator {
                touched_tags: VisitTags::new(g.num_nodes() as usize),
                touched: Vec::new(),
                frontier: Vec::new(),
                next_frontier: Vec::new(),
            }
        }

        /// One UIC cascade with lazy edge sampling, hash-map state.
        pub fn run(
            &mut self,
            g: &Graph,
            allocation: &Allocation,
            table: &UtilityTable,
            rng: &mut UicRng,
        ) -> UicOutcome {
            let mut oracle = AdoptionOracle::new(table);
            let mut state: FxHashMap<NodeId, (ItemSet, ItemSet)> = FxHashMap::default();
            let mut edge_cache: FxHashMap<usize, bool> = FxHashMap::default();
            self.frontier.clear();
            self.next_frontier.clear();

            let mut seeds: Vec<(NodeId, ItemSet)> = allocation
                .seeds()
                .filter(|(_, items)| !items.is_empty())
                .collect();
            seeds.sort_unstable_by_key(|&(v, _)| v);
            for &(v, items) in &seeds {
                let adopted = oracle.adopt(items, ItemSet::EMPTY);
                state.insert(v, (items, adopted));
                if !adopted.is_empty() {
                    self.frontier.push(v);
                }
            }

            let mut steps = 0u32;
            while !self.frontier.is_empty() {
                steps += 1;
                self.touched.clear();
                self.touched_tags.reset();
                for fi in 0..self.frontier.len() {
                    let u = self.frontier[fi];
                    let a_u = state.get(&u).map(|&(_, a)| a).unwrap_or(ItemSet::EMPTY);
                    let nbrs = g.out_neighbors(u);
                    let probs = g.out_arc_probs(u);
                    for (i, &v) in nbrs.iter().enumerate() {
                        let id = g.out_edge_id(u, i);
                        let live = match edge_cache.get(&id) {
                            Some(&status) => status,
                            None => {
                                let status = rng.coin(probs.get(i) as f64);
                                edge_cache.insert(id, status);
                                status
                            }
                        };
                        if !live {
                            continue;
                        }
                        let entry = state.entry(v).or_insert((ItemSet::EMPTY, ItemSet::EMPTY));
                        let grown = a_u.minus(entry.0);
                        if !grown.is_empty() {
                            entry.0 = entry.0.union(a_u);
                            if self.touched_tags.mark(v as usize) {
                                self.touched.push(v);
                            }
                        }
                    }
                }
                self.next_frontier.clear();
                for ti in 0..self.touched.len() {
                    let v = self.touched[ti];
                    let (desire, adopted) = *state.get(&v).expect("touched node must have state");
                    let new_adopted = oracle.adopt(desire, adopted);
                    if new_adopted != adopted {
                        state.get_mut(&v).unwrap().1 = new_adopted;
                        self.next_frontier.push(v);
                    }
                }
                std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            }

            let mut desires: Vec<(NodeId, ItemSet)> = Vec::with_capacity(state.len());
            let mut adoptions: Vec<(NodeId, ItemSet)> = Vec::new();
            for (&v, &(desire, adopted)) in &state {
                desires.push((v, desire));
                if !adopted.is_empty() {
                    adoptions.push((v, adopted));
                }
            }
            desires.sort_unstable_by_key(|&(v, _)| v);
            adoptions.sort_unstable_by_key(|&(v, _)| v);
            UicOutcome {
                adoptions,
                desires,
                steps,
            }
        }
    }

    /// One-shot convenience wrapper around [`ReferenceSimulator`].
    pub fn simulate(
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        rng: &mut UicRng,
    ) -> UicOutcome {
        ReferenceSimulator::new(g).run(g, allocation, table, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uic_util::split_seed;

    /// Builds a graph from proptest-drawn raw parts: `n` nodes, edges as
    /// `(src_raw, dst_raw, p)` reduced modulo `n`.
    fn build_graph(n: u32, raw_edges: &[(u32, u32, f32)]) -> Graph {
        let edges: Vec<(NodeId, NodeId, f32)> = raw_edges
            .iter()
            .map(|&(u, v, p)| (u % n, v % n, p))
            .collect();
        Graph::from_edges(n, &edges)
    }

    /// Builds an allocation from raw `(node_raw, item_raw)` pairs.
    fn build_allocation(n: u32, num_items: u32, raw: &[(u32, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for &(v, i) in raw {
            a.assign(v % n, i % num_items);
        }
        a
    }

    /// Builds a utility table over `num_items` items from raw values in
    /// `[-1, 2]`; `U(∅)` forced to 0 as the model requires.
    fn build_table(num_items: u32, raw: &[f64]) -> UtilityTable {
        let size = 1usize << num_items;
        let mut values: Vec<f64> = (0..size).map(|s| raw[s % raw.len()]).collect();
        values[0] = 0.0;
        UtilityTable::from_values(num_items, values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The dense engine and the hash-map reference produce identical
        /// adoptions, desires, steps, and welfare on every random
        /// instance and seed.
        #[test]
        fn dense_engine_matches_reference(
            n in 1u32..12,
            raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..24),
            num_items in 1u32..4,
            raw_pairs in proptest::collection::vec((0u32..64, 0u32..8), 0..8),
            raw_values in proptest::collection::vec(-1.0f64..2.0, 1..16),
            seed in 0u64..1_000_000,
        ) {
            let g = build_graph(n, &raw_edges);
            let alloc = build_allocation(n, num_items, &raw_pairs);
            let table = build_table(num_items, &raw_values);

            let mut dense_rng = UicRng::new(seed);
            let mut sim = CascadeState::new(&g);
            let dense = sim.run_lazy(&g, &alloc, &table, &mut dense_rng);

            let mut ref_rng = UicRng::new(seed);
            let reference = reference::simulate(&g, &alloc, &table, &mut ref_rng);

            prop_assert_eq!(&dense.adoptions, &reference.adoptions);
            prop_assert_eq!(&dense.desires, &reference.desires);
            prop_assert_eq!(dense.steps, reference.steps);
            let dw = dense.welfare(&table);
            let rw = reference.welfare(&table);
            prop_assert!(
                (dw - rw).abs() < 1e-12,
                "welfare {} vs {}", dw, rw
            );
        }

        /// Reusing one `CascadeState` across cascades never leaks state
        /// between runs: every cascade matches a fresh-state run.
        #[test]
        fn state_reuse_is_stateless(
            n in 1u32..10,
            raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..16),
            raw_pairs in proptest::collection::vec((0u32..64, 0u32..4), 0..6),
            raw_values in proptest::collection::vec(-1.0f64..2.0, 1..8),
            seed in 0u64..1_000_000,
        ) {
            let g = build_graph(n, &raw_edges);
            let alloc = build_allocation(n, 2, &raw_pairs);
            let table = build_table(2, &raw_values);
            let mut reused = CascadeState::new(&g);
            for round in 0..4u64 {
                let s = split_seed(seed, round);
                let a = reused.run_lazy(&g, &alloc, &table, &mut UicRng::new(s));
                let b = CascadeState::new(&g).run_lazy(&g, &alloc, &table, &mut UicRng::new(s));
                prop_assert_eq!(&a.adoptions, &b.adoptions);
                prop_assert_eq!(&a.desires, &b.desires);
                prop_assert_eq!(a.steps, b.steps);
            }
        }
    }

    #[test]
    fn world_and_lazy_agree_on_certain_edges() {
        // With all probabilities at 1.0 there is a single possible world;
        // lazy sampling and world replay must coincide exactly.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let table = UtilityTable::from_values(1, vec![0.0, 0.5]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        let mut sim = CascadeState::new(&g);
        let lazy = sim.run_lazy(&g, &alloc, &table, &mut UicRng::new(3));
        let world = LiveEdgeWorld::sample(&g, &mut UicRng::new(9));
        let replay = sim.run_world(&g, &alloc, &table, &world);
        assert_eq!(lazy.adoptions, replay.adoptions);
        assert_eq!(lazy.desires, replay.desires);
        assert_eq!(lazy.steps, replay.steps);
    }

    #[test]
    fn a_cascade_that_unwinds_leaves_the_state_reusable() {
        /// Every edge live, until the oracle panics on its `n`-th call.
        struct PanicAfter(usize);
        impl EdgeOracle for PanicAfter {
            fn is_live(&mut self, _edge_id: usize, _threshold: u64) -> bool {
                self.0 = self.0.checked_sub(1).expect("oracle gave up");
                true
            }
        }
        let chain: Vec<(NodeId, NodeId, f32)> = (0..5).map(|v| (v, v + 1, 1.0)).collect();
        let g = Graph::from_edges(6, &chain);
        let table = UtilityTable::from_values(1, vec![0.0, 1.0]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        let mut sim = CascadeState::new(&g);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_with(&g, &alloc, &table, &mut PanicAfter(3))
        }));
        assert!(unwound.is_err(), "informs nodes 0..=3, then unwinds");
        // Only 0 → 1 live: nodes 2 and 3 must not come back.
        let world = LiveEdgeWorld::from_mask(&g, 0b1);
        let out = sim.run_world(&g, &alloc, &table, &world);
        assert_eq!(
            out,
            CascadeState::new(&g).run_world(&g, &alloc, &table, &world)
        );
        assert_eq!(out.desires.len(), 2);
    }

    #[test]
    fn outcome_vectors_are_sorted_by_node() {
        let g = Graph::from_edges(5, &[(4, 2, 1.0), (2, 0, 1.0), (0, 3, 1.0)]);
        let table = UtilityTable::from_values(1, vec![0.0, 1.0]);
        let mut alloc = Allocation::new();
        alloc.assign(4, 0);
        let out = CascadeState::new(&g).run_lazy(&g, &alloc, &table, &mut UicRng::new(1));
        let nodes: Vec<NodeId> = out.adoptions.iter().map(|&(v, _)| v).collect();
        assert_eq!(nodes, vec![0, 2, 3, 4]);
        assert!(out.desires.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
