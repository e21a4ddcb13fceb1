//! The dense, epoch-stamped cascade engine shared by every simulator.
//!
//! Per-cascade state handling is *the* hot path of the whole reproduction:
//! the welfare estimator `ρ(𝒮)` (§3.3/§4.1.1) and all baselines it is
//! compared against are Monte-Carlo loops over cascade simulations. The
//! engine therefore keeps every piece of per-cascade state in flat arrays
//! indexed by the graph's dense `u32` node ids:
//!
//! * node `(desire, adoption)` state in an [`EpochMap`] — `reset()` is an
//!   epoch bump, so starting a cascade costs `O(1)`, not `O(n)`;
//! * live out-edge spans per node in `LiveLists` — there is no per-edge
//!   memo. In the UIC model a node's out-edges are tested only when that
//!   node expands, so at its *first* expansion every one of them is still
//!   untested: the engine flips them all, in out-edge order, and appends
//!   the live targets to one per-cascade buffer, recording the node's
//!   `(start, end)` span. A later expansion (the node's adoption set grew
//!   again) walks that span. Each edge is still flipped at most once per
//!   cascade (Fig. 1), the coins are drawn in the same order as a per-edge
//!   cache would draw them, and the memory is `O(n)` instead of `O(m)`;
//! * the frontier double-buffer and touched-node lists in reusable `Vec`s.
//!
//! After warm-up no allocation happens per cascade. How edge liveness is
//! decided is abstracted behind [`EdgeOracle`], unifying lazy coin
//! sampling ([`LazyCoins`]) with deterministic replay of a pre-sampled
//! [`LiveEdgeWorld`] ([`WorldOracle`]) — the two evaluation modes the
//! paper's possible-world semantics require. Both go through the same
//! live-span path.
//!
//! The [`mod@reference`] module keeps the original hash-map implementation as
//! a correctness oracle: the proptest suite below checks dense-vs-
//! reference equivalence on random instances, and `benches/engine.rs`
//! measures the speedup.

use crate::allocation::Allocation;
use crate::uic::UicOutcome;
use crate::worlds::LiveEdgeWorld;
use uic_graph::{Graph, NodeId};
use uic_items::{AdoptionOracle, ItemSet, UtilityTable};
use uic_util::{EpochMap, UicRng, VisitTags};

/// Decides edge liveness during a cascade, identified by global edge id.
///
/// The engine asks about each edge **at most once per cascade**, at its
/// source's first expansion, walking the source's out-edges in order;
/// it remembers the live targets itself, per node.
pub trait EdgeOracle {
    /// Is the edge with global id `edge_id` (base probability `p`) live?
    fn is_live(&mut self, edge_id: usize, p: f32) -> bool;
}

/// Lazy coin flipping — the Monte-Carlo mode. One coin per asked edge.
pub struct LazyCoins<'a> {
    /// Coin source.
    pub rng: &'a mut UicRng,
}

impl EdgeOracle for LazyCoins<'_> {
    #[inline]
    fn is_live(&mut self, _edge_id: usize, p: f32) -> bool {
        self.rng.coin(p as f64)
    }
}

/// Deterministic replay of a pre-sampled live-edge world — the
/// enumeration / exact-evaluation mode.
pub struct WorldOracle<'a>(pub &'a LiveEdgeWorld);

impl EdgeOracle for WorldOracle<'_> {
    #[inline]
    fn is_live(&mut self, edge_id: usize, _p: f32) -> bool {
        self.0.is_live_id(edge_id)
    }
}

/// The live out-neighbours of every node expanded so far in one cascade.
///
/// Valid for diffusions in which a node's out-edges are tested only when
/// that node expands (UIC and its personalized-noise variant): the first
/// [`Self::live_out`] call for a node asks the oracle about each of its
/// out-edges in order and records the live targets; every later call
/// returns the recorded span without asking again. Spans live in one
/// flat buffer, so a cascade costs one `O(1)` reset and no allocation
/// after warm-up.
#[derive(Debug)]
pub(crate) struct LiveLists {
    /// `(start, end)` of each expanded node's span in `targets`.
    span: EpochMap<(usize, usize)>,
    /// Live targets of all expanded nodes, span after span.
    targets: Vec<NodeId>,
}

impl LiveLists {
    /// Empty lists for a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> LiveLists {
        LiveLists {
            span: EpochMap::new(n),
            targets: Vec::new(),
        }
    }

    /// Forgets every span (start of a new cascade).
    pub(crate) fn reset(&mut self) {
        self.span.reset();
        self.targets.clear();
    }

    /// Live targets of `u`'s out-edges, in out-edge order (a parallel
    /// edge appears once per live copy).
    #[inline]
    pub(crate) fn live_out<O: EdgeOracle>(
        &mut self,
        g: &Graph,
        u: NodeId,
        edges: &mut O,
    ) -> &[NodeId] {
        let (start, end) = match self.span.get(u as usize) {
            Some(span) => span,
            None => {
                let start = self.targets.len();
                let probs = g.out_arc_probs(u);
                let first_eid = g.out_edge_id(u, 0);
                for (i, &v) in g.out_neighbors(u).iter().enumerate() {
                    if edges.is_live(first_eid + i, probs.get(i)) {
                        self.targets.push(v);
                    }
                }
                let span = (start, self.targets.len());
                self.span.insert(u as usize, span);
                span
            }
        };
        &self.targets[start..end]
    }
}

/// Per-node diffusion state: desire set `R(v)` and adoption set `A(v)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeState {
    desire: ItemSet,
    adopted: ItemSet,
}

/// Reusable dense cascade state: owns the per-node `(desire, adoption)`
/// arrays, the per-node live out-edge spans, and the frontier
/// double-buffer.
///
/// One `CascadeState` serves arbitrarily many cascades on the same graph;
/// all resets are epoch bumps or `Vec::clear`, so a Monte-Carlo loop is
/// allocation-free after its first cascade.
#[derive(Debug)]
pub struct CascadeState {
    node: EpochMap<NodeState>,
    live: LiveLists,
    /// Nodes informed this cascade, in first-contact order.
    informed: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    /// Dedup tags for nodes whose desire grew in the current step.
    step_tags: VisitTags,
    step_touched: Vec<NodeId>,
    /// Seed pairs sorted by node id — fixes the coin-consumption order
    /// independently of `Allocation`'s hash iteration order.
    seed_buf: Vec<(NodeId, ItemSet)>,
}

impl CascadeState {
    /// State sized for graph `g`.
    pub fn new(g: &Graph) -> CascadeState {
        let n = g.num_nodes() as usize;
        CascadeState {
            node: EpochMap::new(n),
            live: LiveLists::new(n),
            informed: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            step_tags: VisitTags::new(n),
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
    ///
    /// Implements Fig. 1 of the paper: seeds desire their allocation and
    /// adopt the utility-maximizing subset; each step, last round's
    /// adopters push their full adoption set over live out-edges; nodes
    /// whose desire grew re-decide `argmax { U(T) | A ⊆ T ⊆ R, U(T) ≥ 0 }`.
    pub fn run_with<O: EdgeOracle>(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        edges: &mut O,
    ) -> UicOutcome {
        let mut oracle = AdoptionOracle::new(table);
        self.node.reset();
        self.live.reset();
        self.informed.clear();
        self.frontier.clear();
        self.next_frontier.clear();

        // t = 1: seed initialization (Fig. 1 preamble), in node-id order.
        self.seed_buf.clear();
        self.seed_buf
            .extend(allocation.seeds().filter(|(_, items)| !items.is_empty()));
        self.seed_buf.sort_unstable_by_key(|&(v, _)| v);
        for si in 0..self.seed_buf.len() {
            let (v, items) = self.seed_buf[si];
            let adopted = oracle.adopt(items, ItemSet::EMPTY);
            self.node.insert(
                v as usize,
                NodeState {
                    desire: items,
                    adopted,
                },
            );
            self.informed.push(v);
            if !adopted.is_empty() {
                self.frontier.push(v);
            }
        }

        let mut steps = 0u32;
        while !self.frontier.is_empty() {
            steps += 1;
            self.step_touched.clear();
            self.step_tags.reset();
            // Step 1–2: propagate adoption sets over the live out-edges
            // of last round's adopters (tested now, on first expansion).
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                let a_u = self.node.get_or_default(u as usize).adopted;
                debug_assert!(!a_u.is_empty(), "frontier node {u} adopted nothing");
                for &v in self.live.live_out(g, u, edges) {
                    let (st, fresh) = self.node.slot(v as usize);
                    if fresh {
                        self.informed.push(v);
                    }
                    let grown = a_u.minus(st.desire);
                    if !grown.is_empty() {
                        st.desire = st.desire.union(a_u);
                        if self.step_tags.mark(v as usize) {
                            self.step_touched.push(v);
                        }
                    }
                }
            }
            // Step 3: re-evaluate adoption where desire grew.
            self.next_frontier.clear();
            for ti in 0..self.step_touched.len() {
                let v = self.step_touched[ti];
                let st = self
                    .node
                    .get(v as usize)
                    .expect("touched node must have state");
                let new_adopted = oracle.adopt(st.desire, st.adopted);
                if new_adopted != st.adopted {
                    self.node
                        .get_mut(v as usize)
                        .expect("touched node must have state")
                        .adopted = new_adopted;
                    self.next_frontier.push(v);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        // Dense outcome: sorted (node, itemset) pairs.
        self.informed.sort_unstable();
        let mut desires = Vec::with_capacity(self.informed.len());
        let mut adoptions = Vec::new();
        for &v in &self.informed {
            let st = self.node.get_or_default(v as usize);
            desires.push((v, st.desire));
            if !st.adopted.is_empty() {
                adoptions.push((v, st.adopted));
            }
        }
        UicOutcome {
            adoptions,
            desires,
            steps,
        }
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
    use uic_util::FxHashMap;

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
