//! The **Utility-driven Independent Cascade** diffusion (Fig. 1 of the
//! paper).
//!
//! Semantics implemented literally:
//! 1. Noise is sampled once per diffusion (callers pass the resulting
//!    [`UtilityTable`]); utilities are then deterministic.
//! 2. At `t = 1` seeds desire their allocated itemsets and adopt the
//!    utility-maximizing subset (ties → larger sets).
//! 3. Each later step, every node that adopted something new tests its
//!    untested out-edges once (live w.p. `p(u,v)`, status remembered);
//!    live edges copy the *full* adoption set of the source into the
//!    target's desire set; targets then re-adopt
//!    `argmax { U(T) | A ⊆ T ⊆ R, U(T) ≥ 0 }`.
//! 4. The process is progressive — desire and adoption sets only grow —
//!    and stops when no adoption set changes.
//!
//! The actual cascade loop lives in [`crate::engine`]; this module keeps
//! the UIC-facing API ([`UicSimulator`], [`UicOutcome`], the one-shot
//! helpers) on top of it.

use crate::allocation::Allocation;
use crate::engine::CascadeState;
use crate::worlds::LiveEdgeWorld;
use uic_graph::{Graph, NodeId};
use uic_items::{ItemSet, UtilityTable};
use uic_util::UicRng;

/// Result of one UIC diffusion, in dense sorted-vector form.
///
/// Both vectors are sorted by node id, so point lookups are binary
/// searches and whole-outcome scans are cache-linear — the hash-map
/// representation this replaced was the dominant cost of small-cascade
/// Monte-Carlo loops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UicOutcome {
    /// Final adoption set `A^𝒮(v)` for every node that adopted something,
    /// sorted by node id.
    pub adoptions: Vec<(NodeId, ItemSet)>,
    /// Final desire set `R^𝒮(v)` for every node that was ever informed,
    /// sorted by node id.
    pub desires: Vec<(NodeId, ItemSet)>,
    /// Number of diffusion steps until quiescence.
    pub steps: u32,
}

impl UicOutcome {
    /// Social welfare of this world: `Σ_v U(A(v))` (Fig. 1 §3.3).
    pub fn welfare(&self, table: &UtilityTable) -> f64 {
        self.adoptions.iter().map(|&(_, a)| table.utility(a)).sum()
    }

    /// Number of nodes that adopted item `i`.
    pub fn adopters_of(&self, item: u32) -> usize {
        self.adoptions
            .iter()
            .filter(|(_, a)| a.contains(item))
            .count()
    }

    /// Total `(node, item)` adoption count (the multi-item "spread").
    pub fn total_adoptions(&self) -> usize {
        self.adoptions.iter().map(|&(_, a)| a.len() as usize).sum()
    }

    /// Number of nodes that adopted anything.
    pub fn num_adopters(&self) -> usize {
        self.adoptions.len()
    }

    /// Final adoption set of `v` (empty if `v` adopted nothing).
    pub fn adoption_of(&self, v: NodeId) -> ItemSet {
        match self.adoptions.binary_search_by_key(&v, |&(u, _)| u) {
            Ok(idx) => self.adoptions[idx].1,
            Err(_) => ItemSet::EMPTY,
        }
    }

    /// Final desire set of `v`, or `None` if `v` was never informed.
    pub fn desire_of(&self, v: NodeId) -> Option<ItemSet> {
        self.desires
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|idx| self.desires[idx].1)
    }

    /// Iterates the final adoption sets (of adopting nodes only).
    pub fn adoption_sets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        self.adoptions.iter().map(|&(_, a)| a)
    }
}

/// Reusable simulator: owns the dense scratch state so Monte-Carlo loops
/// do not allocate per cascade (see [`crate::engine`]).
pub struct UicSimulator {
    state: CascadeState,
}

impl UicSimulator {
    /// Scratch for graph `g`; run it on `g` only (it holds `g`'s coin
    /// thresholds).
    pub fn new(g: &Graph) -> UicSimulator {
        UicSimulator {
            state: CascadeState::new(g),
        }
    }

    /// Runs one diffusion with lazy edge sampling.
    pub fn run(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        rng: &mut UicRng,
    ) -> UicOutcome {
        self.state.run_lazy(g, allocation, table, rng)
    }

    /// Runs one diffusion in a fixed live-edge world (deterministic).
    pub fn run_in_world(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        world: &LiveEdgeWorld,
    ) -> UicOutcome {
        self.state.run_world(g, allocation, table, world)
    }
}

/// One-shot UIC diffusion with lazy edge sampling.
pub fn simulate_uic(
    g: &Graph,
    allocation: &Allocation,
    table: &UtilityTable,
    rng: &mut UicRng,
) -> UicOutcome {
    UicSimulator::new(g).run(g, allocation, table, rng)
}

/// One-shot UIC diffusion in a fixed live-edge world.
pub fn simulate_uic_in_world(
    g: &Graph,
    allocation: &Allocation,
    table: &UtilityTable,
    world: &LiveEdgeWorld,
) -> UicOutcome {
    UicSimulator::new(g).run_in_world(g, allocation, table, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::enumerate_edge_worlds;

    /// The Fig. 2 scenario: three nodes, edges v1→v2, v1→v3, v2→v3.
    /// Items: U(i1) > 0, U(i2) < 0, U({i1,i2}) > U(i1).
    fn fig2_graph() -> Graph {
        Graph::from_edges(3, &[(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)])
    }

    fn fig2_table() -> UtilityTable {
        UtilityTable::from_values(2, vec![0.0, 0.1, -0.5, 0.6])
    }

    fn fig2_allocation() -> Allocation {
        let mut a = Allocation::new();
        a.assign(0, 0); // v1 seeded with i1
        a.assign(2, 1); // v3 seeded with i2
        a
    }

    #[test]
    fn figure2_walkthrough_exact_world() {
        // Replicate the exact world of Fig. 2: (v1,v2) live, (v1,v3)
        // blocked, (v2,v3) live. Edge ids by source: v1's edges are 0,1
        // in neighbor order (1 then 2), v2's edge is 2.
        let g = fig2_graph();
        let table = fig2_table();
        // edge 0 = (0→1) live, edge 1 = (0→2) blocked, edge 2 = (1→2) live
        let world = LiveEdgeWorld::from_mask(&g, 0b101);
        let out = simulate_uic_in_world(&g, &fig2_allocation(), &table, &world);
        assert_eq!(out.adoption_of(0), ItemSet::singleton(0), "v1 adopts i1");
        assert_eq!(out.adoption_of(1), ItemSet::singleton(0), "v2 adopts i1");
        assert_eq!(
            out.adoption_of(2),
            ItemSet::full(2),
            "v3 adopts {{i1,i2}} (desired i2 from seeding, i1 via v2)"
        );
        // Welfare: 0.1 + 0.1 + 0.6 = 0.8.
        assert!((out.welfare(&table) - 0.8).abs() < 1e-12);
        assert_eq!(out.adopters_of(0), 3);
        assert_eq!(out.adopters_of(1), 1);
        assert_eq!(out.num_adopters(), 3);
    }

    #[test]
    fn seed_does_not_adopt_negative_item_but_keeps_desire() {
        let g = fig2_graph();
        let table = fig2_table();
        let world = LiveEdgeWorld::from_mask(&g, 0b000); // nothing live
        let out = simulate_uic_in_world(&g, &fig2_allocation(), &table, &world);
        assert_eq!(out.adoption_of(2), ItemSet::EMPTY);
        assert_eq!(out.desire_of(2), Some(ItemSet::singleton(1)));
        assert_eq!(out.desire_of(1), None, "v2 was never informed");
        assert!((out.welfare(&table) - 0.1).abs() < 1e-12, "only v1's i1");
    }

    #[test]
    fn seed_adopts_profitable_subset_of_allocation() {
        // A seed given both items adopts the pair (supermodular boost).
        let g = Graph::from_edges(1, &[]);
        let table = fig2_table();
        let mut a = Allocation::new();
        a.assign(0, 0);
        a.assign(0, 1);
        let mut rng = UicRng::new(1);
        let out = simulate_uic(&g, &a, &table, &mut rng);
        assert_eq!(out.adoption_of(0), ItemSet::full(2));
    }

    #[test]
    fn seed_adopts_only_profitable_item_when_pair_is_bad() {
        // U(i1)=1, U(i2)=−2, U(both)=−0.5: adopt {i1} only.
        let table = UtilityTable::from_values(2, vec![0.0, 1.0, -2.0, -0.5]);
        let g = Graph::from_edges(1, &[]);
        let mut a = Allocation::new();
        a.assign(0, 0);
        a.assign(0, 1);
        let mut rng = UicRng::new(1);
        let out = simulate_uic(&g, &a, &table, &mut rng);
        assert_eq!(out.adoption_of(0), ItemSet::singleton(0));
    }

    #[test]
    fn reachability_lemma_holds_in_every_world() {
        // Lemma 3: if u adopts i in world W, every node reachable from u
        // in W adopts i. Check on all worlds of the Fig. 2 instance.
        let g = fig2_graph();
        let table = fig2_table();
        let alloc = fig2_allocation();
        for (world, _) in enumerate_edge_worlds(&g) {
            let out = simulate_uic_in_world(&g, &alloc, &table, &world);
            for &(u, a_u) in &out.adoptions {
                for v in world.reachable(&g, &[u]) {
                    let a_v = out.adoption_of(v);
                    assert!(
                        a_u.is_subset_of(a_v),
                        "node {v} reachable from {u} misses items {:?}",
                        a_u.minus(a_v)
                    );
                }
            }
        }
    }

    #[test]
    fn welfare_is_monotone_per_world() {
        // Theorem 1's per-world monotonicity: adding allocation pairs
        // never decreases welfare in any fixed world.
        let g = fig2_graph();
        let table = fig2_table();
        let small = fig2_allocation();
        let mut large = small.clone();
        large.assign(1, 1); // extra pair (v2, i2)
        for (world, _) in enumerate_edge_worlds(&g) {
            let w_small = simulate_uic_in_world(&g, &small, &table, &world).welfare(&table);
            let w_large = simulate_uic_in_world(&g, &large, &table, &world).welfare(&table);
            assert!(
                w_large >= w_small - 1e-12,
                "welfare dropped {w_small} → {w_large}"
            );
        }
    }

    #[test]
    fn adoption_sets_are_local_maxima_everywhere() {
        // Lemma 2 at the end of diffusion.
        let g = fig2_graph();
        let table = fig2_table();
        let alloc = fig2_allocation();
        for (world, _) in enumerate_edge_worlds(&g) {
            let out = simulate_uic_in_world(&g, &alloc, &table, &world);
            for &(v, a) in &out.adoptions {
                assert!(table.is_local_maximum(a), "node {v}: {a} not local max");
            }
        }
    }

    #[test]
    fn lazy_simulation_is_deterministic_per_seed() {
        let g = fig2_graph();
        let table = fig2_table();
        let alloc = fig2_allocation();
        let w1 = simulate_uic(&g, &alloc, &table, &mut UicRng::new(5)).welfare(&table);
        let w2 = simulate_uic(&g, &alloc, &table, &mut UicRng::new(5)).welfare(&table);
        assert_eq!(w1, w2);
    }

    #[test]
    fn empty_allocation_produces_zero_welfare() {
        let g = fig2_graph();
        let table = fig2_table();
        let mut rng = UicRng::new(1);
        let out = simulate_uic(&g, &Allocation::new(), &table, &mut rng);
        assert_eq!(out.welfare(&table), 0.0);
        assert_eq!(out.total_adoptions(), 0);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn simulator_reuse_matches_fresh_runs() {
        let g = fig2_graph();
        let table = fig2_table();
        let alloc = fig2_allocation();
        let mut sim = UicSimulator::new(&g);
        for seed in 0..20u64 {
            let mut r1 = UicRng::new(seed);
            let mut r2 = UicRng::new(seed);
            let reused = sim.run(&g, &alloc, &table, &mut r1);
            let fresh = simulate_uic(&g, &alloc, &table, &mut r2);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn multi_hop_bundle_completion() {
        // Chain 0→1→2 (p=1). Seed 0 with i1, seed 2 with i2 where i2
        // needs i1 to be profitable. i1 flows down and completes the
        // bundle at node 2.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let table = UtilityTable::from_values(2, vec![0.0, 0.5, -0.2, 1.5]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(2, 1);
        let mut rng = UicRng::new(3);
        let out = simulate_uic(&g, &alloc, &table, &mut rng);
        assert_eq!(out.adoption_of(0), ItemSet::singleton(0));
        assert_eq!(out.adoption_of(1), ItemSet::singleton(0));
        assert_eq!(out.adoption_of(2), ItemSet::full(2));
    }
}
