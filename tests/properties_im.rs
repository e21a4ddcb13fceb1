//! Property-based tests (proptest) on the influence-maximization
//! machinery: PageRank invariants, greedy max-coverage structure, and
//! live-edge world consistency — all over randomly generated graphs.

use proptest::prelude::*;
use uic::prelude::*;

/// Strategy: a random directed graph as an edge list over `n` nodes.
fn small_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n, 0.0f32..=1.0), 0..max_edges).prop_map(move |edges| {
        let mut b = GraphBuilder::new(n).dedup(true);
        for (u, v, p) in edges {
            if u != v {
                b.add_edge(u, v, p);
            }
        }
        b.build(Weighting::AsGiven, 0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PageRank is a probability distribution on every graph, dangling
    /// nodes or not.
    #[test]
    fn pagerank_is_a_distribution(g in small_graph(12, 40), damping in 0.0f64..0.99) {
        let scores = pagerank(&g, damping, 60);
        let total: f64 = scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum {total}");
        for &s in &scores {
            prop_assert!(s >= 0.0 && s.is_finite());
        }
    }

    /// With damping 0 PageRank collapses to the uniform distribution
    /// regardless of structure.
    #[test]
    fn pagerank_damping_zero_is_uniform(g in small_graph(10, 30)) {
        let scores = pagerank(&g, 0.0, 5);
        for &s in &scores {
            prop_assert!((s - 0.1).abs() < 1e-9);
        }
    }

    /// Greedy max-coverage (NodeSelection) prefix property on random
    /// collections: the k-seed result is a prefix of the (k+j)-seed
    /// result over the same sets.
    #[test]
    fn node_selection_prefix_property(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 1..4), 1..20),
        k in 1u32..4,
    ) {
        let mut coll = uic::im::RrCollection::from_raw_sets(8, sets);
        let small = uic::im::node_selection(&mut coll, k);
        let large = uic::im::node_selection(&mut coll, k + 3);
        prop_assert_eq!(&small.seeds[..], &large.seeds[..small.seeds.len()]);
        // Cumulative coverage is non-decreasing and bounded by |sets|.
        for w in large.covered.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        if let Some(&last) = large.covered.last() {
            prop_assert!(last <= coll.len() as u64);
        }
    }

    /// Live-edge worlds: reachability contains the sources, is monotone
    /// in the source set, and `is_live_id` agrees with `is_live`.
    #[test]
    fn live_edge_world_consistency(g in small_graph(10, 30), seed in 0u64..1000) {
        let w = uic::diffusion::LiveEdgeWorld::sample(&g, &mut UicRng::new(seed));
        // Edge-id view agrees with the (node, out-index) view.
        for u in 0..g.num_nodes() {
            for i in 0..g.out_degree(u) {
                let eid = g.out_edge_id(u, i);
                prop_assert_eq!(w.is_live(&g, u, i), w.is_live_id(eid));
            }
        }
        let small = w.reachable(&g, &[0]);
        prop_assert!(small.contains(&0));
        let large = w.reachable(&g, &[0, 5]);
        for v in &small {
            prop_assert!(large.contains(v), "monotonicity violated at {v}");
        }
    }

    /// Degree and PageRank allocations are always budget-exact and
    /// prefix-shaped (smaller-budget items get subsets of larger ones).
    #[test]
    fn heuristic_allocations_are_prefix_shaped(
        g in small_graph(12, 40),
        b1 in 1u32..6,
        b2 in 1u32..6,
    ) {
        let model = UtilityModel::new(
            std::sync::Arc::new(AdditiveValuation::new(vec![1.0, 1.0])),
            Price::additive(vec![0.0, 0.0]),
            NoiseModel::none(2),
        );
        let inst = WelMaxInstance::try_new_any_order(&g, model, vec![b1, b2]).unwrap();
        let ctx = SolveCtx::new(1).with_sims(0);
        for key in ["degree-top", "pagerank-top"] {
            let r = <dyn Allocator>::by_name(key).unwrap().solve(&inst, &ctx);
            prop_assert!(r.allocation.respects_budgets(&[b1, b2]));
            let s0 = r.allocation.seeds_of_item(0);
            let s1 = r.allocation.seeds_of_item(1);
            prop_assert_eq!(s0.len(), b1 as usize);
            prop_assert_eq!(s1.len(), b2 as usize);
            let (short, long) = if b1 <= b2 { (&s0, &s1) } else { (&s1, &s0) };
            for v in short.iter() {
                prop_assert!(long.contains(v), "prefix shape violated");
            }
        }
    }
}
