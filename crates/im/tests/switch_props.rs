//! Property suite for the coverage identity behind PRIMA's budget-switch
//! check.
//!
//! On a budget switch the certification loop reuses the previous greedy
//! ordering and needs the coverage of its first `k` seeds on the current
//! sample. A selection made on the first `p1` sets already reports
//! `covered[k − 1]`: the number of those `p1` sets that the first `k`
//! seeds cover. So once the arena has grown to `p2 ≥ p1`, the coverage
//! on all `p2` sets is `covered[k − 1]` plus the number of sets with ids
//! in `[p1, p2)` that contain one of those seeds.
//!
//! The property checks that identity for every `k` on random IC and LT
//! collections, against a brute-force count on a fresh collection grown
//! to exactly `p2`. It covers every way a selection is made: a direct
//! prefix selection, a slice of a memoized plan, a resumed plan, and
//! budgets capped at the node count. The fresh count is also tied to the
//! bits of `estimate_spread`.

use proptest::prelude::*;
use std::ops::Range;
use uic_graph::{Graph, GraphBuilder, NodeId, Weighting};
use uic_im::{
    node_selection_prefix_indexed, DiffusionModel, NodeSelectionResult, RrCollection, SelectionPlan,
};

/// Random sparse digraph: IC keeps the drawn probabilities, LT gets
/// weighted-cascade in-weights (each in-list sums to 1).
fn random_graph(n: u32, edges: &[(u32, u32, f32)], model: DiffusionModel) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, p) in edges {
        b.add_edge(u % n, v % n, p);
    }
    match model {
        DiffusionModel::IC => b.build(Weighting::AsGiven, 0),
        DiffusionModel::LT => b.build(Weighting::WeightedCascade, 0),
    }
}

/// Sets with ids in `ids` that contain a node of `seeds`, by scanning
/// the sets themselves.
fn count_by_scan(coll: &RrCollection, seeds: &[NodeId], ids: Range<usize>) -> u64 {
    ids.filter(|&j| coll.get(j).iter().any(|v| seeds.contains(v)))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reused_coverage_plus_the_new_range_is_a_fresh_count(
        n in 2u32..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14, 0.1f32..0.9), 0..40),
        lt in 0u32..2,
        seed in 0u64..1000,
        p1 in 0usize..150,
        grow in 0usize..150,
        kk in 1u32..18,
        k_short in 0u32..6,
    ) {
        let model = if lt == 1 { DiffusionModel::LT } else { DiffusionModel::IC };
        let g = random_graph(n, &edges, model);
        let p2 = p1 + grow;
        let mut coll = RrCollection::new(&g, model, seed);
        coll.extend_to(&g, p1);
        coll.ensure_index();

        let direct = node_selection_prefix_indexed(&coll, kk, p1);
        let plan = SelectionPlan::compute(&coll, kk, p1);
        let resumed = SelectionPlan::compute(&coll, k_short, p1).resume(&coll, kk);
        // Asking for more sets than the arena holds caps at its length.
        let capped = node_selection_prefix_indexed(&coll, kk, usize::MAX);
        let selections: [(&str, NodeSelectionResult); 4] = [
            ("direct", direct),
            ("plan slice", plan.slice(kk).unwrap()),
            ("resumed", resumed.slice(kk).unwrap()),
            ("capped", capped),
        ];

        coll.extend_to(&g, p2);
        coll.ensure_index();
        let mut fresh = RrCollection::new(&g, model, seed);
        fresh.extend_to(&g, p2);

        for (path, sel) in &selections {
            prop_assert_eq!(sel.num_sets, p1, "{}", path);
            prop_assert_eq!(sel.seeds.len(), (kk as usize).min(n as usize), "{}", path);
            // Budgets past the ordering's length reuse the whole ordering.
            for k in 1..=kk as usize + 2 {
                let prefix = sel.prefix(k);
                let reused = sel.covered[prefix.len() - 1];
                prop_assert_eq!(reused, count_by_scan(&coll, prefix, 0..p1), "{} k={}", path, k);
                let total = reused + count_by_scan(&coll, prefix, p1..p2);
                let want = count_by_scan(&fresh, prefix, 0..p2);
                prop_assert_eq!(total, want, "{} k={} p1={} p2={}", path, k, p1, p2);
                if p2 > 0 {
                    prop_assert_eq!(
                        fresh.estimate_spread(prefix).to_bits(),
                        (n as f64 * want as f64 / p2 as f64).to_bits(),
                        "{} k={}", path, k
                    );
                }
            }
        }
    }
}
