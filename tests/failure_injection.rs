//! Failure-injection and degenerate-input tests: every constructor and
//! algorithm must either handle the edge case meaningfully or reject it
//! loudly at the boundary — never corrupt state or return garbage.

use std::sync::Arc;
use uic::prelude::*;

// ---------------------------------------------------------------------
// Graph boundaries
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "out of range")]
fn graph_builder_rejects_out_of_range_edges() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 7, 0.5);
}

#[test]
fn empty_graph_is_usable_where_it_can_be() {
    let g = Graph::from_edges(0, &[]);
    assert_eq!(g.num_nodes(), 0);
    assert_eq!(g.num_edges(), 0);
    assert!(pagerank(&g, 0.85, 10).is_empty());
}

#[test]
fn single_node_graph_diffusion_is_trivial() {
    let g = Graph::from_edges(1, &[]);
    assert_eq!(spread_mc(&g, &[0], 100, 1), 1.0);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(1, vec![0.0, 2.0])),
        Price::additive(vec![1.0]),
        NoiseModel::none(1),
    );
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    let w = WelfareEstimator::new(&g, &model, 50, 1).estimate(&alloc);
    assert!(
        (w - 1.0).abs() < 1e-9,
        "lone seed adopts, welfare 1, got {w}"
    );
}

#[test]
fn self_loops_are_dropped_not_crashed() {
    let mut b = GraphBuilder::new(2).dedup(true);
    b.add_edge(0, 0, 0.9);
    b.add_edge(0, 1, 0.5);
    let g = b.build(Weighting::AsGiven, 0);
    assert_eq!(g.num_edges(), 1, "self-loop must be dropped");
}

// ---------------------------------------------------------------------
// Utility-model boundaries
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "2^n entries")]
fn table_valuation_rejects_wrong_table_size() {
    TableValuation::from_table(2, vec![0.0, 1.0, 2.0]);
}

#[test]
#[should_panic(expected = "U(∅) must be 0")]
fn utility_table_rejects_nonzero_empty_set() {
    UtilityTable::from_values(1, vec![1.0, 2.0]);
}

#[test]
#[should_panic(expected = "non-negative")]
fn negative_singleton_value_rejected() {
    // Valuations are monotone with V(∅)=0, so singletons must be ≥ 0.
    AdditiveValuation::new(vec![2.0, -1.0]);
}

#[test]
fn zero_variance_noise_is_exactly_deterministic() {
    let dist = NoiseDistribution::gaussian_var(0.0);
    let mut rng = UicRng::new(7);
    for _ in 0..100 {
        assert_eq!(dist.sample(&mut rng), 0.0);
    }
}

#[test]
fn noise_model_arity_is_enforced_at_model_assembly() {
    // Mismatched arity between valuation and noise must be rejected.
    let result = std::panic::catch_unwind(|| {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, 1.0, 3.0])),
            Price::additive(vec![0.5, 0.5]),
            NoiseModel::none(3),
        )
    });
    assert!(result.is_err(), "arity mismatch must panic");
}

// ---------------------------------------------------------------------
// Allocator boundaries
// ---------------------------------------------------------------------

/// A two-item instance on `g` (the allocators below never read the
/// utilities, but an instance carries them).
fn two_item_instance(g: &Graph, budgets: [u32; 2]) -> WelMaxInstance<'_> {
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 2.0, 2.0, 5.0])),
        Price::additive(vec![1.0, 1.0]),
        NoiseModel::none(2),
    );
    WelMax::on(g).model(model).budgets(budgets).build().unwrap()
}

#[test]
fn bundle_grd_with_budget_equal_to_n_seeds_everyone() {
    let g = Graph::from_edges(4, &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]);
    let r = <dyn Allocator>::by_name("bundle-grd")
        .unwrap()
        .run(&two_item_instance(&g, [4, 2]), &SolveCtx::new(1));
    assert_eq!(r.allocation.seeds_of_item(0).len(), 4);
    assert_eq!(r.allocation.seeds_of_item(1).len(), 2);
}

#[test]
fn item_disj_survives_total_budget_exceeding_n() {
    let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
    let r = <dyn Allocator>::by_name("item-disj")
        .unwrap()
        .run(&two_item_instance(&g, [3, 3]), &SolveCtx::new(1));
    assert!(r.allocation.num_seed_nodes() <= 3);
    assert!(r.allocation.respects_budgets(&[3, 3]));
}

#[test]
#[should_panic(expected = "out of range")]
fn prima_rejects_budget_above_n() {
    let g = Graph::from_edges(3, &[(0, 1, 0.5)]);
    prima(&g, &[5], 0.5, 1.0, DiffusionModel::IC, 1);
}

#[test]
#[should_panic(expected = "non-empty candidate")]
fn pair_greedy_rejects_empty_candidate_pool() {
    let g = Graph::from_edges(2, &[(0, 1, 0.5)]);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(1, vec![0.0, 2.0])),
        Price::additive(vec![1.0]),
        NoiseModel::none(1),
    );
    let inst = WelMax::on(&g).model(model).budgets([1u32]).build().unwrap();
    // A zero-size pool preselects no candidates at all.
    uic::core::solver::McGreedy { sims: 10, pool: 0 }.run(&inst, &SolveCtx::new(1));
}

// ---------------------------------------------------------------------
// Diffusion boundaries
// ---------------------------------------------------------------------

#[test]
fn uic_with_empty_allocation_produces_zero_welfare() {
    let g = Graph::from_edges(5, &[(0, 1, 0.5), (1, 2, 0.5)]);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, 1.0, 3.0])),
        Price::additive(vec![0.5, 0.5]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    );
    let w = WelfareEstimator::new(&g, &model, 200, 3).estimate(&Allocation::new());
    assert_eq!(w, 0.0);
}

#[test]
fn zero_probability_edges_never_fire() {
    let g = Graph::from_edges(3, &[(0, 1, 0.0), (1, 2, 0.0)]);
    assert_eq!(spread_mc(&g, &[0], 2_000, 5), 1.0);
}

#[test]
fn certain_edges_always_fire() {
    let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
    assert_eq!(spread_mc(&g, &[0], 2_000, 5), 3.0);
}

#[test]
fn extreme_noise_variance_does_not_produce_nan_welfare() {
    let g = Graph::from_edges(4, &[(0, 1, 0.5), (0, 2, 0.5), (2, 3, 0.5)]);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(1, vec![0.0, 1.0])),
        Price::additive(vec![1.0]),
        NoiseModel::iid_gaussian_var(1, 1e12),
    );
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    let w = WelfareEstimator::new(&g, &model, 500, 9).estimate(&alloc);
    assert!(w.is_finite(), "welfare must stay finite, got {w}");
}

#[test]
fn disconnected_components_do_not_leak_adoptions() {
    // Two disjoint 2-chains; seeding component A must never activate B.
    let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(1, vec![0.0, 2.0])),
        Price::additive(vec![1.0]),
        NoiseModel::none(1),
    );
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    let outcome = simulate_uic(
        &g,
        &alloc,
        &model.deterministic_table(),
        &mut UicRng::new(17),
    );
    assert!(
        outcome.adoption_of(1).contains(0),
        "in-component node adopts"
    );
    assert!(!outcome.adoption_of(2).contains(0), "cross-component leak");
    assert!(!outcome.adoption_of(3).contains(0), "cross-component leak");
}

// ---------------------------------------------------------------------
// RR machinery boundaries
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "out of range")]
fn raw_rr_sets_reject_out_of_range_nodes() {
    uic::im::RrCollection::from_raw_sets(2, vec![vec![5]]);
}

#[test]
fn rr_sets_on_edgeless_graph_are_singletons() {
    let g = Graph::from_edges(4, &[]);
    let mut coll = uic::im::RrCollection::new(&g, DiffusionModel::IC, 1);
    coll.extend_to(&g, 100);
    for r in coll.iter() {
        assert_eq!(r.len(), 1, "no edges ⇒ RR set is its root only");
    }
}
