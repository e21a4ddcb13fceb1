//! Determinism guarantees: every stochastic component of the library is
//! a pure function of its explicit `u64` seed — results are replayable
//! across runs and independent of thread scheduling. This is what makes
//! EXPERIMENTS.md reproducible and the benchmarks meaningful.

use uic::prelude::*;

fn network(seed: u64) -> Graph {
    uic::datasets::generators::preferential_attachment(
        uic::datasets::PaOptions {
            n: 600,
            edges_per_node: 5,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn generators_replay_exactly() {
    let a = network(5);
    let b = network(5);
    assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    let c = uic::datasets::erdos_renyi(200, 800, 9);
    let d = uic::datasets::erdos_renyi(200, 800, 9);
    assert_eq!(c.edges().collect::<Vec<_>>(), d.edges().collect::<Vec<_>>());
}

#[test]
fn named_networks_replay_exactly() {
    use uic::datasets::{named_network, NamedNetwork};
    for which in NamedNetwork::ALL {
        let a = named_network(which, 0.005, 3);
        let b = named_network(which, 0.005, 3);
        assert_eq!(a.num_nodes(), b.num_nodes(), "{}", which.name());
        assert_eq!(
            a.edges().collect::<Vec<_>>(),
            b.edges().collect::<Vec<_>>(),
            "{}",
            which.name()
        );
    }
}

#[test]
fn seed_selection_replays_exactly() {
    let g = network(7);
    for _ in 0..2 {
        let a = prima(&g, &[10, 5], 0.4, 1.0, DiffusionModel::IC, 11);
        let b = prima(&g, &[10, 5], 0.4, 1.0, DiffusionModel::IC, 11);
        assert_eq!(a.order, b.order);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
    }
}

#[test]
fn welfare_estimates_are_thread_count_invariant() {
    // The estimator splits seeds per simulation index, so its result is
    // a pure function of (graph, model, allocation, sims, seed): two
    // estimates agree bit-for-bit even though worker threads race.
    use std::sync::Arc;
    let g = network(9);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 3.0, 8.0])),
        Price::additive(vec![3.0, 4.0]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    );
    let alloc = Allocation::from_item_seeds(&[vec![0, 1, 2], vec![0, 1]]);
    let est = WelfareEstimator::new(&g, &model, 3_000, 17);
    let w1 = est.estimate(&alloc);
    let w2 = est.estimate(&alloc);
    assert_eq!(w1, w2, "bit-exact replay expected");
    let s1 = spread_mc(&g, &[0, 1, 2], 3_000, 19);
    let s2 = spread_mc(&g, &[0, 1, 2], 3_000, 19);
    assert_eq!(s1, s2);
}

#[test]
fn rr_collections_grow_deterministically_in_parallel() {
    use uic::im::RrCollection;
    let g = network(21);
    // Force a large parallel batch.
    let mut a = RrCollection::new(&g, DiffusionModel::IC, 23);
    a.extend_to(&g, 50_000);
    let mut b = RrCollection::new(&g, DiffusionModel::IC, 23);
    // Grow in two uneven steps: content must match the one-shot growth.
    b.extend_to(&g, 12_345);
    b.extend_to(&g, 50_000);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_actually_differ() {
    let g = network(25);
    let a = imm(&g, 8, 0.4, 1.0, DiffusionModel::IC, 1);
    let b = imm(&g, 8, 0.4, 1.0, DiffusionModel::IC, 2);
    // Orders may coincide on easy graphs, but the RR streams must not.
    let mut ca = uic::im::RrCollection::new(&g, DiffusionModel::IC, 1);
    ca.extend_to(&g, 100);
    let mut cb = uic::im::RrCollection::new(&g, DiffusionModel::IC, 2);
    cb.extend_to(&g, 100);
    assert_ne!(ca, cb);
    let _ = (a, b);
}

#[test]
fn full_experiment_tables_replay() {
    // The smallest full-pipeline artifact: Table 6 on a smoke network.
    let opts = uic::experiments::ExpOptions {
        scale: 0.02,
        sims: 30,
        ..Default::default()
    };
    let a = uic::experiments::tables::table6(&opts);
    let b = uic::experiments::tables::table6(&opts);
    assert_eq!(a, b);
}
