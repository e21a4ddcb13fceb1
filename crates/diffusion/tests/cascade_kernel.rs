//! Pins the memo-free cascade kernel and the sample-parallel welfare
//! estimator to the semantics they replaced:
//!
//! 1. A node that expands twice (first with `i1`, later with the bundle)
//!    pushes over exactly the live out-edges of its first expansion, and
//!    every cascade matches the hash-map reference simulator.
//! 2. The personalized-noise simulator at zero noise draws the same
//!    coins, in the same order, as the reference simulator.
//! 3. `estimate_stats` is bit-identical to the sequential 64-sample-block
//!    reduction for every sample count around the block size, every
//!    thread count (the worker split may cut inside a block), both noise
//!    paths and every shipped objective.
//! 4. `estimate_adoptions` equals its historical sequential loop.

use std::sync::Arc;
use uic_diffusion::engine::reference;
use uic_diffusion::{
    Allocation, CascadeState, Ces, Maximin, PerCommunity, PersonalizedSimulator, UicSimulator,
    Utilitarian, WelfareEstimator, WelfareObjective,
};
use uic_graph::{CommunityLabels, Graph, NodeId};
use uic_items::{
    ItemSet, NoiseDistribution, NoiseModel, Price, TableValuation, UtilityModel, UtilityTable,
};
use uic_util::{split_seed, OnlineStats, UicRng};

/// The bundle-completion instance. Node 0 holds `i1`, node 1 holds `i2`
/// (worthless alone). `i1` reaches the hub 2 in step 1, so the hub first
/// expands with `{i1}`; the bundle travels 0 → 1 → 3 → 2 and reaches
/// the hub in step 3, so it expands again with `{i1, i2}`. The hub's
/// out-edges to the leaves 10..40 are coins at p = 0.5.
fn re_expansion_instance() -> (Graph, UtilityTable, Allocation) {
    let mut edges = vec![(0, 2, 1.0), (0, 1, 1.0), (1, 3, 1.0), (3, 2, 1.0)];
    edges.extend((10..40).map(|leaf| (2, leaf, 0.5)));
    // A few leaves feed each other, so later steps also flip coins.
    edges.extend((10..20).map(|leaf| (leaf, leaf + 20, 0.5)));
    let g = Graph::from_edges(40, &edges);
    // U(i1) = 0.5, U(i2) = −0.2, U(i1, i2) = 1.5.
    let table = UtilityTable::from_values(2, vec![0.0, 0.5, -0.2, 1.5]);
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    alloc.assign(1, 1);
    (g, table, alloc)
}

#[test]
fn a_re_expanding_node_pushes_over_its_first_live_set() {
    let (g, table, alloc) = re_expansion_instance();
    let mut state = CascadeState::new(&g);
    let bundle = ItemSet::full(2);
    let mut saw_partial = false;
    for seed in 0..400u64 {
        let dense = state.run_lazy(&g, &alloc, &table, &mut UicRng::new(seed));
        let oracle = reference::simulate(&g, &alloc, &table, &mut UicRng::new(seed));
        assert_eq!(dense, oracle, "seed {seed}");

        assert_eq!(dense.adoption_of(2), bundle, "seed {seed}: hub completes");
        // The hub's bundle expansion reaches exactly the leaves its first
        // expansion reached with i1: every informed leaf that only the
        // hub feeds ends up holding the bundle.
        let informed_leaves: Vec<NodeId> =
            (10..40).filter(|&v| dense.desire_of(v).is_some()).collect();
        for &leaf in informed_leaves.iter().filter(|&&v| v < 30) {
            assert_eq!(dense.adoption_of(leaf), bundle, "seed {seed} leaf {leaf}");
        }
        saw_partial |= !informed_leaves.is_empty() && informed_leaves.len() < 30;
    }
    assert!(saw_partial, "p = 0.5 coins must leave some leaves dark");
}

#[test]
fn zero_noise_personalized_cascades_draw_the_reference_coins() {
    let (g, _, alloc) = re_expansion_instance();
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.5, 2.8, 7.5])),
        Price::additive(vec![3.0, 3.0]),
        NoiseModel::new(vec![
            NoiseDistribution::gaussian_var(0.0),
            NoiseDistribution::gaussian_var(0.0),
        ]),
    );
    let table = model.deterministic_table();
    let mut sim = PersonalizedSimulator::new(&g, 2);
    for seed in 0..200u64 {
        let pers = sim.run(&g, &alloc, &model, 17, &mut UicRng::new(seed));
        let oracle = reference::simulate(&g, &alloc, &table, &mut UicRng::new(seed));
        assert_eq!(pers.adoptions, oracle.adoptions, "seed {seed}");
    }
}

/// A 2-item model on the re-expansion graph, noisy or noiseless.
fn model(noisy: bool) -> UtilityModel {
    let noise = if noisy {
        NoiseModel::iid_gaussian_var(2, 0.5)
    } else {
        NoiseModel::none(2)
    };
    UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.5, 2.8, 7.5])),
        Price::additive(vec![3.0, 3.0]),
        noise,
    )
}

/// The sequential estimator the sample-parallel one replaced: one
/// simulator, fixed 64-sample blocks from sample 0, merged in order.
fn sequential_stats(
    g: &Graph,
    model: &UtilityModel,
    alloc: &Allocation,
    objective: &dyn WelfareObjective,
    sims: u32,
    seed: u64,
) -> OnlineStats {
    let mut sim = UicSimulator::new(g);
    let mut total = OnlineStats::new();
    for lo in (0..sims).step_by(64) {
        let mut block = OnlineStats::new();
        for s in lo..(lo + 64).min(sims) {
            let mut rng = UicRng::new(split_seed(seed, s as u64));
            let world = model.sample_noise(&mut rng);
            let table = model.table_for(&world);
            let outcome = sim.run(g, alloc, &table, &mut rng);
            block.push(objective.welfare(&outcome, &table, g.num_nodes()));
        }
        total.merge(&block);
    }
    total
}

#[test]
fn estimates_are_bit_identical_for_every_split() {
    let (g, _, alloc) = re_expansion_instance();
    let labels = Arc::new(CommunityLabels::contiguous(g.num_nodes(), 3));
    let objectives: Vec<Arc<dyn WelfareObjective>> = vec![
        Arc::new(Utilitarian),
        Arc::new(Maximin),
        Arc::new(Ces::new(0.5).unwrap()),
        Arc::new(PerCommunity::new(labels, 0.5).unwrap()),
    ];
    for noisy in [false, true] {
        let model = model(noisy);
        // A noiseless model's `sample_noise` draws nothing, so the
        // reference's per-sample table equals the shared one.
        for objective in &objectives {
            for sims in [1u32, 16, 63, 64, 65, 130] {
                let want = sequential_stats(&g, &model, &alloc, objective.as_ref(), sims, 31);
                for threads in [1usize, 2, 3, 8] {
                    let got = WelfareEstimator::new(&g, &model, sims, 31)
                        .with_objective(objective.clone())
                        .with_threads(threads)
                        .estimate_stats(&alloc);
                    let case = format!("{} noisy={noisy} sims={sims} x{threads}", objective.key());
                    assert_eq!(got.count(), want.count(), "{case}");
                    assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{case}");
                    assert_eq!(
                        got.ci95_halfwidth().to_bits(),
                        want.ci95_halfwidth().to_bits(),
                        "{case}"
                    );
                }
            }
        }
    }
}

#[test]
fn adoption_estimates_match_the_sequential_loop() {
    let (g, _, alloc) = re_expansion_instance();
    for noisy in [false, true] {
        let model = model(noisy);
        let sims = 150;
        let mut sim = UicSimulator::new(&g);
        let mut stats = OnlineStats::new();
        for s in 0..sims {
            let mut rng = UicRng::new(split_seed(5, s as u64));
            let world = model.sample_noise(&mut rng);
            let table = model.table_for(&world);
            stats.push(sim.run(&g, &alloc, &table, &mut rng).total_adoptions() as f64);
        }
        for threads in [1usize, 2, 3] {
            let got = WelfareEstimator::new(&g, &model, sims, 5)
                .with_threads(threads)
                .estimate_adoptions(&alloc);
            assert_eq!(
                got.to_bits(),
                stats.mean().to_bits(),
                "noisy={noisy} x{threads}"
            );
        }
    }
}
