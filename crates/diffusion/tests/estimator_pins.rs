//! Pins the exact bits of the Monte-Carlo welfare estimator on a
//! generated 2,000-node graph under each structural weight class the
//! engine keys its edge coins by: weighted cascade (`InDegree`),
//! `Constant(0.05)` and trivalency (`PerEdge`). Each class runs with
//! Table 3's config-1 noise and with zero noise, so both the per-sample
//! table and the shared table paths are covered.
//!
//! `exact_welfare_given_noise` is pinned on a tiny graph: it replays
//! enumerated live-edge worlds through the same cascade kernel, so it
//! covers the fixed-world oracle.
//!
//! The values were recorded from the kernel that flipped each coin as
//! `next_f64() < p`. Any change to the kernel must keep them: the same
//! RNG outputs, in the same order, decide the same edges.

use std::sync::Arc;
use uic_datasets::{preferential_attachment, PaOptions, TwoItemConfig};
use uic_diffusion::{exact_welfare_given_noise, Allocation, WelfareEstimator};
use uic_graph::{Graph, GraphBuilder, NodeId, Weighting};
use uic_items::{NoiseModel, Price, TableValuation, UtilityModel};
use uic_util::UicRng;

const SIMS: u32 = 256;
const SEED: u64 = 2024;

/// The generated topology, rebuilt under `weighting`.
fn graph(weighting: Weighting) -> Graph {
    let opts = PaOptions {
        n: 2000,
        edges_per_node: 3,
        undirected: true,
        ..PaOptions::default()
    };
    let base = preferential_attachment(opts, 7);
    let mut b = GraphBuilder::new(base.num_nodes());
    for (u, v, _) in base.edges() {
        b.add_arc(u, v);
    }
    b.build(weighting, 11)
}

/// Item 0 on the 20 highest out-degree nodes, item 1 on ranks 5–14, so
/// ten seeds hold the bundle (ties broken by node id).
fn allocation(g: &Graph) -> Allocation {
    let mut by_degree: Vec<NodeId> = (0..g.num_nodes()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    let mut a = Allocation::new();
    for &v in &by_degree[..20] {
        a.assign(v, 0);
    }
    for &v in &by_degree[5..15] {
        a.assign(v, 1);
    }
    a
}

/// Config 1 of Table 3, with its Gaussian noise or with none.
fn model(noisy: bool) -> UtilityModel {
    let config = TwoItemConfig::new(1).model();
    if noisy {
        return config;
    }
    UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 8.0])),
        Price::additive(vec![3.0, 4.0]),
        NoiseModel::none(2),
    )
}

/// `(class, noisy, count, mean bits, ci95 bits, adoptions bits)`.
type Pin = (&'static str, bool, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: [Pin; 6] = [
    ("wc", true, 256, 0x407f1418a7a0c368, 0x4049269490d405c6, 0x40823ecffffffffb),
    ("wc", false, 256, 0x4075179ffffffffe, 0x4021eb7ceb615de6, 0x408af437fffffffd),
    ("const", true, 256, 0x405459a211029594, 0x4020ea14383e4194, 0x4057ff3ffffffff9),
    ("const", false, 256, 0x4049f08000000000, 0x3ff6676c9c91c714, 0x4061718000000002),
    ("trivalency", true, 256, 0x404e2712dc51788c, 0x4018d28401d9980f, 0x4051bc7fffffffff),
    ("trivalency", false, 256, 0x4043298000000000, 0x3feceb1614885bd6, 0x405a80bffffffffe),
];

fn weighting(class: &str) -> Weighting {
    match class {
        "wc" => Weighting::WeightedCascade,
        "const" => Weighting::Constant(0.05),
        "trivalency" => Weighting::Trivalency,
        other => panic!("unknown class {other}"),
    }
}

#[test]
fn estimator_bits_are_pinned_per_weight_class_and_noise() {
    let mut got = Vec::new();
    for &(class, noisy, ..) in &PINS {
        let g = graph(weighting(class));
        let model = model(noisy);
        let alloc = allocation(&g);
        let est = WelfareEstimator::new(&g, &model, SIMS, SEED);
        let stats = est.estimate_stats(&alloc);
        let adoptions = est.estimate_adoptions(&alloc);
        got.push((
            class,
            noisy,
            stats.count(),
            stats.mean().to_bits(),
            stats.ci95_halfwidth().to_bits(),
            adoptions.to_bits(),
        ));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|&(c, n, k, m, h, a)| format!("(\"{c}\", {n}, {k}, {m:#018x}, {h:#018x}, {a:#018x}),"))
        .collect();
    assert_eq!(got, PINS, "recorded:\n{}", rendered.join("\n"));
}

/// Five nodes, eight edges with distinct probabilities (2^8 worlds).
fn tiny_graph() -> Graph {
    Graph::from_edges(
        5,
        &[
            (0, 1, 0.5),
            (0, 2, 0.3),
            (1, 2, 0.7),
            (1, 3, 0.25),
            (2, 3, 0.6),
            (2, 4, 0.1),
            (3, 4, 0.9),
            (4, 0, 0.45),
        ],
    )
}

#[test]
fn exact_welfare_over_enumerated_worlds_is_pinned() {
    let g = tiny_graph();
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    alloc.assign(3, 1);
    let noisy = model(true);
    let mut tables = vec![model(false).deterministic_table()];
    let mut rng = UicRng::new(5);
    for _ in 0..3 {
        tables.push(noisy.table_for(&noisy.sample_noise(&mut rng)));
    }
    let got: Vec<u64> = tables
        .iter()
        .map(|t| exact_welfare_given_noise(&g, &alloc, t).to_bits())
        .collect();
    let want: [u64; 4] = [
        0x3ff972bfd3d5143a,
        0x3fe5c2a115135006,
        0x400868bf69d6fec4,
        0x4014608ff398fe6a,
    ];
    let rendered: Vec<String> = got.iter().map(|b| format!("{b:#018x}")).collect();
    assert_eq!(got, want, "recorded: [{}]", rendered.join(", "));
}
