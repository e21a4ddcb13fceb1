//! Pinned RR-set streams of the standard IC/LT sampler.
//!
//! Set `j` of a collection is a pure function of `(model, seed, j)`, so
//! its raw contents — CSR offsets, members and the summed in-edge width —
//! can be pinned exactly. These constants fingerprint whole collections
//! on fixed graphs covering every weight representation the sampler
//! branches on: weighted cascade stored compactly (`InDegree`) and the
//! same probabilities stored per edge (the two must agree set for set),
//! constant probabilities including `1.0` and one below f64 resolution
//! (which falls back to per-edge coins), mixed per-edge lists,
//! zero-in-degree nodes, and LT, plus a larger graph whose walks run
//! through BFS levels hundreds of nodes wide. Each collection is grown
//! in one shot and in uneven top-ups, on the default worker count and
//! on pinned ones; every schedule must land on the same pinned stream.

use uic_graph::{Graph, NodeId, WeightClass, WeightSpec};
use uic_im::{DiffusionModel, RrCollection};

const N: u32 = 300;
/// Sets per collection.
const SETS: usize = 2_000;
/// Uneven top-up targets ending at `SETS`.
const TOP_UPS: &[usize] = &[1, 8, 300, 313, 1_312, 1_999, SETS];

/// Pseudo-random arcs with a spread of in-degrees: a hub with in-degree
/// 120, many nodes of in-degree 1–6, and nodes 280.. with none at all.
fn arcs() -> Vec<(NodeId, NodeId)> {
    let mut arcs = Vec::new();
    for u in 1..=120u32 {
        arcs.push((u, 0));
    }
    let mut x = 0x9e37_79b9u32;
    for v in 1..280u32 {
        for _ in 0..(v % 7) {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            arcs.push((x % N, v));
        }
    }
    arcs
}

fn in_degrees(arcs: &[(NodeId, NodeId)]) -> Vec<usize> {
    let mut d = vec![0usize; N as usize];
    for &(_, v) in arcs {
        d[v as usize] += 1;
    }
    d
}

fn graph(spec: WeightSpec<'_>) -> Graph {
    Graph::try_from_arcs(N, &arcs(), spec).expect("valid graph")
}

/// The weighted-cascade probabilities `1/max(d_in(v), 1)`, stored per edge.
fn wc_probs() -> Vec<f32> {
    let arcs = arcs();
    let d = in_degrees(&arcs);
    arcs.iter()
        .map(|&(_, v)| 1.0 / (d[v as usize].max(1) as f32))
        .collect()
}

/// Per-edge lists of every kind: uniform, mixed, all-zero, all-one.
fn mixed_probs() -> Vec<f32> {
    arcs()
        .iter()
        .enumerate()
        .map(|(i, &(_, v))| match v % 4 {
            0 => 0.25,
            1 => [0.05, 0.6, 0.0, 1.0][i % 4],
            2 => 0.0,
            _ => 1.0,
        })
        .collect()
}

/// LT in-weights summing to at most 1 per node, not uniform.
fn lt_probs() -> Vec<f32> {
    let arcs = arcs();
    let d = in_degrees(&arcs);
    arcs.iter()
        .enumerate()
        .map(|(i, &(_, v))| (0.5 + 0.5 * (i % 2) as f32) / (d[v as usize] as f32 + 0.5))
        .collect()
}

/// FNV-1a over the offsets, the members and the total width.
fn fingerprint(c: &RrCollection) -> u64 {
    let (offsets, data) = c.arena_parts();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = offsets
        .iter()
        .map(|&o| o as u64)
        .chain(data.iter().map(|&v| v as u64))
        .chain([c.total_width()]);
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Grows a collection through `targets` on `threads` workers (`None`
/// sizes by hardware and `UIC_THREADS`).
fn grow(
    g: &Graph,
    model: DiffusionModel,
    seed: u64,
    targets: &[usize],
    threads: Option<usize>,
) -> RrCollection {
    let mut c = RrCollection::new(g, model, seed);
    if let Some(t) = threads {
        c = c.with_threads(t);
    }
    for &t in targets {
        c.extend_to(g, t);
    }
    c
}

/// Checks every growth schedule against the pinned stream.
fn check(what: &str, g: &Graph, model: DiffusionModel, seed: u64, pin: (u64, u64)) {
    for (schedule, targets) in [("one shot", &[SETS][..]), ("top-ups", TOP_UPS)] {
        for threads in [None, Some(1), Some(3)] {
            let c = grow(g, model, seed, targets, threads);
            assert_eq!(c.len(), SETS);
            assert_eq!(
                (fingerprint(&c), c.total_width()),
                pin,
                "{what}: {schedule} on {threads:?} workers"
            );
        }
    }
}

/// Weighted cascade on seed 11: in-degree and per-edge storage agree.
const WC_PIN: (u64, u64) = (12432911005515103865, 33275);

#[test]
fn the_test_graph_has_every_in_degree_shape() {
    let d = in_degrees(&arcs());
    assert_eq!(d[0], 120);
    assert!(d.contains(&1));
    assert!(d[280..].iter().all(|&x| x == 0));
    assert_eq!(
        graph(WeightSpec::InDegree).weight_class(),
        WeightClass::InDegree
    );
}

#[test]
fn weighted_cascade_in_degree_storage() {
    let g = graph(WeightSpec::InDegree);
    check("wc in-degree", &g, DiffusionModel::IC, 11, WC_PIN);
}

#[test]
fn weighted_cascade_per_edge_storage_matches_in_degree() {
    let probs = wc_probs();
    let g = graph(WeightSpec::PerEdge(&probs));
    assert_eq!(g.weight_class(), WeightClass::PerEdge);
    check("wc per-edge", &g, DiffusionModel::IC, 11, WC_PIN);
}

#[test]
fn constant_probabilities() {
    for (c, seed, pin) in [
        (0.3f32, 5, (4298102271537101029, 46388)),
        (1.0, 6, (10377311992094244001, 1382307)),
        (1e-20, 7, (9317591919625130883, 6349)),
    ] {
        let g = graph(WeightSpec::Constant(c));
        check(&format!("constant {c}"), &g, DiffusionModel::IC, seed, pin);
    }
}

#[test]
fn mixed_per_edge_lists() {
    let probs = mixed_probs();
    let g = graph(WeightSpec::PerEdge(&probs));
    check(
        "mixed",
        &g,
        DiffusionModel::IC,
        13,
        (9642718101333341063, 190100),
    );
}

#[test]
fn linear_threshold() {
    let g = graph(WeightSpec::InDegree);
    check(
        "lt in-degree",
        &g,
        DiffusionModel::LT,
        17,
        (6765024987528667573, 32779),
    );
    let probs = lt_probs();
    let g = graph(WeightSpec::PerEdge(&probs));
    check(
        "lt per-edge",
        &g,
        DiffusionModel::LT,
        19,
        (15761970268891657648, 12802),
    );
}

/// A 3000-node graph of in-degree 5 at constant p = 0.3: 1.5 live
/// in-edges per visited node, so most walks reach a large share of the
/// graph through BFS levels hundreds of nodes wide.
fn wide_graph() -> Graph {
    let n = 3_000u32;
    let mut x = 0x2545_f491u32;
    let mut arcs = Vec::new();
    for v in 0..n {
        for _ in 0..5 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            arcs.push((x % n, v));
        }
    }
    Graph::try_from_arcs(n, &arcs, WeightSpec::Constant(0.3)).expect("valid graph")
}

#[test]
fn wide_bfs_levels() {
    let g = wide_graph();
    let sets = 300;
    let pin = (6222451041551333947, 1662070);
    for (schedule, targets) in [
        ("one shot", &[sets][..]),
        ("top-ups", &[1, 2, 90, 151, 299, sets][..]),
    ] {
        for threads in [None, Some(1), Some(3)] {
            let c = grow(&g, DiffusionModel::IC, 23, targets, threads);
            assert_eq!(c.len(), sets);
            let widest = c.iter().map(<[NodeId]>::len).max().unwrap_or(0);
            assert!(widest > 1_000, "walks must reach wide levels ({widest})");
            assert_eq!(
                (fingerprint(&c), c.total_width()),
                pin,
                "wide levels: {schedule} on {threads:?} workers"
            );
        }
    }
}
