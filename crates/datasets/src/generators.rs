//! Synthetic social-network generators.
//!
//! The stand-in networks must reproduce the *regimes* the paper's
//! algorithms are sensitive to: heavy-tailed degree distributions (hub
//! structure drives RR-set sizes and seed quality), controllable density,
//! and directed/undirected variants. Preferential attachment delivers
//! the power-law tail; Erdős–Rényi serves tests and ablations.

use uic_graph::{Graph, GraphBuilder, Weighting};
use uic_util::UicRng;

/// Options for the preferential-attachment generator.
#[derive(Debug, Clone, Copy)]
pub struct PaOptions {
    /// Number of nodes.
    pub n: u32,
    /// Out-edges added per arriving node.
    pub edges_per_node: u32,
    /// Probability of attaching uniformly at random instead of
    /// preferentially (0 = pure PA, 1 = pure random). Mixing keeps the
    /// tail heavy while avoiding a single dominating hub.
    pub uniform_mix: f64,
    /// If true, also add the reverse arc (undirected networks — the
    /// Flixster/Orkut stand-ins).
    pub undirected: bool,
    /// Fraction of forward arcs additionally reversed (directed
    /// reciprocity, as observed in follow networks). Ignored when
    /// `undirected`.
    pub reciprocity: f64,
}

impl Default for PaOptions {
    fn default() -> Self {
        PaOptions {
            n: 1000,
            edges_per_node: 5,
            uniform_mix: 0.15,
            undirected: false,
            reciprocity: 0.1,
        }
    }
}

/// Preferential-attachment graph: arriving node `v` links to
/// `edges_per_node` targets drawn from the degree-weighted repeat list
/// (the standard Barabási–Albert urn) or uniformly with probability
/// `uniform_mix`. Weighted-cascade probabilities are applied at the end.
pub fn preferential_attachment(opts: PaOptions, seed: u64) -> Graph {
    let PaOptions {
        n,
        edges_per_node,
        uniform_mix,
        undirected,
        reciprocity,
    } = opts;
    assert!(n >= 2, "need at least two nodes");
    assert!(edges_per_node >= 1);
    let mut rng = UicRng::new(seed);
    let mut builder = GraphBuilder::new(n).dedup(true);
    builder.reserve(n as usize * edges_per_node as usize * 2);
    // Urn of endpoints, each occurrence ∝ one incident (in-)edge.
    let mut urn: Vec<u32> = Vec::with_capacity(n as usize * edges_per_node as usize);
    urn.push(0);
    for v in 1..n {
        let k = edges_per_node.min(v);
        let mut chosen: Vec<u32> = Vec::with_capacity(k as usize);
        let mut guard = 0;
        while chosen.len() < k as usize && guard < 50 * k {
            guard += 1;
            let target = if rng.next_f64() < uniform_mix || urn.is_empty() {
                rng.next_below(v)
            } else {
                urn[rng.next_below(urn.len() as u32) as usize]
            };
            if target != v && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &t in &chosen {
            if undirected {
                builder.add_undirected(v, t);
            } else {
                builder.add_arc(v, t);
                if rng.coin(reciprocity) {
                    builder.add_arc(t, v);
                }
            }
            urn.push(t);
            urn.push(v);
        }
    }
    builder.build(Weighting::WeightedCascade, seed ^ 0x5eed)
}

/// Erdős–Rényi `G(n, m)`: `m` distinct directed edges drawn uniformly.
pub fn erdos_renyi(n: u32, m: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let max_edges = n as usize * (n as usize - 1);
    assert!(m <= max_edges, "cannot place {m} edges in a {n}-node graph");
    let mut rng = UicRng::new(seed);
    let mut builder = GraphBuilder::new(n).dedup(true);
    builder.reserve(m);
    let mut placed = 0usize;
    let mut seen = uic_util::FxHashSet::default();
    while placed < m {
        let u = rng.next_below(n);
        let v = rng.next_below(n);
        if u != v && seen.insert((u, v)) {
            builder.add_arc(u, v);
            placed += 1;
        }
    }
    builder.build(Weighting::WeightedCascade, seed ^ 0x5eed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_graph::GraphStats;

    #[test]
    fn pa_reaches_target_size_and_density() {
        let g = preferential_attachment(
            PaOptions {
                n: 2000,
                edges_per_node: 5,
                ..Default::default()
            },
            7,
        );
        assert_eq!(g.num_nodes(), 2000);
        let avg = g.avg_degree();
        assert!((4.0..7.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn pa_degree_distribution_is_heavy_tailed() {
        let g = preferential_attachment(
            PaOptions {
                n: 3000,
                edges_per_node: 4,
                uniform_mix: 0.1,
                ..Default::default()
            },
            11,
        );
        let stats = GraphStats::compute(&g);
        // Hubs should dwarf the average: max in-degree ≥ 8× mean.
        assert!(
            stats.max_in_degree as f64 > 8.0 * g.avg_degree(),
            "max in-degree {} vs avg {}",
            stats.max_in_degree,
            g.avg_degree()
        );
    }

    #[test]
    fn pa_undirected_is_fully_reciprocal() {
        let g = preferential_attachment(
            PaOptions {
                n: 500,
                edges_per_node: 3,
                undirected: true,
                ..Default::default()
            },
            13,
        );
        let stats = GraphStats::compute(&g);
        assert!((stats.reciprocity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pa_is_deterministic() {
        let opts = PaOptions {
            n: 400,
            edges_per_node: 3,
            ..Default::default()
        };
        let a = preferential_attachment(opts, 5);
        let b = preferential_attachment(opts, 5);
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn er_exact_edge_count_no_duplicates() {
        let g = erdos_renyi(100, 500, 3);
        assert_eq!(g.num_edges(), 500);
        let mut seen = std::collections::HashSet::new();
        for (u, v, _) in g.edges() {
            assert!(u != v, "self loop");
            assert!(seen.insert((u, v)), "duplicate edge ({u},{v})");
        }
    }

    #[test]
    fn weighted_cascade_probabilities_applied() {
        let g = erdos_renyi(50, 200, 9);
        for v in 0..50u32 {
            let din = g.in_degree(v);
            for p in g.in_arc_probs(v).iter() {
                assert!((p - 1.0 / din as f32).abs() < 1e-6);
            }
        }
    }
}
