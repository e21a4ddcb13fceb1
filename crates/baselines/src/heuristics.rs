//! **PageRank** by power iteration — the ranking behind the
//! `pagerank-top` registry entry (`uic_core::solver::PageRankTop`), which
//! runs it on the transposed graph and seeds every item on its
//! budget-prefix of the result.

use uic_graph::{Graph, NodeId};

/// Standard PageRank by power iteration with uniform teleportation;
/// dangling-node mass is redistributed uniformly so the scores stay a
/// probability distribution at every iteration.
///
/// ```
/// use uic_baselines::pagerank;
/// use uic_graph::Graph;
///
/// // Everyone endorses node 0.
/// let g = Graph::from_edges(3, &[(1, 0, 1.0), (2, 0, 1.0)]);
/// let scores = pagerank(&g, 0.85, 50);
/// assert!(scores[0] > scores[1]);
/// assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank(g: &Graph, damping: f64, iterations: u32) -> Vec<f64> {
    assert!(
        (0.0..1.0).contains(&damping),
        "damping must be in [0, 1), got {damping}"
    );
    let n = g.num_nodes() as usize;
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.fill(0.0);
        let mut dangling = 0.0f64;
        for (u, &r) in rank.iter().enumerate() {
            let outs = g.out_neighbors(u as NodeId);
            if outs.is_empty() {
                dangling += r;
            } else {
                let share = r / outs.len() as f64;
                for &v in outs {
                    next[v as usize] += share;
                }
            }
        }
        let teleport = (1.0 - damping) * uniform + damping * dangling * uniform;
        for r in next.iter_mut() {
            *r = damping * *r + teleport;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_graph::{GraphBuilder, Weighting};

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(20);
        for leaf in 1..15u32 {
            b.add_edge(0, leaf, 0.5);
        }
        b.add_edge(15, 16, 0.5);
        b.add_edge(15, 17, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn pagerank_scores_sum_to_one() {
        let g = hub_graph();
        let scores = pagerank(&g, 0.85, 50);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert!(scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn pagerank_uniform_on_symmetric_cycle() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let scores = pagerank(&g, 0.85, 100);
        for &s in &scores {
            assert!((s - 0.25).abs() < 1e-9, "cycle must be uniform, got {s}");
        }
    }

    #[test]
    fn pagerank_prestige_flows_to_popular_node() {
        // Everyone points at node 0 ⇒ node 0 has the top score.
        let g = Graph::from_edges(4, &[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)]);
        let scores = pagerank(&g, 0.85, 100);
        assert!(scores[0] > scores[1]);
        assert!(scores[0] > scores[2]);
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // Star into node 1, which dangles: without dangling handling the
        // total mass would leak each iteration.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (2, 1, 1.0)]);
        let scores = pagerank(&g, 0.85, 200);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn empty_graph_gives_empty_scores() {
        let g = Graph::from_edges(0, &[]);
        assert!(pagerank(&g, 0.85, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_rejected() {
        let g = hub_graph();
        pagerank(&g, 1.5, 10);
    }
}
