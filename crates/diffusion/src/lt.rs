//! Linear Threshold model (§2.1; §5: "our results and techniques carry
//! over unchanged to any triggering propagation model").
//!
//! Each node `v` draws a threshold `θ_v ∼ U[0,1]`; `v` activates when the
//! sum of weights from its active in-neighbors reaches `θ_v`. The
//! equivalent triggering/live-edge view — each node picks **at most one**
//! in-edge with probability proportional to its weight — is what the LT
//! RR-set sampler in `uic-im` uses; this module provides the forward
//! simulator that sampler's spread estimates are tested against.

use uic_graph::{Graph, NodeId};
use uic_util::{UicRng, VisitTags};

/// Runs one LT cascade from `seeds` with freshly drawn thresholds;
/// returns the number of active nodes. Requires `Σ_u p(u,v) ≤ 1` for all
/// `v` (checked with a small tolerance in debug builds).
pub fn simulate_lt(g: &Graph, seeds: &[NodeId], rng: &mut UicRng) -> usize {
    let n = g.num_nodes() as usize;
    let mut active = VisitTags::new(n);
    let mut influence = vec![0.0f64; n];
    let mut thresholds = vec![0.0f64; n];
    // Thresholds drawn lazily on first contact to avoid O(n) setup; a
    // value of 0 means "not yet drawn" and is replaced on first use.
    let mut drawn = VisitTags::new(n);
    let mut queue: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if active.mark(s as usize) {
            queue.push(s);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let nbrs = g.out_neighbors(u);
        let probs = g.out_arc_probs(u);
        for (i, &v) in nbrs.iter().enumerate() {
            let vi = v as usize;
            if active.is_marked(vi) {
                continue;
            }
            if drawn.mark(vi) {
                thresholds[vi] = rng.next_f64();
            }
            influence[vi] += probs.get(i) as f64;
            debug_assert!(
                influence[vi] <= 1.0 + 1e-6,
                "LT weights into node {v} exceed 1"
            );
            if influence[vi] >= thresholds[vi] {
                active.mark(vi);
                queue.push(v);
            }
        }
    }
    queue.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt_graph() -> Graph {
        // In-weights sum to ≤ 1 everywhere.
        Graph::from_edges(4, &[(0, 1, 0.6), (2, 1, 0.4), (1, 3, 0.5), (0, 3, 0.3)])
    }

    #[test]
    fn full_weight_forces_activation() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]);
        let mut rng = UicRng::new(1);
        assert_eq!(simulate_lt(&g, &[0], &mut rng), 2);
    }

    #[test]
    fn no_seeds_no_activity() {
        let g = lt_graph();
        let mut rng = UicRng::new(1);
        assert_eq!(simulate_lt(&g, &[], &mut rng), 0);
    }

    #[test]
    fn joint_seeds_activate_deterministic_neighbor() {
        // Seeds {0,2} push 0.6+0.4 = 1.0 ≥ θ onto node 1, always active.
        let g = lt_graph();
        for seed in 0..50u64 {
            let mut rng = UicRng::new(seed);
            let count = simulate_lt(&g, &[0, 2], &mut rng);
            assert!(count >= 3, "node 1 must always activate, got {count}");
        }
    }
}
