//! IMM — Influence Maximization via Martingales (Tang, Shi & Xiao 2015),
//! with the from-scratch regeneration fix of Chen (2018) that the paper
//! adopts (§4.2.3, reference \[13\]).
//!
//! Phase 1 (sampling) doubles a guess `x = n/2^i` downwards until the
//! greedy seed set certifies a lower bound `LB ≥ OPT_k/(1+ε′)`; phase 2
//! regenerates `θ = λ*/LB` fresh RR sets and runs the final
//! `NodeSelection` on them.
//!
//! That is PRIMA with a one-entry budget vector: the union bound over
//! budgets adds `log_n 1 = 0` to `ℓ`, and PRIMA's certification loop
//! and final regeneration reduce to IMM's two phases. So [`imm`] runs
//! [`crate::prima()`] on `[k]` and maps the result.

use crate::prima::prima;
use crate::rrset::DiffusionModel;
use uic_graph::{Graph, NodeId};

/// Result of an IMM run.
#[derive(Debug, Clone)]
pub struct ImmResult {
    /// Seeds in greedy order (`k` of them).
    pub seeds: Vec<NodeId>,
    /// Spread estimate of the full seed set on the final collection.
    pub estimated_spread: f64,
    /// RR sets used by the final NodeSelection (the paper's
    /// Fig. 6 / Table 6 "number of RR sets" metric).
    pub rr_sets_final: usize,
    /// RR sets generated over the whole run (incl. phase 1, discarded).
    pub rr_sets_total: u64,
}

/// Runs IMM for a single budget `k` under the given diffusion model.
///
/// `ell` is fractional to allow PRIMA-style inflation; plain IMM calls
/// pass the paper's default `ℓ = 1`.
pub fn imm(g: &Graph, k: u32, eps: f64, ell: f64, model: DiffusionModel, seed: u64) -> ImmResult {
    let r = prima(g, &[k], eps, ell, model, seed);
    // The expression `NodeSelectionResult::estimated_spread` evaluates,
    // so the bits match a selection result's own estimate.
    let estimated_spread =
        g.num_nodes() as f64 * (r.coverage[k as usize - 1] as f64 / r.rr_sets_final as f64);
    ImmResult {
        seeds: r.order,
        estimated_spread,
        rr_sets_final: r.rr_sets_final,
        rr_sets_total: r.rr_sets_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_diffusion::exact_spread;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_util::UicRng;

    /// A graph with an obvious best seed: a hub covering many leaves.
    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(30);
        for leaf in 1..25u32 {
            b.add_edge(0, leaf, 0.9);
        }
        // Some noise edges elsewhere.
        b.add_edge(25, 26, 0.5);
        b.add_edge(27, 28, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn imm_finds_the_hub() {
        let g = hub_graph();
        let r = imm(&g, 1, 0.3, 1.0, DiffusionModel::IC, 42);
        assert_eq!(r.seeds, vec![0]);
        assert!(r.rr_sets_final > 0);
        assert!(r.rr_sets_total >= r.rr_sets_final as u64);
    }

    #[test]
    fn imm_spread_close_to_bruteforce_greedy() {
        // Small random graph: IMM's k=2 spread (exact-evaluated) must be
        // ≥ (1−1/e−ε) × brute-force optimum.
        let mut b = GraphBuilder::new(8);
        let mut rng = UicRng::new(9);
        for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v && rng.coin(0.25) {
                    b.add_edge(u, v, 0.4);
                }
            }
        }
        let g = b.build(Weighting::AsGiven, 0);
        if g.num_edges() > 20 {
            // exact_spread enumeration cap; rebuild sparser
            return;
        }
        let r = imm(&g, 2, 0.2, 1.0, DiffusionModel::IC, 7);
        let imm_spread = exact_spread(&g, &r.seeds);
        // Brute-force optimum over all pairs.
        let mut opt = 0.0f64;
        for a in 0..8u32 {
            for bb in (a + 1)..8u32 {
                opt = opt.max(exact_spread(&g, &[a, bb]));
            }
        }
        assert!(
            imm_spread >= (1.0 - 1.0 / std::f64::consts::E - 0.2) * opt - 1e-9,
            "IMM {imm_spread} vs OPT {opt}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = hub_graph();
        let a = imm(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        let b = imm(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
    }

    #[test]
    fn tighter_epsilon_needs_more_rr_sets() {
        let g = hub_graph();
        let loose = imm(&g, 2, 0.5, 1.0, DiffusionModel::IC, 3);
        let tight = imm(&g, 2, 0.1, 1.0, DiffusionModel::IC, 3);
        assert!(
            tight.rr_sets_final > loose.rr_sets_final,
            "tight {} vs loose {}",
            tight.rr_sets_final,
            loose.rr_sets_final
        );
    }

    #[test]
    fn works_under_lt_model() {
        // LT with in-weights 1/din: hub still wins.
        let mut b = GraphBuilder::new(20);
        for leaf in 1..18u32 {
            b.add_arc(0, leaf);
        }
        b.add_arc(18, 19);
        let g = b.build(Weighting::WeightedCascade, 0);
        let r = imm(&g, 1, 0.3, 1.0, DiffusionModel::LT, 11);
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_budget_rejected() {
        let g = hub_graph();
        imm(&g, 0, 0.3, 1.0, DiffusionModel::IC, 1);
    }
}
