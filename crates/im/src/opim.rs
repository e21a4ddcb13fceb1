//! OPIM-C — Online Processing Influence Maximization with early
//! termination certificates (Tang, Tang, Xiao & Yuan, SIGMOD 2018; the
//! paper's reference \[50\]).
//!
//! Like SSA, OPIM is listed in §4.2.3 as a state-of-the-art RIS algorithm
//! that is **not** prefix-preserving — implementing it completes the set
//! of algorithms PRIMA is contrasted against, and its per-round
//! lower/upper welfare certificates are independently useful for the
//! experiment harness (they quantify *how* approximate a seed set is).
//!
//! ## Algorithm
//!
//! Two independent RR collections of equal size are maintained: `R₁`
//! drives greedy selection, `R₂` provides an unbiased validation score.
//! After each round the algorithm derives, via martingale concentration
//! bounds (the same inequalities behind IMM's analysis):
//!
//! * an **upper bound** on `OPT_k` from `R₁`: greedy's coverage divided
//!   by `(1 − 1/e)` bounds the optimum's coverage from above, and
//!   `σ⁺ = (n/θ)·(√(cov₁/(1−1/e) + a/2) + √(a/2))²` inverts the lower
//!   Chernoff tail;
//! * a **lower bound** on `σ(S_k)` from `R₂`:
//!   `σ⁻ = (n/θ)·((√(cov₂ + 2a/9) − √(a/2))² − a/18)`, the upper-tail
//!   inversion,
//!
//! with `a = ln(3·i_max/δ)` splitting the failure budget `δ = n^{−ℓ}`
//! across rounds and bounds. When `σ⁻/σ⁺ ≥ 1 − 1/e − ε` the pair
//! certifies the approximation and the run stops; otherwise both
//! collections double. The initial size is `θ_max·ε²·√k / n` and the
//! doubling stops at `θ_max = λ*(k)` (IMM's worst-case size), so quality
//! is guaranteed even if certification never fires.

use crate::node_selection::node_selection;
use crate::prima::Bounds;
use crate::rrset::{DiffusionModel, RrCollection};
use uic_graph::{Graph, NodeId};
use uic_util::split_seed;

/// Result of an [`opim_c`] run.
#[derive(Debug, Clone)]
pub struct OpimResult {
    /// Seeds in greedy order (`k` of them).
    pub seeds: Vec<NodeId>,
    /// Unbiased spread estimate from the validation collection.
    pub estimated_spread: f64,
    /// Certified lower bound on `σ(seeds)` (w.h.p.).
    pub spread_lower: f64,
    /// Certified upper bound on `OPT_k` (w.h.p.).
    pub opt_upper: f64,
    /// `spread_lower / opt_upper` at termination; ≥ `1 − 1/e − ε` when
    /// `certified` is true.
    pub ratio: f64,
    /// True when the certificate fired before the worst-case cap.
    pub certified: bool,
    /// Total RR sets generated across both collections.
    pub rr_sets_total: u64,
    /// Number of doubling rounds executed.
    pub rounds: u32,
}

/// Runs OPIM-C for budget `k` with failure budget `δ = n^{−ℓ}`.
/// Deterministic given `seed`.
///
/// ```
/// use uic_im::{opim_c, DiffusionModel};
/// use uic_graph::Graph;
///
/// let g = Graph::from_edges(5, &[(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9)]);
/// let r = opim_c(&g, 1, 0.4, 1.0, DiffusionModel::IC, 42);
/// assert_eq!(r.seeds, vec![0]);
/// // The certificates bracket the truth: σ({0}) = 1 + 3·0.9 = 3.7.
/// assert!(r.spread_lower <= 3.7 && 3.7 <= r.opt_upper);
/// ```
pub fn opim_c(
    g: &Graph,
    k: u32,
    eps: f64,
    ell: f64,
    model: DiffusionModel,
    seed: u64,
) -> OpimResult {
    let n = g.num_nodes();
    assert!(k >= 1 && k <= n, "budget {k} out of range for n={n}");
    assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
    let nf = n as f64;
    let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
    let target_ratio = one_minus_inv_e - eps;
    let delta = nf.powf(-ell);
    let theta_max = Bounds::new(n, eps, ell.max(0.1)).lambda_star(k).ceil() as usize;
    let theta_0 = ((theta_max as f64 * eps * eps * (k as f64).sqrt() / nf).ceil() as usize).max(32);
    let i_max = ((theta_max as f64 / theta_0 as f64).log2().ceil() as u32).max(1) + 1;
    let a = (3.0 * i_max as f64 / delta).ln();

    let mut r1 = RrCollection::new(g, model, split_seed(seed, 1));
    let mut r2 = RrCollection::new(g, model, split_seed(seed, 2));
    let mut theta = theta_0;
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        r1.extend_to(g, theta);
        r2.extend_to(g, theta);
        let sel = node_selection(&mut r1, k);
        let cov1 = *sel.covered.last().expect("k ≥ 1") as f64;
        let cov2 = {
            let est = r2.estimate_spread(&sel.seeds);
            est * r2.len() as f64 / nf
        };
        let scale = nf / theta as f64;
        let opt_upper =
            scale * ((cov1 / one_minus_inv_e + a / 2.0).sqrt() + (a / 2.0).sqrt()).powi(2);
        let spread_lower = (scale
            * (((cov2 + 2.0 * a / 9.0).sqrt() - (a / 2.0).sqrt()).powi(2) - a / 18.0))
            .max(0.0);
        let ratio = if opt_upper > 0.0 {
            spread_lower / opt_upper
        } else {
            0.0
        };
        let certified = ratio >= target_ratio;
        if certified || theta >= theta_max {
            let estimated_spread = r2.estimate_spread(&sel.seeds);
            return OpimResult {
                seeds: sel.seeds,
                estimated_spread,
                spread_lower,
                opt_upper,
                ratio,
                certified,
                rr_sets_total: r1.total_generated() + r2.total_generated(),
                rounds,
            };
        }
        theta = (theta * 2).min(theta_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_diffusion::exact_spread;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_util::UicRng;

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(30);
        for leaf in 1..25u32 {
            b.add_edge(0, leaf, 0.9);
        }
        b.add_edge(25, 26, 0.5);
        b.add_edge(27, 28, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn opim_finds_the_hub() {
        let g = hub_graph();
        let r = opim_c(&g, 1, 0.3, 1.0, DiffusionModel::IC, 42);
        assert_eq!(r.seeds, vec![0]);
        assert!(r.rr_sets_total > 0);
        assert!(r.rounds >= 1);
    }

    #[test]
    fn bounds_bracket_the_truth() {
        // σ({0}) = 22.6 exactly; the certified bounds must bracket it
        // (they hold w.h.p. and this instance is easy).
        let g = hub_graph();
        let r = opim_c(&g, 1, 0.3, 1.0, DiffusionModel::IC, 7);
        let truth = 1.0 + 24.0 * 0.9;
        assert!(
            r.spread_lower <= truth + 1e-9,
            "lower {} vs truth {truth}",
            r.spread_lower
        );
        assert!(
            r.opt_upper >= truth - 1e-9,
            "upper {} vs truth {truth}",
            r.opt_upper
        );
        assert!(r.ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn certificate_implies_actual_ratio() {
        // Whenever OPIM certifies, the realized (exact) spread must meet
        // the advertised approximation on this brute-forceable graph.
        let mut rng = UicRng::new(6);
        let mut b = GraphBuilder::new(8);
        let mut added = 0;
        'fill: for u in 0..8u32 {
            for v in 0..8u32 {
                if u != v && rng.coin(0.3) {
                    b.add_edge(u, v, 0.5);
                    added += 1;
                    if added == 16 {
                        break 'fill;
                    }
                }
            }
        }
        let g = b.build(Weighting::AsGiven, 0);
        let r = opim_c(&g, 2, 0.2, 1.0, DiffusionModel::IC, 11);
        let got = exact_spread(&g, &r.seeds);
        let mut opt = 0.0f64;
        for x in 0..8u32 {
            for y in (x + 1)..8u32 {
                opt = opt.max(exact_spread(&g, &[x, y]));
            }
        }
        assert!(
            got >= (1.0 - 1.0 / std::f64::consts::E - 0.2) * opt - 1e-9,
            "OPIM {got} vs OPT {opt} (certified={})",
            r.certified
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = hub_graph();
        let a = opim_c(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        let b = opim_c(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.rr_sets_total, b.rr_sets_total);
    }

    #[test]
    fn early_termination_beats_worst_case_on_easy_instances() {
        // The whole point of OPIM: on an easy instance the certificate
        // fires long before θ_max.
        let g = hub_graph();
        let r = opim_c(&g, 1, 0.3, 1.0, DiffusionModel::IC, 3);
        let theta_max = Bounds::new(30, 0.3, 1.0).lambda_star(1).ceil() as u64;
        assert!(
            r.certified || r.rr_sets_total / 2 >= theta_max,
            "uncertified run must have hit the cap"
        );
        if r.certified {
            assert!(
                r.rr_sets_total < 2 * theta_max,
                "certified early stop should use fewer sets than 2·θ_max={}, used {}",
                2 * theta_max,
                r.rr_sets_total
            );
        }
    }

    #[test]
    fn works_under_lt_model() {
        let mut b = GraphBuilder::new(20);
        for leaf in 1..18u32 {
            b.add_arc(0, leaf);
        }
        b.add_arc(18, 19);
        let g = b.build(Weighting::WeightedCascade, 0);
        let r = opim_c(&g, 1, 0.3, 1.0, DiffusionModel::LT, 11);
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_budget_rejected() {
        let g = hub_graph();
        opim_c(&g, 31, 0.3, 1.0, DiffusionModel::IC, 1);
    }
}
