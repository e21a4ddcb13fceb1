//! SSA — the Stop-and-Stare algorithm (Nguyen, Thai & Dinh, SIGMOD 2016;
//! the paper's reference \[43\]), in the conservative corrected form of
//! Huang et al.'s "Revisiting the stop-and-stare algorithms" (VLDB 2017;
//! reference \[26\]).
//!
//! §4.2.3 names SSA alongside IMM and OPIM as a state-of-the-art RIS
//! algorithm that is **not** prefix-preserving out of the box — the
//! motivating gap PRIMA fills. We implement it (a) to complete the RIS
//! algorithm zoo the paper positions itself against, and (b) to
//! demonstrate that non-prefix-preservation concretely in tests and
//! ablations: re-running SSA at two budgets can reorder seeds, whereas
//! PRIMA's output for the smaller budget is by construction a prefix of
//! its output for the larger one.
//!
//! ## Algorithm
//!
//! *Stop*: maintain a selection collection `R₁`; greedily solve
//! max-coverage on it. *Stare*: score the returned seed set on an
//! **independent** validation collection `R₂` of the same size. If the
//! validation coverage clears the precision threshold
//! `Λ = (1 + ε)(2 + ⅔ε)·ln(3/δ)/ε²` *and* the (optimistic) selection
//! estimate agrees with the (unbiased) validation estimate to within
//! `1 + ε₁`, stop; otherwise double both collections. A worst-case cap at
//! IMM's `λ*(k)/1` sample size guarantees termination with the same
//! `(1 − 1/e − ε)` quality as IMM even when the agreement test never
//! fires (tiny graphs, where log factors dominate).

use crate::node_selection::node_selection;
use crate::prima::Bounds;
use crate::rrset::{DiffusionModel, RrCollection};
use uic_graph::{Graph, NodeId};
use uic_util::split_seed;

/// Result of an [`ssa`] run.
#[derive(Debug, Clone)]
pub struct SsaResult {
    /// Seeds in greedy order (`k` of them).
    pub seeds: Vec<NodeId>,
    /// Unbiased spread estimate from the validation collection.
    pub estimated_spread: f64,
    /// RR sets in the selection collection at termination.
    pub rr_sets_selection: usize,
    /// RR sets in the validation collection at termination.
    pub rr_sets_validation: usize,
    /// Number of stop-and-stare rounds executed.
    pub rounds: u32,
    /// True when the stare test certified the estimate (false when the
    /// worst-case cap forced termination — quality then rests on the
    /// IMM-style sample-size guarantee instead).
    pub stare_certified: bool,
}

/// Runs SSA for budget `k` with failure budget `δ = n^{−ℓ}`.
/// Deterministic given `seed`.
///
/// ```
/// use uic_im::{ssa, DiffusionModel};
/// use uic_graph::Graph;
///
/// let g = Graph::from_edges(5, &[(0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9)]);
/// let r = ssa(&g, 1, 0.4, 1.0, DiffusionModel::IC, 42);
/// assert_eq!(r.seeds, vec![0]);
/// assert!(r.rr_sets_validation > 0, "the stare pass always samples");
/// ```
pub fn ssa(g: &Graph, k: u32, eps: f64, ell: f64, model: DiffusionModel, seed: u64) -> SsaResult {
    let n = g.num_nodes();
    assert!(k >= 1 && k <= n, "budget {k} out of range for n={n}");
    assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
    let nf = n as f64;
    let delta = nf.powf(-ell);
    // Precision threshold Λ and the agreement tolerance ε₁ = ε/2 (the
    // corrected split of Huang et al.; any ε₁ + ε₂ ≤ ε with ε₂ absorbing
    // the validation error works).
    let eps1 = eps / 2.0;
    let lambda = (1.0 + eps) * (2.0 + 2.0 / 3.0 * eps) * (3.0 / delta).ln() / (eps * eps);
    // Worst-case cap: IMM's θ at LB = 1 always suffices.
    let cap = Bounds::new(n, eps, ell.max(0.1)).lambda_star(k).ceil() as usize;
    let mut selection = RrCollection::new(g, model, split_seed(seed, 1));
    let mut validation = RrCollection::new(g, model, split_seed(seed, 2));
    let mut target = (lambda.ceil() as usize).max(1);
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        selection.extend_to(g, target);
        validation.extend_to(g, target);
        let sel = node_selection(&mut selection, k);
        let est_selection = sel.estimated_spread(n, sel.seeds.len());
        let est_validation = validation.estimate_spread(&sel.seeds);
        let cov_validation = est_validation * validation.len() as f64 / nf;
        if cov_validation >= lambda && est_selection <= (1.0 + eps1) * est_validation {
            return SsaResult {
                seeds: sel.seeds,
                estimated_spread: est_validation,
                rr_sets_selection: selection.len(),
                rr_sets_validation: validation.len(),
                rounds,
                stare_certified: true,
            };
        }
        if target >= cap {
            return SsaResult {
                seeds: sel.seeds,
                estimated_spread: est_validation,
                rr_sets_selection: selection.len(),
                rr_sets_validation: validation.len(),
                rounds,
                stare_certified: false,
            };
        }
        target = (target * 2).min(cap);
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
    fn ssa_finds_the_hub() {
        let g = hub_graph();
        let r = ssa(&g, 1, 0.3, 1.0, DiffusionModel::IC, 42);
        assert_eq!(r.seeds, vec![0]);
        assert!(r.rr_sets_selection > 0);
        assert!(r.rr_sets_validation > 0);
        assert!(r.rounds >= 1);
    }

    #[test]
    fn validation_estimate_is_sane() {
        let g = hub_graph();
        let r = ssa(&g, 1, 0.3, 1.0, DiffusionModel::IC, 7);
        // σ({0}) = 1 + 24·0.9 = 22.6; the validation estimate is unbiased
        // and the collections are large, so it should be close.
        assert!(
            (r.estimated_spread - 22.6).abs() < 2.0,
            "estimate {}",
            r.estimated_spread
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = hub_graph();
        let a = ssa(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        let b = ssa(&g, 3, 0.4, 1.0, DiffusionModel::IC, 5);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.rr_sets_selection, b.rr_sets_selection);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn quality_matches_bruteforce_ratio() {
        let mut rng = UicRng::new(3);
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
        let r = ssa(&g, 2, 0.2, 1.0, DiffusionModel::IC, 11);
        let got = exact_spread(&g, &r.seeds);
        let mut opt = 0.0f64;
        for x in 0..8u32 {
            for y in (x + 1)..8u32 {
                opt = opt.max(exact_spread(&g, &[x, y]));
            }
        }
        assert!(
            got >= (1.0 - 1.0 / std::f64::consts::E - 0.2) * opt - 1e-9,
            "SSA {got} vs OPT {opt}"
        );
    }

    #[test]
    fn worst_case_cap_bounds_the_sample_size() {
        let g = hub_graph();
        let r = ssa(&g, 2, 0.5, 1.0, DiffusionModel::IC, 13);
        let cap = Bounds::new(30, 0.5, 1.0).lambda_star(2).ceil() as usize;
        assert!(r.rr_sets_selection <= cap);
        assert!(r.rr_sets_validation <= cap);
    }

    #[test]
    fn works_under_lt_model() {
        let mut b = GraphBuilder::new(20);
        for leaf in 1..18u32 {
            b.add_arc(0, leaf);
        }
        b.add_arc(18, 19);
        let g = b.build(Weighting::WeightedCascade, 0);
        let r = ssa(&g, 1, 0.3, 1.0, DiffusionModel::LT, 11);
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_budget_rejected() {
        let g = hub_graph();
        ssa(&g, 0, 0.3, 1.0, DiffusionModel::IC, 1);
    }
}
