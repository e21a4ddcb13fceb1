//! The *direct* greedy WelMax allocator: Monte-Carlo greedy over
//! (node, item) pairs.
//!
//! This is the allocator one would write without the paper's insight —
//! greedily add whichever single `(v, i)` pair most increases the
//! Monte-Carlo welfare estimate, re-evaluating every feasible pair each
//! round. Because the welfare function ρ is **neither submodular nor
//! supermodular** (Theorem 1), this greedy carries *no* approximation
//! guarantee, and each of its `Σ b_i` rounds costs `O(|candidates|·|I|)`
//! full welfare estimations — the expense bundleGRD's bundling trick
//! avoids entirely. It exists as the honest strawman: the ablations show
//! bundleGRD matches its welfare at a tiny fraction of its cost.
//!
//! The greedy is **plateau-tolerant**: it adds the best pair each round
//! even when no pair strictly improves the estimate. This matters
//! precisely because of the non-submodularity — with mutually
//! complementary items every first item of a bundle is individually
//! worthless (the paper's own Theorem 1 counterexample), so a
//! strict-improvement greedy would never seed anything. Plateau steps are
//! what let pair-greedy assemble bundles one item at a time.
//!
//! All evaluations share one [`WelfareEstimator`] (fixed sims + seed), so
//! comparisons use common random numbers and the run is deterministic.
//! Per-world monotonicity of welfare (Theorem 1) then guarantees the
//! shared estimate never decreases along the greedy path, so the loop
//! runs until the budgets are exhausted (or the candidate pool has no
//! feasible pair left).

use std::sync::Arc;
use std::time::Instant;
use uic_diffusion::{Allocation, ObjectiveError, SolveReport, WelfareEstimator, WelfareObjective};
use uic_graph::{Graph, NodeId};
use uic_items::UtilityModel;

/// Runs pair-greedy WelMax over the given `candidates` pool (pass all
/// nodes on small graphs; a degree- or PRIMA-preselected pool otherwise —
/// the full pool is quadratic-ish and meant for reference runs only),
/// with gains measured under `objective`.
///
/// `budgets[i]` is item `i`'s seed budget. Each round adds the feasible
/// pair with the highest estimate even when it improves nothing (the
/// plateau tolerance above), so the allocator stops only when every
/// budget is used up or no feasible pair is left — a budget larger than
/// the candidate pool leaves the rest unspent.
///
/// Because every round re-estimates full allocations by simulation, the
/// greedy needs **no** structural assumption on the objective — this is
/// the solver of last resort for non-additive objectives (maximin, CES,
/// per-community) that the RIS machinery refuses. The only failure mode
/// is an objective that does not fit the graph (community labeling of
/// the wrong size).
///
/// This is the engine behind the registry entry `uic_core::solver::McGreedy`
/// (`<dyn uic_core::Allocator>::by_name("mc-greedy")`), the public entry
/// point, which picks the candidate pool from its `pool` parameter.
pub fn mc_greedy_welfare_for(
    g: &Graph,
    model: &UtilityModel,
    budgets: &[u32],
    candidates: &[NodeId],
    sims: u32,
    seed: u64,
    objective: Arc<dyn WelfareObjective>,
) -> Result<SolveReport, ObjectiveError> {
    assert_eq!(
        budgets.len() as u32,
        model.num_items(),
        "budget arity mismatch"
    );
    assert!(!candidates.is_empty(), "need a non-empty candidate pool");
    objective.validate_for(g.num_nodes())?;
    let start = Instant::now();
    let estimator = WelfareEstimator::new(g, model, sims, seed).with_objective(objective);
    let mut allocation = Allocation::new();
    let mut remaining: Vec<u32> = budgets.to_vec();
    loop {
        // Best feasible pair this round; ties keep the first encountered
        // (lowest item, then candidate order) for determinism.
        let mut best: Option<(NodeId, u32, f64)> = None;
        for item in 0..budgets.len() as u32 {
            if remaining[item as usize] == 0 {
                continue;
            }
            for &v in candidates {
                if allocation.items_of(v).contains(item) {
                    continue;
                }
                let mut trial = allocation.clone();
                trial.assign(v, item);
                let value = estimator.estimate(&trial);
                if best.is_none_or(|(_, _, b)| value > b) {
                    best = Some((v, item, value));
                }
            }
        }
        // No feasible pair left (budgets can exceed the candidate pool).
        let Some((v, item, _)) = best else { break };
        allocation.assign(v, item);
        remaining[item as usize] -= 1;
        if remaining.iter().all(|&r| r == 0) {
            break;
        }
    }
    Ok(SolveReport::new("mc-greedy", allocation).with_elapsed_since(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uic_core::solve_welmax_bruteforce;
    use uic_diffusion::default_objective;
    use uic_items::{NoiseModel, Price, TableValuation};

    /// Two complementary items: each worthless alone, valuable together.
    fn complementary_model() -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 2.0, 2.0, 7.0])),
            Price::additive(vec![2.5, 2.5]),
            NoiseModel::none(2),
        )
    }

    /// Two independently profitable items (additive utility 1 each).
    fn additive_model() -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 2.0, 2.0, 4.0])),
            Price::additive(vec![1.0, 1.0]),
            NoiseModel::none(2),
        )
    }

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])
    }

    #[test]
    fn learns_to_bundle_complementary_items() {
        // Individually-negative items propagate zero welfare unless
        // co-seeded; pair-greedy must discover the bundle.
        let g = path3();
        let model = complementary_model();
        let r = mc_greedy_welfare_for(&g, &model, &[1, 1], &[0, 1, 2], 200, 3, default_objective())
            .unwrap();
        let s0 = r.allocation.seeds_of_item(0);
        let s1 = r.allocation.seeds_of_item(1);
        assert_eq!(s0.len(), 1);
        assert_eq!(s0, s1, "both items must land on the same node");
        assert_eq!(s0[0], 0, "the chain head propagates to all 3 nodes");
    }

    #[test]
    fn respects_budgets() {
        let g = path3();
        let model = additive_model();
        let budgets = [2u32, 1];
        let r = mc_greedy_welfare_for(
            &g,
            &model,
            &budgets,
            &[0, 1, 2],
            100,
            5,
            default_objective(),
        )
        .unwrap();
        assert!(r.allocation.respects_budgets(&budgets));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = path3();
        let model = complementary_model();
        let a = mc_greedy_welfare_for(&g, &model, &[1, 1], &[0, 1, 2], 150, 9, default_objective())
            .unwrap();
        let b = mc_greedy_welfare_for(&g, &model, &[1, 1], &[0, 1, 2], 150, 9, default_objective())
            .unwrap();
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn matches_bruteforce_on_tiny_instance() {
        // Deterministic edges + zero noise ⇒ the welfare landscape is
        // exact; pair-greedy should land on the brute-force optimum here.
        // Utilities of the complementary model with noise off:
        // U(∅)=0, U({0})=U({1})=−0.5, U({0,1})=2.
        let g = path3();
        let model = complementary_model();
        let table = uic_items::UtilityTable::from_values(2, vec![0.0, -0.5, -0.5, 2.0]);
        let (opt_alloc, opt_welfare) = solve_welmax_bruteforce(&g, &table, &[1, 1]);
        let r = mc_greedy_welfare_for(
            &g,
            &model,
            &[1, 1],
            &[0, 1, 2],
            400,
            11,
            default_objective(),
        )
        .unwrap();
        let estimator = WelfareEstimator::new(&g, &model, 4000, 77);
        let greedy_welfare = estimator.estimate(&r.allocation);
        assert!(
            greedy_welfare >= 0.9 * opt_welfare,
            "greedy {greedy_welfare} vs OPT {opt_welfare} ({opt_alloc:?})"
        );
    }

    #[test]
    fn plateau_steps_fill_the_budget_without_inventing_welfare() {
        // A single item with negative deterministic utility and no noise:
        // every pair is a zero-gain plateau step, so the budget is spent
        // (plateau tolerance) but the welfare honestly stays zero (the
        // item is never adopted).
        let g = path3();
        let model = UtilityModel::new(
            Arc::new(TableValuation::from_table(1, vec![0.0, 1.0])),
            Price::additive(vec![5.0]),
            NoiseModel::none(1),
        );
        let r = mc_greedy_welfare_for(&g, &model, &[2], &[0, 1, 2], 100, 13, default_objective())
            .unwrap();
        assert_eq!(r.allocation.num_pairs(), 2, "plateau steps spend budget");
        let estimator = WelfareEstimator::new(&g, &model, 500, 19);
        assert_eq!(estimator.estimate(&r.allocation), 0.0);
    }

    #[test]
    fn stops_when_candidate_pool_is_exhausted() {
        // Budget larger than the candidate pool: every candidate already
        // holds the item, so the loop must terminate early.
        let g = path3();
        let model = additive_model();
        let r =
            mc_greedy_welfare_for(&g, &model, &[3, 3], &[0], 100, 17, default_objective()).unwrap();
        assert_eq!(r.allocation.num_pairs(), 2, "one node × two items");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_rejected() {
        let g = path3();
        mc_greedy_welfare_for(
            &g,
            &complementary_model(),
            &[1],
            &[0],
            10,
            1,
            default_objective(),
        )
        .unwrap();
    }

    #[test]
    fn mismatched_labeling_is_a_typed_error() {
        use uic_diffusion::{ObjectiveError, PerCommunity};
        use uic_graph::CommunityLabels;
        let g = path3();
        let model = complementary_model();
        let labels = Arc::new(CommunityLabels::contiguous(7, 2)); // wrong n
        let obj = Arc::new(PerCommunity::new(labels, 0.5).unwrap());
        let err = mc_greedy_welfare_for(&g, &model, &[1, 1], &[0, 1, 2], 50, 9, obj).unwrap_err();
        assert!(matches!(err, ObjectiveError::LabelingMismatch { .. }));
    }
}
