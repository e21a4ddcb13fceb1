//! The **bundle-disj** baseline (§4.3.1.2, item 3).
//!
//! Leverages both supermodularity and propagation, but with *disjoint*
//! seed sets per bundle (unlike bundleGRD's shared prefix):
//!
//! 1. Order items by non-increasing budget; repeatedly find the
//!    minimum-sized itemset (earliest in the precedence order `≺` among
//!    equals) with non-negative deterministic utility among items with
//!    remaining budget, and allocate it as a *bundle* to a fresh chunk of
//!    `b_B = min{b_i | i ∈ B}` seed nodes (each bundle triggers its own
//!    IMM invocation — the paper times `s` IMM calls, Fig. 8a).
//! 2. Decrement budgets; drop exhausted items; repeat while a
//!    non-negative bundle exists.
//! 3. Surplus budgets are recycled onto the seeds of the first existing
//!    bundle not containing the item; any remainder gets fresh IMM seeds.

use std::time::Instant;
use uic_diffusion::{Allocation, SolveReport};
use uic_graph::{Graph, NodeId};
use uic_im::{imm, DiffusionModel};
use uic_items::{ItemSet, UtilityModel};

/// Runs bundle-disj. Unlike bundleGRD this baseline must see the
/// deterministic utilities (`model`), exactly as the paper describes.
///
/// This is the engine behind the registry entry `uic_core::solver::BundleDisj`
/// (`<dyn uic_core::Allocator>::by_name("bundle-disj")`), the public
/// entry point.
pub fn bundle_disj(
    g: &Graph,
    budgets: &[u32],
    utility: &UtilityModel,
    eps: f64,
    ell: f64,
    model: DiffusionModel,
    seed: u64,
) -> SolveReport {
    let n_items = budgets.len() as u32;
    assert_eq!(n_items, utility.num_items(), "budget arity mismatch");
    let start = Instant::now();
    let table = utility.deterministic_table();
    let mut remaining: Vec<u32> = budgets.to_vec();
    let mut allocation = Allocation::new();
    // Bundles formed so far: (itemset, seed nodes).
    let mut bundles: Vec<(ItemSet, Vec<NodeId>)> = Vec::new();
    let mut cursor = 0usize; // next unused position in the seed ordering
    let mut rr_final = 0usize;
    let mut rr_total = 0u64;
    let n = g.num_nodes();

    // Phase 1: bundle formation.
    loop {
        let alive: ItemSet = (0..n_items)
            .filter(|&i| remaining[i as usize] > 0)
            .collect();
        if alive.is_empty() {
            break;
        }
        // Minimum-sized subset with non-negative deterministic utility;
        // ties broken by the precedence order (mask order within a size).
        let mut chosen: Option<ItemSet> = None;
        'search: for size in 1..=alive.len() {
            for s in alive.subsets() {
                if s.len() == size && table.utility(s) >= 0.0 {
                    chosen = Some(s);
                    break 'search;
                }
            }
        }
        let Some(bundle) = chosen else { break };
        let b_bundle = bundle
            .iter()
            .map(|i| remaining[i as usize])
            .min()
            .expect("bundle non-empty");
        let take = (b_bundle as usize).min((n as usize).saturating_sub(cursor));
        if take == 0 {
            break; // graph exhausted
        }
        // Fresh seeds: one IMM invocation per bundle (paper's cost model),
        // consuming the next chunk of the ordering.
        let want = (cursor + take) as u32;
        let imm_result = imm(g, want.min(n), eps, ell, model, seed);
        rr_final += imm_result.rr_sets_final;
        rr_total += imm_result.rr_sets_total;
        let seeds: Vec<NodeId> = imm_result.seeds[cursor..cursor + take].to_vec();
        for &v in &seeds {
            allocation.assign_set(v, bundle);
        }
        for i in bundle.iter() {
            remaining[i as usize] -= take as u32;
        }
        bundles.push((bundle, seeds));
        cursor += take;
    }

    // Phase 2: recycle surplus budgets onto existing bundles.
    for i in 0..n_items {
        if remaining[i as usize] == 0 {
            continue;
        }
        for (bundle, seeds) in &bundles {
            if bundle.contains(i) || remaining[i as usize] == 0 {
                continue;
            }
            let take = (remaining[i as usize] as usize).min(seeds.len());
            for &v in &seeds[..take] {
                allocation.assign(v, i);
            }
            remaining[i as usize] -= take as u32;
        }
    }

    // Phase 3: leftover budget gets fresh IMM seeds.
    let leftover_total: u32 = remaining.iter().sum();
    if leftover_total > 0 && (cursor as u32) < n {
        let extra = (leftover_total as usize).min(n as usize - cursor);
        let imm_result = imm(g, (cursor + extra) as u32, eps, ell, model, seed);
        rr_final += imm_result.rr_sets_final;
        rr_total += imm_result.rr_sets_total;
        let mut pos = cursor;
        for i in 0..n_items {
            while remaining[i as usize] > 0 && pos < cursor + extra {
                allocation.assign(imm_result.seeds[pos], i);
                remaining[i as usize] -= 1;
                pos += 1;
            }
        }
    }

    SolveReport::new("bundle-disj", allocation)
        .with_rr_sets(rr_final, rr_total)
        .with_elapsed_since(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_items::{NoiseModel, Price, TableValuation};

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(40);
        for leaf in 4..25u32 {
            b.add_edge(0, leaf, 0.8);
        }
        for leaf in 25..32u32 {
            b.add_edge(1, leaf, 0.8);
        }
        for leaf in 32..36u32 {
            b.add_edge(2, leaf, 0.8);
        }
        b.add_edge(3, 36, 0.8);
        b.build(Weighting::AsGiven, 0)
    }

    /// Both items individually profitable: bundles are singletons and
    /// bundle-disj degenerates to item-disj (the paper's Configs 1–2).
    fn positive_singletons() -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 4.0, 5.0, 10.0])),
            Price::additive(vec![3.0, 4.0]),
            NoiseModel::none(2),
        )
    }

    /// i1 profitable alone, i2 not; {i1,i2} profitable (Configs 3–4):
    /// bundle-disj forms the pair bundle like bundleGRD.
    fn pair_needed() -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 4.0, 3.0, 9.0])),
            Price::additive(vec![3.0, 4.0]),
            NoiseModel::none(2),
        )
    }

    #[test]
    fn positive_singletons_yield_disjoint_singleton_bundles() {
        let g = hub_graph();
        let m = positive_singletons();
        let r = bundle_disj(&g, &[2, 2], &m, 0.4, 1.0, DiffusionModel::IC, 3);
        let s0 = r.allocation.seeds_of_item(0);
        let s1 = r.allocation.seeds_of_item(1);
        assert_eq!(s0.len(), 2);
        assert_eq!(s1.len(), 2);
        for v in &s1 {
            assert!(!s0.contains(v), "singleton bundles must be disjoint");
        }
    }

    #[test]
    fn unprofitable_item_rides_the_pair_bundle() {
        let g = hub_graph();
        let m = pair_needed();
        let r = bundle_disj(&g, &[2, 2], &m, 0.4, 1.0, DiffusionModel::IC, 5);
        let s0 = r.allocation.seeds_of_item(0);
        let s1 = r.allocation.seeds_of_item(1);
        assert_eq!(s0.len(), 2);
        assert_eq!(s1.len(), 2);
        // First bundle is {i1} (singleton, earliest ≺ with U ≥ 0)…
        // then {i2} alone is negative, but {i1,i2} needs i1's budget —
        // exhausted — so i2 is recycled onto bundle {i1}'s seeds.
        for v in &s1 {
            assert!(s0.contains(v), "i2's surplus should ride i1's bundle seeds");
        }
    }

    #[test]
    fn all_negative_singletons_bundle_together() {
        // Neither item profitable alone; the pair is: first bundle is the
        // pair itself, allocated to shared seeds.
        let g = hub_graph();
        let m = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 2.0, 2.0, 9.0])),
            Price::additive(vec![3.0, 3.0]),
            NoiseModel::none(2),
        );
        let r = bundle_disj(&g, &[3, 3], &m, 0.4, 1.0, DiffusionModel::IC, 7);
        assert_eq!(r.allocation.seeds_of_item(0), r.allocation.seeds_of_item(1));
        assert_eq!(r.allocation.seeds_of_item(0).len(), 3);
    }

    #[test]
    fn hopeless_items_get_no_bundle_but_fresh_seeds() {
        // Everything negative: no bundle forms; phase 3 still spends the
        // budget on fresh seeds (matching the paper's "select b_i fresh
        // seeds using IMM and assign them" fallback).
        let g = hub_graph();
        let m = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, 1.0, 2.0])),
            Price::additive(vec![5.0, 5.0]),
            NoiseModel::none(2),
        );
        let r = bundle_disj(&g, &[2, 1], &m, 0.4, 1.0, DiffusionModel::IC, 9);
        assert_eq!(r.allocation.budgets_used(2), vec![2, 1]);
    }

    #[test]
    fn respects_budgets() {
        let g = hub_graph();
        let m = pair_needed();
        let budgets = [3u32, 2];
        let r = bundle_disj(&g, &budgets, &m, 0.4, 1.0, DiffusionModel::IC, 11);
        assert!(r.allocation.respects_budgets(&budgets));
    }

    #[test]
    fn deterministic() {
        let g = hub_graph();
        let m = pair_needed();
        let a = bundle_disj(&g, &[2, 2], &m, 0.4, 1.0, DiffusionModel::IC, 13);
        let b = bundle_disj(&g, &[2, 2], &m, 0.4, 1.0, DiffusionModel::IC, 13);
        assert_eq!(a.allocation, b.allocation);
    }
}
