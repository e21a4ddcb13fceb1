//! Cross-crate integration tests for the influence-maximization
//! algorithms: the prefix-preservation property (Definition 1) that
//! separates PRIMA from IMM and OPIM-C, OPIM-C's certificates, and the
//! proxy heuristics.

use uic::prelude::*;

fn network(n: u32, seed: u64) -> Graph {
    uic::datasets::generators::preferential_attachment(
        uic::datasets::PaOptions {
            n,
            edges_per_node: 5,
            ..Default::default()
        },
        seed,
    )
}

/// A neutral RR judge none of the contestants sampled from.
fn judge(g: &Graph, sets: usize) -> uic::im::RrCollection {
    let mut j = uic::im::RrCollection::new(g, DiffusionModel::IC, 0xBEEF);
    j.extend_to(g, sets);
    j
}

#[test]
fn prima_prefixes_certify_every_budget_in_the_vector() {
    // Definition 1 end-to-end: the top-b_i prefix of PRIMA's single
    // ordering must be competitive with a dedicated IMM run per budget.
    let g = network(600, 5);
    let budgets = [40u32, 20, 8];
    let p = prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 11);
    let mut j = judge(&g, 30_000);
    for &k in &budgets {
        let prefix_spread = j.estimate_spread(p.seeds_for_budget(k));
        let dedicated = imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 13).seeds;
        let dedicated_spread = j.estimate_spread(&dedicated);
        assert!(
            prefix_spread >= 0.85 * dedicated_spread,
            "budget {k}: PRIMA prefix {prefix_spread} vs dedicated IMM {dedicated_spread}"
        );
    }
}

#[test]
fn per_budget_reruns_are_not_prefix_consistent_but_prima_is() {
    // The concrete failure PRIMA fixes: re-running a RIS algorithm at a
    // different budget re-derives its sample size, so the smaller-budget
    // seed set need not be a prefix of the larger one. PRIMA's contract
    // guarantees prefix consistency by construction.
    let g = network(600, 9);
    let budgets = [40u32, 20, 8];
    let p = prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 21);
    for &k in &budgets[1..] {
        assert_eq!(
            p.seeds_for_budget(k),
            &p.order[..k as usize],
            "PRIMA budget {k} must be a literal prefix"
        );
    }
    // IMM at k=8 vs k=40: sample sizes differ, so the greedy runs see
    // different collections. We only *document* the mechanism here —
    // sets may still coincide by luck — by checking the collections'
    // sizes genuinely differ (the root cause of prefix inconsistency).
    let small = imm(&g, 8, 0.5, 1.0, DiffusionModel::IC, 21);
    let large = imm(&g, 40, 0.5, 1.0, DiffusionModel::IC, 21);
    assert_ne!(
        small.rr_sets_final, large.rr_sets_final,
        "per-budget reruns use different sample sizes"
    );
}

#[test]
fn opim_matches_imm_quality_on_a_real_shaped_network() {
    // At ε = 0.3 both certify a comparable ratio; at the paper's loose
    // default ε = 0.5 OPIM stops very early (its certificate only
    // promises 1 − 1/e − 0.5 ≈ 0.13·OPT), so the comparison uses the
    // tighter setting.
    let g = network(600, 13);
    let k = 15u32;
    let mut j = judge(&g, 30_000);
    let imm_spread = j.estimate_spread(&imm(&g, k, 0.3, 1.0, DiffusionModel::IC, 3).seeds);
    let opim_r = opim_c(&g, k, 0.3, 1.0, DiffusionModel::IC, 3);
    let opim_spread = j.estimate_spread(&opim_r.seeds);
    assert!(
        opim_spread >= 0.9 * imm_spread,
        "OPIM {opim_spread} vs IMM {imm_spread}"
    );
}

#[test]
fn opim_certificate_is_consistent_with_the_judge() {
    let g = network(600, 17);
    let r = opim_c(&g, 15, 0.4, 1.0, DiffusionModel::IC, 5);
    let mut j = judge(&g, 60_000);
    let spread = j.estimate_spread(&r.seeds);
    // The certified lower bound must not exceed the judged spread by
    // more than sampling noise, and the upper bound must dominate it.
    assert!(
        r.spread_lower <= spread * 1.1,
        "lower bound {} vs judged {spread}",
        r.spread_lower
    );
    assert!(
        r.opt_upper >= spread * 0.9,
        "OPT upper {} vs judged {spread}",
        r.opt_upper
    );
}

#[test]
fn heuristics_trail_but_are_not_absurd_on_hub_heavy_graphs() {
    // On preferential-attachment graphs degree is a decent influence
    // proxy: the heuristics should land within a factor ~2 of IMM while
    // costing no sampling at all.
    let g = network(600, 19);
    let k = 15u32;
    let mut j = judge(&g, 30_000);
    let imm_spread = j.estimate_spread(&imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 7).seeds);
    let model = UtilityModel::new(
        std::sync::Arc::new(AdditiveValuation::new(vec![1.0])),
        Price::additive(vec![0.0]),
        NoiseModel::none(1),
    );
    let inst = WelMaxInstance::new(&g, model, vec![k]);
    let ctx = SolveCtx::new(1).with_sims(0);
    let deg = <dyn Allocator>::by_name("degree-top")
        .unwrap()
        .solve(&inst, &ctx);
    let pr = <dyn Allocator>::by_name("pagerank-top")
        .unwrap()
        .solve(&inst, &ctx);
    let deg_spread = j.estimate_spread(&deg.allocation.seeds_of_item(0));
    let pr_spread = j.estimate_spread(&pr.allocation.seeds_of_item(0));
    assert!(
        deg_spread >= 0.5 * imm_spread,
        "degree {deg_spread} vs IMM {imm_spread}"
    );
    assert!(
        pr_spread >= 0.5 * imm_spread,
        "PageRank {pr_spread} vs IMM {imm_spread}"
    );
}

#[test]
fn all_ris_algorithms_are_deterministic_and_budget_exact() {
    let g = network(400, 29);
    let k = 10u32;
    let a1 = imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 31);
    let a2 = imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 31);
    assert_eq!(a1.seeds, a2.seeds);
    assert_eq!(a1.seeds.len(), k as usize);
    let b1 = opim_c(&g, k, 0.5, 1.0, DiffusionModel::IC, 31);
    let b2 = opim_c(&g, k, 0.5, 1.0, DiffusionModel::IC, 31);
    assert_eq!(b1.seeds, b2.seeds);
    assert_eq!(b1.seeds.len(), k as usize);
    let c1 = prima(&g, &[k, k / 2], 0.5, 1.0, DiffusionModel::IC, 31);
    let c2 = prima(&g, &[k, k / 2], 0.5, 1.0, DiffusionModel::IC, 31);
    assert_eq!(c1.order, c2.order);
    assert_eq!(c1.seeds_for_budget(k).len(), k as usize);
}
