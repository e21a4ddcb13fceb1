//! Ablation and extension experiments beyond the paper's figures,
//! exercising the §5 discussion points:
//!
//! * **Triggering-model generality** — bundleGRD under LT vs IC
//!   ("our results and techniques carry over unchanged to any triggering
//!   propagation model").
//! * **Submodular prices** — volume discounts keep utility supermodular
//!   and "further favor item bundling": welfare must not decrease.
//! * **Personalized noise** — the open-question regime; we measure how
//!   the same allocation scores when noise decorrelates across users.
//! * **Competition (submodular valuation)** — perfect substitutes under
//!   UIC: adopters take exactly one item, and splitting seeds beats
//!   bundling.
//! * **PRIMA vs per-budget IMM** — the oracle's cost advantage.
//! * **Prefix preservation** (Definition 1) — PRIMA's ordering vs naively
//!   reusing an IMM prefix, scored per budget against dedicated
//!   per-budget IMM runs.
//! * **The IM algorithm zoo** — IMM / OPIM-C / high-degree / PageRank
//!   head-to-head at one budget.
//! * **bundleGRD vs direct pair-greedy** — the naive greedy on ρ itself.
//!
//! Allocations come from the solver registry (bundleGRD under LT, the
//! heuristics and item-disj included); the raw IM algorithms and the
//! pair-greedy engine are called directly where an ablation needs their
//! orderings, RR-set counts or a custom candidate pool.

use crate::common::{fmt, network, run_algo_unscored, score_welfare, Algo, ExpOptions};
use std::sync::Arc;
use uic_baselines::mc_greedy_welfare_for;
use uic_core::solver::{BundleGrd, DegreeTop, PageRankTop};
use uic_core::{Allocator, WelMax};
use uic_datasets::{NamedNetwork, TwoItemConfig};
use uic_diffusion::{default_objective, personalized_welfare_mc, Allocation, WelfareEstimator};
use uic_im::{imm, opim_c, prima, DiffusionModel, RrCollection};
use uic_items::{AdditiveValuation, CoverageValuation, NoiseModel, Price, UtilityModel};
use uic_util::Table;

/// bundleGRD under IC vs LT on the Flixster stand-in (Config 1 model).
pub fn ablation_triggering_model(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let cfg = TwoItemConfig::new(1);
    let model = cfg.model();
    let mut t = Table::new(
        "Ablation: bundleGRD under IC vs LT (Config 1, Flixster stand-in)",
        &[
            "budget",
            "welfare (IC seeds)",
            "welfare (LT seeds)",
            "|seed overlap|",
        ],
    );
    for k in [10u32, 30, 50] {
        let k = k.min(n);
        let inst = WelMax::on(&g)
            .model(model.clone())
            .budgets([k, k])
            .build()
            .expect("1 ≤ k ≤ n");
        let ic = BundleGrd {
            eps: opts.eps,
            ell: opts.ell,
            model: DiffusionModel::IC,
        };
        let lt = BundleGrd {
            model: DiffusionModel::LT,
            ..ic
        };
        let ic = ic.run(&inst, &opts.solve_ctx()).allocation;
        let lt = lt.run(&inst, &opts.solve_ctx()).allocation;
        // Score both allocations under the same (IC-based) UIC welfare.
        let w_ic = score_welfare(&g, &model, &ic, opts);
        let w_lt = score_welfare(&g, &model, &lt, opts);
        // Both items hold the whole ordering, so item 0's seeds are it.
        let lt_seeds = lt.seeds_of_item(0);
        let overlap = ic
            .seeds_of_item(0)
            .iter()
            .filter(|v| lt_seeds.contains(v))
            .count();
        t.push_row(vec![
            k.to_string(),
            fmt(w_ic),
            fmt(w_lt),
            overlap.to_string(),
        ]);
    }
    t
}

/// Additive vs volume-discounted prices: discounts only help welfare.
pub fn ablation_submodular_prices(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let cfg = TwoItemConfig::new(3);
    let base = cfg.model();
    let mut t = Table::new(
        "Ablation: additive vs submodular (discounted) prices (Config 3)",
        &[
            "budget",
            "welfare (additive P)",
            "welfare (10% bundle discount)",
        ],
    );
    let discounted = UtilityModel::new(
        // Same valuation/noise; prices discounted for bundles.
        {
            // Rebuild the Config 3 valuation (table 0,3,3,8).
            Arc::new(uic_items::TableValuation::from_table(
                2,
                vec![0.0, 3.0, 3.0, 8.0],
            ))
        },
        Price::with_bundle_discount(vec![3.0, 4.0], 0.10),
        base.noise().clone(),
    );
    for k in [10u32, 30, 50] {
        let k = k.min(n);
        let r = run_algo_unscored(Algo::BundleGrd, &g, &[k, k], &base, opts);
        let w_add = score_welfare(&g, &base, &r.allocation, opts);
        let w_disc = score_welfare(&g, &discounted, &r.allocation, opts);
        t.push_row(vec![k.to_string(), fmt(w_add), fmt(w_disc)]);
    }
    t
}

/// Population vs personalized noise on the same allocation.
pub fn ablation_personalized_noise(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let cfg = TwoItemConfig::new(1);
    let model = cfg.model();
    let mut t = Table::new(
        "Ablation: population vs personalized noise (Config 1)",
        &["budget", "welfare (population)", "welfare (personalized)"],
    );
    for k in [10u32, 30, 50] {
        let k = k.min(n);
        let r = run_algo_unscored(Algo::BundleGrd, &g, &[k, k], &model, opts);
        let pop = WelfareEstimator::new(&g, &model, opts.sims, opts.seed).estimate(&r.allocation);
        let pers = personalized_welfare_mc(&g, &r.allocation, &model, opts.sims, opts.seed).mean();
        t.push_row(vec![k.to_string(), fmt(pop), fmt(pers)]);
    }
    t
}

/// Competition (perfect substitutes): bundling loses its advantage and
/// disjoint seeding wins — the mirror image of the complementary story.
pub fn ablation_competition(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    // Two perfect substitutes worth 3 each, price 1, no noise: a user
    // gains from at most one item.
    let model = UtilityModel::new(
        Arc::new(CoverageValuation::substitutes(2, 3.0)),
        Price::additive(vec![1.0, 1.0]),
        NoiseModel::none(2),
    );
    let mut t = Table::new(
        "Ablation: perfect substitutes (submodular valuation)",
        &["budget", "welfare bundled seeds", "welfare disjoint seeds"],
    );
    for k in [10u32, 30] {
        let k = k.min(n / 2);
        let bundled = run_algo_unscored(Algo::BundleGrd, &g, &[k, k], &model, opts);
        let disj = run_algo_unscored(Algo::ItemDisj, &g, &[k, k], &model, opts);
        let w_bundled = score_welfare(&g, &model, &bundled.allocation, opts);
        let w_disj = score_welfare(&g, &model, &disj.allocation, opts);
        t.push_row(vec![k.to_string(), fmt(w_bundled), fmt(w_disj)]);
    }
    t
}

/// PRIMA once vs IMM per budget: cost and prefix quality.
pub fn ablation_prima_vs_imm(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::DoubanBook, opts);
    let n = g.num_nodes();
    let budgets: Vec<u32> = [50u32, 30, 20, 10, 5].iter().map(|&b| b.min(n)).collect();
    let start = std::time::Instant::now();
    let p = prima(
        &g,
        &budgets,
        opts.eps,
        opts.ell,
        DiffusionModel::IC,
        opts.seed,
    );
    let prima_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = std::time::Instant::now();
    let mut imm_sets = 0usize;
    for &k in &budgets {
        imm_sets += imm(&g, k, opts.eps, opts.ell, DiffusionModel::IC, opts.seed).rr_sets_final;
    }
    let imm_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut t = Table::new(
        "Ablation: PRIMA once vs IMM per budget (5 budgets)",
        &["method", "RR sets", "time (ms)"],
    );
    t.push_row(vec![
        "PRIMA(once)".into(),
        p.rr_sets_final.to_string(),
        format!("{prima_ms:.1}"),
    ]);
    t.push_row(vec![
        "IMM × 5".into(),
        imm_sets.to_string(),
        format!("{imm_ms:.1}"),
    ]);
    t
}

/// Welfare vs raw adoption count: maximizing adoptions is NOT maximizing
/// welfare (the paper's motivating objective distinction).
pub fn ablation_welfare_vs_adoption(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let cfg = TwoItemConfig::new(3);
    let model = cfg.model();
    let k = 20u32.min(n);
    let r = run_algo_unscored(Algo::BundleGrd, &g, &[k, k], &model, opts);
    let est = WelfareEstimator::new(&g, &model, opts.sims, opts.seed);
    let welfare = est.estimate(&r.allocation);
    let adoptions = est.estimate_adoptions(&r.allocation);
    // A bad-welfare allocation can still have adoption volume: seed only
    // the cheap positive item everywhere.
    let single: Allocation = Allocation::from_item_seeds(&[r.allocation.seeds_of_item(0), vec![]]);
    let w_single = est.estimate(&single);
    let a_single = est.estimate_adoptions(&single);
    let mut t = Table::new(
        "Ablation: welfare vs adoption count (Config 3)",
        &[
            "allocation",
            "E[welfare]",
            "E[#adoptions]",
            "welfare/adoption",
        ],
    );
    t.push_row(vec![
        "bundleGRD (both items)".into(),
        fmt(welfare),
        fmt(adoptions),
        fmt(welfare / adoptions.max(1e-9)),
    ]);
    t.push_row(vec![
        "i1-only on same seeds".into(),
        fmt(w_single),
        fmt(a_single),
        fmt(w_single / a_single.max(1e-9)),
    ]);
    t
}

/// Prefix preservation (Definition 1) across a budget vector: PRIMA's
/// single ordering vs naively reusing the prefix of one IMM run at the
/// max budget, both scored by a neutral RR judge against dedicated
/// per-budget IMM runs (the "pay-per-budget" reference).
pub fn ablation_prefix_preservation(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let budgets: Vec<u32> = [50u32, 30, 10].iter().map(|&b| b.min(n)).collect();
    let b_max = budgets[0];
    let p = prima(
        &g,
        &budgets,
        opts.eps,
        opts.ell,
        DiffusionModel::IC,
        opts.seed,
    );
    let imm_max = imm(&g, b_max, opts.eps, opts.ell, DiffusionModel::IC, opts.seed);
    // Neutral judge: a fresh RR collection none of the contestants saw.
    let mut judge = RrCollection::new(&g, DiffusionModel::IC, opts.seed ^ 0x1D6E);
    judge.extend_to(&g, 40_000);
    let mut t = Table::new(
        "Ablation: prefix preservation (spread per budget, one ordering each)",
        &[
            "budget",
            "PRIMA prefix",
            "IMM@bmax prefix",
            "IMM per budget (reference)",
        ],
    );
    for &k in &budgets {
        let reference = imm(&g, k, opts.eps, opts.ell, DiffusionModel::IC, opts.seed).seeds;
        t.push_row(vec![
            k.to_string(),
            fmt(judge.estimate_spread(p.seeds_for_budget(k))),
            fmt(judge.estimate_spread(&imm_max.seeds[..k as usize])),
            fmt(judge.estimate_spread(&reference)),
        ]);
    }
    t
}

/// The single-item IM algorithm zoo at one budget: quality (neutral RR
/// judge), sampling cost, and wall-clock time in one table.
pub fn ablation_im_algorithms(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Flixster, opts);
    let n = g.num_nodes();
    let k = 20u32.min(n);
    let mut judge = RrCollection::new(&g, DiffusionModel::IC, opts.seed ^ 0x2A11);
    judge.extend_to(&g, 40_000);
    let mut t = Table::new(
        "Ablation: IM algorithm zoo (single item, one budget)",
        &["algorithm", "spread (judge)", "cost (RR sets)", "time (ms)"],
    );
    let mut push = |name: &str, seeds: &[u32], cost: u64, ms: f64| {
        t.push_row(vec![
            name.into(),
            fmt(judge.estimate_spread(seeds)),
            cost.to_string(),
            format!("{ms:.1}"),
        ]);
    };
    let clock = std::time::Instant::now();
    let r = imm(&g, k, opts.eps, opts.ell, DiffusionModel::IC, opts.seed);
    push(
        "IMM",
        &r.seeds,
        r.rr_sets_total,
        clock.elapsed().as_secs_f64() * 1e3,
    );
    let clock = std::time::Instant::now();
    let r = opim_c(&g, k, opts.eps, opts.ell, DiffusionModel::IC, opts.seed);
    push(
        "OPIM-C",
        &r.seeds,
        r.rr_sets_total,
        clock.elapsed().as_secs_f64() * 1e3,
    );
    // The heuristics run through the registry on a one-item instance
    // (one free item of value 1: welfare is spread, Proposition 1).
    let inst = WelMax::on(&g)
        .model(UtilityModel::new(
            Arc::new(AdditiveValuation::new(vec![1.0])),
            Price::additive(vec![0.0]),
            NoiseModel::none(1),
        ))
        .budgets([k])
        .build()
        .expect("1 ≤ k ≤ n");
    let clock = std::time::Instant::now();
    let r = DegreeTop.run(&inst, &opts.solve_ctx());
    push(
        "high-degree",
        &r.allocation.seeds_of_item(0),
        0,
        clock.elapsed().as_secs_f64() * 1e3,
    );
    let clock = std::time::Instant::now();
    let r = PageRankTop {
        damping: 0.85,
        iterations: 50,
    }
    .run(&inst, &opts.solve_ctx());
    push(
        "PageRank",
        &r.allocation.seeds_of_item(0),
        0,
        clock.elapsed().as_secs_f64() * 1e3,
    );
    t
}

/// bundleGRD vs the direct Monte-Carlo pair-greedy on ρ: same welfare
/// target, wildly different cost — and no guarantee for the pair-greedy
/// (ρ is neither submodular nor supermodular).
pub fn ablation_pair_greedy(opts: &ExpOptions) -> Table {
    let g = network(
        NamedNetwork::Flixster,
        &ExpOptions {
            scale: (opts.scale * 0.25).max(0.002),
            ..*opts
        },
    );
    let n = g.num_nodes();
    let cfg = TwoItemConfig::new(3);
    let model = cfg.model();
    let k = 5u32.min(n);
    let budgets = [k, k];
    let clock = std::time::Instant::now();
    let bg = run_algo_unscored(Algo::BundleGrd, &g, &budgets, &model, opts);
    let bg_ms = clock.elapsed().as_secs_f64() * 1e3;
    // Pair-greedy over a degree-preselected candidate pool (the full
    // pool is quadratic; this is already orders of magnitude slower).
    let pool: Vec<u32> = {
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
        order.truncate((4 * k as usize).max(20).min(n as usize));
        order
    };
    let clock = std::time::Instant::now();
    let pg = mc_greedy_welfare_for(
        &g,
        &model,
        &budgets,
        &pool,
        opts.sims / 4,
        opts.seed,
        default_objective(),
    )
    .expect("the utilitarian objective fits every graph");
    let pg_ms = clock.elapsed().as_secs_f64() * 1e3;
    let mut t = Table::new(
        "Ablation: bundleGRD vs direct pair-greedy on welfare (Config 3)",
        &["method", "E[welfare]", "time (ms)"],
    );
    t.push_row(vec![
        "bundleGRD".into(),
        fmt(score_welfare(&g, &model, &bg.allocation, opts)),
        format!("{bg_ms:.1}"),
    ]);
    t.push_row(vec![
        "pair-greedy (MC)".into(),
        fmt(score_welfare(&g, &model, &pg.allocation, opts)),
        format!("{pg_ms:.1}"),
    ]);
    t
}

/// Runs the whole ablation suite.
pub fn ablations(opts: &ExpOptions) -> Vec<Table> {
    vec![
        ablation_triggering_model(opts),
        ablation_submodular_prices(opts),
        ablation_personalized_noise(opts),
        ablation_competition(opts),
        ablation_prima_vs_imm(opts),
        ablation_welfare_vs_adoption(opts),
        ablation_prefix_preservation(opts),
        ablation_im_algorithms(opts),
        ablation_pair_greedy(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            scale: 0.02,
            sims: 60,
            ..Default::default()
        }
    }

    #[test]
    fn submodular_prices_never_hurt() {
        let t = ablation_submodular_prices(&tiny());
        let add = t.column_f64("welfare (additive P)").unwrap();
        let disc = t.column_f64("welfare (10% bundle discount)").unwrap();
        for i in 0..t.len() {
            assert!(
                disc[i] >= add[i] - 1e-9,
                "row {i}: discount lowered welfare {} → {}",
                add[i],
                disc[i]
            );
        }
    }

    #[test]
    fn lt_and_ic_orders_agree_on_quality() {
        let t = ablation_triggering_model(&tiny());
        let ic = t.column_f64("welfare (IC seeds)").unwrap();
        let lt = t.column_f64("welfare (LT seeds)").unwrap();
        for i in 0..t.len() {
            assert!(ic[i].is_finite() && lt[i].is_finite());
            assert!(lt[i] > 0.0);
        }
    }

    #[test]
    fn personalized_noise_is_reported() {
        let t = ablation_personalized_noise(&tiny());
        assert_eq!(t.len(), 3);
        for col in ["welfare (population)", "welfare (personalized)"] {
            assert!(t.column_f64(col).unwrap().iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn substitutes_favor_disjoint_seeds() {
        let t = ablation_competition(&tiny());
        let bundled = t.column_f64("welfare bundled seeds").unwrap();
        let disj = t.column_f64("welfare disjoint seeds").unwrap();
        // Disjoint seeding reaches at least as many users; with perfect
        // substitutes that translates to ≥ welfare (within MC noise).
        let b_total: f64 = bundled.iter().sum();
        let d_total: f64 = disj.iter().sum();
        assert!(
            d_total >= b_total * 0.95,
            "disjoint {d_total} should be ≥ bundled {b_total}"
        );
    }

    #[test]
    fn welfare_vs_adoption_distinction_shows() {
        let t = ablation_welfare_vs_adoption(&tiny());
        assert_eq!(t.len(), 2);
        let w = t.column_f64("E[welfare]").unwrap();
        // bundleGRD's welfare strictly exceeds the i1-only allocation.
        assert!(w[0] > w[1], "bundled welfare {} vs single {}", w[0], w[1]);
    }

    #[test]
    fn prefix_preserving_orderings_track_the_per_budget_reference() {
        let t = ablation_prefix_preservation(&tiny());
        let prima_col = t.column_f64("PRIMA prefix").unwrap();
        let reference = t.column_f64("IMM per budget (reference)").unwrap();
        for i in 0..t.len() {
            assert!(
                prima_col[i] >= 0.8 * reference[i],
                "row {i}: PRIMA {} vs reference {}",
                prima_col[i],
                reference[i]
            );
        }
    }

    #[test]
    fn im_zoo_guaranteed_algorithms_cluster_in_quality() {
        let t = ablation_im_algorithms(&tiny());
        assert_eq!(t.len(), 4);
        let spreads = t.column_f64("spread (judge)").unwrap();
        let best = spreads.iter().cloned().fold(f64::MIN, f64::max);
        // The two guaranteed algorithms (rows 0–1) must be within 15% of
        // the best; the structural heuristics may trail.
        for (i, &s) in spreads.iter().take(2).enumerate() {
            assert!(s >= 0.85 * best, "row {i}: spread {s} vs best {best}");
        }
    }

    #[test]
    fn pair_greedy_is_slower_and_not_better() {
        let t = ablation_pair_greedy(&tiny());
        let w = t.column_f64("E[welfare]").unwrap();
        assert!(w[0].is_finite() && w[1].is_finite());
        assert!(
            w[0] >= 0.7 * w[1],
            "bundleGRD {} should not be dominated by pair-greedy {}",
            w[0],
            w[1]
        );
    }
}
