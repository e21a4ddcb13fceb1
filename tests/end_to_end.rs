//! End-to-end integration tests spanning the whole workspace: build a
//! network, run every allocator, score them with the shared welfare
//! estimator, and check the paper's headline orderings.

use std::sync::Arc;
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

/// Config-3-like utilities: i2 is a loss alone, the pair is good.
fn pair_model() -> UtilityModel {
    UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 3.0, 8.0])),
        Price::additive(vec![3.0, 4.0]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    )
}

#[test]
fn bundle_grd_beats_item_disj_on_complementary_items() {
    let g = network(800, 3);
    let inst = WelMax::on(&g)
        .model(pair_model())
        .budgets([15u32, 15])
        .build()
        .unwrap();
    let ctx = SolveCtx::new(42).with_sims(3_000).with_welfare_seed(7);
    let w_greedy = <dyn Allocator>::by_name("bundle-grd")
        .unwrap()
        .solve(&inst, &ctx)
        .welfare_mean();
    let w_disj = <dyn Allocator>::by_name("item-disj")
        .unwrap()
        .solve(&inst, &ctx)
        .welfare_mean();
    assert!(
        w_greedy > w_disj,
        "bundleGRD {w_greedy} must beat item-disj {w_disj} when bundling matters"
    );
}

#[test]
fn every_registered_allocator_respects_budgets_and_produces_finite_welfare() {
    let g = network(400, 5);
    let budgets = [8u32, 6];
    let inst = WelMax::on(&g)
        .model(pair_model())
        .budgets(budgets)
        .build()
        .unwrap();
    let ctx = SolveCtx::new(1).with_sims(500).with_welfare_seed(11);
    for entry in registry() {
        let solver = entry.default_allocator();
        let r = solver.solve(&inst, &ctx);
        let name = r.algorithm;
        assert!(
            r.allocation.respects_budgets(&budgets),
            "{name} exceeded budgets"
        );
        assert!(!r.allocation.is_empty(), "{name} allocated nothing");
        assert_eq!(
            r.budgets_used,
            r.allocation.budgets_used(2),
            "{name} budget accounting"
        );
        let w = r.welfare_mean();
        assert!(w.is_finite() && w >= 0.0, "{name} welfare {w}");
        assert!(r.welfare_ci95().is_finite(), "{name} CI");
    }
}

#[test]
fn bundle_grd_achieves_approximation_ratio_on_tiny_instances() {
    // Empirical Theorem 2: on brute-forceable instances, bundleGRD's
    // exact welfare (zero noise) is ≥ (1 − 1/e − ε)·OPT.
    let ratio = 1.0 - 1.0 / std::f64::consts::E - 0.2;
    for seed in 0..8u64 {
        let mut rng = UicRng::new(seed);
        // Random 5-node graph with ≤ 10 edges.
        let mut builder = GraphBuilder::new(5);
        let mut added = 0;
        'outer: for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v && rng.coin(0.4) {
                    builder.add_edge(u, v, 0.5);
                    added += 1;
                    if added == 10 {
                        break 'outer;
                    }
                }
            }
        }
        let g = builder.build(Weighting::AsGiven, 0);
        let model = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, -1.0, 3.0])),
            Price::additive(vec![0.0, 0.0]),
            NoiseModel::none(2),
        );
        let budgets = [2u32, 1];
        let table = model.deterministic_table();
        let (_, opt) = solve_welmax_bruteforce(&g, &table, &budgets);
        let inst = WelMax::on(&g)
            .model(model.clone())
            .budgets(budgets)
            .build()
            .unwrap();
        let greedy = uic::core::solver::BundleGrd {
            eps: 0.2,
            ell: 1.0,
            model: DiffusionModel::IC,
        }
        .solve(&inst, &SolveCtx::new(seed).with_sims(0));
        let got = uic::diffusion::exact_welfare_given_noise(&g, &greedy.allocation, &table);
        assert!(
            got >= ratio * opt - 1e-9,
            "seed {seed}: bundleGRD {got} < {ratio:.3} × OPT {opt}"
        );
    }
}

#[test]
fn lemma5_decomposition_agrees_with_mc_welfare_at_scale() {
    // The block-accounting decomposition (Lemma 5) and the Monte-Carlo
    // estimator must agree for greedy allocations under zero noise.
    let g = network(600, 9);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, -1.0, 3.0])),
        Price::additive(vec![0.0, 0.0]),
        NoiseModel::none(2),
    );
    let budgets = [12u32, 8];
    // The Lemma 5 decomposition needs the PRIMA ordering itself; the
    // greedy allocation is its top-b_i prefix per item, exactly what the
    // registry's bundle-grd returns (pinned in uic-core's solver tests).
    let order = prima(&g, &budgets, 0.3, 1.0, DiffusionModel::IC, 4).order;
    let greedy = Allocation::from_item_seeds(&budgets.map(|b| order[..b as usize].to_vec()));
    let table = model.deterministic_table();
    let decomposed = uic::core::greedy_welfare_decomposition(&table, &budgets, &order, |seeds| {
        spread_mc(&g, seeds, 4_000, 21)
    });
    let mc = WelfareEstimator::new(&g, &model, 4_000, 22).estimate(&greedy);
    let rel = (decomposed - mc).abs() / mc.max(1.0);
    assert!(
        rel < 0.08,
        "Lemma 5 decomposition {decomposed} vs MC welfare {mc} (rel err {rel:.3})"
    );
}

#[test]
fn uic_reduces_to_ic_for_single_free_item() {
    // Proposition 1's reduction: one item, V = 1, P = 0, no noise ⇒
    // expected welfare = expected spread.
    let g = network(500, 13);
    let model = UtilityModel::new(
        Arc::new(AdditiveValuation::new(vec![1.0])),
        Price::additive(vec![0.0]),
        NoiseModel::none(1),
    );
    let seeds: Vec<NodeId> = vec![3, 77, 130];
    let alloc = Allocation::from_item_seeds(std::slice::from_ref(&seeds));
    let welfare = WelfareEstimator::new(&g, &model, 6_000, 31).estimate(&alloc);
    let spread = spread_mc(&g, &seeds, 6_000, 33);
    let rel = (welfare - spread).abs() / spread;
    assert!(
        rel < 0.05,
        "welfare {welfare} should equal spread {spread} (rel {rel:.3})"
    );
}

#[test]
fn prefix_preservation_across_budget_vector() {
    let g = network(700, 17);
    let budgets = [20u32, 10, 5];
    let p = prima(&g, &budgets, 0.4, 1.0, DiffusionModel::IC, 3);
    // Each budget's seed set is a prefix: spreads must be monotone in k
    // and near the dedicated-IMM quality.
    let mut last_spread = 0.0;
    for &k in budgets.iter().rev() {
        let s = spread_mc(&g, p.seeds_for_budget(k), 3_000, 5);
        assert!(
            s >= last_spread - 1.0,
            "budget {k}: prefix spread {s} below smaller budget's {last_spread}"
        );
        last_spread = s;
        let dedicated = imm(&g, k, 0.4, 1.0, DiffusionModel::IC, 3);
        let s_dedicated = spread_mc(&g, &dedicated.seeds, 3_000, 5);
        assert!(
            s >= 0.85 * s_dedicated,
            "budget {k}: prefix spread {s} far below dedicated IMM {s_dedicated}"
        );
    }
}

#[test]
fn gap_conversion_preserves_adoption_behavior() {
    // Sanity link between UIC and Com-IC: a node informed of item 1
    // alone adopts with probability ≈ q_{1|∅} under UIC simulation.
    let model = pair_model();
    let gap = GapParams::from_utility(&model);
    let g = Graph::from_edges(2, &[(0, 1, 1.0)]);
    let mut alloc = Allocation::new();
    alloc.assign(0, 0);
    let mut adoptions = 0u32;
    let sims = 30_000u32;
    for s in 0..sims {
        let mut rng = UicRng::new(uic::util::split_seed(99, s as u64));
        let world = model.sample_noise(&mut rng);
        let table = model.table_for(&world);
        let out = simulate_uic(&g, &alloc, &table, &mut rng);
        if out.adoption_of(1).contains(0) {
            adoptions += 1;
        }
    }
    let rate = adoptions as f64 / sims as f64;
    // UIC samples noise once per diffusion for the whole population
    // (§3.2.3), so node 1's decision is perfectly correlated with node
    // 0's: whenever the seed adopts (probability q_{1|∅}), the noise
    // world has U(i1) ≥ 0 globally and node 1 adopts too. The Com-IC GAP
    // model would flip independent per-node coins (rate q² = 0.25) —
    // this correlation is precisely the population-level-noise design
    // choice the paper discusses in §3.3.2.
    let expect = gap.q1_alone;
    assert!(
        (rate - expect).abs() < 0.02,
        "UIC adoption rate {rate} vs population-noise prediction {expect}"
    );
}
