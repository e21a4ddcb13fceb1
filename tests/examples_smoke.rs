//! Smoke tests mirroring the core path of each of the eight
//! `examples/*.rs` targets on tiny graphs, so the examples cannot
//! silently rot: every API call an example demonstrates is exercised
//! here with assertions on the invariants the example's prose claims.

use std::sync::Arc;
use uic::datasets::{
    budget_splits, named_network, real_param_model, NamedNetwork, PaOptions, REAL_ITEM_NAMES,
};
use uic::prelude::*;

/// `examples/quickstart.rs`: PA network, complementary pair, bundleGRD
/// vs item-disj, MC welfare scoring.
#[test]
fn quickstart_core_path() {
    let g = uic::datasets::generators::preferential_attachment(
        PaOptions {
            n: 120,
            edges_per_node: 4,
            ..Default::default()
        },
        7,
    );
    assert_eq!(g.num_nodes(), 120);
    let model = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 9.5])),
        Price::additive(vec![3.0, 4.0]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    );
    assert!(model.deterministic_utility(ItemSet::full(2)) > 0.0);
    let budgets = [5u32, 5];
    let inst = WelMax::on(&g)
        .model(model)
        .budgets(budgets)
        .build()
        .unwrap();
    let ctx = SolveCtx::new(42).with_sims(200).with_welfare_seed(1);
    let greedy = <dyn Allocator>::by_name("bundle-grd")
        .unwrap()
        .solve(&inst, &ctx);
    let disj = <dyn Allocator>::by_name("item-disj")
        .unwrap()
        .solve(&inst, &ctx);
    assert!(greedy.allocation.num_seed_nodes() > 0);
    assert!(greedy.welfare_mean().is_finite() && disj.welfare_mean().is_finite());
    assert!(greedy.summary().contains("bundle-grd"));
}

/// `examples/campaign_planner.rs`: three budget splits over the real
/// parameters, scored with one shared estimator.
#[test]
fn campaign_planner_core_path() {
    let g = named_network(NamedNetwork::Twitter, 0.005, 11);
    let model = real_param_model();
    let total = 20u32;
    let solver = <dyn Allocator>::by_name("bundle-grd").unwrap();
    let ctx = SolveCtx::new(42).with_sims(100).with_welfare_seed(9);
    let mut report = Table::new(
        format!("campaign plans, total budget {total}"),
        &["split", "welfare"],
    );
    for budgets in [
        budget_splits::uniform(total, 5),
        budget_splits::large_skew(total, 5),
        budget_splits::real_params(total),
    ] {
        assert_eq!(budgets.iter().sum::<u32>(), total);
        let capped: Vec<u32> = budgets.iter().map(|&b| b.min(g.num_nodes())).collect();
        let inst = WelMax::on(&g)
            .model(model.clone())
            .budgets(capped.clone())
            .build()
            .unwrap();
        let w = solver.solve(&inst, &ctx).welfare_mean();
        assert!(w.is_finite());
        report.push_row(vec![format!("{capped:?}"), format!("{w:.1}")]);
    }
    assert!(report.to_string().contains("campaign plans"));
}

/// `examples/im_algorithm_tour.rs`: every IM algorithm of the tour on
/// one network and budget, plus the shared MC spread scorer.
#[test]
fn im_algorithm_tour_core_path() {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let k = 5u32;
    let score = |seeds: &[NodeId]| spread_mc(&g, seeds, 200, 99);

    let r = imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 42);
    assert_eq!(r.seeds.len(), k as usize);
    assert!(score(&r.seeds) >= k as f64 - 1e-9);

    let r = opim_c(&g, k, 0.5, 1.0, DiffusionModel::IC, 42);
    assert_eq!(r.seeds.len(), k as usize);
    assert!(r.spread_lower <= r.opt_upper);

    let r = prima(&g, &[k, k / 2], 0.5, 1.0, DiffusionModel::IC, 42);
    assert!(r.order.len() >= k as usize);

    let im_model = UtilityModel::new(
        Arc::new(AdditiveValuation::new(vec![1.0])),
        Price::additive(vec![0.0]),
        NoiseModel::none(1),
    );
    let inst = WelMax::on(&g).model(im_model).budgets([k]).build().unwrap();
    let ctx = SolveCtx::new(42).with_sims(0);
    let r = <dyn Allocator>::by_name("degree-top")
        .unwrap()
        .solve(&inst, &ctx);
    assert_eq!(r.allocation.seeds_of_item(0).len(), k as usize);

    let r = <dyn Allocator>::by_name("pagerank-top")
        .unwrap()
        .solve(&inst, &ctx);
    assert_eq!(r.allocation.seeds_of_item(0).len(), k as usize);

    let seeds = uic::im::greedy_mc_spread(&g, 2, 50, DiffusionModel::IC, 42);
    assert_eq!(seeds.len(), 2);
}

/// `examples/prefix_oracle.rs`: one PRIMA ordering serves every budget,
/// and smaller-budget prefixes nest inside larger ones.
#[test]
fn prefix_oracle_core_path() {
    let g = named_network(NamedNetwork::DoubanBook, 0.02, 3);
    let budgets = [8u32, 4, 2, 1];
    let oracle = prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 42);
    assert!(oracle.order.len() >= budgets[0] as usize);
    for pair in budgets.windows(2) {
        let bigger = oracle.seeds_for_budget(pair[0]);
        let smaller = oracle.seeds_for_budget(pair[1]);
        assert_eq!(smaller.len(), pair[1] as usize);
        assert!(
            smaller.iter().all(|v| bigger.contains(v)),
            "budget {} seeds are not nested in budget {} seeds",
            pair[1],
            pair[0]
        );
    }
    let r = imm(&g, budgets[0], 0.5, 1.0, DiffusionModel::IC, 42);
    assert_eq!(r.seeds.len(), budgets[0] as usize);
}

/// `examples/substitutes_vs_complements.rs`: the same two allocations
/// scored under a supermodular and a substitutes valuation.
#[test]
fn substitutes_vs_complements_core_path() {
    let g = uic::datasets::generators::preferential_attachment(
        PaOptions {
            n: 100,
            edges_per_node: 4,
            ..Default::default()
        },
        3,
    );
    let budgets = [4u32, 4];
    let complements = UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 3.0, 9.0])),
        Price::additive(vec![3.5, 3.5]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    );
    let substitutes = UtilityModel::new(
        Arc::new(CoverageValuation::substitutes(2, 3.0)),
        Price::additive(vec![1.0, 1.0]),
        NoiseModel::iid_gaussian_var(2, 0.25),
    );
    let inst = WelMax::on(&g)
        .model(complements.clone())
        .budgets(budgets)
        .build()
        .unwrap();
    let ctx = SolveCtx::new(42).with_sims(0);
    let bundled = <dyn Allocator>::by_name("bundle-grd")
        .unwrap()
        .solve(&inst, &ctx);
    let disjoint = <dyn Allocator>::by_name("item-disj")
        .unwrap()
        .solve(&inst, &ctx);
    for model in [&complements, &substitutes] {
        let est = WelfareEstimator::new(&g, model, 200, 9);
        assert!(est.estimate(&bundled.allocation).is_finite());
        assert!(est.estimate(&disjoint.allocation).is_finite());
    }
}

/// `examples/synergy_catalog.rs`: a pairwise-synergy catalogue priced
/// above standalone value, allocated three ways.
#[test]
fn synergy_catalog_core_path() {
    let base = vec![5.0, 2.0, 2.0, 1.5];
    let v =
        PairwiseSynergyValuation::new(base, |i: u32, j: u32| if i.min(j) == 0 { 1.6 } else { 0.2 });
    let prices: Vec<f64> = (0..4u32)
        .map(|i| 1.15 * v.value(ItemSet::singleton(i)))
        .collect();
    let model = UtilityModel::new(
        Arc::new(v),
        Price::additive(prices),
        NoiseModel::iid_gaussian_var(4, 0.25),
    );
    assert_eq!(model.num_items(), 4);
    // Every singleton is a loss by construction.
    for i in 0..4u32 {
        assert!(model.deterministic_utility(ItemSet::singleton(i)) < 0.0);
    }
    let g = named_network(NamedNetwork::DoubanBook, 0.02, 11);
    let budgets = [4u32, 4, 2, 2];
    let inst = WelMax::on(&g)
        .model(model)
        .budgets(budgets)
        .build()
        .unwrap();
    let ctx = SolveCtx::new(42).with_sims(100).with_welfare_seed(7);
    for key in ["bundle-grd", "item-disj", "bundle-disj"] {
        let r = <dyn Allocator>::by_name(key).unwrap().solve(&inst, &ctx);
        assert!(r.welfare_mean().is_finite(), "{key}");
    }
}

/// `examples/viral_bundle_launch.rs`: the §4.3.4 console-bundle scenario
/// with auction-learned parameters.
#[test]
fn viral_bundle_launch_core_path() {
    let g = named_network(NamedNetwork::Twitter, 0.005, 11);
    let model = real_param_model();
    assert_eq!(REAL_ITEM_NAMES.len(), model.num_items() as usize);
    let table = model.deterministic_table();
    let istar = uic::items::istar(&table);
    assert!(
        table.utility(istar) > 0.0,
        "the learned best bundle must be profitable"
    );
    let budgets: Vec<u32> = budget_splits::real_params(20)
        .into_iter()
        .map(|b| b.min(g.num_nodes()))
        .collect();
    let inst = WelMax::on(&g)
        .model(model.clone())
        .budgets(budgets)
        .build()
        .unwrap();
    let ctx = SolveCtx::new(42).with_sims(100).with_welfare_seed(3);
    let w_greedy = <dyn Allocator>::by_name("bundle-grd")
        .unwrap()
        .solve(&inst, &ctx)
        .welfare_mean();
    let w_disj = <dyn Allocator>::by_name("bundle-disj")
        .unwrap()
        .solve(&inst, &ctx)
        .welfare_mean();
    let w_item = <dyn Allocator>::by_name("item-disj")
        .unwrap()
        .solve(&inst, &ctx)
        .welfare_mean();
    assert!(w_greedy.is_finite() && w_disj.is_finite() && w_item.is_finite());
    // Item-by-item marketing is hopeless here: every single item is a
    // loss, so bundle-aware seeding must not lose to item-disj.
    assert!(w_greedy >= w_item - 1e-9);
}

/// `examples/serve_quickstart.rs`: start the service in-process, query
/// it over TCP, verify warm reuse (`rr_topup=0` on the repeat) and
/// bit-identity with a cold offline solve.
#[test]
fn serve_quickstart_core_path() {
    use uic::datasets::TwoItemConfig;
    use uic::serve::{report_json, Client, Server, ServerConfig};

    let g = Arc::new(named_network(NamedNetwork::Flixster, 0.05, 7));
    let handle = Server::start(g.clone(), ServerConfig::default()).unwrap();
    let request = "warm-grd budgets=5,2 seed=42 sims=50";
    let mut client = Client::connect(handle.addr()).unwrap();
    let first = client.request(request).unwrap();
    let again = client.request(request).unwrap();
    // The deterministic "result" object is identical; only the server
    // bookkeeping (elapsed_us, rr_topup) may differ between the runs.
    let result_of = |r: &uic::serve::Response| {
        let p = r.payload().to_string();
        p[..p.find(",\"server\":").expect("envelope")].to_string()
    };
    assert_eq!(result_of(&first), result_of(&again));
    assert!(
        again.payload().contains("\"rr_topup\":0"),
        "{}",
        again.payload()
    );

    let (solver, objective) = <dyn Allocator>::parse_with_objective("warm-grd").unwrap();
    let inst = WelMax::on(&g)
        .model(TwoItemConfig::new(1).model())
        .budgets([5u32, 2])
        .any_item_order()
        .objective_spec(objective)
        .build()
        .unwrap();
    let offline = report_json(&solver.solve(&inst, &SolveCtx::new(42).with_sims(50)));
    assert!(
        first
            .payload()
            .starts_with(&format!("{{\"result\":{offline}")),
        "server: {}\noffline: {offline}",
        first.payload()
    );
    let metrics = client.request("metrics").unwrap();
    assert!(
        metrics.payload().contains("\"ok_total\":2"),
        "{}",
        metrics.payload()
    );
    handle.shutdown();
    assert!(handle.join().contains("\"requests_total\":"));
}
