//! A guided tour of the influence-maximization algorithms in the
//! workspace.
//!
//! The paper builds on fifteen years of IM algorithms and positions
//! PRIMA against the strongest of them (§2.1, §4.2.3). This example runs
//! PRIMA, its RIS relatives and the classic baselines on one network and
//! one budget, scoring every seed set with a shared Monte-Carlo spread
//! estimate, so you can see the quality/cost landscape the paper
//! describes:
//!
//! * **IMM** — the scalable RIS baseline bundleGRD builds on;
//! * **OPIM-C** — online doubling with an explicit approximation
//!   certificate, printed here;
//! * **PRIMA** — the paper's multi-budget prefix-preserving extension;
//! * **high-degree / PageRank** — the classic structural heuristics of
//!   KKT'03 (no guarantee, no sampling);
//! * **CELF greedy (MC)** — the 2003-era reference, orders of magnitude
//!   slower, included at a reduced budget so the example stays snappy.
//!
//! ```sh
//! cargo run --release --example im_algorithm_tour
//! ```

use uic::prelude::*;

fn main() {
    let g = uic::datasets::named_network(uic::datasets::NamedNetwork::Flixster, 0.1, 7);
    let k = 20u32;
    println!(
        "network: {} nodes / {} edges — budget k = {k}\n",
        g.num_nodes(),
        g.num_edges()
    );

    let mut report = Table::new(
        "IM algorithms (spread via 2k-world MC; cost = RR sets)",
        &["algorithm", "spread", "cost", "time (ms)", "notes"],
    );
    let score = |seeds: &[NodeId]| spread_mc(&g, seeds, 2_000, 99);

    let t = std::time::Instant::now();
    let r = imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 42);
    report.push_row(vec![
        "IMM".into(),
        format!("{:.1}", score(&r.seeds)),
        r.rr_sets_total.to_string(),
        format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
        "RIS workhorse".into(),
    ]);

    let t = std::time::Instant::now();
    let r = opim_c(&g, k, 0.5, 1.0, DiffusionModel::IC, 42);
    report.push_row(vec![
        "OPIM-C".into(),
        format!("{:.1}", score(&r.seeds)),
        r.rr_sets_total.to_string(),
        format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
        format!(
            "certified σ ∈ [{:.0}, OPT ≤ {:.0}], ratio {:.2}",
            r.spread_lower, r.opt_upper, r.ratio
        ),
    ]);

    let t = std::time::Instant::now();
    let r = prima(&g, &[k, k / 2, k / 4], 0.5, 1.0, DiffusionModel::IC, 42);
    report.push_row(vec![
        "PRIMA".into(),
        format!("{:.1}", score(&r.order)),
        r.rr_sets_total.to_string(),
        format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
        "one ordering, 3 budgets certified".into(),
    ]);

    // The structural heuristics are WelMax allocators in the solver
    // registry; a one-free-item instance turns seed selection into plain
    // influence maximization.
    let im_model = UtilityModel::new(
        std::sync::Arc::new(AdditiveValuation::new(vec![1.0])),
        Price::additive(vec![0.0]),
        NoiseModel::none(1),
    );
    let inst = WelMax::on(&g)
        .model(im_model)
        .budgets([k])
        .build()
        .expect("valid WelMax instance");
    let ctx = SolveCtx::new(42).with_sims(0);

    let r = <dyn Allocator>::by_name("degree-top")
        .unwrap()
        .solve(&inst, &ctx);
    report.push_row(vec![
        "high-degree".into(),
        format!("{:.1}", score(&r.allocation.seeds_of_item(0))),
        "0".into(),
        format!("{:.0}", r.elapsed.as_secs_f64() * 1e3),
        "structural heuristic".into(),
    ]);

    let r = <dyn Allocator>::by_name("pagerank-top")
        .unwrap()
        .solve(&inst, &ctx);
    report.push_row(vec![
        "PageRank".into(),
        format!("{:.1}", score(&r.allocation.seeds_of_item(0))),
        "0".into(),
        format!("{:.0}", r.elapsed.as_secs_f64() * 1e3),
        "on the transpose".into(),
    ]);

    // The 2003 reference greedy is O(k · n · sims) — run it at a small
    // budget just to show the cost cliff RIS sampling removed.
    let k_celf = 3u32;
    let t = std::time::Instant::now();
    let seeds = uic::im::greedy_mc_spread(&g, k_celf, 200, DiffusionModel::IC, 42);
    report.push_row(vec![
        format!("CELF greedy (k={k_celf})"),
        format!("{:.1}", score(&seeds)),
        "n·sims evals".into(),
        format!("{:.0}", t.elapsed().as_secs_f64() * 1e3),
        "KKT'03 reference".into(),
    ]);

    println!("{report}");
    println!(
        "Takeaways: the RIS family (IMM/OPIM/PRIMA) clusters at the same quality;\n\
         PRIMA additionally hands back a budget-agnostic *ordering*; the\n\
         heuristics are instant but guarantee-free."
    );
}
