//! `offline-orkut`: the paper's algorithm (bundleGRD) on the largest
//! stand-in, in process, through the public registry API — and its
//! traced replay, which drives the same certification loop through
//! `warm_prima_on` over an instrumented arena and regenerates the final
//! collection exactly as `prima` does.

use crate::arena::{ContinuedStream, OwnedArena, TracedArena};
use crate::layers::{layer_metrics, print_layer_summary, LayerInputs};
use crate::loadgen::check_budgets;
use crate::report::RunReport;
use crate::server::peak_rss_mb;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{load_graph, prepare_snapshot, Env, Net, SMOKE_NET};
use std::time::{Duration, Instant};
use uic_core::solver::BundleGrd;
use uic_core::{score_report, Allocator, ObjectiveSpec, SolveCtx, WelMax, WelMaxInstance};
use uic_datasets::{NamedNetwork, SolverSpec, TwoItemConfig};
use uic_diffusion::{Allocation, SolveReport};
use uic_graph::Graph;
use uic_im::{node_selection, warm_prima_on, RrCollection, StandardRrSampler};

/// The Orkut stand-in at 1,000,000 nodes / ~30M arcs.
const ORKUT_1M: Net = Net {
    which: NamedNetwork::Orkut,
    arg: "orkut",
    scale: 10.0,
};
/// The solver line, exactly as a caller hands it to the registry.
const SOLVER: &str = "bundle-grd eps=0.5";
/// Per-item budgets.
const BUDGETS: [u32; 2] = [50, 25];
/// Two-item utility configuration (Table 3).
const CONFIG: u8 = 1;
/// Monte-Carlo worlds per scored solve.
const SIMS: u32 = 16;
/// Solves per untraced run, at least, whatever `--seconds` says.
const MIN_SOLVES: usize = 3;

/// One untraced solve.
struct Solve {
    seed: u64,
    solve: Duration,
    score: Duration,
    bytes: String,
    sets: u64,
    welfare: f64,
}

/// The replays of a traced run: each untraced solve is followed at once
/// by its replay without spans and then with them, so that drift in the
/// host's speed cannot pass for tracing overhead.
struct Replays {
    tracer: Tracer,
    graph: Graph,
    /// The graph load plus every traced replay: the traced end-to-end
    /// time.
    e2e_ns: u64,
    /// Replay times without spans, µs.
    untraced_us: Vec<f64>,
    /// Replay times with spans, µs.
    traced_us: Vec<f64>,
    sets: u64,
}

/// Runs `offline-orkut` once.
pub fn run(env: &Env) -> Result<RunReport, String> {
    let net = if env.smoke { SMOKE_NET } else { ORKUT_1M };
    prepare_snapshot(env, net)?;
    let mut report = env.report("offline-orkut");

    let mut setup_s = Vec::new();
    let mut graph = None;
    for _ in 0..env.setups() {
        drop(graph.take());
        let t = Instant::now();
        graph = Some(load_graph(env, net)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let graph = graph.expect("at least one set-up");
    let (solver, objective) =
        <dyn Allocator>::parse_with_objective(SOLVER).map_err(|e| e.to_string())?;
    let inst = WelMax::on(&graph)
        .model(TwoItemConfig::new(CONFIG).model())
        .budgets(BUDGETS)
        .objective_spec(objective)
        .build()
        .map_err(|e| e.to_string())?;
    solver.supports(&inst).map_err(|e| e.to_string())?;

    // The untimed warm-up solves the first timed request, so its answer
    // doubles as the repeat-identity check.
    let warm_up = solve(&*solver, &inst, env.seed_of(6, 0));
    let mut replays = if env.trace {
        let tracer = Tracer::new();
        let t = Instant::now();
        let graph = tracer.time("graph.load", || load_graph(env, net))?;
        let e2e_ns = t.elapsed().as_nanos() as u64;
        Some(Replays {
            tracer,
            graph,
            e2e_ns,
            untraced_us: Vec::new(),
            traced_us: Vec::new(),
            sets: 0,
        })
    } else {
        None
    };
    let min_solves = if env.trace { 2 } else { MIN_SOLVES };
    let mut solves = Vec::new();
    let start = Instant::now();
    while solves.len() < min_solves || start.elapsed().as_secs_f64() < env.seconds {
        let s = solve(&*solver, &inst, env.seed_of(6, solves.len() as u64));
        if let Err(e) = check_budgets(&s.bytes, &BUDGETS) {
            report.problem(format!("seed {}: {e}", s.seed));
        }
        if !s.welfare.is_finite() {
            report.problem(format!("seed {}: welfare is not finite", s.seed));
        }
        if let Some(r) = replays.as_mut() {
            let t = Instant::now();
            let (plain, _) = replay(&Tracer::disabled(), &r.graph, s.seed)?;
            r.untraced_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            r.tracer.set_request(solves.len() as u64 + 1);
            let t = Instant::now();
            let (bytes, generated) = replay(&r.tracer, &r.graph, s.seed)?;
            let took = t.elapsed();
            r.e2e_ns += took.as_nanos() as u64;
            r.traced_us.push(took.as_nanos() as f64 / 1e3);
            r.sets += generated;
            if bytes != s.bytes || plain != s.bytes {
                report.problem(format!(
                    "seed {}: the traced replay's answer differs",
                    s.seed
                ));
            }
        }
        solves.push(s);
    }
    if warm_up.bytes != solves[0].bytes {
        report.problem("a repeated solve answered different bytes");
    }
    let peak_rss = peak_rss_mb("/proc/self/status")?;

    let secs = |f: fn(&Solve) -> Duration| -> Vec<f64> {
        solves.iter().map(|s| f(s).as_secs_f64()).collect()
    };
    let totals = secs(|s| s.solve + s.score);
    report.attempted = solves.len() as u64;
    report.extra("nodes", graph.num_nodes() as f64, "count");
    report.extra("arcs", graph.num_edges() as f64, "count");
    report.extra("solve_s", median(&secs(|s| s.solve)), "s");
    report.extra("score_s", median(&secs(|s| s.score)), "s");
    report.extra(
        "welfare",
        solves.iter().map(|s| s.welfare).sum::<f64>() / solves.len() as f64,
        "utility",
    );
    report.extra("error_rate", 0.0, "ratio");
    report.extra(
        "score.worlds_per_s",
        f64::from(SIMS) / median(&secs(|s| s.score)),
        "1/s",
    );

    if let Some(r) = replays {
        let path = env
            .out_dir
            .join(format!("trace-offline-orkut-s{}.jsonl", env.seed));
        r.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        print_layer_summary("offline-orkut", &r.tracer, r.e2e_ns);
        layer_metrics(
            &mut report,
            &LayerInputs {
                tracer: Some(r.tracer),
                e2e_ns: r.e2e_ns,
                sets: r.sets,
                traced_us: r.traced_us,
                untraced_us: r.untraced_us,
                topup_sets: solves.iter().map(|s| s.sets as f64).sum(),
                ..LayerInputs::default()
            },
        );
    } else {
        let totals_ms: Vec<f64> = totals.iter().map(|s| s * 1e3).collect();
        report.gated("setup_s", median(&setup_s));
        report.gated("p50_ms", median(&totals_ms));
        report.gated(
            "throughput",
            solves.len() as f64 / totals.iter().sum::<f64>(),
        );
        report.gated("peak_rss_mb", peak_rss);
    }
    Ok(report)
}

/// One solve the way a library caller runs it: the registry allocator,
/// then `score_report`, then the deterministic JSON.
fn solve(solver: &dyn Allocator, inst: &WelMaxInstance, seed: u64) -> Solve {
    let ctx = SolveCtx::new(seed).with_sims(SIMS);
    let t = Instant::now();
    let mut report = solver.run(inst, &ctx);
    let solve = t.elapsed();
    let t = Instant::now();
    score_report(inst, &ctx, &mut report);
    let score = t.elapsed();
    Solve {
        seed,
        solve,
        score,
        sets: report.rr_sets_total,
        welfare: report.welfare.as_ref().map_or(f64::NAN, |w| w.mean()),
        bytes: uic_serve::report_json(&report),
    }
}

/// bundleGRD replayed under spans: `warm_prima_on` runs PRIMA's
/// certification loop over an [`OwnedArena`]; its own final phase
/// (which bundleGRD does not run) is renamed `prima.discarded`, and the
/// final collection is regenerated from scratch exactly as `prima`
/// does. Returns the answer's bytes and the RR sets bundleGRD generates.
fn replay(tr: &Tracer, graph: &Graph, seed: u64) -> Result<(String, u64), String> {
    let _request = tr.span("request");
    let (params, inst) = tr.time("core.instance", || {
        let spec = SolverSpec::parse(SOLVER).map_err(|e| e.to_string())?;
        let params = BundleGrd::from_spec(&spec.params).map_err(|e| e.to_string())?;
        let objective = ObjectiveSpec::from_params(&spec.params)
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        let inst = WelMax::on(graph)
            .model(TwoItemConfig::new(CONFIG).model())
            .budgets(BUDGETS)
            .objective_spec(objective)
            .build()
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((params, inst))
    })?;
    let ctx = SolveCtx::new(seed).with_sims(SIMS);
    let mut report = {
        let _solve = tr.span("core.solve");
        let mut sorted = inst.budgets().to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let arena = TracedArena::new(
            OwnedArena::new(RrCollection::new(graph, params.model, seed), tr),
            tr,
        );
        let certified = match warm_prima_on(graph, &arena, &sorted, params.eps, params.ell) {
            Ok(r) => r,
            Err(never) => match never {},
        };
        let (prepare, select) = arena.last_spans();
        for id in [prepare, select].into_iter().flatten() {
            tr.rename_subtree(id, "prima.discarded");
        }
        // bundleGRD's final phase: `prima` resets its collection (the
        // sample stream continues where certification stopped) and
        // selects on θ fresh sets.
        let cert_len = arena.inner().len_before_last_prepare();
        let theta = certified.rr_sets_final;
        let mut coll = RrCollection::new(graph, params.model, seed);
        let order = {
            let _final = tr.span("prima.final");
            let stream =
                ContinuedStream::new(StandardRrSampler::new(params.model, seed), cert_len as u64);
            tr.time("rrset.gen", || coll.extend_with(graph, theta, &stream));
            tr.time("rrset.index", || coll.ensure_index());
            tr.time("im.select", || node_selection(&mut coll, sorted[0]))
                .seeds
        };
        let mut allocation = Allocation::new();
        for (i, &b) in inst.budgets().iter().enumerate() {
            for &v in &order[..(b as usize).min(order.len())] {
                allocation.assign(v, i as u32);
            }
        }
        SolveReport {
            algorithm: "bundle-grd",
            allocation,
            welfare: None,
            elapsed: Duration::ZERO,
            seed,
            budgets_used: Vec::new(),
            rr_sets_final: coll.len(),
            rr_sets_total: cert_len as u64 + coll.total_generated(),
        }
    };
    tr.time("score", || score_report(&inst, &ctx, &mut report));
    let bytes = tr.time("json", || uic_serve::report_json(&report));
    Ok((bytes, report.rr_sets_total))
}
