//! The three serve workloads: a `uic-serve` child process driven over
//! TCP, and the traced in-process replay of the same request sequence.

use crate::affinity::Split;
use crate::arena::TracedArena;
use crate::layers::{layer_metrics, print_layer_summary, LayerInputs};
use crate::loadgen::{
    closed_loop, open_loop, Outcome, Phase, ResultBook, Sample, Spec, Stream, Target,
};
use crate::report::RunReport;
use crate::server::ServerProc;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{load_graph, prepare_snapshot, Env, ServeCfg, CONNS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uic_core::{score_report, Allocator, RegistryError, SolveCtx, WarmGrd, WelMax};
use uic_datasets::TwoItemConfig;
use uic_graph::Graph;
use uic_serve::{
    parse_request, read_frame, report_json, write_frame, ArenaRegistry, Request, RetryPolicy,
    ServerMetrics, KIND_OK, KIND_REQ,
};
use uic_util::UicRng;

/// `p99_ms` (reported, not gated) is the lowest p99 over open-loop
/// windows, because interference from the rest of the host only ever
/// adds latency. Each window holds at least this many requests, so that
/// its p99 has ten samples beyond it; a phase with fewer requests is one
/// window.
const WINDOW_SAMPLES: usize = 1000;

/// An untraced run alternates open- and closed-loop slices this many
/// times. The host's speed drifts in spells of 5–10 s; a phase run in
/// one piece falls into one or two of them, while slices spread each
/// phase over the whole run, so both average over the same spells.
const SLICES: u64 = 10;

/// Runs serve workload `name` once.
pub fn run(name: &str, cfg: &ServeCfg, env: &Env) -> Result<RunReport, String> {
    prepare_snapshot(env, cfg.net)?;
    let mut report = env.report(name);
    let mut book = ResultBook::default();
    let split = Split::detect();
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..env.setups() {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous)?;
        }
        let t = Instant::now();
        server = Some(start_and_warm(cfg, env, split.as_ref(), &mut book)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    let open_secs = env.seconds * cfg.open_share;
    let schedule = open_schedule(cfg, env, open_secs);
    let target = Target {
        addr: server.addr(),
        specs: &cfg.specs,
        conns: CONNS,
        split: split.as_ref(),
    };
    let m0 = server.metrics()?;
    let (open, closed) = if env.trace {
        (open_loop(target, &schedule)?, Phase::default())
    } else {
        interleaved(target, cfg, env, &schedule, open_secs)?
    };
    let m1 = server.metrics()?;
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;

    book.merge(open.book.clone(), &cfg.specs);
    book.merge(closed.book.clone(), &cfg.specs);
    report.problems.extend(book.problems.iter().cloned());
    let all: Vec<_> = open.samples.iter().chain(&closed.samples).collect();
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64;
    if report.failed > 0 {
        report.problem(format!(
            "{} of {} timed requests failed, were refused, or answered wrong",
            report.failed, report.attempted
        ));
    }

    let counter = |key: &str| m1.num(key).unwrap_or(0.0) - m0.num(key).unwrap_or(0.0);
    let topup_sets = counter("rr_topup_total");
    let evictions = counter("evictions_total");
    let plan_lookups = counter("plan_hits") + counter("plan_misses") + counter("plan_resumes");
    let hit_ratio = if plan_lookups > 0.0 {
        counter("plan_hits") / plan_lookups
    } else {
        0.0
    };
    if cfg.expect_warm && (topup_sets != 0.0 || hit_ratio != 1.0) {
        report.problem(format!(
            "warm repeat queries must neither top up nor miss plans \
             (shard.topup_sets {topup_sets}, plan.hit_ratio {hit_ratio})"
        ));
    }
    if cfg.expect_evictions && evictions <= 0.0 {
        report.problem("the arena budget forced no eviction (shard.evictions 0)");
    }

    load_extras(&mut report, &open, &closed, &cfg.specs);
    report.extra("p99_ms", window_p99_ms(&open.samples, open_secs), "ms");
    report.extra("shard.topup_sets", topup_sets, "count");
    report.extra("shard.evictions", evictions, "count");
    report.extra("shard.rebuilds", counter("rebuilds_total"), "count");
    report.extra("shard.coalesced_waits", counter("coalesced_waits"), "count");
    report.extra("plan.hit_ratio", hit_ratio, "ratio");
    report.extra(
        "shard.arena_mb",
        m1.num("arena_bytes").unwrap_or(0.0) / (1 << 20) as f64,
        "MB",
    );
    report.extra(
        "shard.lock_wait_p99_us",
        m1.get("lock_wait_us")
            .and_then(|r| r.num("p99"))
            .unwrap_or(0.0),
        "us",
    );

    if env.trace {
        let inputs = replay(cfg, env, &schedule, &book, &mut report)?;
        layer_metrics(
            &mut report,
            &LayerInputs {
                plan_hit_ratio: hit_ratio,
                evictions,
                topup_sets,
                ..inputs
            },
        );
    } else {
        report.gated("setup_s", median(&setup_s));
        report.gated("p50_ms", median(&latencies(&open.samples)));
        report.gated("throughput", closed.throughput());
        report.gated("peak_rss_mb", rss);
    }
    Ok(report)
}

/// Starts a server, waits until it admits requests, and answers the
/// warm catalog once: the set-up `setup_s` times.
fn start_and_warm(
    cfg: &ServeCfg,
    env: &Env,
    split: Option<&Split>,
    book: &mut ResultBook,
) -> Result<ServerProc, String> {
    let mut args = cfg.net.server_args();
    args.extend(["--workers".to_string(), CONNS.to_string()]);
    if let Some(mb) = cfg.arena_budget_mb {
        args.extend(["--arena-budget-mb".to_string(), mb.to_string()]);
    }
    let server = ServerProc::spawn(&env.server_bin, &args, &env.cache_dir, split)?;
    server.wait_ready(&RetryPolicy {
        max_retries: 8,
        ..RetryPolicy::default()
    })?;
    let mut client =
        uic_serve::Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, spec) in cfg.specs[..cfg.warm].iter().enumerate() {
        match client.request(&spec.text).map_err(|e| e.to_string())? {
            uic_serve::Response::Ok(p) => {
                book.check(i as u32, &cfg.specs, &p);
            }
            uic_serve::Response::Err(p) => return Err(format!("warm-up `{}`: {p}", spec.text)),
        }
    }
    Ok(server)
}

/// Runs the open-loop `schedule` (`open_secs` long) and the rest of the
/// run's seconds as closed loop, in [`SLICES`] alternating slices, and
/// joins each phase's slices back into one: open-loop requests keep
/// their due times, and the closed loop's wall time is the sum of its
/// slices'.
fn interleaved(
    target: Target<'_>,
    cfg: &ServeCfg,
    env: &Env,
    schedule: &[(u64, u32)],
    open_secs: f64,
) -> Result<(Phase, Phase), String> {
    let open_ns = (open_secs * 1e9) as u64;
    let closed_secs = (env.seconds - open_secs).max(0.2);
    let closed_slice = Duration::from_secs_f64(closed_secs / SLICES as f64);
    let mut streams: Vec<Stream> = (0..CONNS as u64)
        .map(|c| Stream::new(env.seed_of(5, 0), c))
        .collect();
    let (mut open, mut closed) = (Phase::default(), Phase::default());
    let mut rest = schedule;
    for k in 1..=SLICES {
        let start = (k - 1) * open_ns / SLICES;
        let cut = if k == SLICES {
            rest.len()
        } else {
            rest.partition_point(|&(due, _)| due < k * open_ns / SLICES)
        };
        let (now, later) = rest.split_at(cut);
        rest = later;
        let slice: Vec<(u64, u32)> = now.iter().map(|&(due, s)| (due - start, s)).collect();
        open.absorb(open_loop(target, &slice)?, start, &cfg.specs);
        let c = closed_loop(target, &*cfg.mix, &mut streams, closed_slice)?;
        closed.absorb(c, 0, &cfg.specs);
    }
    Ok((open, closed))
}

/// Fixed-interval arrivals at `open_rate` for `secs`, specs drawn from
/// the workload's mix with the run seed.
fn open_schedule(cfg: &ServeCfg, env: &Env, secs: f64) -> Vec<(u64, u32)> {
    let n = ((cfg.open_rate * secs).round() as usize).max(1);
    let mut rng = UicRng::new(env.seed_of(4, 0));
    (0..n)
        .map(|i| {
            let due = (i as f64 * 1e9 / cfg.open_rate) as u64;
            (due, (cfg.mix)(i as u64, &mut rng))
        })
        .collect()
}

fn latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples.into_iter().map(|s| s.latency_ms()).collect()
}

/// The lowest per-window p99 (ms) over the open-loop phase, split by due
/// time into as many equal windows as keep each [`WINDOW_SAMPLES`]
/// strong.
fn window_p99_ms(samples: &[Sample], secs: f64) -> f64 {
    let windows = (samples.len() / WINDOW_SAMPLES).max(1) as u64;
    let width = ((secs * 1e9) as u64 / windows).max(1);
    (0..windows)
        .map(|w| {
            let lat = sorted(&latencies(
                samples
                    .iter()
                    .filter(|s| (s.due_ns / width).min(windows - 1) == w),
            ));
            percentile(&lat, 0.99)
        })
        .filter(|p| p.is_finite())
        .fold(f64::INFINITY, f64::min)
}

/// Generator and envelope measurements recorded with every run.
fn load_extras(report: &mut RunReport, open: &Phase, closed: &Phase, specs: &[Spec]) {
    let attempted = (open.samples.len() + closed.samples.len()) as f64;
    report.extra("gen.sent", attempted, "count");
    report.extra(
        "gen.ok",
        (open.count(Outcome::Ok) + closed.count(Outcome::Ok)) as f64,
        "count",
    );
    report.extra(
        "gen.refused",
        (open.count(Outcome::Refused) + closed.count(Outcome::Refused)) as f64,
        "count",
    );
    report.extra(
        "gen.failed",
        (open.count(Outcome::Failed) + closed.count(Outcome::Failed)) as f64,
        "count",
    );
    report.extra(
        "error_rate",
        report.failed as f64 / attempted.max(1.0),
        "ratio",
    );
    let late = sorted(&open.samples.iter().map(|s| s.late_us()).collect::<Vec<_>>());
    report.extra("gen.late_p50_us", percentile(&late, 0.5), "us");
    report.extra("gen.late_p99_us", percentile(&late, 0.99), "us");
    let writes: Vec<f64> = open
        .samples
        .iter()
        .filter(|s| specs[s.spec as usize].write)
        .map(|s| s.latency_ms())
        .collect();
    if !writes.is_empty() {
        report.extra("write_p50_ms", median(&writes), "ms");
        report.extra("write_count", writes.len() as f64, "count");
    }
    let ok: Vec<_> = open
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .collect();
    if !ok.is_empty() {
        let engine: Vec<f64> = ok.iter().map(|s| s.server_us as f64).collect();
        let wire: Vec<f64> = ok
            .iter()
            .map(|s| (s.done_ns - s.sent_ns) as f64 / 1e3 - s.server_us as f64)
            .collect();
        report.extra("serve.engine_us", median(&engine), "us");
        report.extra("serve.wire_us", median(&wire), "us");
    }
    if !closed.samples.is_empty() {
        report.extra("closed.p50_ms", median(&latencies(&closed.samples)), "ms");
    }
}

/// Replays the warm catalog and the open-loop sequence in process
/// through the public calls `Engine::solve` makes, checking every
/// answer against the served bytes. Each request runs twice in a row,
/// untraced and traced, on two registries of their own, so that drift
/// in the host's speed cannot pass for tracing overhead. The two take
/// turns going first, because the second finds the snapshot pages both
/// graphs map already in the CPU caches. The traced end-to-end time is
/// the graph load plus the traced requests.
fn replay(
    cfg: &ServeCfg,
    env: &Env,
    schedule: &[(u64, u32)],
    served: &ResultBook,
    report: &mut RunReport,
) -> Result<LayerInputs, String> {
    let budget = cfg.arena_budget_mb.map(|mb| mb << 20);
    let registry = || ArenaRegistry::new(budget, Arc::new(ServerMetrics::new()));
    let quiet = Tracer::disabled();
    let (plain_graph, plain_registry) = (load_graph(env, cfg.net)?, registry());
    let tracer = Tracer::new();
    let t = Instant::now();
    let graph = tracer.time("graph.load", || load_graph(env, cfg.net))?;
    let mut e2e_ns = t.elapsed().as_nanos() as u64;
    let traced_registry = registry();

    let sequence: Vec<u32> = (0..cfg.warm as u32)
        .chain(schedule.iter().map(|&(_, s)| s))
        .collect();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut sets, mut mismatched) = (0, 0usize);
    for (i, &spec) in sequence.iter().enumerate() {
        let text = &cfg.specs[spec as usize].text;
        tracer.set_request(i as u64 + 1);
        let plain_run = || timed_request(&quiet, &plain_graph, &plain_registry, text);
        let traced_run = || timed_request(&tracer, &graph, &traced_registry, text);
        let ((plain, _, plain_ns), (bytes, topup, ns)) = if i % 2 == 0 {
            let plain = plain_run()?;
            (plain, traced_run()?)
        } else {
            let traced = traced_run()?;
            (plain_run()?, traced)
        };
        untraced.push(plain_ns as f64 / 1e3);
        e2e_ns += ns;
        traced.push(ns as f64 / 1e3);
        sets += topup;
        if served.result(spec) != Some(bytes.as_str()) || plain != bytes {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        report.problem(format!(
            "{mismatched} of {} replayed answers differ from the served bytes",
            sequence.len()
        ));
    }

    let path = env
        .out_dir
        .join(format!("trace-{}-s{}.jsonl", report.workload, env.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    print_layer_summary(&report.workload, &tracer, e2e_ns);
    Ok(LayerInputs {
        tracer: Some(tracer),
        e2e_ns,
        sets,
        traced_us: traced,
        untraced_us: untraced,
        ..LayerInputs::default()
    })
}

/// [`replay_request`] and its wall time in ns.
fn timed_request(
    tracer: &Tracer,
    graph: &Graph,
    registry: &ArenaRegistry,
    text: &str,
) -> Result<(String, u64, u64), String> {
    let t = Instant::now();
    let (bytes, topup) = replay_request(tracer, graph, registry, text)?;
    Ok((bytes, topup, t.elapsed().as_nanos() as u64))
}

/// One request through the calls `Engine::solve` makes, each inside a
/// span; returns the `"result"` bytes and the RR sets it topped up.
fn replay_request(
    tracer: &Tracer,
    graph: &Graph,
    registry: &ArenaRegistry,
    text: &str,
) -> Result<(String, u64), String> {
    let _request = tracer.span("request");
    let payload = tracer.time("serve.frame", || frame_roundtrip(KIND_REQ, text.as_bytes()))?;
    let req = match tracer.time("serve.parse", || parse_request(&payload)) {
        Ok(Request::Solve(req)) => req,
        Ok(other) => return Err(format!("`{text}` parsed as {other:?}")),
        Err(e) => return Err(format!("`{text}`: {e}")),
    };
    let (inst, ctx, warm) = tracer.time("core.instance", || {
        let (solver, objective) = <dyn Allocator>::from_spec_with_objective(&req.spec)
            .map_err(|e: RegistryError| e.to_string())?;
        let inst = WelMax::on(graph)
            .model(TwoItemConfig::new(req.config).model())
            .budgets(req.budgets.clone())
            .any_item_order()
            .objective_spec(objective)
            .build()
            .map_err(|e| e.to_string())?;
        solver.supports(&inst).map_err(|e| e.to_string())?;
        let mut ctx = SolveCtx::new(req.seed).with_sims(req.sims);
        if let Some(ws) = req.welfare_seed {
            ctx = ctx.with_welfare_seed(ws);
        }
        let warm = WarmGrd::from_spec(&req.spec.params).map_err(|e| e.to_string())?;
        Ok::<_, String>((inst, ctx, warm))
    })?;
    let handle = tracer.time("shard.checkout", || {
        registry.checkout(graph, warm.model, req.seed)
    });
    let arena = TracedArena::new(handle, tracer);
    let mut report = tracer
        .time("core.solve", || warm.run_shared(&inst, &ctx, &arena))
        .map_err(|e| format!("`{text}`: {e}"))?;
    let topup = arena.inner().topup();
    tracer.time("score", || score_report(&inst, &ctx, &mut report));
    let json = tracer.time("json", || report_json(&report));
    tracer.time("serve.frame", || frame_roundtrip(KIND_OK, json.as_bytes()))?;
    Ok((json, topup))
}

/// Writes one frame into memory and reads it back.
fn frame_roundtrip(kind: u8, payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut buf = Vec::with_capacity(payload.len() + 5);
    write_frame(&mut buf, kind, payload).map_err(|e| e.to_string())?;
    match read_frame(&mut buf.as_slice()) {
        Ok(Some(f)) => Ok(f.payload),
        other => Err(format!("frame round trip: {other:?}")),
    }
}
