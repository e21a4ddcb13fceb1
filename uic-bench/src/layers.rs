//! Per-layer metrics from a traced replay.
//!
//! Span names and the layers they time:
//!
//! | span | layer (module) |
//! |---|---|
//! | `graph.load` | `uic-datasets` snapshot cache → `uic-graph` zero-copy load |
//! | `serve.frame` | `uic-serve::frame` (request and response, in memory) |
//! | `serve.parse` | `uic-serve::request::parse_request` |
//! | `core.instance` | `uic-core` registry lookup and `WelMax` instance build |
//! | `shard.checkout` | `uic-serve::shard::ArenaRegistry::checkout` |
//! | `core.solve` | `WarmGrd::run_shared` / bundleGRD around PRIMA |
//! | `im.prepare` | `WarmArena::prepare`: top-up under the write lock |
//! | `rrset.gen`, `rrset.index` | `uic-im::rrset` generation and index merge (offline) |
//! | `im.select` | CELF selection or plan slice (`node_selection`, `SelectionPlan`) |
//! | `im.estimate` | coverage estimates of the certification loop |
//! | `prima.final` | PRIMA's from-scratch final regeneration (offline) |
//! | `prima.discarded` | the warm loop's own final phase, which bundleGRD does not run |
//! | `score` | `uic-core::score_report` → `uic-diffusion::welfare` |
//! | `json` | `uic-serve::report_json` |

use crate::report::RunReport;
use crate::stats::median;
use crate::trace::Tracer;

/// What a traced run hands to [`layer_metrics`].
#[derive(Default)]
pub struct LayerInputs {
    /// The replay's spans.
    pub tracer: Option<Tracer>,
    /// The replay's end-to-end time (ns since the tracer started).
    pub e2e_ns: u64,
    /// RR sets the replay generated (discarded work excluded).
    pub sets: u64,
    /// Each replayed request's (or solve's) time with spans, µs.
    pub traced_us: Vec<f64>,
    /// The same requests' times without spans, in the same order, µs.
    pub untraced_us: Vec<f64>,
    /// Plan-cache hits ÷ lookups while timed (0 without a plan cache).
    pub plan_hit_ratio: f64,
    /// Arena evictions while timed.
    pub evictions: f64,
    /// RR sets generated while timed.
    pub topup_sets: f64,
}

/// Adds the gated per-layer metrics, plus every span's self time as an
/// extra, to `report`.
pub fn layer_metrics(report: &mut RunReport, inputs: &LayerInputs) {
    let tracer = inputs.tracer.as_ref().expect("a traced replay ran");
    let selfs = tracer.self_times();
    let ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| selfs.get(n).map_or(0, |s| s.0))
            .sum::<u64>() as f64
            / 1e6
    };
    let topup_ms = ms(&["im.prepare", "rrset.gen", "rrset.index"]);
    report.gated("graph.load_ms", ms(&["graph.load"]));
    report.gated("parse.ms", ms(&["serve.parse", "core.instance"]));
    report.gated("rrset.topup_ms", topup_ms);
    report.gated("rrset.sets", inputs.sets as f64);
    report.gated(
        "rrset.sets_per_s",
        if topup_ms > 0.0 {
            inputs.sets as f64 / (topup_ms / 1e3)
        } else {
            0.0
        },
    );
    report.gated("select.ms", ms(&["im.select"]));
    report.gated(
        "select.calls",
        selfs.get("im.select").map_or(0, |s| s.1) as f64,
    );
    report.gated("estimate.ms", ms(&["im.estimate"]));
    report.gated("score.ms", ms(&["score"]));
    report.gated("json.ms", ms(&["json"]));
    report.gated(
        "unattributed.ms",
        inputs.e2e_ns.saturating_sub(tracer.rooted_ns()) as f64 / 1e6,
    );
    report.gated("traced.ms", inputs.e2e_ns as f64 / 1e6);
    // The median of per-request differences, not the difference of
    // medians: each pair did identical work, so what differs between
    // requests (spec, seed) cancels out.
    let paired: Vec<f64> = inputs
        .traced_us
        .iter()
        .zip(&inputs.untraced_us)
        .map(|(t, u)| t - u)
        .collect();
    report.gated("trace.overhead_us", median(&paired));
    report.gated("plan.hit_ratio", inputs.plan_hit_ratio);
    report.gated("shard.evictions", inputs.evictions);
    report.gated("shard.topup_sets", inputs.topup_sets);
    for (name, (ns, count)) in &selfs {
        report.extra(&format!("self.{name}_ms"), *ns as f64 / 1e6, "ms");
        report.extra(&format!("spans.{name}"), *count as f64, "count");
    }
    report.extra("trace.traced_p50_us", median(&inputs.traced_us), "us");
    report.extra("trace.untraced_p50_us", median(&inputs.untraced_us), "us");
}

/// Prints each layer's self time and share, `unattributed`, and their
/// sum, which equals the traced end-to-end time.
pub fn print_layer_summary(workload: &str, tracer: &Tracer, e2e_ns: u64) {
    let selfs = tracer.self_times();
    let mut rows: Vec<(&str, u64, u64)> = selfs.iter().map(|(n, (ns, c))| (*n, *ns, *c)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    let unattributed = e2e_ns.saturating_sub(tracer.rooted_ns());
    let pct = |ns: u64| 100.0 * ns as f64 / e2e_ns.max(1) as f64;
    eprintln!("{workload}: traced self time by layer");
    eprintln!(
        "  {:<18} {:>12} {:>9} {:>7}",
        "layer", "self ms", "spans", "share"
    );
    for (name, ns, count) in &rows {
        eprintln!(
            "  {:<18} {:>12.3} {:>9} {:>6.2}%",
            name,
            *ns as f64 / 1e6,
            count,
            pct(*ns)
        );
    }
    eprintln!(
        "  {:<18} {:>12.3} {:>9} {:>6.2}%",
        "unattributed",
        unattributed as f64 / 1e6,
        "",
        pct(unattributed)
    );
    let sum: u64 = rows.iter().map(|r| r.1).sum::<u64>() + unattributed;
    eprintln!(
        "  {:<18} {:>12.3}   (traced end-to-end {:.3} ms)",
        "sum",
        sum as f64 / 1e6,
        e2e_ns as f64 / 1e6
    );
}
