//! The query engine: one resident graph, a pool of warm RR arenas, and
//! the request → [`SolveReport`] → response-JSON pipeline.
//!
//! ## The warm-arena contract
//!
//! Arenas are keyed by `(diffusion model, solver seed)` — exactly the
//! inputs that determine the RR sample stream — and grown only through
//! `extend_to` (top-up), never reset. [`uic_im::warm_prima`] certifies
//! every query on a prefix of that stream, so a response computed on a
//! warm shared arena is bit-identical to the same request solved cold
//! (the `warm-grd` registry allocator): the server may cache samples,
//! but it may not change answers.
//!
//! Selection runs under the arena's *read* lock (concurrent queries on
//! one arena proceed in parallel); only top-up takes the write lock —
//! see [`crate::shard`] for the registry, eviction, and panic-healing
//! design. Welfare scoring (the embarrassingly parallel part) runs
//! after all locks are dropped, via [`uic_core::score_report`] — the
//! same completion step `Allocator::solve` uses, which is what makes
//! the server path reproducible offline.

use crate::metrics::ServerMetrics;
use crate::request::{ErrorCode, ServeError, SolveRequest};
use crate::shard::ArenaRegistry;
use std::sync::Arc;
use std::time::Instant;
use uic_core::{score_report, Allocator, RegistryError, SolveCtx, WarmGrd, WelMax};
use uic_datasets::TwoItemConfig;
use uic_diffusion::SolveReport;
use uic_graph::Graph;

/// What a successful solve hands back to the connection handler.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The deterministic `"result"` object (see [`report_json`]).
    pub result_json: String,
    /// RR sets appended to the warm arena by this query (0 on cold
    /// solver paths). The "never regenerates" observable: repeating a
    /// query must drive this to 0.
    pub rr_topup: u64,
    /// Sets resident in the arena this query used (0 on cold paths).
    pub arena_sets: u64,
    /// Wall time (µs) the solver spent selecting seeds — the greedy /
    /// plan-cache phase (solver runtime minus top-up on warm paths;
    /// the whole solver runtime on cold paths).
    pub selection_us: u64,
    /// Wall time (µs) spent growing the warm arena under the write
    /// lock (0 when the prefix was already resident, and on cold
    /// paths).
    pub topup_us: u64,
    /// Wall time (µs) spent scoring welfare after all locks dropped.
    pub scoring_us: u64,
}

/// The resident state answering queries: the graph (loaded once,
/// shared), the sharded warm-arena registry, and the metrics the
/// registry publishes into (shared with the [`Server`](crate::Server)).
pub struct Engine {
    graph: Arc<Graph>,
    arenas: ArenaRegistry,
    metrics: Arc<ServerMetrics>,
}

impl Engine {
    /// An engine over a loaded graph, with unbounded arena memory.
    pub fn new(graph: Arc<Graph>) -> Engine {
        Engine::with_limits(graph, None)
    }

    /// An engine whose resident warm arenas are capped at
    /// `arena_budget_bytes` (LRU eviction; `None` disables the cap).
    pub fn with_limits(graph: Arc<Graph>, arena_budget_bytes: Option<usize>) -> Engine {
        let metrics = Arc::new(ServerMetrics::new());
        Engine {
            graph,
            arenas: ArenaRegistry::new(arena_budget_bytes, Arc::clone(&metrics)),
            metrics,
        }
    }

    /// The resident graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The metrics registry this engine (and its server) publish into.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The warm-arena registry (spill capture / warm reload).
    pub fn arenas(&self) -> &ArenaRegistry {
        &self.arenas
    }

    /// Total RR sets resident across all warm arenas.
    pub fn arena_sets_total(&self) -> u64 {
        self.arenas.sets_total()
    }

    /// Answers one solve request. `deadline` (if any) is checked at the
    /// phase boundaries — before selection and before scoring — so an
    /// expired budget converts to a typed [`ErrorCode::Deadline`] error
    /// rather than wasted work.
    pub fn solve(
        &self,
        req: &SolveRequest,
        deadline: Option<Instant>,
    ) -> Result<SolveOutcome, ServeError> {
        let (solver, objective) =
            <dyn Allocator>::from_spec_with_objective(&req.spec).map_err(|e| match e {
                RegistryError::UnknownAlgorithm(_) => {
                    ServeError::new(ErrorCode::UnknownSolver, e.to_string())
                }
                other => ServeError::new(ErrorCode::BadSpec, other.to_string()),
            })?;
        let cfg = TwoItemConfig::new(req.config);
        let inst = WelMax::on(&self.graph)
            .model(cfg.model())
            .budgets(req.budgets.clone())
            .any_item_order()
            .objective_spec(objective)
            .build()
            .map_err(|e| ServeError::new(ErrorCode::BadInstance, e.to_string()))?;
        solver
            .supports(&inst)
            .map_err(|e| ServeError::new(ErrorCode::Unsupported, e.to_string()))?;
        check_deadline(deadline, "selection")?;

        let mut ctx = SolveCtx::new(req.seed).with_sims(req.sims);
        if let Some(ws) = req.welfare_seed {
            ctx = ctx.with_welfare_seed(ws);
        }

        let t_solve = Instant::now();
        let (mut report, rr_topup, arena_sets, topup_us) = if req.spec.name == WARM_SOLVER {
            let warm = WarmGrd::from_spec(&req.spec.params)
                .map_err(|e| ServeError::new(ErrorCode::BadSpec, e.to_string()))?;
            // Selection rides the arena's read lock; only top-up takes
            // the write lock (see [`crate::shard`]). Answers stay
            // bit-identical to an exclusive-arena run because every
            // read is prefix-restricted.
            let handle = self.arenas.checkout(&self.graph, warm.model, req.seed);
            let report = warm.run_shared(&inst, &ctx, &handle)?;
            let topup = handle.topup();
            let sets = handle.resident_sets();
            (report, topup, sets, handle.topup_us())
        } else {
            let report = solver.run(&inst, &ctx);
            (report, 0, 0, 0)
        };
        let solve_us = t_solve.elapsed().as_micros() as u64;

        check_deadline(deadline, "scoring")?;
        let t_score = Instant::now();
        score_report(&inst, &ctx, &mut report);
        Ok(SolveOutcome {
            result_json: report_json(&report),
            rr_topup,
            arena_sets,
            selection_us: solve_us.saturating_sub(topup_us),
            topup_us,
            scoring_us: t_score.elapsed().as_micros() as u64,
        })
    }
}

/// The registry key whose queries ride the warm arenas.
pub const WARM_SOLVER: &str = "warm-grd";

fn check_deadline(deadline: Option<Instant>, phase: &str) -> Result<(), ServeError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(ServeError::new(
            ErrorCode::Deadline,
            format!("deadline expired before {phase}"),
        )),
        _ => Ok(()),
    }
}

/// Serializes the deterministic part of a [`SolveReport`] — everything
/// that is a pure function of `(graph, request)`: algorithm, seed,
/// budget usage, RR-set counters, the allocation (per-item seed lists,
/// item-major), and the welfare statistics (`null` when unscored).
///
/// Wall-clock and arena bookkeeping deliberately live OUTSIDE this
/// object, in the response's `"server"` sibling, so two bit-identical
/// solves — e.g. a server response and an offline `warm-grd` run — have
/// byte-identical `"result"` text. That is the equality the end-to-end
/// tests assert.
pub fn report_json(report: &SolveReport) -> String {
    let mut w = uic_util::JsonWriter::new();
    w.begin_object();
    w.key("algorithm");
    w.string(report.algorithm);
    w.key("seed");
    w.u64(report.seed);
    w.key("budgets_used");
    w.begin_array();
    for &b in &report.budgets_used {
        w.u64(b as u64);
    }
    w.end_array();
    w.key("rr_sets_final");
    w.u64(report.rr_sets_final as u64);
    w.key("rr_sets_total");
    w.u64(report.rr_sets_total);
    w.key("allocation");
    w.begin_array();
    for item in 0..report.budgets_used.len() as u32 {
        w.begin_array();
        for v in report.allocation.seeds_of_item(item) {
            w.u64(v as u64);
        }
        w.end_array();
    }
    w.end_array();
    w.key("welfare");
    match &report.welfare {
        None => w.null(),
        Some(stats) => {
            w.begin_object();
            w.key("count");
            w.u64(stats.count());
            w.key("mean");
            w.f64(stats.mean());
            w.key("ci95");
            w.f64(stats.ci95_halfwidth());
            w.end_object();
        }
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{parse_request, Request};
    use std::time::Duration;

    fn hub_graph() -> Arc<Graph> {
        let mut b = uic_graph::GraphBuilder::new(30);
        for leaf in 2..20u32 {
            b.add_edge(0, leaf, 0.6);
        }
        for leaf in 20..28u32 {
            b.add_edge(1, leaf, 0.6);
        }
        Arc::new(b.build(uic_graph::Weighting::AsGiven, 0))
    }

    fn solve_req(text: &str) -> SolveRequest {
        match parse_request(text.as_bytes()).unwrap() {
            Request::Solve(s) => s,
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn warm_queries_match_offline_warm_grd_and_top_up_only_once() {
        let engine = Engine::new(hub_graph());
        let req = solve_req("warm-grd budgets=3,2 seed=7 sims=40 eps=0.4");

        let first = engine.solve(&req, None).unwrap();
        assert!(first.rr_topup > 0, "first query must generate samples");
        let again = engine.solve(&req, None).unwrap();
        assert_eq!(
            again.rr_topup, 0,
            "repeat query must be pure top-up-free reuse"
        );
        assert_eq!(first.result_json, again.result_json);

        // Offline reference: the warm-grd registry solver, cold.
        let g = engine.graph().clone();
        let inst = WelMax::on(&g)
            .model(TwoItemConfig::new(1).model())
            .budgets([3u32, 2])
            .any_item_order()
            .build()
            .unwrap();
        let solver = <dyn Allocator>::parse("warm-grd eps=0.4").unwrap();
        let offline = solver.solve(&inst, &SolveCtx::new(7).with_sims(40));
        assert_eq!(
            first.result_json,
            report_json(&offline),
            "server must equal offline"
        );
    }

    #[test]
    fn a_narrower_query_reuses_the_same_arena() {
        let engine = Engine::new(hub_graph());
        let wide = solve_req("warm-grd budgets=6,2 seed=3 eps=0.4");
        let narrow = solve_req("warm-grd budgets=2,1 seed=3 eps=0.5");
        let w = engine.solve(&wide, None).unwrap();
        let n = engine.solve(&narrow, None).unwrap();
        assert!(w.arena_sets > 0);
        // Same (model, seed) arena: the narrow query rides the samples
        // the wide one generated (its own top-up is 0 or small).
        assert!(n.arena_sets >= w.arena_sets);
        assert!(n.rr_topup <= w.rr_topup);
        // And it still matches its own cold run.
        let g = engine.graph().clone();
        let inst = WelMax::on(&g)
            .model(TwoItemConfig::new(1).model())
            .budgets([2u32, 1])
            .any_item_order()
            .build()
            .unwrap();
        let solver = <dyn Allocator>::parse("warm-grd eps=0.5").unwrap();
        let offline = solver.solve(&inst, &SolveCtx::new(3).with_sims(0));
        assert_eq!(n.result_json, report_json(&offline));
    }

    #[test]
    fn cold_solvers_answer_without_arenas() {
        let engine = Engine::new(hub_graph());
        let req = solve_req("degree-top budgets=3,2 sims=20");
        let out = engine.solve(&req, None).unwrap();
        assert_eq!(out.rr_topup, 0);
        assert_eq!(out.arena_sets, 0);
        assert!(out.result_json.contains(r#""algorithm":"degree-top""#));
        assert!(engine.arena_sets_total() == 0, "no arena should exist");
    }

    #[test]
    fn typed_errors_for_each_failure_class() {
        let engine = Engine::new(hub_graph());
        // Unknown solver.
        let err = engine
            .solve(&solve_req("frobnicate budgets=3,2"), None)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownSolver);
        // Bad instance: catalog models are two-item, three budgets given.
        let err = engine
            .solve(&solve_req("warm-grd budgets=3,2,1"), None)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadInstance);
        // Unsupported: warm-grd's guarantee needs an additive objective.
        let err = engine
            .solve(&solve_req("warm-grd budgets=3,2 objective=maximin"), None)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported);
        // Stray solver key.
        let err = engine
            .solve(&solve_req("warm-grd budgets=3,2 epsilon=0.5"), None)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadSpec);
        // An empty mc-greedy candidate pool is refused, not a panic.
        let err = engine
            .solve(&solve_req("mc-greedy budgets=1,1 pool=0"), None)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadSpec);
    }

    #[test]
    fn an_expired_deadline_is_a_typed_error_before_work_happens() {
        let engine = Engine::new(hub_graph());
        let req = solve_req("warm-grd budgets=3,2");
        let expired = Instant::now() - Duration::from_millis(1);
        let err = engine.solve(&req, Some(expired)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert_eq!(engine.arena_sets_total(), 0, "no sampling before the check");
    }

    #[test]
    fn report_json_shape() {
        let engine = Engine::new(hub_graph());
        let out = engine
            .solve(&solve_req("warm-grd budgets=3,2 seed=7 sims=40"), None)
            .unwrap();
        for key in [
            r#""algorithm":"warm-grd""#,
            r#""seed":7"#,
            r#""budgets_used":[3,2]"#,
            r#""allocation":[["#,
            r#""welfare":{"count":40,"mean":"#,
        ] {
            assert!(
                out.result_json.contains(key),
                "{key} in {}",
                out.result_json
            );
        }
        // Unscored solves carry welfare:null.
        let out = engine
            .solve(&solve_req("warm-grd budgets=3,2 seed=8"), None)
            .unwrap();
        assert!(
            out.result_json.ends_with(r#""welfare":null}"#),
            "{}",
            out.result_json
        );
    }
}
