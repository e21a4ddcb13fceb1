//! The unified solver API: one [`Allocator`] trait over every WelMax
//! algorithm in the workspace, a string-keyed registry, and typed
//! per-algorithm parameter structs that serialize to/from the
//! [`uic_datasets::spec`] config text format.
//!
//! ```
//! use uic_core::{Allocator, SolveCtx, WelMax};
//! use uic_datasets::{named_network, NamedNetwork, TwoItemConfig};
//!
//! let g = named_network(NamedNetwork::Flixster, 0.01, 7);
//! let cfg = TwoItemConfig::new(1);
//! let inst = WelMax::on(&g).model(cfg.model()).budgets([3u32, 3]).build().unwrap();
//!
//! let solver = <dyn Allocator>::by_name("bundle-grd").unwrap();
//! let report = solver.solve(&inst, &SolveCtx::new(42).with_sims(60));
//! assert!(report.allocation.respects_budgets(inst.budgets()));
//! assert!(report.welfare_mean().is_finite());
//! ```
//!
//! Every algorithm — bundleGRD, the eight baselines, and the warm-arena
//! `warm-grd` serving engine — is a registry entry; adding a workload
//! means adding an entry, not a new `match` arm. The registry types are
//! the only entry points: the small solvers (bundleGRD, item-disj,
//! degree-top, PageRank-top, BDHS) run inside their `run`, and the
//! engines with private machinery of their own (bundle-disj, RR-SIM+,
//! RR-CIM, MC pair-greedy) live in `uic-baselines`.
//!
//! Instances carry a pluggable welfare objective (utilitarian unless
//! [`crate::WelMax::objective`] says otherwise): [`Allocator::solve`]
//! scores every report under the instance's objective, the RIS solvers
//! whose `(1 − 1/e − ε)` machinery needs a sum-decomposable objective
//! (bundle-grd, item-disj, bundle-disj, rr-sim+, rr-cim, warm-grd)
//! refuse
//! non-additive ones through [`Allocator::supports`], and spec lines
//! select objectives with the same `key=value` syntax —
//! `"mc-greedy objective=ces alpha=0.5"` via
//! [`<dyn Allocator>::parse_with_objective`](trait.Allocator.html#method.parse_with_objective).

use crate::objective::ObjectiveSpec;
use crate::problem::WelMaxInstance;
use std::fmt;
use std::time::Instant;
use uic_baselines as baselines;
use uic_datasets::{SolverSpec, SpecError, SpecMap};
use uic_diffusion::{Allocation, ObjectiveError, SolveReport, WelfareEstimator};
use uic_graph::NodeId;
use uic_im::{DiffusionModel, RrCollection};
use uic_items::{GapParams, ItemSet};

/// Shared run context: seeds, welfare-scoring effort, and threading.
/// Algorithm-specific knobs (ε, ℓ, damping, …) live on the typed
/// parameter structs instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveCtx {
    /// Master seed for the algorithm's own randomness.
    pub seed: u64,
    /// Monte-Carlo samples for welfare scoring; `0` skips scoring
    /// (the report then carries `welfare: None`).
    pub sims: u32,
    /// Seed stream of the welfare estimator (decoupled from `seed` so
    /// scoring never perturbs, and is never perturbed by, the solver).
    pub welfare_seed: u64,
    /// Worker-thread override for the welfare estimator's deterministic
    /// block reducer; `None` sizes automatically.
    pub threads: Option<usize>,
}

impl SolveCtx {
    /// Context with the given master seed, 300 scoring samples, and a
    /// welfare stream derived from (but independent of) the seed.
    pub fn new(seed: u64) -> SolveCtx {
        SolveCtx {
            seed,
            sims: 300,
            welfare_seed: seed ^ 0xEF_AE,
            threads: None,
        }
    }

    /// Overrides the welfare-scoring sample count (`0` = skip scoring).
    pub fn with_sims(mut self, sims: u32) -> SolveCtx {
        self.sims = sims;
        self
    }

    /// Overrides the welfare estimator's seed stream.
    pub fn with_welfare_seed(mut self, seed: u64) -> SolveCtx {
        self.welfare_seed = seed;
        self
    }

    /// Pins the welfare estimator's worker-thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> SolveCtx {
        self.threads = threads;
        self
    }
}

impl Default for SolveCtx {
    fn default() -> Self {
        SolveCtx::new(0)
    }
}

/// Why an allocator refuses a particular instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Registry key of the refusing allocator.
    pub algorithm: &'static str,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} does not support this instance: {}",
            self.algorithm, self.reason
        )
    }
}

impl std::error::Error for Unsupported {}

/// A WelMax allocation algorithm behind a uniform interface.
///
/// Implementors provide [`Allocator::run`] (produce the allocation and
/// cost counters); the provided [`Allocator::solve`] entry point adds the
/// uniform bookkeeping every caller wants: seed stamping, per-item budget
/// usage, and welfare mean ± CI from
/// [`WelfareEstimator::estimate_stats`].
pub trait Allocator {
    /// The registry key (e.g. `"bundle-grd"`).
    fn name(&self) -> &'static str;

    /// This allocator's configuration as a spec line — `name key=value…`
    /// — suitable for config files; round-trips through
    /// [`<dyn Allocator>::from_spec`](trait.Allocator.html#method.from_spec).
    fn spec(&self) -> SolverSpec;

    /// Checks instance compatibility (e.g. the Com-IC algorithms handle
    /// exactly two items). The default accepts everything.
    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        let _ = inst;
        Ok(())
    }

    /// Runs the raw algorithm: allocation, RR-set counters, and timing.
    /// Welfare is left unscored; use [`Allocator::solve`] instead unless
    /// you are building custom scoring.
    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport;

    /// Runs the algorithm and completes the report: stamps the seed and
    /// per-item budget usage, and (when `ctx.sims > 0`) attaches welfare
    /// statistics estimated on the instance's own utility model, under
    /// the instance's welfare objective.
    ///
    /// `elapsed` in the report covers the algorithm only — scoring time
    /// is excluded, exactly as the paper's running-time figures demand.
    ///
    /// # Panics
    /// When [`Allocator::supports`] rejects the instance.
    fn solve(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        if let Err(e) = self.supports(inst) {
            panic!("{e}");
        }
        let mut report = self.run(inst, ctx);
        score_report(inst, ctx, &mut report);
        report
    }
}

/// Completes a raw report with the uniform bookkeeping of
/// [`Allocator::solve`]: stamps the context seed and the per-item
/// budget usage, and (when `ctx.sims > 0`) attaches welfare statistics
/// estimated under the instance's objective.
///
/// Public so callers that drive the raw engines themselves — e.g. the
/// `uic-serve` warm-arena path, which runs [`WarmGrd::run_on`] under an
/// arena lock and must score *outside* it — complete their reports
/// bit-identically to `solve`.
pub fn score_report(inst: &WelMaxInstance, ctx: &SolveCtx, report: &mut SolveReport) {
    report.seed = ctx.seed;
    report.budgets_used = report.allocation.budgets_used(inst.num_items());
    if ctx.sims > 0 {
        let mut est = WelfareEstimator::new(inst.graph(), inst.model(), ctx.sims, ctx.welfare_seed)
            .with_objective(inst.objective().clone());
        if let Some(t) = ctx.threads {
            est = est.with_threads(t);
        }
        report.welfare = Some(est.estimate_stats(&report.allocation));
    }
}

// ---------------------------------------------------------------------
// Spec plumbing shared by the parameter structs.
// ---------------------------------------------------------------------

fn spec_model(params: &SpecMap, default: DiffusionModel) -> Result<DiffusionModel, SpecError> {
    match params.get("model") {
        None => Ok(default),
        Some("ic") => Ok(DiffusionModel::IC),
        Some("lt") => Ok(DiffusionModel::LT),
        Some(other) => Err(SpecError::BadValue {
            key: "model".to_string(),
            value: other.to_string(),
            expected: "ic|lt",
        }),
    }
}

fn model_str(model: DiffusionModel) -> &'static str {
    match model {
        DiffusionModel::IC => "ic",
        DiffusionModel::LT => "lt",
    }
}

/// Range-validated `f64` parameter read: absent keys fall back to
/// `default`; present values must satisfy `ok` or the raw text is
/// reported as a typed [`SpecError::BadValue`]. Keeps the asserts in
/// the numeric machinery (the IMM/PRIMA bound preconditions, PageRank's
/// damping contract) unreachable from untrusted spec text.
fn spec_f64_in(
    params: &SpecMap,
    key: &'static str,
    default: f64,
    expected: &'static str,
    ok: fn(f64) -> bool,
) -> Result<f64, SpecError> {
    match params.get_f64(key)? {
        None => Ok(default),
        Some(v) if ok(v) => Ok(v),
        Some(_) => Err(SpecError::BadValue {
            key: key.to_string(),
            value: params.get(key).unwrap_or_default().to_string(),
            expected,
        }),
    }
}

/// A count parameter that must be at least 1: absent keys fall back to
/// `default`, 0 is a typed [`SpecError::BadValue`].
fn spec_positive_u32(params: &SpecMap, key: &'static str, default: u32) -> Result<u32, SpecError> {
    match params.get_u32(key)? {
        None => Ok(default),
        Some(0) => Err(SpecError::BadValue {
            key: key.to_string(),
            value: params.get(key).unwrap_or_default().to_string(),
            expected: "a positive u32",
        }),
        Some(v) => Ok(v),
    }
}

/// The RIS solvers' approximation parameter: `eps ∈ (0, 1)`.
fn spec_eps(params: &SpecMap, default: f64) -> Result<f64, SpecError> {
    spec_f64_in(params, "eps", default, "a float in (0, 1)", |v| {
        v > 0.0 && v < 1.0
    })
}

/// The RIS solvers' failure exponent: `ell > 0`, finite.
fn spec_ell(params: &SpecMap, default: f64) -> Result<f64, SpecError> {
    spec_f64_in(params, "ell", default, "a positive finite float", |v| {
        v > 0.0 && v.is_finite()
    })
}

/// Gate shared by the RIS/guarantee solvers: their submodularity
/// arguments decompose welfare as a sum over nodes, so any objective
/// that is not additive voids the machinery — refuse rather than return
/// an allocation the guarantee does not cover.
fn requires_additive(name: &'static str, inst: &WelMaxInstance) -> Result<(), Unsupported> {
    let objective = inst.objective();
    if objective.is_additive() {
        Ok(())
    } else {
        Err(Unsupported {
            algorithm: name,
            reason: ObjectiveError::NonAdditive {
                objective: objective.key().to_string(),
                algorithm: name.to_string(),
            }
            .to_string(),
        })
    }
}

/// The paper's allocation rule: item `i` gets the first `b_i` nodes of
/// one shared ranking (all of it when `b_i` exceeds its length).
fn prefix_allocation(order: &[NodeId], budgets: &[u32]) -> Allocation {
    let mut allocation = Allocation::new();
    for (item, &b) in budgets.iter().enumerate() {
        for &v in &order[..(b as usize).min(order.len())] {
            allocation.assign(v, item as u32);
        }
    }
    allocation
}

/// The instance's budgets in non-increasing order, as PRIMA takes them.
fn descending_budgets(inst: &WelMaxInstance) -> Vec<u32> {
    let mut sorted = inst.budgets().to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted
}

/// Node ids by non-increasing `score`, ties to the lower id.
fn rank_by_score(score: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..score.len() as NodeId).collect();
    order.sort_by(|&a, &b| {
        score[b as usize]
            .partial_cmp(&score[a as usize])
            .expect("ranking scores are finite")
            .then(a.cmp(&b))
    });
    order
}

// ---------------------------------------------------------------------
// The ten allocators.
// ---------------------------------------------------------------------

/// **bundleGRD** (Algorithm 1 of the paper). Registry key `"bundle-grd"`.
///
/// ```text
/// bundleGRD(I, b̄, G, ε, ℓ):
///   S ← PRIMA(b̄, G, ε, ℓ)                // one prefix-preserving ordering
///   for each item i: S_i ← top-b_i nodes of S
///   return ⋃_i (S_i × {i})
/// ```
///
/// By Theorem 2 the resulting allocation attains `(1 − 1/e − ε)` of the
/// optimal expected social welfare with probability `1 − 1/n^ℓ`, *despite*
/// the welfare function being neither submodular nor supermodular — the
/// block-accounting analysis (see [`crate::accounting`]) carries the proof.
///
/// A deliberately visible property: [`Allocator::run`] never reads the
/// instance's **utility model**, only its graph and budgets. The
/// guarantee requires only that the (unseen) valuation is supermodular
/// and price/noise additive, so the same allocation is simultaneously
/// near-optimal for *every* such utility configuration ("the power of
/// bundling", §4.2.1). The budgets need not be sorted: PRIMA receives a
/// sorted copy, and each item's seeds depend only on its own budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BundleGrd {
    /// PRIMA approximation parameter ε (paper default 0.5).
    pub eps: f64,
    /// PRIMA failure exponent ℓ (paper default 1).
    pub ell: f64,
    /// Diffusion model the RR sampler follows.
    pub model: DiffusionModel,
}

impl Default for BundleGrd {
    fn default() -> Self {
        BundleGrd {
            eps: 0.5,
            ell: 1.0,
            model: DiffusionModel::IC,
        }
    }
}

impl BundleGrd {
    /// Reads `eps`, `ell`, and `model` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = BundleGrd::default();
        Ok(BundleGrd {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
            model: spec_model(params, d.model)?,
        })
    }

    /// Serializes the parameters (always explicit, for reproducibility).
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("eps", self.eps)
            .with("ell", self.ell)
            .with("model", model_str(self.model))
    }
}

impl Allocator for BundleGrd {
    fn name(&self) -> &'static str {
        "bundle-grd"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let start = Instant::now();
        let r = uic_im::prima(
            inst.graph(),
            &descending_budgets(inst),
            self.eps,
            self.ell,
            self.model,
            ctx.seed,
        );
        SolveReport {
            algorithm: self.name(),
            allocation: prefix_allocation(&r.order, inst.budgets()),
            welfare: None,
            elapsed: start.elapsed(),
            seed: ctx.seed,
            budgets_used: Vec::new(),
            rr_sets_final: r.rr_sets_final,
            rr_sets_total: r.rr_sets_total,
        }
    }
}

/// **item-disj** (§4.3.1.2, item 2): one IMM call at `Σ b_i`, disjoint
/// chunks per item. Registry key `"item-disj"`.
///
/// "Given the set of items I, item-disj finds `Σ_i b_i` nodes, say L,
/// using IMM. Then it visits items in non-increasing order of budgets,
/// assigns item i to first `b_i` nodes and removes those `b_i` nodes from
/// L." Every seed gets exactly one item — no bundling, so supermodular
/// value-boosts can only arise downstream through propagation. When
/// `Σ b_i` exceeds the node count, the items visited last get what is
/// left (possibly nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemDisj {
    /// IMM approximation parameter ε.
    pub eps: f64,
    /// IMM failure exponent ℓ.
    pub ell: f64,
    /// Diffusion model the RR sampler follows.
    pub model: DiffusionModel,
}

impl Default for ItemDisj {
    fn default() -> Self {
        ItemDisj {
            eps: 0.5,
            ell: 1.0,
            model: DiffusionModel::IC,
        }
    }
}

impl ItemDisj {
    /// Reads `eps`, `ell`, and `model` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = ItemDisj::default();
        Ok(ItemDisj {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
            model: spec_model(params, d.model)?,
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("eps", self.eps)
            .with("ell", self.ell)
            .with("model", model_str(self.model))
    }
}

impl Allocator for ItemDisj {
    fn name(&self) -> &'static str {
        "item-disj"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let start = Instant::now();
        let (g, budgets) = (inst.graph(), inst.budgets());
        let total = budgets.iter().sum::<u32>().min(g.num_nodes());
        let imm = uic_im::imm(g, total.max(1), self.eps, self.ell, self.model, ctx.seed);
        // Visit items largest-budget first, consuming disjoint chunks.
        let mut items: Vec<usize> = (0..budgets.len()).collect();
        items.sort_by(|&a, &b| budgets[b].cmp(&budgets[a]));
        let mut allocation = Allocation::new();
        let mut cursor = 0usize;
        for item in items {
            let take = (budgets[item] as usize).min(imm.seeds.len() - cursor);
            for &v in &imm.seeds[cursor..cursor + take] {
                allocation.assign(v, item as u32);
            }
            cursor += take;
        }
        SolveReport::new(self.name(), allocation)
            .with_rr_sets(imm.rr_sets_final, imm.rr_sets_total)
            .with_elapsed_since(start)
    }
}

/// **bundle-disj** (§4.3.1.2): minimum profitable bundles on disjoint
/// seed chunks; reads the deterministic utilities from the instance.
/// Registry key `"bundle-disj"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BundleDisj {
    /// IMM approximation parameter ε.
    pub eps: f64,
    /// IMM failure exponent ℓ.
    pub ell: f64,
    /// Diffusion model the RR sampler follows.
    pub model: DiffusionModel,
}

impl Default for BundleDisj {
    fn default() -> Self {
        BundleDisj {
            eps: 0.5,
            ell: 1.0,
            model: DiffusionModel::IC,
        }
    }
}

impl BundleDisj {
    /// Reads `eps`, `ell`, and `model` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = BundleDisj::default();
        Ok(BundleDisj {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
            model: spec_model(params, d.model)?,
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("eps", self.eps)
            .with("ell", self.ell)
            .with("model", model_str(self.model))
    }
}

impl Allocator for BundleDisj {
    fn name(&self) -> &'static str {
        "bundle-disj"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        baselines::bundle_disj(
            inst.graph(),
            inst.budgets(),
            inst.model(),
            self.eps,
            self.ell,
            self.model,
            ctx.seed,
        )
    }
}

fn needs_two_items(name: &'static str, inst: &WelMaxInstance) -> Result<(), Unsupported> {
    if inst.num_items() == 2 {
        Ok(())
    } else {
        Err(Unsupported {
            algorithm: name,
            reason: format!(
                "the Com-IC algorithms handle exactly two items, got {}",
                inst.num_items()
            ),
        })
    }
}

/// **RR-SIM+** (Lu et al., Com-IC): item 2 by IMM, item 1 on
/// self-influence RR sets. GAP parameters are derived from the
/// instance's utility model via Eq. 12. Two items only.
/// Registry key `"rr-sim+"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrSimPlus {
    /// TIM approximation parameter ε.
    pub eps: f64,
    /// TIM failure exponent ℓ.
    pub ell: f64,
}

impl Default for RrSimPlus {
    fn default() -> Self {
        RrSimPlus { eps: 0.5, ell: 1.0 }
    }
}

impl RrSimPlus {
    /// Reads `eps` and `ell` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = RrSimPlus::default();
        Ok(RrSimPlus {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new().with("eps", self.eps).with("ell", self.ell)
    }
}

impl Allocator for RrSimPlus {
    fn name(&self) -> &'static str {
        "rr-sim+"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        needs_two_items(self.name(), inst)?;
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let gap = GapParams::from_utility(inst.model());
        baselines::rr_sim_plus(
            inst.graph(),
            gap,
            inst.budgets()[0],
            inst.budgets()[1],
            self.eps,
            self.ell,
            ctx.seed,
        )
    }
}

/// **RR-CIM** (Lu et al., Com-IC): item 1 by IMM, item 2 on
/// complement-aware RR sets. GAP parameters are derived from the
/// instance's utility model via Eq. 12. Two items only.
/// Registry key `"rr-cim"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrCim {
    /// TIM approximation parameter ε.
    pub eps: f64,
    /// TIM failure exponent ℓ.
    pub ell: f64,
}

impl Default for RrCim {
    fn default() -> Self {
        RrCim { eps: 0.5, ell: 1.0 }
    }
}

impl RrCim {
    /// Reads `eps` and `ell` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = RrCim::default();
        Ok(RrCim {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new().with("eps", self.eps).with("ell", self.ell)
    }
}

impl Allocator for RrCim {
    fn name(&self) -> &'static str {
        "rr-cim"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        needs_two_items(self.name(), inst)?;
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let gap = GapParams::from_utility(inst.model());
        baselines::rr_cim(
            inst.graph(),
            gap,
            inst.budgets()[0],
            inst.budgets()[1],
            self.eps,
            self.ell,
            ctx.seed,
        )
    }
}

/// **BDHS** (Bhattacharya et al., budgeted conversion): the best bundle
/// `J* = argmax_J V(J) − P(J)` is seeded on the nodes with the highest
/// 1-step live-in-edge support `1 − Π_{(u,v)}(1 − p_{uv})`, each item of
/// `J*` taking its budget-prefix of that ranking. Items outside `J*` (or
/// all items, when `U(J*) ≤ 0`) get no seeds.
///
/// The paper's §4.3.4.4 conversion is budget-free — every node holds `J*`
/// outright; those horizontal Fig. 9 benchmarks remain available as
/// [`uic_baselines::bdhs_step_welfare`] /
/// [`uic_baselines::bdhs_concave_welfare`]. This entry is the
/// budget-respecting member of the same family so BDHS can ride the
/// shared registry harness. Registry key `"bdhs"`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bdhs;

impl Bdhs {
    /// BDHS has no tunable parameters; any spec is accepted as-is.
    pub fn from_spec(_params: &SpecMap) -> Result<Self, SpecError> {
        Ok(Bdhs)
    }

    /// Serializes the (empty) parameter set.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
    }
}

impl Allocator for Bdhs {
    fn name(&self) -> &'static str {
        "bdhs"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn run(&self, inst: &WelMaxInstance, _ctx: &SolveCtx) -> SolveReport {
        let start = Instant::now();
        let g = inst.graph();
        let (bundle, utility): (ItemSet, f64) = baselines::best_bundle(inst.model());
        let mut allocation = Allocation::new();
        if utility > 0.0 {
            // Rank by exact step support (prob. of ≥ 1 live in-edge).
            let support: Vec<f64> = (0..g.num_nodes())
                .map(|v| {
                    1.0 - g
                        .in_arc_probs(v)
                        .iter()
                        .map(|p| 1.0 - p as f64)
                        .product::<f64>()
                })
                .collect();
            let order = rank_by_score(&support);
            for item in bundle.iter() {
                let b = inst.budgets()[item as usize] as usize;
                for &v in &order[..b.min(order.len())] {
                    allocation.assign(v, item);
                }
            }
        }
        SolveReport::new(self.name(), allocation).with_elapsed_since(start)
    }
}

/// **MC pair-greedy**: direct greedy on the Monte-Carlo welfare estimate
/// over `(node, item)` pairs — the guarantee-free, expensive strawman.
/// Candidates are all nodes when the graph is small, else the top
/// `pool` nodes by out-degree. Greedy gains are measured under the
/// instance's welfare objective, so this is the reference optimizer for
/// the non-additive (maximin / CES / per-community) objectives the RIS
/// solvers refuse. Registry key `"mc-greedy"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McGreedy {
    /// Monte-Carlo samples per candidate evaluation.
    pub sims: u32,
    /// Candidate-pool cap (top out-degree preselection above this size).
    pub pool: u32,
}

impl Default for McGreedy {
    fn default() -> Self {
        McGreedy {
            sims: 100,
            pool: 64,
        }
    }
}

impl McGreedy {
    /// Reads `sims` and `pool` overrides from a spec. Both must be at
    /// least 1: the greedy needs a simulation per estimate and a
    /// non-empty candidate pool.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = McGreedy::default();
        Ok(McGreedy {
            sims: spec_positive_u32(params, "sims", d.sims)?,
            pool: spec_positive_u32(params, "pool", d.pool)?,
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("sims", self.sims)
            .with("pool", self.pool)
    }
}

impl Allocator for McGreedy {
    fn name(&self) -> &'static str {
        "mc-greedy"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let g = inst.graph();
        let mut candidates: Vec<NodeId> = (0..g.num_nodes()).collect();
        if candidates.len() > self.pool as usize {
            candidates.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
            candidates.truncate(self.pool as usize);
        }
        baselines::mc_greedy_welfare_for(
            g,
            inst.model(),
            inst.budgets(),
            &candidates,
            self.sims,
            ctx.seed,
            inst.objective().clone(),
        )
        .expect("the instance validated its objective on construction")
    }
}

/// **degree-top**: rank by out-degree (ties to the lower id), seed every
/// item on its budget-prefix of the shared ranking. Registry key
/// `"degree-top"`.
///
/// With PageRank-top, one of the classic comparison points of the IM
/// literature since Kempe, Kleinberg & Tardos (the paper's \[30\]): a
/// cheap structural proxy for influence, allocated bundleGRD-style so the
/// comparison isolates *seed quality*, not allocation shape. No spread
/// estimation, no approximation guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeTop;

impl DegreeTop {
    /// degree-top has no tunable parameters; any spec is accepted as-is.
    pub fn from_spec(_params: &SpecMap) -> Result<Self, SpecError> {
        Ok(DegreeTop)
    }

    /// Serializes the (empty) parameter set.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
    }
}

impl Allocator for DegreeTop {
    fn name(&self) -> &'static str {
        "degree-top"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn run(&self, inst: &WelMaxInstance, _ctx: &SolveCtx) -> SolveReport {
        let start = Instant::now();
        let g = inst.graph();
        let mut order: Vec<NodeId> = (0..g.num_nodes()).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
        SolveReport::new(self.name(), prefix_allocation(&order, inst.budgets()))
            .with_elapsed_since(start)
    }
}

/// **PageRank-top**: rank by [`uic_baselines::pagerank`] on the
/// **transposed** graph (ties to the lower id), seed every item on its
/// budget-prefix (KKT'03 comparison point). Registry key `"pagerank-top"`.
///
/// Influence flows along out-edges, so a node is influential when many
/// recursively influential nodes are reachable *from* it — the mirror
/// image of the usual prestige ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankTop {
    /// Damping factor `d ∈ [0, 1)`.
    pub damping: f64,
    /// Power-iteration count.
    pub iterations: u32,
}

impl Default for PageRankTop {
    fn default() -> Self {
        PageRankTop {
            damping: 0.85,
            iterations: 50,
        }
    }
}

impl PageRankTop {
    /// Reads `damping` and `iterations` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = PageRankTop::default();
        Ok(PageRankTop {
            damping: spec_f64_in(params, "damping", d.damping, "a float in [0, 1)", |v| {
                (0.0..1.0).contains(&v)
            })?,
            iterations: params.get_u32("iterations")?.unwrap_or(d.iterations),
        })
    }

    /// Serializes the parameters.
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("damping", self.damping)
            .with("iterations", self.iterations)
    }
}

impl Allocator for PageRankTop {
    fn name(&self) -> &'static str {
        "pagerank-top"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn run(&self, inst: &WelMaxInstance, _ctx: &SolveCtx) -> SolveReport {
        let start = Instant::now();
        let scores = baselines::pagerank(&inst.graph().transpose(), self.damping, self.iterations);
        let order = rank_by_score(&scores);
        SolveReport::new(self.name(), prefix_allocation(&order, inst.budgets()))
            .with_elapsed_since(start)
    }
}

/// **warm-grd**: bundleGRD's selection driven by [`uic_im::warm_prima`]
/// over a caller-owned, extend-only RR arena. Bit-identical to a cold
/// run with the same `(model, seed)` spec — the warm-PRIMA prefix
/// contract — while repeat queries against a shared arena only *top up*
/// samples instead of regenerating them. This is the `uic-serve` query
/// engine; the [`Allocator::run`] path simply builds a fresh arena per
/// call, making `warm-grd` the offline reference the server is tested
/// against. Registry key `"warm-grd"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmGrd {
    /// PRIMA approximation parameter ε (paper default 0.5).
    pub eps: f64,
    /// PRIMA failure exponent ℓ (paper default 1).
    pub ell: f64,
    /// Diffusion model the RR sampler follows.
    pub model: DiffusionModel,
}

impl Default for WarmGrd {
    fn default() -> Self {
        WarmGrd {
            eps: 0.5,
            ell: 1.0,
            model: DiffusionModel::IC,
        }
    }
}

impl WarmGrd {
    /// Reads `eps`, `ell`, and `model` overrides from a spec.
    pub fn from_spec(params: &SpecMap) -> Result<Self, SpecError> {
        let d = WarmGrd::default();
        Ok(WarmGrd {
            eps: spec_eps(params, d.eps)?,
            ell: spec_ell(params, d.ell)?,
            model: spec_model(params, d.model)?,
        })
    }

    /// Serializes the parameters (always explicit, for reproducibility).
    pub fn to_spec(&self) -> SpecMap {
        SpecMap::new()
            .with("eps", self.eps)
            .with("ell", self.ell)
            .with("model", model_str(self.model))
    }

    /// Runs the selection against a caller-owned arena, growing it via
    /// `extend_to` as the certification loop demands (never resetting).
    ///
    /// The arena must have been built on this instance's graph with
    /// this allocator's diffusion model (and whatever seed the caller
    /// keys its arenas by — the report's seed stamp comes from `ctx`,
    /// which the caller is expected to keep consistent). The returned
    /// report is unscored; pass it through [`score_report`] outside any
    /// arena lock.
    ///
    /// # Panics
    /// When the arena belongs to a different graph or has ever been
    /// `reset` (warm reuse of a reset arena would silently break the
    /// bit-identity contract, so it is refused loudly).
    pub fn run_on(
        &self,
        inst: &WelMaxInstance,
        ctx: &SolveCtx,
        coll: &mut RrCollection,
    ) -> SolveReport {
        match self.run_shared(inst, ctx, &uic_im::ExclusiveArena::new(coll)) {
            Ok(report) => report,
            Err(never) => match never {},
        }
    }

    /// [`WarmGrd::run_on`] over any [`uic_im::WarmArena`] — the
    /// shared-arena serving path: selection and coverage estimation run
    /// under the arena's shared (read) access, only top-up takes
    /// exclusive access, and the answer is still bit-identical to a
    /// cold run (the prefix-restriction contract of
    /// [`uic_im::warm_prima_on`]).
    ///
    /// # Errors
    /// Whatever the arena's `prepare` returns (e.g. an injected top-up
    /// fault or a resource-cap refusal); nothing partial is reported.
    pub fn run_shared<A: uic_im::WarmArena>(
        &self,
        inst: &WelMaxInstance,
        ctx: &SolveCtx,
        arena: &A,
    ) -> Result<SolveReport, A::Error> {
        let start = Instant::now();
        let budgets = descending_budgets(inst);
        let r = uic_im::warm_prima_on(inst.graph(), arena, &budgets, self.eps, self.ell)?;
        Ok(SolveReport {
            algorithm: self.name(),
            allocation: prefix_allocation(&r.order, inst.budgets()),
            welfare: None,
            elapsed: start.elapsed(),
            seed: ctx.seed,
            budgets_used: Vec::new(),
            rr_sets_final: r.rr_sets_final,
            rr_sets_total: r.rr_sets_total,
        })
    }
}

impl Allocator for WarmGrd {
    fn name(&self) -> &'static str {
        "warm-grd"
    }

    fn spec(&self) -> SolverSpec {
        SolverSpec {
            name: self.name().to_string(),
            params: self.to_spec(),
        }
    }

    fn supports(&self, inst: &WelMaxInstance) -> Result<(), Unsupported> {
        requires_additive(self.name(), inst)
    }

    fn run(&self, inst: &WelMaxInstance, ctx: &SolveCtx) -> SolveReport {
        let mut coll = RrCollection::new(inst.graph(), self.model, ctx.seed);
        self.run_on(inst, ctx, &mut coll)
    }
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

/// One registered allocator: its key, a one-line summary, and a factory
/// from spec parameters.
pub struct RegistryEntry {
    /// The registry key.
    pub name: &'static str,
    /// One-line description (shown in the README registry table).
    pub summary: &'static str,
    build: fn(&SpecMap) -> Result<Box<dyn Allocator>, SpecError>,
}

impl RegistryEntry {
    /// Instantiates the allocator with parameter overrides from `params`
    /// (keys the algorithm does not define are ignored, so one shared
    /// spec — e.g. `eps=0.3 ell=1` — can configure a whole sweep).
    pub fn build(&self, params: &SpecMap) -> Result<Box<dyn Allocator>, SpecError> {
        (self.build)(params)
    }

    /// Instantiates the allocator with its default parameters.
    pub fn default_allocator(&self) -> Box<dyn Allocator> {
        self.build(&SpecMap::new())
            .expect("defaults are always valid")
    }
}

macro_rules! entry {
    ($name:literal, $ty:ty, $summary:literal) => {
        RegistryEntry {
            name: $name,
            summary: $summary,
            build: |params| Ok(Box::new(<$ty>::from_spec(params)?) as Box<dyn Allocator>),
        }
    };
}

/// All registered allocators, in the paper's comparison order.
pub fn registry() -> &'static [RegistryEntry] {
    static REGISTRY: [RegistryEntry; 10] = [
        entry!(
            "bundle-grd",
            BundleGrd,
            "bundleGRD (Alg. 1): shared PRIMA prefix, (1−1/e−ε)-approx"
        ),
        entry!(
            "item-disj",
            ItemDisj,
            "item-disj: one IMM call at Σbᵢ, disjoint chunk per item"
        ),
        entry!(
            "bundle-disj",
            BundleDisj,
            "bundle-disj: min profitable bundles on disjoint seed chunks"
        ),
        entry!(
            "rr-sim+",
            RrSimPlus,
            "RR-SIM+ (Com-IC): self-influence RR sets, two items"
        ),
        entry!(
            "rr-cim",
            RrCim,
            "RR-CIM (Com-IC): complement-aware RR sets, two items"
        ),
        entry!(
            "bdhs",
            Bdhs,
            "BDHS: best bundle J* on top step-support nodes (budgeted)"
        ),
        entry!(
            "mc-greedy",
            McGreedy,
            "MC pair-greedy on the welfare estimate (no guarantee, slow)"
        ),
        entry!(
            "degree-top",
            DegreeTop,
            "high-degree ranking, budget-prefix per item"
        ),
        entry!(
            "pagerank-top",
            PageRankTop,
            "PageRank-on-transpose ranking, budget-prefix per item"
        ),
        entry!(
            "warm-grd",
            WarmGrd,
            "bundleGRD on a warm extend-only RR arena (the uic-serve engine)"
        ),
    ];
    &REGISTRY
}

/// Errors from registry lookups and spec-driven construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The spec's head token names no registered allocator.
    UnknownAlgorithm(String),
    /// The spec's parameters were malformed.
    Spec(SpecError),
    /// A spec key the named algorithm does not define (typo guard of the
    /// strict [`<dyn Allocator>::from_spec`](trait.Allocator.html) path).
    UnknownKey {
        /// The registry key of the algorithm.
        algorithm: String,
        /// The unrecognized parameter key.
        key: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownAlgorithm(name) => {
                write!(f, "no allocator named `{name}` in the registry")
            }
            RegistryError::Spec(e) => write!(f, "bad solver spec: {e}"),
            RegistryError::UnknownKey { algorithm, key } => {
                write!(f, "`{algorithm}` has no parameter `{key}`")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<SpecError> for RegistryError {
    fn from(e: SpecError) -> Self {
        RegistryError::Spec(e)
    }
}

impl dyn Allocator {
    /// Looks an allocator up by registry key and instantiates it with
    /// default parameters: `<dyn Allocator>::by_name("bundle-grd")`.
    pub fn by_name(name: &str) -> Option<Box<dyn Allocator>> {
        registry()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.default_allocator())
    }

    /// Instantiates an allocator from a parsed [`SolverSpec`].
    ///
    /// Unlike [`RegistryEntry::build`] (which ignores keys an algorithm
    /// does not define, so one shared spec can configure a sweep), this
    /// single-solver entry point is strict: a key the algorithm does not
    /// serialize is reported as [`RegistryError::UnknownKey`] rather
    /// than silently running with defaults.
    pub fn from_spec(spec: &SolverSpec) -> Result<Box<dyn Allocator>, RegistryError> {
        let built = registry()
            .iter()
            .find(|e| e.name == spec.name)
            .ok_or_else(|| RegistryError::UnknownAlgorithm(spec.name.clone()))?
            .build(&spec.params)
            .map_err(RegistryError::from)?;
        let known = built.spec();
        if let Some(bad) = spec.params.keys().find(|k| known.params.get(k).is_none()) {
            return Err(RegistryError::UnknownKey {
                algorithm: spec.name.clone(),
                key: bad.to_string(),
            });
        }
        Ok(built)
    }

    /// Parses a config text line — `"<name> [key=value]…"` — and
    /// instantiates the named allocator.
    pub fn parse(text: &str) -> Result<Box<dyn Allocator>, RegistryError> {
        <dyn Allocator>::from_spec(&SolverSpec::parse(text)?)
    }

    /// Like [`<dyn Allocator>::from_spec`](trait.Allocator.html#method.from_spec),
    /// but also reads the welfare-objective keys (`objective`, and its
    /// `alpha`/`communities` parameters where the objective defines
    /// them) from the same spec line. Absent an `objective=` key the
    /// returned spec is [`ObjectiveSpec::Utilitarian`].
    ///
    /// Strictness carries over: a key neither the algorithm nor the
    /// *parsed* objective serializes is an [`RegistryError::UnknownKey`]
    /// — so `degree-top objective=maximin alpha=0.5` is rejected
    /// (maximin takes no `alpha`) rather than silently dropping a knob.
    pub fn from_spec_with_objective(
        spec: &SolverSpec,
    ) -> Result<(Box<dyn Allocator>, ObjectiveSpec), RegistryError> {
        let built = registry()
            .iter()
            .find(|e| e.name == spec.name)
            .ok_or_else(|| RegistryError::UnknownAlgorithm(spec.name.clone()))?
            .build(&spec.params)
            .map_err(RegistryError::from)?;
        let objective = ObjectiveSpec::from_params(&spec.params)?.unwrap_or_default();
        let known = built.spec();
        let objective_keys = objective.to_params();
        if let Some(bad) = spec
            .params
            .keys()
            .find(|k| known.params.get(k).is_none() && objective_keys.get(k).is_none())
        {
            return Err(RegistryError::UnknownKey {
                algorithm: spec.name.clone(),
                key: bad.to_string(),
            });
        }
        Ok((built, objective))
    }

    /// Parses a config text line that may carry objective keys —
    /// `"mc-greedy objective=ces alpha=0.5"` — into the allocator and
    /// the objective spec to build the instance with (via
    /// [`crate::WelMax::objective_spec`]).
    pub fn parse_with_objective(
        text: &str,
    ) -> Result<(Box<dyn Allocator>, ObjectiveSpec), RegistryError> {
        <dyn Allocator>::from_spec_with_objective(&SolverSpec::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WelMax;
    use std::sync::Arc;
    use uic_graph::{Graph, GraphBuilder, Weighting};
    use uic_items::{AdditiveValuation, NoiseModel, Price, TableValuation, UtilityModel};

    fn two_item_model() -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 9.0])),
            Price::additive(vec![3.5, 4.5]),
            NoiseModel::iid_gaussian_var(2, 1.0),
        )
    }

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(30);
        for leaf in 2..20u32 {
            b.add_edge(0, leaf, 0.6);
        }
        for leaf in 20..28u32 {
            b.add_edge(1, leaf, 0.6);
        }
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn every_registry_entry_solves_a_two_item_instance() {
        let g = hub_graph();
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([3u32, 2])
            .build()
            .unwrap();
        let ctx = SolveCtx::new(7).with_sims(40);
        for entry in registry() {
            let solver = entry.default_allocator();
            assert_eq!(solver.name(), entry.name);
            let report = solver.solve(&inst, &ctx);
            assert_eq!(report.algorithm, entry.name);
            assert_eq!(report.seed, 7);
            assert!(
                report.allocation.respects_budgets(inst.budgets()),
                "{} violated budgets",
                entry.name
            );
            assert_eq!(report.budgets_used.len(), 2, "{}", entry.name);
            assert!(
                report.welfare_mean().is_finite(),
                "{} welfare not finite",
                entry.name
            );
            assert!(report.welfare_ci95().is_finite(), "{}", entry.name);
        }
    }

    #[test]
    fn by_name_round_trips_every_key_and_spec() {
        for entry in registry() {
            let solver = <dyn Allocator>::by_name(entry.name)
                .unwrap_or_else(|| panic!("{} not constructible", entry.name));
            assert_eq!(solver.name(), entry.name);
            // spec() → parse → same name and spec (defaults round-trip).
            let line = solver.spec().to_string();
            let reparsed = <dyn Allocator>::parse(&line).unwrap();
            assert_eq!(reparsed.name(), entry.name);
            assert_eq!(reparsed.spec(), solver.spec(), "{line}");
        }
        assert!(<dyn Allocator>::by_name("no-such-algo").is_none());
    }

    #[test]
    fn spec_overrides_are_applied() {
        let solver = <dyn Allocator>::parse("bundle-grd eps=0.3 ell=2 model=lt").unwrap();
        assert_eq!(
            solver.spec().to_string(),
            "bundle-grd eps=0.3 ell=2 model=lt"
        );
        let pr =
            PageRankTop::from_spec(&SpecMap::parse("damping=0.5 iterations=9").unwrap()).unwrap();
        assert_eq!(pr.damping, 0.5);
        assert_eq!(pr.iterations, 9);
        // Unknown algorithms and malformed values are typed errors.
        assert_eq!(
            <dyn Allocator>::parse("frobnicate").err(),
            Some(RegistryError::UnknownAlgorithm("frobnicate".to_string()))
        );
        assert!(matches!(
            <dyn Allocator>::parse("bundle-grd model=xyz"),
            Err(RegistryError::Spec(SpecError::BadValue { .. }))
        ));
        // The single-solver path is strict about typo'd keys; the
        // registry-entry path stays lenient for shared sweep specs.
        assert_eq!(
            <dyn Allocator>::parse("bundle-grd epsilon=0.1").err(),
            Some(RegistryError::UnknownKey {
                algorithm: "bundle-grd".to_string(),
                key: "epsilon".to_string(),
            })
        );
        let sweep_spec = SpecMap::parse("eps=0.3 damping=0.5").unwrap();
        for entry in registry() {
            assert!(entry.build(&sweep_spec).is_ok(), "{}", entry.name);
        }
    }

    #[test]
    fn welfare_scoring_matches_a_direct_estimator_run() {
        let g = hub_graph();
        let model = two_item_model();
        let inst = WelMax::on(&g)
            .model(model.clone())
            .budgets([3u32, 2])
            .build()
            .unwrap();
        let ctx = SolveCtx::new(11).with_sims(200);
        let report = <dyn Allocator>::by_name("degree-top")
            .unwrap()
            .solve(&inst, &ctx);
        let direct = WelfareEstimator::new(&g, &model, 200, ctx.welfare_seed)
            .estimate_stats(&report.allocation);
        assert_eq!(report.welfare_stats(), &direct);
        // Thread pinning must not change the estimate (PR 2 reducer).
        let pinned = <dyn Allocator>::by_name("degree-top")
            .unwrap()
            .solve(&inst, &ctx.with_threads(Some(2)));
        assert_eq!(pinned.welfare_mean(), report.welfare_mean());
    }

    #[test]
    fn zero_sims_skips_scoring() {
        let g = hub_graph();
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([2u32, 2])
            .build()
            .unwrap();
        let report = <dyn Allocator>::by_name("degree-top")
            .unwrap()
            .solve(&inst, &SolveCtx::new(3).with_sims(0));
        assert!(!report.is_scored());
        assert_eq!(report.budgets_used, vec![2, 2]);
    }

    #[test]
    fn comic_algorithms_reject_non_two_item_instances() {
        let g = hub_graph();
        let model = UtilityModel::new(
            Arc::new(TableValuation::from_table(1, vec![0.0, 2.0])),
            Price::additive(vec![1.0]),
            NoiseModel::none(1),
        );
        let inst = WelMax::on(&g).model(model).budgets([3u32]).build().unwrap();
        let solver = <dyn Allocator>::by_name("rr-sim+").unwrap();
        let err = solver.supports(&inst).unwrap_err();
        assert_eq!(err.algorithm, "rr-sim+");
        assert!(err.to_string().contains("exactly two items"));
        // The one-item instance is fine for everyone else.
        let report = <dyn Allocator>::by_name("bundle-grd")
            .unwrap()
            .solve(&inst, &SolveCtx::new(5).with_sims(20));
        assert!(report.welfare_mean().is_finite());
    }

    #[test]
    fn bdhs_budgeted_conversion_shapes() {
        // Profitable pair: both items seeded on the best-supported nodes.
        let g = Graph::from_edges(4, &[(0, 1, 0.9), (2, 1, 0.9), (0, 3, 0.5)]);
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([2u32, 1])
            .build()
            .unwrap();
        let report = Bdhs.solve(&inst, &SolveCtx::new(1).with_sims(10));
        // Node 1 has the highest live-in-edge support (two 0.9 edges).
        assert_eq!(report.allocation.seeds_of_item(0), vec![1, 3]);
        assert_eq!(report.allocation.seeds_of_item(1), vec![1]);
        assert!(report.allocation.respects_budgets(inst.budgets()));

        // Worthless bundle: nothing is seeded.
        let loss = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 1.0, 1.0, 2.0])),
            Price::additive(vec![5.0, 5.0]),
            NoiseModel::none(2),
        );
        let inst = WelMax::on(&g)
            .model(loss)
            .budgets([2u32, 1])
            .build()
            .unwrap();
        let report = Bdhs.solve(&inst, &SolveCtx::new(1).with_sims(10));
        assert!(report.allocation.is_empty());
        assert_eq!(report.welfare_mean(), 0.0);
    }

    #[test]
    fn non_additive_objectives_gate_the_ris_solvers() {
        let g = hub_graph();
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([3u32, 2])
            .objective(Arc::new(uic_diffusion::Maximin))
            .build()
            .unwrap();
        let ctx = SolveCtx::new(7).with_sims(30);
        let gated = [
            "bundle-grd",
            "item-disj",
            "bundle-disj",
            "rr-sim+",
            "rr-cim",
            "warm-grd",
        ];
        for name in gated {
            let err = <dyn Allocator>::by_name(name)
                .unwrap()
                .supports(&inst)
                .unwrap_err();
            assert_eq!(err.algorithm, name);
            assert!(err.reason.contains("additive"), "{name}: {}", err.reason);
        }
        // The simulation-based / objective-independent solvers still run,
        // scored under the instance's (maximin) objective.
        for name in ["mc-greedy", "bdhs", "degree-top", "pagerank-top"] {
            let report = <dyn Allocator>::by_name(name).unwrap().solve(&inst, &ctx);
            assert!(report.welfare_mean().is_finite(), "{name}");
            assert!(report.allocation.respects_budgets(inst.budgets()), "{name}");
        }
    }

    #[test]
    fn solve_scores_under_the_instance_objective() {
        let g = hub_graph();
        let model = two_item_model();
        let ces: Arc<dyn uic_diffusion::WelfareObjective> =
            Arc::new(uic_diffusion::Ces::new(0.5).unwrap());
        let inst = WelMax::on(&g)
            .model(model.clone())
            .budgets([3u32, 2])
            .objective(ces.clone())
            .build()
            .unwrap();
        let ctx = SolveCtx::new(11).with_sims(200);
        let report = <dyn Allocator>::by_name("degree-top")
            .unwrap()
            .solve(&inst, &ctx);
        let direct = WelfareEstimator::new(&g, &model, 200, ctx.welfare_seed)
            .with_objective(ces)
            .estimate_stats(&report.allocation);
        assert_eq!(report.welfare_stats(), &direct);
        // An explicit utilitarian objective is bit-identical to the
        // default path (the refactor's compatibility contract).
        let plain = WelMax::on(&g)
            .model(model.clone())
            .budgets([3u32, 2])
            .build()
            .unwrap();
        let explicit = WelMax::on(&g)
            .model(model)
            .budgets([3u32, 2])
            .objective_spec(ObjectiveSpec::Utilitarian)
            .build()
            .unwrap();
        let a = <dyn Allocator>::by_name("bundle-grd")
            .unwrap()
            .solve(&plain, &ctx);
        let b = <dyn Allocator>::by_name("bundle-grd")
            .unwrap()
            .solve(&explicit, &ctx);
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.welfare, b.welfare);
    }

    #[test]
    fn objective_specs_ride_the_registry_text_format() {
        let (solver, obj) =
            <dyn Allocator>::parse_with_objective("mc-greedy sims=50 objective=ces alpha=0.25")
                .unwrap();
        assert_eq!(solver.name(), "mc-greedy");
        assert_eq!(obj, ObjectiveSpec::Ces { alpha: 0.25 });
        // No objective key → utilitarian default, solver keys intact.
        let (solver, obj) = <dyn Allocator>::parse_with_objective("bundle-grd eps=0.3").unwrap();
        assert_eq!(solver.spec().params.get("eps"), Some("0.3"));
        assert_eq!(obj, ObjectiveSpec::Utilitarian);
        // Strict: maximin defines no alpha, so the stray key is caught.
        assert_eq!(
            <dyn Allocator>::parse_with_objective("degree-top objective=maximin alpha=0.5").err(),
            Some(RegistryError::UnknownKey {
                algorithm: "degree-top".to_string(),
                key: "alpha".to_string(),
            })
        );
        // The objective-blind path stays strict about objective keys too.
        assert_eq!(
            <dyn Allocator>::parse("degree-top objective=maximin").err(),
            Some(RegistryError::UnknownKey {
                algorithm: "degree-top".to_string(),
                key: "objective".to_string(),
            })
        );
        // Malformed objective values are typed spec errors.
        assert!(matches!(
            <dyn Allocator>::parse_with_objective("mc-greedy objective=ces alpha=7"),
            Err(RegistryError::Spec(SpecError::BadValue { .. }))
        ));
    }

    #[test]
    fn every_objective_is_selectable_end_to_end() {
        let g = hub_graph();
        let ctx = SolveCtx::new(3).with_sims(40);
        for spec in [
            ObjectiveSpec::Utilitarian,
            ObjectiveSpec::Maximin,
            ObjectiveSpec::Ces { alpha: 0.5 },
            ObjectiveSpec::PerCommunity {
                communities: 3,
                alpha: 0.5,
            },
        ] {
            let inst = WelMax::on(&g)
                .model(two_item_model())
                .budgets([3u32, 2])
                .objective_spec(spec)
                .build()
                .unwrap();
            assert_eq!(inst.objective().key(), spec.key());
            let report = <dyn Allocator>::by_name("mc-greedy")
                .unwrap()
                .solve(&inst, &ctx);
            assert!(report.welfare_mean().is_finite(), "{}", spec.key());
            assert!(
                report.allocation.respects_budgets(inst.budgets()),
                "{}",
                spec.key()
            );
        }
    }

    #[test]
    fn warm_grd_cold_run_matches_bundle_grd_and_warm_reuse_matches_cold() {
        let g = hub_graph();
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([3u32, 2])
            .build()
            .unwrap();
        let ctx = SolveCtx::new(7).with_sims(40);

        // warm-grd is NOT bundle-grd: PRIMA's final selection runs on
        // freshly regenerated RR sets (the Chen et al. fix), which a
        // shared extend-only arena can never replay, so warm-grd selects
        // on the first θ sets of the certification arena instead. That
        // reuse is the dependence Chen showed breaks IMM's martingale
        // argument, so bundle-grd's (1 − 1/e − ε) proof does not cover
        // warm-grd: a different (still deterministic) sample set with no
        // proven guarantee.
        let cold = WarmGrd::default().solve(&inst, &ctx);
        assert!(cold.allocation.respects_budgets(inst.budgets()));
        assert!(cold.welfare_mean().is_finite());
        assert!(cold.rr_sets_total >= cold.rr_sets_final as u64);

        // A shared arena answering several queries stays bit-identical
        // to cold runs, and run_on + score_report (the server's split
        // path) reproduces solve exactly.
        let warm = WarmGrd::default();
        let mut arena = RrCollection::new(&g, warm.model, ctx.seed);
        let narrow = WelMax::on(&g)
            .model(two_item_model())
            .budgets([2u32, 2])
            .build()
            .unwrap();
        for inst_i in [&inst, &narrow, &inst] {
            let mut report = warm.run_on(inst_i, &ctx, &mut arena);
            score_report(inst_i, &ctx, &mut report);
            let cold_i = warm.solve(inst_i, &ctx);
            assert_eq!(report.allocation, cold_i.allocation);
            assert_eq!(report.welfare, cold_i.welfare);
            assert_eq!(report.budgets_used, cold_i.budgets_used);
            assert_eq!(report.seed, cold_i.seed);
            assert_eq!(report.rr_sets_final, cold_i.rr_sets_final);
        }
    }

    #[test]
    fn spec_values_outside_algorithm_ranges_are_typed_errors() {
        for bad in [
            "warm-grd eps=0",
            "warm-grd eps=1",
            "warm-grd eps=nan",
            "bundle-grd eps=-0.5",
            "item-disj ell=0",
            "bundle-disj ell=inf",
            "rr-sim+ eps=2",
            "rr-cim ell=-1",
            "pagerank-top damping=1",
            "pagerank-top damping=-0.1",
            "mc-greedy pool=0",
            "mc-greedy sims=0",
        ] {
            assert!(
                matches!(
                    <dyn Allocator>::parse(bad),
                    Err(RegistryError::Spec(SpecError::BadValue { .. }))
                ),
                "{bad} should be rejected"
            );
        }
        // The boundaries that ARE valid still parse.
        assert!(<dyn Allocator>::parse("warm-grd eps=0.99 ell=16").is_ok());
        assert!(<dyn Allocator>::parse("pagerank-top damping=0").is_ok());
        assert!(<dyn Allocator>::parse("mc-greedy pool=1 sims=1").is_ok());
    }

    /// An instance of `budgets.len()` free items worth 1 each, in any
    /// item order (the solvers under test never read the utilities).
    fn free_items<'g>(g: &'g Graph, budgets: &[u32]) -> WelMaxInstance<'g> {
        let k = budgets.len();
        let model = UtilityModel::new(
            Arc::new(AdditiveValuation::new(vec![1.0; k])),
            Price::additive(vec![0.0; k]),
            NoiseModel::none(k),
        );
        WelMax::on(g)
            .model(model)
            .budgets(budgets)
            .any_item_order()
            .build()
            .unwrap()
    }

    #[test]
    fn bundle_grd_is_the_prefix_of_one_prima_ordering() {
        // The registry's bundle-grd is exactly item i ↦ the top-b_i prefix
        // of PRIMA on the sorted budgets, with PRIMA's RR-set counts —
        // the contract callers needing the ordering itself rely on.
        let g = hub_graph();
        let cases: [(&[u32], DiffusionModel, u64); 5] = [
            (&[3, 1], DiffusionModel::IC, 5),
            (&[4, 2, 2], DiffusionModel::IC, 7),
            (&[2, 2], DiffusionModel::LT, 11),
            (&[3, 2], DiffusionModel::LT, 13),
            // Unsorted: item 0 has the small budget.
            (&[1, 3], DiffusionModel::IC, 9),
        ];
        for (budgets, model, seed) in cases {
            let inst = free_items(&g, budgets);
            let spec = format!("bundle-grd eps=0.4 model={}", model_str(model));
            let report = <dyn Allocator>::parse(&spec)
                .unwrap()
                .run(&inst, &SolveCtx::new(seed));
            let mut sorted = budgets.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let p = uic_im::prima(&g, &sorted, 0.4, 1.0, model, seed);
            let prefixes: Vec<Vec<NodeId>> = budgets
                .iter()
                .map(|&b| p.seeds_for_budget(b).to_vec())
                .collect();
            let case = format!("{spec} {budgets:?}");
            assert_eq!(
                report.allocation,
                Allocation::from_item_seeds(&prefixes),
                "{case}"
            );
            assert_eq!(report.rr_sets_final, p.rr_sets_final, "{case}");
            assert_eq!(report.rr_sets_total, p.rr_sets_total, "{case}");
            assert!(report.rr_sets_final > 0, "{case}");
            assert!(
                report.rr_sets_total >= report.rr_sets_final as u64,
                "{case}"
            );
            assert!(report.elapsed.as_nanos() > 0, "{case}");
            // Every budget is spent, and the two hubs lead the ordering.
            assert_eq!(report.allocation.budgets_used(inst.num_items()), budgets);
            let mut top2 = p.order[..2].to_vec();
            top2.sort_unstable();
            assert_eq!(top2, vec![0, 1], "{case}: the two hubs dominate");
        }
    }

    #[test]
    fn disjoint_chunks_per_item_in_item_disj() {
        let hubs = hub_graph();
        let path = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        // (graph, budgets, seed, the item visited first when it must get
        // the top hub).
        let cases: [(&Graph, &[u32], u64, Option<u32>); 4] = [
            (&hubs, &[3, 2], 3, Some(0)),
            // Item 1 has the larger budget, so it is visited first.
            (&hubs, &[1, 3], 5, Some(1)),
            (&hubs, &[4, 2, 1], 7, Some(0)),
            // Σ b_i exceeds n: the item visited last gets the leftovers.
            (&path, &[3, 3], 9, None),
        ];
        for (g, budgets, seed, first) in cases {
            let inst = free_items(g, budgets);
            let solver = <dyn Allocator>::parse("item-disj eps=0.4").unwrap();
            let ctx = SolveCtx::new(seed);
            let report = solver.run(&inst, &ctx);
            assert_eq!(report.allocation, solver.run(&inst, &ctx).allocation);
            let a = &report.allocation;
            let case = format!("{budgets:?} on n={}", g.num_nodes());
            assert!(a.respects_budgets(budgets), "{case}");
            assert_eq!(a.num_pairs(), a.num_seed_nodes(), "{case}: a shared seed");
            let total: u32 = budgets.iter().sum();
            assert_eq!(a.num_pairs() as u32, total.min(g.num_nodes()), "{case}");
            if let Some(item) = first {
                assert!(a.seeds_of_item(item).contains(&0), "{case}: top hub");
            }
        }
    }

    #[test]
    fn ranking_heuristics_seed_budget_prefixes() {
        // Node 0 points at many; node 15 at two.
        let mut b = GraphBuilder::new(20);
        for leaf in 1..15u32 {
            b.add_edge(0, leaf, 0.5);
        }
        b.add_edge(15, 16, 0.5);
        b.add_edge(15, 17, 0.5);
        let star = b.build(Weighting::AsGiven, 0);
        // Node 0 points at many; many point at node 19. On the transpose
        // node 0 is the prestige sink, so pagerank-top must rank 0 first —
        // out-influence, not in-popularity.
        let mut b = GraphBuilder::new(20);
        for leaf in 1..10u32 {
            b.add_edge(0, leaf, 0.5);
        }
        for fan in 10..19u32 {
            b.add_edge(fan, 19, 0.5);
        }
        let fan_in = b.build(Weighting::AsGiven, 0);
        let check = |spec: &str, g: &Graph, budgets: &[u32], expected: &[&[NodeId]]| {
            let report = <dyn Allocator>::parse(spec)
                .unwrap()
                .run(&free_items(g, budgets), &SolveCtx::new(1));
            for (item, seeds) in expected.iter().enumerate() {
                assert_eq!(
                    report.allocation.seeds_of_item(item as u32),
                    *seeds,
                    "{spec} {budgets:?} item {item}"
                );
            }
        };
        // Hub, then the secondary hub, then ties by lower id.
        check("degree-top", &star, &[2, 1], &[&[0, 15], &[0]]);
        check("degree-top", &star, &[3, 1], &[&[0, 1, 15], &[0]]);
        check("pagerank-top iterations=100", &fan_in, &[1], &[&[0]]);
    }

    #[test]
    fn solve_is_deterministic_given_ctx() {
        let g = hub_graph();
        let inst = WelMax::on(&g)
            .model(two_item_model())
            .budgets([3u32, 2])
            .build()
            .unwrap();
        let ctx = SolveCtx::new(13).with_sims(50);
        for entry in registry() {
            let a = entry.default_allocator().solve(&inst, &ctx);
            let b = entry.default_allocator().solve(&inst, &ctx);
            assert_eq!(a.allocation, b.allocation, "{}", entry.name);
            assert_eq!(a.welfare, b.welfare, "{}", entry.name);
        }
    }
}
