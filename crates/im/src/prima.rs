//! PRIMA — **PR**efix preserving **I**nfluence **M**aximization
//! **A**lgorithm (Algorithm 2 of the paper).
//!
//! Given a budget vector `b̄` sorted non-increasingly, PRIMA returns a
//! single greedy *ordering* of `b = max b̄` seeds such that, with
//! probability `1 − 1/n^ℓ`, **every** prefix of size `b_i ∈ b̄` is a
//! `(1 − 1/e − ε)`-approximation for budget `b_i` (Definition 1). Plain
//! IMM does not have this property for non-uniform budgets because its
//! sample size is not monotone in `k`; PRIMA fixes it by
//! * inflating the log-failure exponent to `ℓ′ = log_n(n^ℓ · |b̄|)`
//!   (union bound over budgets),
//! * processing budgets largest-first while *reusing* the RR collection
//!   and the previous greedy ordering's prefixes on budget switches, and
//! * regenerating the final collection from scratch (the Chen 2018 fix)
//!   before the last `NodeSelection`.
//!
//! ## One certification loop, two final steps
//!
//! The sampling phase (lines 1–21) is one private driver, `certify`,
//! over any [`WarmArena`]. It returns `θ`, the number of sets the final
//! selection needs, and leaves the arena at the prefix it reached. With
//! a single budget it is exactly IMM's sampling phase, so
//! [`crate::imm()`] is `prima` on `[k]`. The entry points differ only in
//! their final step:
//!
//! * [`prima`] runs the loop over a fresh collection, then resets it and
//!   selects on `θ` fresh sets (lines 22–25, Chen's regeneration).
//! * [`warm_prima_on`] tops the arena up to `θ` and selects on its first
//!   `θ` sets. It skips the regeneration: sets drawn after a reset exist
//!   in no shared extend-only arena, so no later query could replay
//!   them, and answering bit-identically from a warm arena is what a
//!   resident server needs. The final selection therefore reuses
//!   certification-phase sets, as the original IMM did.

use crate::node_selection::{node_selection, node_selection_prefix_indexed, NodeSelectionResult};
use crate::rrset::{DiffusionModel, RrCollection};
use uic_graph::{Graph, NodeId};
use uic_util::{log_choose, VisitTags};

/// Result of a PRIMA run.
#[derive(Debug, Clone)]
pub struct PrimaResult {
    /// Greedy seed ordering of length `max(b̄)` (capped at `n`).
    pub order: Vec<NodeId>,
    /// Cumulative RR-set coverage per prefix on the final collection.
    pub coverage: Vec<u64>,
    /// RR sets used by the final NodeSelection (the Table 6 metric).
    pub rr_sets_final: usize,
    /// RR sets generated over the run, including phase 1 and discarded.
    pub rr_sets_total: u64,
    /// Number of budget entries certified inside the sampling loop
    /// (diagnostics; the remainder fell back to `LB = 1`).
    pub budgets_certified: usize,
}

impl PrimaResult {
    /// The prefix-preserving seed set for budget `k` (top-`k` nodes).
    pub fn seeds_for_budget(&self, k: u32) -> &[NodeId] {
        &self.order[..(k as usize).min(self.order.len())]
    }
}

/// Runs PRIMA on budget vector `budgets` (must be sorted non-increasing).
///
/// The certification loop runs over a fresh collection; the final
/// selection then follows Chen (2018): the collection is reset and `θ`
/// fresh sets (the sample stream continues past the certification sets)
/// are drawn for the last `NodeSelection`.
pub fn prima(
    g: &Graph,
    budgets: &[u32],
    eps: f64,
    ell: f64,
    model: DiffusionModel,
    seed: u64,
) -> PrimaResult {
    let mut coll = RrCollection::new(g, model, seed);
    let certified = match certify(g, &ExclusiveArena::new(&mut coll), budgets, eps, ell) {
        Ok(c) => c,
        Err(never) => match never {},
    };
    // Lines 22–25: regenerate from scratch, final NodeSelection at b.
    coll.reset();
    coll.extend_to(g, certified.theta);
    let sel = node_selection(&mut coll, budgets[0]);
    PrimaResult {
        order: sel.seeds,
        coverage: sel.covered,
        rr_sets_final: coll.len(),
        rr_sets_total: coll.total_generated(),
        budgets_certified: certified.budgets_certified,
    }
}

/// PRIMA over a **warm, shared, extend-only** RR collection — the
/// resident-service variant of [`prima`].
///
/// Runs the same certification loop as [`prima`], with every selection
/// and spread estimate restricted to an explicit arena *prefix* (the
/// running maximum of the sample-size targets this call has requested),
/// but the collection is **never reset**: samples
/// are only ever topped up with [`RrCollection::extend_to`]. Because RR
/// set `j` is a pure function of `(seed, j)` and prefixes of a warm
/// arena coincide with a cold arena's contents, the result is a pure
/// function of `(graph, budgets, eps, ell, collection seed)` —
/// independent of whatever earlier queries grew the arena. A server can
/// therefore keep one collection per `(model, seed)` resident across
/// queries and still answer bit-identically to an offline run on a
/// fresh collection.
///
/// The price of reuse: the Chen (2018) from-scratch regeneration before
/// the final `NodeSelection` is deliberately skipped (a regeneration
/// draws fresh sets and can never be replayed on a shared arena), so
/// the final estimate reuses certification-phase sets, as the original
/// IMM did. `rr_sets_total` reports the cold-equivalent sample count
/// (what a fresh run would generate), not the warm arena's top-up —
/// callers that want the actual incremental work should difference
/// [`RrCollection::total_generated`] around the call.
///
/// # Panics
/// On the same budget/parameter violations as [`prima`], and when
/// `coll` is not extend-only (a reset collection replays nothing) or is
/// bound to a different graph size.
pub fn warm_prima(
    g: &Graph,
    coll: &mut RrCollection,
    budgets: &[u32],
    eps: f64,
    ell: f64,
) -> PrimaResult {
    match warm_prima_on(g, &ExclusiveArena::new(coll), budgets, eps, ell) {
        Ok(r) => r,
        Err(never) => match never {},
    }
}

/// Shared access to a warm RR arena, as [`warm_prima_on`] consumes it.
///
/// The certification loop alternates two phases with very different
/// locking needs: *top-up* (append sets, merge the index — exclusive)
/// and *selection / coverage estimation* (pure reads — shareable). This
/// trait names that split so one driver serves both the trivial
/// exclusive case ([`warm_prima`] on `&mut RrCollection`) and a
/// reader/writer shared arena (the `uic-serve` sharded registry, where
/// many queries select concurrently under read locks and only top-up
/// briefly takes the write lock).
///
/// ## Contract
///
/// * After `prepare(g, target)` returns `Ok`, every subsequent `read`
///   observes a collection with `len() ≥ target` and a current index
///   ([`RrCollection::index_is_current`]). Growth by *other* holders of
///   the same arena is fine — selection is prefix-restricted, so extra
///   sets beyond `target` never change answers.
/// * The collection is extend-only (never `reset`), bound to `g`, and
///   all growth goes through `extend_to` — the prefix-stability
///   foundation of the bit-identity guarantee.
/// * `prepare` may fail (fault injection, resource caps); the driver
///   surfaces the error without touching the arena further.
pub trait WarmArena {
    /// Why `prepare` can refuse (use [`std::convert::Infallible`] when
    /// it cannot).
    type Error;

    /// Grows the arena to at least `target` sets and brings the index
    /// current, under exclusive access.
    fn prepare(&self, g: &Graph, target: usize) -> Result<(), Self::Error>;

    /// Runs `f` under shared access. Implementations must uphold the
    /// index-currency contract described on the trait.
    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R;

    /// Greedy max-coverage on the first `num_sets` sets under shared
    /// access. The default runs
    /// [`node_selection_prefix_indexed`] directly; a shared-arena
    /// holder may override it to serve a memoized
    /// [`SelectionPlan`](crate::SelectionPlan) (the `uic-serve` plan
    /// cache), **provided the override returns exactly what the
    /// default would** — selection results feed the certification
    /// thresholds, and a budget switch reuses their `covered` counts
    /// over `num_sets`, so any deviation breaks the bit-identity
    /// contract.
    fn select(&self, k: u32, num_sets: usize) -> NodeSelectionResult {
        self.read(|coll| node_selection_prefix_indexed(coll, k, num_sets))
    }
}

/// The trivial [`WarmArena`]: exclusive ownership of one collection
/// (what [`warm_prima`] wraps around its `&mut RrCollection`).
pub struct ExclusiveArena<'a> {
    coll: std::cell::RefCell<&'a mut RrCollection>,
}

impl<'a> ExclusiveArena<'a> {
    /// Wraps an exclusively-held collection.
    pub fn new(coll: &'a mut RrCollection) -> ExclusiveArena<'a> {
        ExclusiveArena {
            coll: std::cell::RefCell::new(coll),
        }
    }
}

impl WarmArena for ExclusiveArena<'_> {
    type Error = std::convert::Infallible;

    fn prepare(&self, g: &Graph, target: usize) -> Result<(), Self::Error> {
        let mut coll = self.coll.borrow_mut();
        coll.extend_to(g, target);
        coll.ensure_index();
        Ok(())
    }

    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R {
        f(&self.coll.borrow())
    }
}

/// [`warm_prima`] over any [`WarmArena`]: the same certification loop,
/// with top-up routed through `prepare` (exclusive) and every selection
/// / coverage estimate through `read` (shared). Bit-identical to
/// [`warm_prima`] on a fresh collection with the arena's `(model, seed)`
/// regardless of how large the shared arena already is or concurrently
/// becomes — all reads are prefix-restricted to this call's own running
/// extend target.
///
/// # Errors
/// Whatever `prepare` returns; the loop stops at the first refusal.
///
/// # Panics
/// On the same budget/parameter violations as [`prima`], and when the
/// arena is reset (not extend-only) or bound to a different graph.
pub fn warm_prima_on<A: WarmArena>(
    g: &Graph,
    arena: &A,
    budgets: &[u32],
    eps: f64,
    ell: f64,
) -> Result<PrimaResult, A::Error> {
    let certified = certify(g, arena, budgets, eps, ell)?;
    // Final selection on the θ-required prefix — top-up, never reset.
    let cur = certified.len.max(certified.theta);
    arena.prepare(g, cur)?;
    let sel = arena.select(budgets[0], certified.theta);
    Ok(PrimaResult {
        order: sel.seeds,
        coverage: sel.covered,
        rr_sets_final: certified.theta,
        rr_sets_total: cur as u64,
        budgets_certified: certified.budgets_certified,
    })
}

/// Sample-size coefficients of the certification loop (Eqs. 7–8), shared
/// by IMM and PRIMA through [`certify`]; OPIM-C and SSA borrow `λ*` as
/// their sample cap.
pub(crate) struct Bounds {
    n: f64,
    ell: f64,
    eps: f64,
    eps_prime: f64,
}

impl Bounds {
    /// `ell` here is the *effective* ℓ (PRIMA passes its inflated ℓ′).
    pub(crate) fn new(n: u32, eps: f64, ell: f64) -> Bounds {
        assert!(n >= 2, "IMM needs at least two nodes");
        assert!(eps > 0.0 && eps < 1.0, "ε must be in (0,1)");
        assert!(ell > 0.0, "ℓ must be positive");
        Bounds {
            n: n as f64,
            ell,
            eps,
            eps_prime: std::f64::consts::SQRT_2 * eps,
        }
    }

    /// Eq. (7): `λ′_k = (2 + 2/3·ε′)(ln C(n,k) + ℓ·ln n + ln log₂ n)·n/ε′²`.
    pub(crate) fn lambda_prime(&self, k: u32) -> f64 {
        let e = self.eps_prime;
        (2.0 + 2.0 / 3.0 * e)
            * (log_choose(self.n as u64, k as u64) + self.ell * self.n.ln() + self.n.log2().ln())
            * self.n
            / (e * e)
    }

    /// Eq. (8): `λ*_k = 2n((1−1/e)·α + β_k)²·ε⁻²`.
    pub(crate) fn lambda_star(&self, k: u32) -> f64 {
        let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
        let alpha = (self.ell * self.n.ln() + 2f64.ln()).sqrt();
        let beta = (one_minus_inv_e
            * (log_choose(self.n as u64, k as u64) + self.ell * self.n.ln() + 2f64.ln()))
        .sqrt();
        2.0 * self.n * (one_minus_inv_e * alpha + beta).powi(2) / (self.eps * self.eps)
    }

    pub(crate) fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    pub(crate) fn max_rounds(&self) -> u32 {
        (self.n.log2() as u32).saturating_sub(1).max(1)
    }
}

/// What the certification loop hands to a final selection step.
struct Certified {
    /// `θ`: sets the final `NodeSelection` needs (at least 1).
    theta: usize,
    /// Budget entries certified inside the loop; the rest fell back to
    /// `LB = 1`.
    budgets_certified: usize,
    /// Arena prefix the loop reached: the running maximum of every
    /// extend target it requested.
    len: usize,
}

/// The certification loop of PRIMA (Algorithm 2, lines 1–21): IMM's
/// sampling phase run over a vector of budgets, and exactly IMM's for a
/// single budget. The one driver behind [`prima`], [`warm_prima_on`] and
/// [`crate::imm()`] (see the module docs for their final steps).
///
/// Every selection and spread estimate reads the arena prefix of the
/// sets this call asked for, so sets other holders appended never change
/// the outcome; on a fresh arena that prefix is the whole collection.
fn certify<A: WarmArena>(
    g: &Graph,
    arena: &A,
    budgets: &[u32],
    eps: f64,
    ell: f64,
) -> Result<Certified, A::Error> {
    let n = g.num_nodes();
    assert!(!budgets.is_empty(), "budget vector must be non-empty");
    assert!(
        budgets.windows(2).all(|w| w[0] >= w[1]),
        "budgets must be sorted in non-increasing order"
    );
    let b = budgets[0];
    assert!(b >= 1 && b <= n, "max budget {b} out of range for n={n}");
    assert!(*budgets.last().unwrap() >= 1, "budgets must be ≥ 1");
    arena.read(|coll| {
        assert_eq!(coll.num_nodes(), n, "collection bound to a different graph");
        assert_eq!(
            coll.total_generated(),
            coll.len() as u64,
            "warm_prima needs an extend-only (never reset) collection"
        );
    });

    let nf = n as f64;
    // Line 2: ℓ ← ℓ + ln 2 / ln n (the two-phase union bound), then
    // ℓ′ = log_n(n^ℓ · |b̄|) (one more over budgets; 0 for one budget).
    let ell_boosted = ell + 2f64.ln() / nf.ln();
    let ell_prime = ell_boosted + (budgets.len() as f64).ln() / nf.ln();
    let bounds = Bounds::new(n, eps, ell_prime);
    let eps_prime = bounds.eps_prime();

    let mut cur = 0usize;
    let mut s = 0usize; // index into budgets (paper's s−1)
    let mut i = 1u32;
    let mut budget_switch = false;
    let mut prev_selection: Option<NodeSelectionResult> = None;
    let mut switch_marks = VisitTags::new(0);
    let mut theta_required = 0usize;
    let max_rounds = bounds.max_rounds();

    while i <= max_rounds && s < budgets.len() {
        let k = budgets[s];
        let x = nf / 2f64.powi(i as i32);
        let theta_i = (bounds.lambda_prime(k) / x).ceil() as usize;
        cur = cur.max(theta_i);
        arena.prepare(g, cur)?;
        // Lines 8–11: on a budget switch, reuse the previous ordering's
        // prefix instead of re-running NodeSelection.
        let estimate = if budget_switch {
            let prev = prev_selection
                .as_ref()
                .expect("budget switch implies a previous selection");
            let prefix = prev.prefix(k as usize);
            // The prefix's coverage on the first `cur` sets. On every
            // `select` path (default, plan slice, resume, capped prefix)
            // `covered[j]` counts covered sets among the first
            // `num_sets`, and `num_sets ≤ cur`, so only the sets drawn
            // since the selection need walking.
            let covered = prev.covered[prefix.len() - 1]
                + arena
                    .read(|coll| coll.count_covered(prefix, prev.num_sets..cur, &mut switch_marks));
            // `F_R(S)` (spread ÷ n) times n: the divide/multiply pair is
            // not a float identity, and the threshold below compares this
            // value, so the rounding sequence is part of the output.
            nf * (nf * covered as f64 / cur as f64 / nf)
        } else {
            let sel = arena.select(k, cur);
            let est = sel.estimated_spread(n, sel.seeds.len().min(k as usize));
            prev_selection = Some(sel);
            est
        };
        if estimate >= (1.0 + eps_prime) * x {
            // Lines 13–17: certify LB, size the collection for this
            // budget, move to the next one.
            let lb = estimate / (1.0 + eps_prime);
            let theta_k = (bounds.lambda_star(k) / lb).ceil() as usize;
            theta_required = theta_required.max(theta_k);
            s += 1;
            budget_switch = true;
            if s < budgets.len() {
                // Grow R so the next budget's coverage check can reuse
                // it (line 15); skipped after the last budget, where the
                // final step sizes the collection itself.
                cur = cur.max(theta_k);
                arena.prepare(g, cur)?;
            }
        } else {
            i += 1;
            budget_switch = false;
        }
    }
    if s < budgets.len() {
        // Lines 20–21: remaining budgets fall back to LB = 1; the largest
        // remaining requirement is the current budget's λ* (λ* is
        // monotone in k and budgets are non-increasing).
        let theta_k = bounds.lambda_star(budgets[s]).ceil() as usize;
        theta_required = theta_required.max(theta_k);
    }
    Ok(Certified {
        theta: theta_required.max(1),
        budgets_certified: s,
        len: cur,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_diffusion::exact_spread;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_util::UicRng;

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(40);
        for leaf in 1..30u32 {
            b.add_edge(0, leaf, 0.8);
        }
        for leaf in 31..38u32 {
            b.add_edge(30, leaf, 0.8);
        }
        b.add_edge(38, 39, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn returns_max_budget_many_seeds_hub_first() {
        let g = hub_graph();
        let r = prima(&g, &[5, 3, 1], 0.4, 1.0, DiffusionModel::IC, 3);
        assert_eq!(r.order.len(), 5);
        assert_eq!(r.order[0], 0, "big hub first");
        assert_eq!(r.order[1], 30, "second hub next");
        assert_eq!(r.seeds_for_budget(1), &[0]);
        assert_eq!(r.seeds_for_budget(3).len(), 3);
    }

    #[test]
    fn prefixes_are_consistent() {
        let g = hub_graph();
        let r = prima(&g, &[6, 4, 2, 1], 0.4, 1.0, DiffusionModel::IC, 9);
        let full = r.order.clone();
        for &k in &[1u32, 2, 4, 6] {
            assert_eq!(r.seeds_for_budget(k), &full[..k as usize]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = hub_graph();
        let a = prima(&g, &[4, 2], 0.4, 1.0, DiffusionModel::IC, 7);
        let b = prima(&g, &[4, 2], 0.4, 1.0, DiffusionModel::IC, 7);
        assert_eq!(a.order, b.order);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
    }

    #[test]
    fn prefix_quality_against_bruteforce() {
        // Empirical Definition 1 check on a tiny graph: every budget's
        // prefix spread ≥ (1 − 1/e − ε) OPT_k (modulo exact evaluation).
        let mut builder = GraphBuilder::new(9);
        let mut rng = UicRng::new(4);
        let mut added = 0;
        'outer: for u in 0..9u32 {
            for v in 0..9u32 {
                if u != v && rng.coin(0.3) {
                    builder.add_edge(u, v, 0.5);
                    added += 1;
                    if added == 18 {
                        break 'outer;
                    }
                }
            }
        }
        let g = builder.build(Weighting::AsGiven, 0);
        let r = prima(&g, &[3, 2, 1], 0.2, 1.0, DiffusionModel::IC, 13);
        let ratio = 1.0 - 1.0 / std::f64::consts::E - 0.2;
        for &k in &[1u32, 2, 3] {
            let got = exact_spread(&g, r.seeds_for_budget(k));
            let opt = brute_force_opt(&g, k);
            assert!(
                got >= ratio * opt - 1e-9,
                "budget {k}: prefix {got} < {ratio} × OPT {opt}"
            );
        }
    }

    fn brute_force_opt(g: &Graph, k: u32) -> f64 {
        let mut best = 0.0f64;
        // enumerate all k-subsets of 0..n (n ≤ 10 in tests)
        fn rec(g: &Graph, start: u32, left: u32, cur: &mut Vec<u32>, best: &mut f64) {
            if left == 0 {
                *best = best.max(exact_spread(g, cur));
                return;
            }
            for v in start..g.num_nodes() {
                cur.push(v);
                rec(g, v + 1, left - 1, cur, best);
                cur.pop();
            }
        }
        rec(g, 0, k, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn lambda_formulas_are_monotone_in_k() {
        let b = Bounds::new(1000, 0.3, 1.0);
        assert!(b.lambda_prime(10) > b.lambda_prime(2));
        assert!(b.lambda_star(10) > b.lambda_star(2));
        assert!(b.lambda_prime(2) > 0.0);
    }

    #[test]
    fn more_budget_entries_cost_more_samples() {
        let g = hub_graph();
        let single = prima(&g, &[4], 0.4, 1.0, DiffusionModel::IC, 5);
        let many = prima(
            &g,
            &[4, 4, 4, 4, 4, 4, 4, 4],
            0.4,
            1.0,
            DiffusionModel::IC,
            5,
        );
        assert!(
            many.rr_sets_final >= single.rr_sets_final,
            "ℓ′ union bound must not shrink the sample size"
        );
    }

    #[test]
    fn warm_prima_is_a_pure_function_of_spec_and_seed() {
        // Two fresh collections, same seed → identical results, counters
        // included.
        let g = hub_graph();
        let mut c1 = RrCollection::new(&g, DiffusionModel::IC, 23);
        let a = warm_prima(&g, &mut c1, &[5, 3, 1], 0.4, 1.0);
        let mut c2 = RrCollection::new(&g, DiffusionModel::IC, 23);
        let b = warm_prima(&g, &mut c2, &[5, 3, 1], 0.4, 1.0);
        assert_eq!(a.order, b.order);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
        assert_eq!(a.rr_sets_total, b.rr_sets_total);
        assert_eq!(a.budgets_certified, b.budgets_certified);
    }

    #[test]
    fn warm_arena_reuse_is_bit_identical_to_cold_runs() {
        // The serving contract: a shared arena grown by earlier queries
        // answers later queries exactly as a fresh arena would.
        let g = hub_graph();
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 31);
        // Query 1 grows the arena.
        let q1_warm = warm_prima(&g, &mut warm, &[6, 2], 0.4, 1.0);
        // Query 2, different budgets, reuses the (now large) arena.
        let q2_warm = warm_prima(&g, &mut warm, &[3], 0.5, 1.0);
        // Cold replicas.
        let mut cold1 = RrCollection::new(&g, DiffusionModel::IC, 31);
        let q1_cold = warm_prima(&g, &mut cold1, &[6, 2], 0.4, 1.0);
        let mut cold2 = RrCollection::new(&g, DiffusionModel::IC, 31);
        let q2_cold = warm_prima(&g, &mut cold2, &[3], 0.5, 1.0);
        assert_eq!(q1_warm.order, q1_cold.order);
        assert_eq!(q1_warm.coverage, q1_cold.coverage);
        assert_eq!(q1_warm.rr_sets_total, q1_cold.rr_sets_total);
        assert_eq!(q2_warm.order, q2_cold.order);
        assert_eq!(q2_warm.coverage, q2_cold.coverage);
        assert_eq!(q2_warm.rr_sets_final, q2_cold.rr_sets_final);
        assert_eq!(q2_warm.rr_sets_total, q2_cold.rr_sets_total);
    }

    #[test]
    fn repeat_queries_top_up_nothing() {
        // Re-running an identical query on the warm arena must generate
        // zero new RR sets — the amortization the server exists for.
        let g = hub_graph();
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 47);
        let first = warm_prima(&g, &mut warm, &[4, 2], 0.4, 1.0);
        let generated_after_first = warm.total_generated();
        let second = warm_prima(&g, &mut warm, &[4, 2], 0.4, 1.0);
        assert_eq!(warm.total_generated(), generated_after_first);
        assert_eq!(first.order, second.order);
        assert_eq!(first.rr_sets_total, second.rr_sets_total);
    }

    #[test]
    #[should_panic(expected = "extend-only")]
    fn warm_prima_rejects_reset_collections() {
        let g = hub_graph();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 1);
        coll.extend_to(&g, 10);
        coll.reset();
        warm_prima(&g, &mut coll, &[2], 0.4, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_unsorted_budgets() {
        let g = hub_graph();
        prima(&g, &[2, 5], 0.3, 1.0, DiffusionModel::IC, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_budgets() {
        let g = hub_graph();
        prima(&g, &[], 0.3, 1.0, DiffusionModel::IC, 1);
    }
}
