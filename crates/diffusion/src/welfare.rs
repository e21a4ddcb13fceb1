//! Social-welfare estimation (§3.3):
//! `ρ(𝒮) = E_{W^N}[ E_{W^E}[ Σ_v U_{W}(A^𝒮_W(v)) ] ]`.
//!
//! The Monte-Carlo estimator samples a fresh noise world *and* edge world
//! per simulation — the outer/inner expectations commute (§4.1.1), so one
//! joint sample per iteration is unbiased. Every algorithm in the
//! experiments is scored by this same estimator for fairness.
//!
//! The per-world aggregation is pluggable: [`WelfareEstimator::with_objective`]
//! swaps the utilitarian sum for any [`WelfareObjective`]
//! (maximin, CES, per-community). The objective is applied to each
//! sampled world and the results are averaged, so every objective is
//! estimated as `E[f(utilities)]` — the expectation of the welfare, not
//! the welfare of the expectation.
//!
//! # Determinism contract
//!
//! An estimate is a *pure function* of `(graph, model, allocation, sims,
//! seed, objective)`:
//!
//! * Sample `s` always draws from its own RNG stream
//!   `split_seed(seed, s)`, independent of which worker runs it.
//! * Workers, the calling thread among them, claim samples one at a
//!   time and return `(sample, value)` pairs, which the caller places
//!   at their sample index. The claim order decides only *who* computes
//!   a value.
//! * The reduction then folds that vector sequentially into fixed
//!   64-sample blocks and merges the blocks in block order, on one
//!   thread, after the workers are done.
//! * The worker count is sized by graph work, `(n + m) · samples`,
//!   through [`uic_util::parallelism`] (so `UIC_THREADS` caps it), not by
//!   sample count: sixteen Orkut-sized cascades use every core, four
//!   thousand cascades on a toy graph use one.
//!
//! Consequently the result is **bit-identical across thread counts**
//! (1, 2, 8, or the automatic sizing) and across runs with the same
//! seed. [`WelfareEstimator::with_threads`] changes scheduling, never a
//! bit of the output. This holds for every shipped objective and is
//! asserted by the in-crate tests, the `objective_props` proptest suite
//! and the `cascade_kernel` suite (every split of 1–130 samples).

use crate::allocation::Allocation;
use crate::engine::{CascadeState, LazyCoins};
use crate::objective::{default_objective, WelfareObjective};
use crate::uic::{UicOutcome, UicSimulator};
use crate::worlds::enumerate_edge_worlds;
use crossbeam::thread;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uic_graph::Graph;
use uic_items::{UtilityModel, UtilityTable};
use uic_util::{parallelism, split_seed, OnlineStats, UicRng};

/// Parallel Monte-Carlo welfare estimator bound to a graph and a utility
/// model.
pub struct WelfareEstimator<'a> {
    graph: &'a Graph,
    model: &'a UtilityModel,
    sims: u32,
    seed: u64,
    /// Worker-thread override; `None` sizes by hardware and graph work.
    threads: Option<usize>,
    /// Per-world aggregation; the utilitarian sum unless overridden.
    objective: Arc<dyn WelfareObjective>,
}

impl<'a> WelfareEstimator<'a> {
    /// `sims` joint (noise, edge) world samples, derived from `seed`.
    pub fn new(graph: &'a Graph, model: &'a UtilityModel, sims: u32, seed: u64) -> Self {
        assert!(sims > 0, "need at least one simulation");
        WelfareEstimator {
            graph,
            model,
            sims,
            seed,
            threads: None,
            objective: default_objective(),
        }
    }

    /// Swaps the per-world aggregation (default: [`crate::Utilitarian`]).
    ///
    /// The objective must already be validated against this graph
    /// (panics on e.g. a community labeling sized for a different node
    /// count — solvers validate through `WelMaxInstance`).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use uic_diffusion::{Allocation, Ces, WelfareEstimator};
    /// use uic_graph::Graph;
    /// use uic_items::{NoiseModel, Price, TableValuation, UtilityModel};
    ///
    /// let g = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
    /// let model = UtilityModel::new(
    ///     Arc::new(TableValuation::from_table(1, vec![0.0, 2.0])),
    ///     Price::additive(vec![1.0]),
    ///     NoiseModel::none(1),
    /// );
    /// let mut alloc = Allocation::new();
    /// alloc.assign(0, 0);
    /// let fair = WelfareEstimator::new(&g, &model, 400, 7)
    ///     .with_objective(Arc::new(Ces::new(0.5)?))
    ///     .estimate(&alloc);
    /// assert!(fair.is_finite());
    /// # Ok::<(), uic_diffusion::ObjectiveError>(())
    /// ```
    pub fn with_objective(mut self, objective: Arc<dyn WelfareObjective>) -> Self {
        objective
            .validate_for(self.graph.num_nodes())
            .expect("objective does not fit this graph");
        self.objective = objective;
        self
    }

    /// Pins the worker-thread count (normally sized automatically).
    ///
    /// Because every sample `s` draws from its own stream
    /// `split_seed(seed, s)`, the estimate is a pure function of the
    /// constructor arguments — this knob only changes how work is
    /// chunked, never the result (asserted in the test suite).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = Some(threads);
        self
    }

    /// Estimated expected social welfare `ρ(𝒮)`.
    ///
    /// Solvers score through this estimator automatically; to re-score
    /// an allocation yourself, build the instance with the `WelMax`
    /// builder and point an estimator at its graph and model:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use uic_core::{Allocator, SolveCtx, WelMax};
    /// use uic_diffusion::WelfareEstimator;
    /// use uic_graph::Graph;
    /// use uic_items::{NoiseModel, Price, TableValuation, UtilityModel};
    ///
    /// let g = Graph::from_edges(4, &[(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6)]);
    /// let model = UtilityModel::new(
    ///     Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 9.0])),
    ///     Price::additive(vec![3.5, 4.5]),
    ///     NoiseModel::none(2),
    /// );
    /// let inst = WelMax::on(&g).model(model).budgets([1u32, 1]).build()?;
    ///
    /// let solver = <dyn Allocator>::by_name("degree-top").unwrap();
    /// let report = solver.solve(&inst, &SolveCtx::new(42).with_sims(300));
    ///
    /// // Independent re-score of the winning allocation (same estimator
    /// // type the solver used, different seed):
    /// let w = WelfareEstimator::new(inst.graph(), inst.model(), 500, 7)
    ///     .estimate(&report.allocation);
    /// assert!(w >= 0.0);
    /// # Ok::<(), uic_core::InstanceError>(())
    /// ```
    pub fn estimate(&self, allocation: &Allocation) -> f64 {
        self.estimate_stats(allocation).mean()
    }

    /// Samples per reduction block (see [`Self::estimate_stats`]).
    const BLOCK: usize = 64;

    /// Graph work (`n + m` per sample, summed over samples) below which
    /// another worker thread does not pay for its spawn and its own
    /// cascade state: 0.1–0.2 ms of cascade at the 0.3–0.8 ns per node or
    /// edge that a world of a bundle allocation costs on the Flixster and
    /// Orkut stand-ins. Measured on a 2-vCPU Xeon host: at 0.96 grains a
    /// second worker cut an estimate from 206 to 177 µs, and at 0.32
    /// grains (one sample) there is nothing to split.
    const WORK_GRAIN: usize = 1 << 18;

    /// Full statistics (mean, stderr, CI) of the welfare samples.
    ///
    /// The per-sample welfare values come from `sample_values`; they are
    /// then cut into fixed 64-sample blocks (`BLOCK`), each block is
    /// accumulated sequentially, and blocks are merged in block order.
    /// Threads never see the reduction, so the result is bit-identical
    /// for any thread count (asserted in the test suite).
    pub fn estimate_stats(&self, allocation: &Allocation) -> OnlineStats {
        let objective: &dyn WelfareObjective = self.objective.as_ref();
        let num_nodes = self.graph.num_nodes();
        let values = self.sample_values(allocation, |outcome, table| {
            objective.welfare(outcome, table, num_nodes)
        });
        let mut total = OnlineStats::new();
        for block in values.chunks(Self::BLOCK) {
            let mut stats = OnlineStats::new();
            for &x in block {
                stats.push(x);
            }
            total.merge(&stats);
        }
        total
    }

    /// The one Monte-Carlo sample kernel: `value(outcome, table)` of
    /// every sample `s ∈ [0, sims)`, in sample order.
    ///
    /// Sample `s` draws its noise world and its edge coins from its own
    /// stream `split_seed(seed, s)`, and its value lands at index `s` of
    /// the result, so the values do not depend on which worker computes
    /// which sample. Workers, the calling thread among them, claim
    /// samples one at a time from a shared counter, so a worker that
    /// starts late (a busy host) takes fewer samples instead of holding
    /// the call up. Each worker builds one [`CascadeState`] at its first
    /// claim and refills one outcome buffer, so its cascades allocate
    /// nothing. Workers are sized by graph work (`(n + m) · samples`
    /// against [`Self::WORK_GRAIN`]), not by sample count: a handful of
    /// samples on a million-node graph is worth several cores, thousands
    /// on a toy graph are not.
    fn sample_values<F>(&self, allocation: &Allocation, value: F) -> Vec<f64>
    where
        F: Fn(&UicOutcome, &UtilityTable) -> f64 + Sync,
    {
        let count = self.sims as usize;
        // When the noise model is degenerate the utility table is shared
        // across all simulations; otherwise each world rebuilds it (2^n
        // entries — cheap for the paper's ≤ 10 items).
        let shared_table: Option<UtilityTable> = if self.model.noise().is_none() {
            Some(self.model.deterministic_table())
        } else {
            None
        };
        let graph = self.graph;
        let model = self.model;
        let seed = self.seed;
        // The next unclaimed sample. It publishes no data: each worker's
        // values reach the caller through its join.
        let next = AtomicU64::new(0);
        let work = || {
            let mut state: Option<CascadeState> = None;
            let mut outcome = UicOutcome::default();
            let mut done = Vec::new();
            loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= count as u64 {
                    return done;
                }
                let state = state.get_or_insert_with(|| CascadeState::new(graph));
                let mut rng = UicRng::new(split_seed(seed, s));
                let noise_table;
                let table = match &shared_table {
                    Some(table) => table,
                    None => {
                        noise_table = model.table_for(&model.sample_noise(&mut rng));
                        &noise_table
                    }
                };
                let mut coins = LazyCoins { rng: &mut rng };
                state.run_into(graph, allocation, table, &mut coins, &mut outcome);
                done.push((s, value(&outcome, table)));
            }
        };
        let graph_work = graph.num_nodes() as usize + graph.num_edges();
        let threads = self
            .threads
            .unwrap_or_else(|| parallelism(count.saturating_mul(graph_work), Self::WORK_GRAIN))
            .min(count);
        let mut values = vec![0.0; count];
        let work = &work;
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(move |_| work())).collect();
            let mut place = |done: Vec<(u64, f64)>| {
                for (s, x) in done {
                    values[s as usize] = x;
                }
            };
            place(work());
            for helper in helpers {
                place(helper.join().expect("a welfare worker panicked"));
            }
        })
        .expect("crossbeam scope failed");
        values
    }

    /// Estimated expected number of `(node, item)` adoptions — the
    /// "maximizing just the adoption" objective the paper contrasts with
    /// welfare. Runs on the same sample kernel as the welfare estimate,
    /// folded sequentially over all samples.
    pub fn estimate_adoptions(&self, allocation: &Allocation) -> f64 {
        let values = self.sample_values(allocation, |outcome, _| outcome.total_adoptions() as f64);
        let mut stats = OnlineStats::new();
        for x in values {
            stats.push(x);
        }
        stats.mean()
    }
}

/// Exact expected welfare **for a fixed noise world** by enumerating all
/// live-edge worlds (`ρ_{W^N}(𝒮)` of §4.2.2; ≤ 20 edges).
pub fn exact_welfare_given_noise(g: &Graph, allocation: &Allocation, table: &UtilityTable) -> f64 {
    exact_welfare_given_noise_for(g, allocation, table, &crate::objective::Utilitarian)
}

/// [`exact_welfare_given_noise`] under an arbitrary objective: the exact
/// expectation `Σ_W P(W) · f(utilities in W)` over all live-edge worlds.
pub fn exact_welfare_given_noise_for(
    g: &Graph,
    allocation: &Allocation,
    table: &UtilityTable,
    objective: &dyn WelfareObjective,
) -> f64 {
    let mut sim = UicSimulator::new(g);
    let n = g.num_nodes();
    enumerate_edge_worlds(g)
        .iter()
        .map(|(world, p)| {
            let outcome = sim.run_in_world(g, allocation, table, world);
            p * objective.welfare(&outcome, table, n)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uic_items::{NoiseModel, Price, TableValuation};

    fn fig2_model() -> UtilityModel {
        // Deterministic utilities U(i1)=0.1, U(i2)=−0.5, U(both)=0.6
        // encoded as values with zero prices for simplicity.
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 3.1, 2.5, 6.6])),
            Price::additive(vec![3.0, 3.0]),
            NoiseModel::none(2),
        )
    }

    fn fig2_graph() -> Graph {
        Graph::from_edges(3, &[(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5)])
    }

    fn fig2_alloc() -> Allocation {
        let mut a = Allocation::new();
        a.assign(0, 0);
        a.assign(2, 1);
        a
    }

    #[test]
    fn exact_welfare_hand_computed() {
        // Under zero noise, v1 always adopts i1 (welfare 0.1 baseline).
        // v2 adopts i1 iff edge (0,1) live (p=.5) contributing 0.1.
        // v3 desires i2; v3 gets i1 iff (0,2) live or ((0,1) and (1,2))
        // live: p = .5 + .5·.25 = .625... careful: v2 must adopt first:
        // (0,1) live then (1,2) live ⇒ .25; 1−(1−.5)(1−.25) = .625.
        // When v3 gets i1 it adopts {i1,i2} contributing 0.6.
        // ρ = 0.1 + 0.5·0.1 + 0.625·0.6 = 0.525.
        let g = fig2_graph();
        let model = fig2_model();
        let table = model.deterministic_table();
        let got = exact_welfare_given_noise(&g, &fig2_alloc(), &table);
        assert!((got - 0.525).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn mc_estimator_converges_to_exact() {
        let g = fig2_graph();
        let model = fig2_model();
        let est = WelfareEstimator::new(&g, &model, 60_000, 42);
        let mc = est.estimate(&fig2_alloc());
        assert!((mc - 0.525).abs() < 0.01, "MC {mc} vs exact 0.525");
    }

    #[test]
    fn estimator_is_deterministic() {
        let g = fig2_graph();
        let model = fig2_model();
        let est = WelfareEstimator::new(&g, &model, 2_000, 7);
        assert_eq!(est.estimate(&fig2_alloc()), est.estimate(&fig2_alloc()));
    }

    #[test]
    fn welfare_monotone_in_allocations_mc() {
        // Theorem 1 (monotonicity) through the estimator.
        let g = fig2_graph();
        let model = fig2_model();
        let est = WelfareEstimator::new(&g, &model, 20_000, 3);
        let small = fig2_alloc();
        let mut large = small.clone();
        large.assign(1, 0);
        large.assign(1, 1);
        assert!(est.estimate(&large) >= est.estimate(&small) - 0.01);
    }

    #[test]
    fn noisy_model_estimates_run() {
        use uic_items::NoiseDistribution;
        let g = fig2_graph();
        let model = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 3.1, 2.5, 6.6])),
            Price::additive(vec![3.0, 3.0]),
            NoiseModel::new(vec![
                NoiseDistribution::gaussian_var(1.0),
                NoiseDistribution::gaussian_var(1.0),
            ]),
        );
        let est = WelfareEstimator::new(&g, &model, 5_000, 11);
        let stats = est.estimate_stats(&fig2_alloc());
        assert_eq!(stats.count(), 5_000);
        // Noise can only help welfare here in expectation ≥ deterministic
        // case minus sampling error? Not a theorem — just sanity-check
        // the estimate is finite and the CI is reported.
        assert!(stats.mean().is_finite());
        assert!(stats.ci95_halfwidth() > 0.0);
    }

    #[test]
    fn adoption_count_estimator() {
        let g = fig2_graph();
        let model = fig2_model();
        let est = WelfareEstimator::new(&g, &model, 20_000, 5);
        let adoptions = est.estimate_adoptions(&fig2_alloc());
        // E[#adoptions]: v1 i1 always (1) + v2 i1 (.5) + v3 both (.625·2)
        // = 1 + 0.5 + 1.25 = 2.75.
        assert!((adoptions - 2.75).abs() < 0.05, "got {adoptions}");
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        // Seed-split determinism: sample s always draws from stream
        // split_seed(seed, s), so chunking across 1, 2, or 8 workers must
        // not change a single bit of the result — the engine port cannot
        // silently alter chunking semantics without tripping this.
        use uic_items::NoiseDistribution;
        let g = fig2_graph();
        // A noisy model so per-sample tables differ (the harder path).
        let model = UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 3.1, 2.5, 6.6])),
            Price::additive(vec![3.0, 3.0]),
            NoiseModel::new(vec![
                NoiseDistribution::gaussian_var(1.0),
                NoiseDistribution::gaussian_var(1.0),
            ]),
        );
        let alloc = fig2_alloc();
        let reference = WelfareEstimator::new(&g, &model, 4_000, 29)
            .with_threads(1)
            .estimate_stats(&alloc);
        for threads in [2usize, 8] {
            let got = WelfareEstimator::new(&g, &model, 4_000, 29)
                .with_threads(threads)
                .estimate_stats(&alloc);
            assert_eq!(got.count(), reference.count(), "{threads} threads");
            assert_eq!(got.mean(), reference.mean(), "{threads} threads");
            assert_eq!(
                got.ci95_halfwidth(),
                reference.ci95_halfwidth(),
                "{threads} threads"
            );
        }
        // The automatic sizing must agree with the pinned runs too.
        let auto = WelfareEstimator::new(&g, &model, 4_000, 29).estimate_stats(&alloc);
        assert_eq!(auto.mean(), reference.mean());
    }

    #[test]
    #[should_panic(expected = "at least one simulation")]
    fn zero_sims_rejected() {
        let g = fig2_graph();
        let model = fig2_model();
        WelfareEstimator::new(&g, &model, 0, 1);
    }
}
