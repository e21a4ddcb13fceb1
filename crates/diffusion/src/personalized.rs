//! UIC with **personalized noise** — the §5 extension ("Orthogonally, we
//! can study the UIC model under personalized noise terms").
//!
//! In the base model a single noise world is sampled per diffusion and
//! shared by the whole population (§3.2.3), which perfectly correlates
//! adoption decisions across users. Here every user draws her *own*
//! noise vector on first contact, modeling individual (not population)
//! uncertainty. The paper notes the `(1 − 1/e − ε)` bound is **not**
//! claimed in this regime; the simulator exists so the conjecture can be
//! studied empirically (see the ablation experiment).
//!
//! Implementation notes: per-node noise is derived deterministically from
//! `(diffusion seed, node id)`, so simulations remain replayable; since
//! there is no shared utility table, adoption decisions evaluate
//! `V(T) − P(T) + N_v(T)` directly over the (small) candidate subsets.
//! The cascade itself is the engine's one kernel
//! ([`crate::engine::CascadeState`]), with per-node noise as its adoption
//! rule: realized noise lives in a flat `n × |I|` array, written on first
//! contact. `rng` feeds only edge coins (noise comes from `noise_seed`),
//! so a node's out-edges are all flipped, in order, at its first
//! expansion, exactly as in the base simulator.

use crate::allocation::Allocation;
use crate::engine::{AdoptionRule, CascadeState, LazyCoins};
use uic_graph::{Graph, NodeId};
use uic_items::{ItemSet, UtilityModel};
use uic_util::{split_seed, OnlineStats, UicRng};

/// Outcome of one personalized-noise UIC diffusion, sorted by node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersonalizedOutcome {
    /// Final adoption set per adopting node, sorted by node id.
    pub adoptions: Vec<(NodeId, ItemSet)>,
    /// Realized utility earned at each adopting node (its own noise),
    /// parallel to `adoptions`.
    pub node_welfare: Vec<(NodeId, f64)>,
}

impl PersonalizedOutcome {
    /// Social welfare of this run: `Σ_v U_v(A(v))`.
    pub fn welfare(&self) -> f64 {
        self.node_welfare.iter().map(|&(_, w)| w).sum()
    }

    /// Total `(node, item)` adoptions.
    pub fn total_adoptions(&self) -> usize {
        self.adoptions.iter().map(|&(_, a)| a.len() as usize).sum()
    }

    /// Final adoption set of `v` (empty if `v` adopted nothing).
    pub fn adoption_of(&self, v: NodeId) -> ItemSet {
        match self.adoptions.binary_search_by_key(&v, |&(u, _)| u) {
            Ok(idx) => self.adoptions[idx].1,
            Err(_) => ItemSet::EMPTY,
        }
    }
}

/// Reusable personalized-noise simulator: dense per-cascade scratch for
/// one `(graph, item-universe)` pair.
pub struct PersonalizedSimulator {
    num_items: usize,
    /// Realized noise per `(node, item)`, row-major; valid only for nodes
    /// informed in the current cascade.
    noise: Box<[f64]>,
    state: CascadeState,
}

/// The personalized adoption rule: each node draws its own noise vector
/// on first contact and decides on `V − P + N_v`.
struct PersonalNoise<'a> {
    model: &'a UtilityModel,
    noise: &'a mut [f64],
    num_items: usize,
    noise_seed: u64,
}

impl PersonalNoise<'_> {
    fn row(&self, v: NodeId) -> &[f64] {
        let k = self.num_items;
        &self.noise[v as usize * k..(v as usize + 1) * k]
    }

    /// `v`'s realized utility of `s`: `V(s) − P(s) + N_v(s)`.
    fn utility(&self, v: NodeId, s: ItemSet) -> f64 {
        let row = self.row(v);
        self.model.deterministic_utility(s) + s.iter().map(|i| row[i as usize]).sum::<f64>()
    }
}

impl AdoptionRule for PersonalNoise<'_> {
    /// Draws `v`'s personal noise vector from its own deterministic
    /// stream (independent of contact order).
    fn contact(&mut self, v: NodeId) {
        let k = self.num_items;
        let mut node_rng = UicRng::new(split_seed(self.noise_seed, v as u64));
        for (i, slot) in self.noise[v as usize * k..(v as usize + 1) * k]
            .iter_mut()
            .enumerate()
        {
            *slot = self.model.noise().dist(i as u32).sample(&mut node_rng);
        }
    }

    /// Enumerates supersets of `adopted` inside `desire`, maximizing
    /// `V − P + N_v` with the larger-cardinality (union) tie-break.
    fn adopt(&mut self, v: NodeId, desire: ItemSet, adopted: ItemSet) -> ItemSet {
        let free = desire.minus(adopted);
        let mut best = f64::NEG_INFINITY;
        let mut best_union = ItemSet::EMPTY;
        for x in free.subsets() {
            let t = adopted.union(x);
            let u = self.utility(v, t);
            if u > best + 1e-9 {
                best = u;
                best_union = t;
            } else if (u - best).abs() <= 1e-9 {
                best_union = best_union.union(t);
            }
        }
        if best < 0.0 {
            adopted
        } else {
            best_union
        }
    }
}

impl PersonalizedSimulator {
    /// Scratch for graph `g` and `num_items` items; run it on `g` only
    /// (it holds `g`'s coin thresholds).
    pub fn new(g: &Graph, num_items: u32) -> PersonalizedSimulator {
        let n = g.num_nodes() as usize;
        PersonalizedSimulator {
            num_items: num_items as usize,
            noise: vec![0.0; n * num_items as usize].into_boxed_slice(),
            state: CascadeState::new(g),
        }
    }

    /// Runs one diffusion where every node samples its own noise vector
    /// on first contact. `noise_seed` controls all per-node draws; `rng`
    /// drives the edge coins (mirroring the base simulator's split
    /// between noise world and edge world).
    pub fn run(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        model: &UtilityModel,
        noise_seed: u64,
        rng: &mut UicRng,
    ) -> PersonalizedOutcome {
        debug_assert_eq!(
            self.num_items,
            model.num_items() as usize,
            "item universe mismatch"
        );
        let mut rule = PersonalNoise {
            model,
            noise: &mut self.noise,
            num_items: self.num_items,
            noise_seed,
        };
        let mut out = PersonalizedOutcome::default();
        self.state.cascade(
            g,
            allocation,
            &mut LazyCoins { rng },
            &mut rule,
            |rule, v, _, adopted| {
                if !adopted.is_empty() {
                    out.adoptions.push((v, adopted));
                    out.node_welfare.push((v, rule.utility(v, adopted)));
                }
            },
        );
        out
    }
}

/// One-shot personalized-noise UIC diffusion (convenience wrapper; reuse
/// a [`PersonalizedSimulator`] in Monte-Carlo loops).
pub fn simulate_uic_personalized(
    g: &Graph,
    allocation: &Allocation,
    model: &UtilityModel,
    noise_seed: u64,
    rng: &mut UicRng,
) -> PersonalizedOutcome {
    PersonalizedSimulator::new(g, model.num_items()).run(g, allocation, model, noise_seed, rng)
}

/// Monte-Carlo expected welfare under personalized noise.
pub fn personalized_welfare_mc(
    g: &Graph,
    allocation: &Allocation,
    model: &UtilityModel,
    sims: u32,
    seed: u64,
) -> OnlineStats {
    let mut stats = OnlineStats::new();
    let mut sim = PersonalizedSimulator::new(g, model.num_items());
    for s in 0..sims {
        let world_seed = split_seed(seed, s as u64);
        let mut rng = UicRng::new(split_seed(world_seed, u64::MAX));
        let out = sim.run(g, allocation, model, world_seed, &mut rng);
        stats.push(out.welfare());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uic_items::{NoiseDistribution, NoiseModel, Price, TableValuation};

    fn chain2() -> Graph {
        Graph::from_edges(2, &[(0, 1, 1.0)])
    }

    fn model(noise_var: f64) -> UtilityModel {
        UtilityModel::new(
            Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 3.0, 8.0])),
            Price::additive(vec![3.0, 4.0]),
            NoiseModel::new(vec![
                NoiseDistribution::gaussian_var(noise_var),
                NoiseDistribution::gaussian_var(noise_var),
            ]),
        )
    }

    #[test]
    fn zero_noise_matches_base_simulator() {
        let g = chain2();
        let m = model(0.0);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(0, 1);
        let table = m.deterministic_table();
        for seed in 0..20u64 {
            let mut r1 = UicRng::new(seed);
            let mut r2 = UicRng::new(seed);
            let base = crate::uic::simulate_uic(&g, &alloc, &table, &mut r1);
            let pers = simulate_uic_personalized(&g, &alloc, &m, 99, &mut r2);
            assert_eq!(
                base.total_adoptions(),
                pers.total_adoptions(),
                "seed {seed}"
            );
            assert!((base.welfare(&table) - pers.welfare()).abs() < 1e-9);
        }
    }

    #[test]
    fn personalized_noise_decorrelates_adoptions() {
        // Two-node chain, deterministic edge, single item with
        // E[U] = 0 and N(0,1) noise: population noise gives downstream
        // adoption rate q = 0.5 (perfect correlation with the seed);
        // personalized noise gives q² = 0.25.
        let g = chain2();
        let m = UtilityModel::new(
            Arc::new(TableValuation::from_table(1, vec![0.0, 3.0])),
            Price::additive(vec![3.0]),
            NoiseModel::new(vec![NoiseDistribution::gaussian_var(1.0)]),
        );
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        let sims = 30_000u32;
        let mut downstream = 0u32;
        let mut sim = PersonalizedSimulator::new(&g, 1);
        for s in 0..sims {
            let world_seed = split_seed(7, s as u64);
            let mut rng = UicRng::new(split_seed(world_seed, u64::MAX));
            let out = sim.run(&g, &alloc, &m, world_seed, &mut rng);
            if !out.adoption_of(1).is_empty() {
                downstream += 1;
            }
        }
        let rate = downstream as f64 / sims as f64;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "personalized downstream rate {rate}, expected ≈ 0.25"
        );
    }

    #[test]
    fn per_node_noise_is_deterministic_per_seed() {
        let g = chain2();
        let m = model(1.0);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(0, 1);
        let run = |seed: u64| {
            let mut rng = UicRng::new(123);
            simulate_uic_personalized(&g, &alloc, &m, seed, &mut rng).welfare()
        };
        assert_eq!(run(5), run(5));
        // Different noise seeds generally differ.
        let all_same = (0..10u64).map(run).all(|w| (w - run(0)).abs() < 1e-12);
        assert!(!all_same, "noise seed should matter");
    }

    #[test]
    fn simulator_reuse_matches_fresh_runs() {
        let g = chain2();
        let m = model(1.0);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(0, 1);
        let mut reused = PersonalizedSimulator::new(&g, 2);
        for seed in 0..20u64 {
            let mut r1 = UicRng::new(seed);
            let mut r2 = UicRng::new(seed);
            let a = reused.run(&g, &alloc, &m, seed, &mut r1);
            let b = simulate_uic_personalized(&g, &alloc, &m, seed, &mut r2);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn welfare_mc_is_finite_and_seeded() {
        let g = chain2();
        let m = model(1.0);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(0, 1);
        let a = personalized_welfare_mc(&g, &alloc, &m, 500, 3);
        let b = personalized_welfare_mc(&g, &alloc, &m, 500, 3);
        assert_eq!(a.mean(), b.mean());
        assert!(a.mean().is_finite());
        assert_eq!(a.count(), 500);
    }

    #[test]
    fn seeds_with_nothing_allocated_do_not_panic() {
        let g = chain2();
        let m = model(1.0);
        let out = simulate_uic_personalized(&g, &Allocation::new(), &m, 1, &mut UicRng::new(1));
        assert_eq!(out.welfare(), 0.0);
    }
}
