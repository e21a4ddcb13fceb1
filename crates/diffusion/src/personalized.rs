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
//! Per-cascade state is dense and epoch-stamped like the base engine:
//! `(desire, adopted)` pairs in an [`EpochMap`], realized noise in a flat
//! `n × |I|` array, and live out-edge spans per expanded node in the
//! engine's `LiveLists` — no hashing or allocation inside the cascade loop.
//! `rng` feeds only edge coins (noise comes from `noise_seed`), so a node's
//! out-edges are all flipped, in order, at its first expansion.

use crate::allocation::Allocation;
use crate::engine::{LazyCoins, LiveLists};
use uic_graph::{Graph, NodeId};
use uic_items::{ItemSet, UtilityModel};
use uic_util::{split_seed, EpochMap, OnlineStats, UicRng, VisitTags};

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

/// Per-node diffusion state (noise lives in the simulator's flat array).
#[derive(Debug, Clone, Copy, Default)]
struct PersNodeState {
    desire: ItemSet,
    adopted: ItemSet,
}

/// Reusable personalized-noise simulator: dense per-cascade scratch for
/// one `(graph, item-universe)` pair.
pub struct PersonalizedSimulator {
    num_items: usize,
    state: EpochMap<PersNodeState>,
    /// Realized noise per `(node, item)`, row-major; valid only for nodes
    /// stamped in `state` this cascade.
    noise: Box<[f64]>,
    live: LiveLists,
    /// Nodes informed this cascade, in first-contact order.
    informed: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    step_tags: VisitTags,
    step_touched: Vec<NodeId>,
    seed_buf: Vec<(NodeId, ItemSet)>,
}

impl PersonalizedSimulator {
    /// Scratch sized for graph `g` and `num_items` items.
    pub fn new(g: &Graph, num_items: u32) -> PersonalizedSimulator {
        let n = g.num_nodes() as usize;
        PersonalizedSimulator {
            num_items: num_items as usize,
            state: EpochMap::new(n),
            noise: vec![0.0; n * num_items as usize].into_boxed_slice(),
            live: LiveLists::new(n),
            informed: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            step_tags: VisitTags::new(n),
            step_touched: Vec::new(),
            seed_buf: Vec::new(),
        }
    }

    /// First contact: draw this node's personal noise vector from its own
    /// deterministic stream (independent of contact order).
    fn sample_noise(noise: &mut [f64], model: &UtilityModel, noise_seed: u64, v: NodeId) {
        let mut node_rng = UicRng::new(split_seed(noise_seed, v as u64));
        for (i, slot) in noise.iter_mut().enumerate() {
            *slot = model.noise().dist(i as u32).sample(&mut node_rng);
        }
    }

    /// The personalized adoption decision: enumerate supersets of
    /// `adopted` inside `desire`, maximizing `V − P + N_v` with the
    /// larger-cardinality (union) tie-break.
    fn decide(model: &UtilityModel, noise: &[f64], desire: ItemSet, adopted: ItemSet) -> ItemSet {
        let util = |s: ItemSet| -> f64 {
            model.deterministic_utility(s) + s.iter().map(|i| noise[i as usize]).sum::<f64>()
        };
        let free = desire.minus(adopted);
        let mut best = f64::NEG_INFINITY;
        let mut best_union = ItemSet::EMPTY;
        for x in free.subsets() {
            let t = adopted.union(x);
            let u = util(t);
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
        let k = self.num_items;
        debug_assert_eq!(k, model.num_items() as usize, "item universe mismatch");
        self.state.reset();
        self.live.reset();
        let mut coins = LazyCoins { rng };
        self.informed.clear();
        self.frontier.clear();
        self.next_frontier.clear();

        self.seed_buf.clear();
        self.seed_buf
            .extend(allocation.seeds().filter(|(_, items)| !items.is_empty()));
        self.seed_buf.sort_unstable_by_key(|&(v, _)| v);
        for si in 0..self.seed_buf.len() {
            let (v, items) = self.seed_buf[si];
            let row = &mut self.noise[v as usize * k..(v as usize + 1) * k];
            Self::sample_noise(row, model, noise_seed, v);
            let adopted = Self::decide(model, row, items, ItemSet::EMPTY);
            self.state.insert(
                v as usize,
                PersNodeState {
                    desire: items,
                    adopted,
                },
            );
            self.informed.push(v);
            if !adopted.is_empty() {
                self.frontier.push(v);
            }
        }

        while !self.frontier.is_empty() {
            self.step_touched.clear();
            self.step_tags.reset();
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                let a_u = self.state.get_or_default(u as usize).adopted;
                for &v in self.live.live_out(g, u, &mut coins) {
                    let (_, fresh) = self.state.slot(v as usize);
                    if fresh {
                        self.informed.push(v);
                        let row = &mut self.noise[v as usize * k..(v as usize + 1) * k];
                        Self::sample_noise(row, model, noise_seed, v);
                    }
                    let st = self.state.get_mut(v as usize).expect("just stamped");
                    let grown = a_u.minus(st.desire);
                    if !grown.is_empty() {
                        st.desire = st.desire.union(a_u);
                        if self.step_tags.mark(v as usize) {
                            self.step_touched.push(v);
                        }
                    }
                }
            }
            self.next_frontier.clear();
            for ti in 0..self.step_touched.len() {
                let v = self.step_touched[ti];
                let st = self
                    .state
                    .get(v as usize)
                    .expect("touched node must have state");
                let row = &self.noise[v as usize * k..(v as usize + 1) * k];
                let decision = Self::decide(model, row, st.desire, st.adopted);
                if decision != st.adopted {
                    self.state.get_mut(v as usize).unwrap().adopted = decision;
                    self.next_frontier.push(v);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        self.informed.sort_unstable();
        let mut out = PersonalizedOutcome::default();
        for &v in &self.informed {
            let st = self.state.get_or_default(v as usize);
            if st.adopted.is_empty() {
                continue;
            }
            let row = &self.noise[v as usize * k..(v as usize + 1) * k];
            let u = model.deterministic_utility(st.adopted)
                + st.adopted.iter().map(|i| row[i as usize]).sum::<f64>();
            out.adoptions.push((v, st.adopted));
            out.node_welfare.push((v, u));
        }
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
