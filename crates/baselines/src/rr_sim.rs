//! **RR-SIM+** and **RR-CIM** — the Com-IC seed-selection algorithms of
//! Lu et al., reimplemented per the behavioral contract the UIC paper
//! relies on (section 4.3.1.2–4.3.2 of the paper).
//!
//! Both handle exactly two items and are TIM-based — their RR-set budget
//! comes from TIM's `θ = λ/KPT` bound, which is why they "generate much
//! \[more\] RR sets than IMM" (Fig. 6) and run orders of magnitude slower
//! (Fig. 5).
//!
//! * **RR-SIM+** (self-influence maximization): given item 2's seeds
//!   (chosen by IMM), pick item 1's seeds to maximize item 1's expected
//!   adoption under *self-reliant* propagation: information crosses an
//!   edge with `p(u,v)` and each informed relay/root adopts with
//!   `q_{1|∅}`. Its RR sets therefore gate every traversed node (and the
//!   root) on a `q_{1|∅}` coin; the seed position itself adopts
//!   unconditionally.
//! * **RR-CIM** (complement-aware): given item 1's seeds (IMM), pick
//!   item 2's. Each sample **forward-simulates** item 1's cascade from
//!   `S_1`, then reverse-samples item 2 with node coins `q_{2|1}` on
//!   item-1 adopters and `q_{2|∅}` elsewhere — the two passes share one
//!   live-edge world through the graph's reverse edge-id map. The
//!   forward pass per sample is the documented source of its slowness.
//!
//! Both samplers implement [`RrSampler`] and write **directly into the
//! shared [`RrCollection`] arena** (parallel, deterministic per
//! `(seed, index)`) instead of materializing nested vectors and
//! round-tripping through `from_raw_sets`.
//!
//! Faithfulness note (recorded in DESIGN.md): the original RR-CIM also
//! iterates the i1↔i2 feedback; this one-directional variant preserves
//! the published behavioral signature the UIC paper compares against —
//! near-bundleGRD welfare in Table 3 configurations, TIM-scale RR
//! counts, and forward+backward cost.

use std::time::Instant;
use uic_diffusion::SolveReport;
use uic_graph::{Graph, NodeId};
use uic_im::{imm, node_selection, DiffusionModel, RrCollection, RrSampler};
use uic_items::GapParams;
use uic_util::{log_choose, split_seed, EpochMap, UicRng, VisitTags};

/// TIM's RR-set budget: `θ = λ/KPT`,
/// `λ = (8 + 2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2)/ε²`, capped at
/// [`THETA_CAP`] to keep laptop-scale reproductions bounded (the cap is
/// still 10–30× IMM's sample sizes at the scales we run, so the Fig. 6
/// memory ordering is preserved; the paper's server runs used no cap and
/// hit 4×10⁷ sets).
const THETA_CAP: usize = 2_000_000;

fn tim_theta(n: u32, k: u32, eps: f64, ell: f64, kpt: f64) -> usize {
    let nf = n as f64;
    let lambda =
        (8.0 + 2.0 * eps) * nf * (ell * nf.ln() + log_choose(n as u64, k as u64) + 2f64.ln())
            / (eps * eps);
    ((lambda / kpt.max(1.0)).ceil() as usize).min(THETA_CAP)
}

/// Appends one self-influence RR set onto `arena`: reverse walk where
/// expansion through a node (and acceptance of the root) requires a `q`
/// coin; edge coins use `p(u,v)`. An empty sample (nothing appended)
/// means the root cannot adopt at all.
fn sample_self_rr_into(
    g: &Graph,
    q: f64,
    rng: &mut UicRng,
    tags: &mut VisitTags,
    expand: &mut Vec<NodeId>,
    arena: &mut Vec<NodeId>,
    width: &mut u64,
) {
    tags.reset();
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    let root = rng.next_below(n);
    if !rng.coin(q) {
        return; // root never adopts: uncoverable sample
    }
    tags.mark(root as usize);
    arena.push(root);
    // Queue of nodes allowed to relay (passed their q coin).
    expand.clear();
    expand.push(root);
    let mut head = 0;
    while head < expand.len() {
        let w = expand[head];
        head += 1;
        let srcs = g.in_neighbors(w);
        let probs = g.in_arc_probs(w);
        *width += srcs.len() as u64;
        for (i, &u) in srcs.iter().enumerate() {
            if tags.is_marked(u as usize) || !rng.coin(probs.get(i) as f64) {
                continue;
            }
            tags.mark(u as usize);
            arena.push(u); // u can seed-adopt unconditionally
            if rng.coin(q) {
                expand.push(u); // and may also relay
            }
        }
    }
}

/// [`RrSampler`] for RR-SIM+'s self-influence sets: sample `index`
/// draws from stream `split_seed(seed, 100 + index)` (the offset keeps
/// the stream disjoint from the partner IMM run's).
struct SelfRrSampler {
    q: f64,
    seed: u64,
}

impl RrSampler for SelfRrSampler {
    type Scratch = (VisitTags, Vec<NodeId>);

    fn scratch(&self, g: &Graph) -> Self::Scratch {
        (VisitTags::new(g.num_nodes() as usize), Vec::new())
    }

    fn sample_into(
        &self,
        g: &Graph,
        index: u64,
        (tags, expand): &mut Self::Scratch,
        arena: &mut Vec<NodeId>,
        width: &mut u64,
    ) {
        let mut rng = UicRng::new(split_seed(self.seed, 100 + index));
        sample_self_rr_into(g, self.q, &mut rng, tags, expand, arena, width);
    }
}

/// Runs RR-SIM+: item 2 seeded by IMM with budget `b2`, item 1's `b1`
/// seeds selected on self-influence RR sets sized by the TIM bound.
///
/// This is the engine behind the registry entry `uic_core::solver::RrSimPlus`
/// (`<dyn uic_core::Allocator>::by_name("rr-sim+")`), the public entry
/// point.
pub fn rr_sim_plus(
    g: &Graph,
    gap: GapParams,
    b1: u32,
    b2: u32,
    eps: f64,
    ell: f64,
    seed: u64,
) -> SolveReport {
    let start = Instant::now();
    let n = g.num_nodes();
    assert!(
        b1 >= 1 && b2 >= 1 && b1 <= n && b2 <= n,
        "budgets out of range"
    );
    // Partner item's seeds by plain IMM.
    let partner = imm(g, b2, eps, ell, DiffusionModel::IC, split_seed(seed, 1));
    let sampler = SelfRrSampler {
        q: gap.q1_alone,
        seed,
    };
    // Pilot sample to estimate KPT (mean set size ≈ E[σ(random v)]),
    // straight into the arena the main sample keeps growing.
    let pilot = 2_000usize;
    let mut coll = RrCollection::empty(n);
    coll.extend_with(g, pilot, &sampler);
    let kpt = coll.total_entries() as f64 / pilot as f64;
    let theta = tim_theta(n, b1, eps, ell, kpt);
    coll.extend_with(g, theta, &sampler);
    let total = coll.len();
    let sel = node_selection(&mut coll, b1);
    let mut allocation = uic_diffusion::Allocation::new();
    for &v in &sel.seeds {
        allocation.assign(v, 0);
    }
    for &v in &partner.seeds {
        allocation.assign(v, 1);
    }
    SolveReport::new("rr-sim+", allocation)
        .with_rr_sets(
            total + partner.rr_sets_final,
            total as u64 + partner.rr_sets_total,
        )
        .with_elapsed_since(start)
}

/// Dense per-world scratch shared by RR-CIM's forward and reverse
/// passes: per-node adoption decisions, adopter marks, and the reusable
/// BFS queue. All components are epoch-stamped, so
/// [`WorldScratch::reset`] is `O(1)`.
///
/// Edge liveness is a **pure function of `(world_seed, edge id, p)`**,
/// recomputed wherever a pass reads the edge. This is what keeps every
/// RR-CIM sample a pure function of `(seed, index)`: a worker that
/// re-simulates a world at a chunk boundary sees exactly the coins
/// another worker's reverse passes saw, and the forward pass (reading
/// `out_arc_probs`) and the reverse pass (reading `in_arc_probs`) agree
/// on every edge because both sides store bit-equal probabilities per
/// edge id.
struct WorldScratch {
    informed: EpochMap<bool>,
    adopters: VisitTags,
    queue: Vec<NodeId>,
    world_seed: u64,
}

impl WorldScratch {
    fn new(g: &Graph) -> WorldScratch {
        WorldScratch {
            informed: EpochMap::new(g.num_nodes() as usize),
            adopters: VisitTags::new(g.num_nodes() as usize),
            queue: Vec::new(),
            world_seed: 0,
        }
    }

    /// Forgets the current world and fixes the new one's edge-coin seed.
    fn reset(&mut self, world_seed: u64) {
        self.informed.reset();
        self.adopters.reset();
        self.world_seed = world_seed;
    }

    /// Whether edge `eid` is live in this world, at probability `p`:
    /// `split_seed(world_seed, eid)` hashed to a uniform in `[0, 1)`.
    #[inline]
    fn edge_live(&self, eid: usize, p: f64) -> bool {
        let u = split_seed(self.world_seed, eid as u64);
        ((u >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Forward Com-IC single-item cascade of item 1 from `s1`, recording
/// adopters into `scratch` so the reverse pass sees the same world.
/// Edge coins come from the world's hash stream ([`WorldScratch::edge_live`]);
/// `rng` drives only the per-node adoption decisions. Callers reset the
/// scratch per world.
fn forward_item1(
    g: &Graph,
    s1: &[NodeId],
    q1_alone: f64,
    rng: &mut UicRng,
    scratch: &mut WorldScratch,
) {
    scratch.queue.clear();
    for &v in s1 {
        if scratch.adopters.mark(v as usize) {
            scratch.queue.push(v);
        }
    }
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        let nbrs = g.out_neighbors(u);
        let probs = g.out_arc_probs(u);
        let first_eid = g.out_edge_id(u, 0);
        for (i, &v) in nbrs.iter().enumerate() {
            if scratch.adopters.is_marked(v as usize)
                || !scratch.edge_live(first_eid + i, probs.get(i) as f64)
            {
                continue;
            }
            // One adoption decision per informed node.
            let adopt = match scratch.informed.get(v as usize) {
                Some(decision) => decision,
                None => {
                    let decision = rng.coin(q1_alone);
                    scratch.informed.insert(v as usize, decision);
                    decision
                }
            };
            if adopt && scratch.adopters.mark(v as usize) {
                scratch.queue.push(v);
            }
        }
    }
}

/// Reverse samples per forward-simulated world: one forward Com-IC pass
/// of item 1 is shared by a *batch* of reverse samples drawn in the same
/// possible world — the hybrid sampling of the original RR-CIM
/// implementation (each forward simulation is expensive; roots within a
/// world are exchangeable, and the coverage estimator tolerates the mild
/// within-batch correlation).
const BATCH: u64 = 32;

/// [`RrSampler`] for RR-CIM's complement-aware sets: sample `index`
/// lives in world `index / BATCH`; its reverse pass uses node coins
/// `q_{2|1}` on that world's item-1 adopters and `q_{2|∅}` elsewhere,
/// sharing the world's hash-stream edge coins
/// ([`WorldScratch::edge_live`]). Both the forward pass and the edge
/// coins are pure functions of `(seed, world)`, so chunk boundaries may
/// re-simulate a world at will and the output stays a pure function of
/// `(seed, index)` under any thread count (tested on graphs with edges
/// the forward pass never reaches).
struct CimSampler<'a> {
    s1: &'a [NodeId],
    gap: GapParams,
    seed: u64,
}

/// Per-worker state for [`CimSampler`]: the cached forward world plus
/// reverse-pass scratch.
struct CimScratch {
    world: WorldScratch,
    world_id: u64,
    tags: VisitTags,
    expand: Vec<NodeId>,
}

impl RrSampler for CimSampler<'_> {
    type Scratch = CimScratch;

    fn scratch(&self, g: &Graph) -> CimScratch {
        CimScratch {
            world: WorldScratch::new(g),
            world_id: u64::MAX,
            tags: VisitTags::new(g.num_nodes() as usize),
            expand: Vec::new(),
        }
    }

    fn sample_into(
        &self,
        g: &Graph,
        index: u64,
        scratch: &mut CimScratch,
        arena: &mut Vec<NodeId>,
        width: &mut u64,
    ) {
        let world = index / BATCH;
        let mut rng = UicRng::new(split_seed(self.seed, (500 + world) * BATCH + index % BATCH));
        if world != scratch.world_id {
            scratch.world_id = world;
            let mut wrng = UicRng::new(split_seed(self.seed ^ 0xF0F0, world));
            scratch
                .world
                .reset(split_seed(self.seed ^ 0x00ED_6E5D, world));
            forward_item1(g, self.s1, self.gap.q1_alone, &mut wrng, &mut scratch.world);
        }
        // Reverse pass for item 2 with complement-aware node coins.
        scratch.tags.reset();
        let root = rng.next_below(g.num_nodes());
        let q_root = if scratch.world.adopters.is_marked(root as usize) {
            self.gap.q2_given_1
        } else {
            self.gap.q2_alone
        };
        if !rng.coin(q_root) {
            return;
        }
        scratch.tags.mark(root as usize);
        arena.push(root);
        scratch.expand.clear();
        scratch.expand.push(root);
        let mut head = 0;
        while head < scratch.expand.len() {
            let w = scratch.expand[head];
            head += 1;
            let srcs = g.in_neighbors(w);
            let probs = g.in_arc_probs(w);
            let eids = g.in_edge_ids(w);
            *width += srcs.len() as u64;
            for (i, &u) in srcs.iter().enumerate() {
                if scratch.tags.is_marked(u as usize) {
                    continue;
                }
                let live = scratch
                    .world
                    .edge_live(eids[i] as usize, probs.get(i) as f64);
                if !live {
                    continue;
                }
                scratch.tags.mark(u as usize);
                arena.push(u);
                let q_u = if scratch.world.adopters.is_marked(u as usize) {
                    self.gap.q2_given_1
                } else {
                    self.gap.q2_alone
                };
                if rng.coin(q_u) {
                    scratch.expand.push(u);
                }
            }
        }
    }
}

/// Runs RR-CIM: item 1 seeded by IMM with budget `b1`; item 2's `b2`
/// seeds selected on complement-aware RR sets (forward + backward pass
/// per sample, shared edge world).
///
/// This is the engine behind the registry entry `uic_core::solver::RrCim`
/// (`<dyn uic_core::Allocator>::by_name("rr-cim")`), the public entry
/// point.
pub fn rr_cim(
    g: &Graph,
    gap: GapParams,
    b1: u32,
    b2: u32,
    eps: f64,
    ell: f64,
    seed: u64,
) -> SolveReport {
    let start = Instant::now();
    let n = g.num_nodes();
    assert!(
        b1 >= 1 && b2 >= 1 && b1 <= n && b2 <= n,
        "budgets out of range"
    );
    let partner = imm(g, b1, eps, ell, DiffusionModel::IC, split_seed(seed, 1));
    let sampler = CimSampler {
        s1: &partner.seeds,
        gap,
        seed,
    };
    // Pilot + TIM-sized main sample, all in one arena.
    let pilot = 1_024usize;
    let mut coll = RrCollection::empty(n);
    coll.extend_with(g, pilot, &sampler);
    let kpt = coll.total_entries() as f64 / pilot as f64;
    let theta = tim_theta(n, b2, eps, ell, kpt);
    coll.extend_with(g, theta, &sampler);
    let total = coll.len();
    let sel = node_selection(&mut coll, b2);
    let mut allocation = uic_diffusion::Allocation::new();
    for &v in &partner.seeds {
        allocation.assign(v, 0);
    }
    for &v in &sel.seeds {
        allocation.assign(v, 1);
    }
    SolveReport::new("rr-cim", allocation)
        .with_rr_sets(
            total + partner.rr_sets_final,
            total as u64 + partner.rr_sets_total,
        )
        .with_elapsed_since(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_graph::{GraphBuilder, Weighting};

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(30);
        for leaf in 2..20u32 {
            b.add_edge(0, leaf, 0.8);
        }
        for leaf in 20..28u32 {
            b.add_edge(1, leaf, 0.8);
        }
        b.build(Weighting::AsGiven, 0)
    }

    fn friendly_gap() -> GapParams {
        GapParams::new(0.5, 0.84, 0.5, 0.84)
    }

    #[test]
    fn rr_sim_plus_budgets_and_hub() {
        let g = hub_graph();
        let r = rr_sim_plus(&g, friendly_gap(), 2, 1, 0.5, 1.0, 3);
        assert_eq!(r.allocation.seeds_of_item(0).len(), 2);
        assert_eq!(r.allocation.seeds_of_item(1).len(), 1);
        // The main hub must be an item-1 seed under self-influence.
        assert!(r.allocation.seeds_of_item(0).contains(&0));
        assert!(r.rr_sets_final > 0);
    }

    #[test]
    fn rr_cim_budgets_respected() {
        let g = hub_graph();
        let r = rr_cim(&g, friendly_gap(), 2, 2, 0.5, 1.0, 5);
        assert_eq!(r.allocation.seeds_of_item(0).len(), 2);
        assert_eq!(r.allocation.seeds_of_item(1).len(), 2);
    }

    #[test]
    fn both_are_deterministic() {
        let g = hub_graph();
        let a = rr_sim_plus(&g, friendly_gap(), 2, 1, 0.5, 1.0, 7);
        let b = rr_sim_plus(&g, friendly_gap(), 2, 1, 0.5, 1.0, 7);
        assert_eq!(a.allocation, b.allocation);
        let a = rr_cim(&g, friendly_gap(), 1, 2, 0.5, 1.0, 7);
        let b = rr_cim(&g, friendly_gap(), 1, 2, 0.5, 1.0, 7);
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn arena_sampling_is_thread_count_independent() {
        // Both custom samplers must honor the `(seed, index)` contract:
        // the collections they grow are bit-identical for any worker
        // count.
        let g = hub_graph();
        let self_sampler = SelfRrSampler { q: 0.6, seed: 41 };
        let s1 = [0u32, 1];
        let cim_sampler = CimSampler {
            s1: &s1,
            gap: friendly_gap(),
            seed: 41,
        };
        let mut self_ref = RrCollection::empty(30).with_threads(1);
        self_ref.extend_with(&g, 4_000, &self_sampler);
        let mut cim_ref = RrCollection::empty(30).with_threads(1);
        cim_ref.extend_with(&g, 4_000, &cim_sampler);
        for threads in [2usize, 8] {
            let mut a = RrCollection::empty(30).with_threads(threads);
            a.extend_with(&g, 4_000, &self_sampler);
            assert_eq!(a, self_ref, "self sampler, {threads} threads");
            let mut b = RrCollection::empty(30).with_threads(threads);
            b.extend_with(&g, 4_000, &cim_sampler);
            assert_eq!(b, cim_ref, "cim sampler, {threads} threads");
        }
    }

    #[test]
    fn cim_sampler_pure_beyond_forward_reach() {
        // Regression: edges the forward pass never reaches get their
        // coins from reverse passes. With history-dependent coins, a
        // chunk boundary mid-batch made later samples depend on which
        // batch-mates ran on the same worker; the hash-stream coins must
        // keep the collection thread-count independent even here.
        let mut b = GraphBuilder::new(30);
        for leaf in 2..20u32 {
            b.add_edge(0, leaf, 0.8);
        }
        for leaf in 20..28u32 {
            b.add_edge(1, leaf, 0.8);
        }
        // A back-alley component no item-1 cascade from {0, 1} can touch.
        b.add_edge(28, 29, 0.7);
        b.add_edge(29, 28, 0.7);
        b.add_edge(28, 2, 0.7);
        b.add_edge(29, 21, 0.7);
        let g = b.build(Weighting::AsGiven, 0);
        let s1 = [0u32, 1];
        let sampler = CimSampler {
            s1: &s1,
            gap: friendly_gap(),
            seed: 1,
        };
        let mut reference = RrCollection::empty(30).with_threads(1);
        reference.extend_with(&g, 4_000, &sampler);
        for threads in [2usize, 3, 8] {
            let mut coll = RrCollection::empty(30).with_threads(threads);
            coll.extend_with(&g, 4_000, &sampler);
            assert_eq!(coll, reference, "{threads} threads");
        }
    }

    #[test]
    fn rr_cim_follows_complement_when_alone_is_hopeless() {
        // Two disjoint hub communities. Item 1 seeded (by IMM) at the
        // bigger hub 0. With q2_alone = 0 item 2 can only be adopted by
        // item-1 adopters, so its chosen seed must live in hub 0's
        // community, not hub 1's.
        let g = hub_graph();
        let gap = GapParams::new(1.0, 1.0, 0.0, 1.0);
        let r = rr_cim(&g, gap, 1, 1, 0.5, 1.0, 9);
        assert_eq!(r.allocation.seeds_of_item(0), vec![0]);
        let s2 = r.allocation.seeds_of_item(1);
        assert_eq!(s2.len(), 1);
        let community0: Vec<u32> = std::iter::once(0).chain(2..20).collect();
        assert!(
            community0.contains(&s2[0]),
            "item-2 seed {} should sit among item-1 adopters",
            s2[0]
        );
    }

    #[test]
    fn self_rr_sets_shrink_with_q() {
        // Smaller q ⇒ fewer accepted roots/relays ⇒ smaller total mass.
        let g = hub_graph();
        let mass = |q: f64| {
            let sampler = SelfRrSampler { q, seed: 0 };
            let mut coll = RrCollection::empty(30);
            coll.extend_with(&g, 3000, &sampler);
            coll.total_entries()
        };
        let high = mass(0.9);
        let low = mass(0.1);
        assert!(low < high, "low-q mass {low} should be below high-q {high}");
    }

    #[test]
    fn tim_theta_grows_with_precision() {
        assert!(tim_theta(1000, 10, 0.1, 1.0, 5.0) > tim_theta(1000, 10, 0.5, 1.0, 5.0));
        assert!(tim_theta(1000, 20, 0.3, 1.0, 5.0) > tim_theta(1000, 5, 0.3, 1.0, 5.0));
    }
}
