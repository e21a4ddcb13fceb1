//! The sharded warm-arena registry: per-arena reader/writer locks, a
//! byte-budget LRU eviction policy, and the [`ArenaHandle`] that plugs
//! the whole thing into [`uic_im::warm_prima_on`] as a
//! [`WarmArena`].
//!
//! ## Locking design
//!
//! The registry map is split into 16 shards, each behind
//! its own mutex held only for map lookup/insert — never while solving.
//! Each arena sits behind its own `RwLock<RrCollection>`: CELF
//! selection and coverage estimation (the dominant per-query cost) run
//! under the *read* lock, so queries that share a `(model, seed)` arena
//! proceed concurrently; only `extend_to` top-up — which the warm-arena
//! contract makes rare after warm-up — takes the *write* lock, and it
//! brings the prefix index current before releasing, so readers always
//! observe an indexed collection. Lock acquisition waits are recorded
//! into [`ServerMetrics::lock_wait_us`].
//!
//! ## Query plans and single-flight coalescing
//!
//! Each cell carries a cache of [`SelectionPlan`]s keyed by arena
//! prefix (`num_sets`): the first query for a prefix memoizes its full
//! greedy run, repeat budgets are answered as `O(k)` slices, and larger
//! budgets resume the cached CELF state instead of restarting — all
//! bit-identical to from-scratch selection (the plan contract, pinned
//! in `uic-im`). Plan computation is **single-flight**: concurrent
//! queries for the same prefix park on a condvar while one leader
//! computes, then re-read the cache ([`ServerMetrics::coalesced_waits`]
//! counts the parks). Top-up demand coalesces the same way — waiters
//! publish their target into the cell's `pending_target` atomic and
//! the write-lock holder extends once to the maximum.
//!
//! ## Eviction
//!
//! An optional byte budget caps resident arena memory. When a top-up
//! pushes the total over budget, least-recently-used arenas are dropped
//! from the map until the level fits (the arena the current query holds
//! is never chosen). Eviction only detaches the arena from the map:
//! in-flight queries keep their `Arc` and finish on the detached
//! collection — answers stay bit-identical because an RR arena is a
//! pure function of its key. A later query for the evicted key rebuilds
//! from scratch (counted in [`ServerMetrics::rebuilds_total`]).
//! Cached plans live inside their cell, so they are accounted against
//! the same byte budget and die with their arena — an evicted prefix
//! can never serve a later query.
//!
//! ## Panic containment
//!
//! A panic while holding a write lock poisons that one arena, not the
//! server. The registry self-heals: a poisoned cell is evicted on the
//! next checkout (or top-up attempt) and rebuilt fresh.

use crate::metrics::ServerMetrics;
use crate::request::{ErrorCode, ServeError};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;
use uic_graph::Graph;
use uic_im::{DiffusionModel, NodeSelectionResult, RrCollection, SelectionPlan, WarmArena};

/// Arena identity: `(model discriminant, solver seed)` — exactly the
/// inputs that determine the RR sample stream.
pub type ArenaKey = (u8, u64);

/// The wire/registry discriminant of a diffusion model.
pub fn model_key(model: DiffusionModel) -> u8 {
    match model {
        DiffusionModel::IC => 0,
        DiffusionModel::LT => 1,
    }
}

/// The inverse of [`model_key`] (for spill decoding).
pub fn model_of_key(key: u8) -> Option<DiffusionModel> {
    match key {
        0 => Some(DiffusionModel::IC),
        1 => Some(DiffusionModel::LT),
        _ => None,
    }
}

/// How many independent map shards the registry keeps. Shard mutexes
/// guard only lookup/insert, so a modest constant comfortably exceeds
/// any realistic worker count.
const SHARD_COUNT: usize = 16;

/// The per-cell query-plan cache: memoized greedy runs keyed by the
/// arena prefix (`num_sets`) they were computed over, plus the
/// single-flight ledger of prefixes currently being computed.
#[derive(Default)]
struct PlanCache {
    plans: HashMap<usize, Arc<SelectionPlan>>,
    /// Prefixes a leader is computing or resuming right now; other
    /// queries for the same prefix park on the cell's condvar instead
    /// of duplicating the work.
    inflight: HashSet<usize>,
}

/// One resident warm arena: the collection behind its reader/writer
/// lock, its query-plan cache, and the bookkeeping eviction needs.
pub struct ArenaCell {
    key: ArenaKey,
    lock: RwLock<RrCollection>,
    /// Memoized selection plans for this arena (die with the cell on
    /// eviction, so a stale prefix can never outlive its arena).
    plans: Mutex<PlanCache>,
    /// Wakes queries parked behind a single-flight plan computation.
    plan_cv: Condvar,
    /// Heap bytes held by cached plans (a component of `bytes`).
    plan_bytes: AtomicUsize,
    /// The maximum top-up target published by queries waiting on the
    /// write lock; the holder extends once to the max (monotone — the
    /// arena never shrinks, so it is never reset).
    pending_target: AtomicUsize,
    /// Heap bytes of the collection plus cached plans (mirrored into
    /// the registry-wide gauge).
    bytes: AtomicUsize,
    /// LRU stamp from the registry clock; larger = more recent.
    last_used: AtomicU64,
}

impl ArenaCell {
    /// The arena's `(model, seed)` identity.
    pub fn key(&self) -> ArenaKey {
        self.key
    }

    /// Runs `f` under the read lock; `None` if the cell is poisoned.
    pub fn with_read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> Option<R> {
        self.lock.read().ok().map(|coll| f(&coll))
    }

    /// The plan-cache mutex, healing poison: the cache is just a map
    /// of immutable `Arc`s, so a panic mid-update leaves it consistent.
    fn plan_cache(&self) -> MutexGuard<'_, PlanCache> {
        self.plans.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Clears a prefix's single-flight marker when the leader exits —
/// normally or by panic — so parked queries never deadlock.
struct InflightGuard<'a> {
    cell: &'a ArenaCell,
    num_sets: usize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.cell.plan_cache().inflight.remove(&self.num_sets);
        self.cell.plan_cv.notify_all();
    }
}

impl std::fmt::Debug for ArenaCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaCell")
            .field("key", &self.key)
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The registry of warm arenas, sharded by key hash.
pub struct ArenaRegistry {
    shards: Vec<Mutex<HashMap<ArenaKey, Arc<ArenaCell>>>>,
    /// Monotone LRU clock: each checkout stamps its cell.
    clock: AtomicU64,
    /// Resident-byte cap; `None` disables eviction.
    budget_bytes: Option<usize>,
    /// Keys evicted at least once since their last rebuild, so the
    /// rebuild cost of eviction is observable.
    evicted_keys: Mutex<HashSet<ArenaKey>>,
    metrics: Arc<ServerMetrics>,
}

impl ArenaRegistry {
    /// A new registry publishing into `metrics`, with an optional
    /// resident-byte budget.
    pub fn new(budget_bytes: Option<usize>, metrics: Arc<ServerMetrics>) -> ArenaRegistry {
        ArenaRegistry {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            clock: AtomicU64::new(0),
            budget_bytes,
            evicted_keys: Mutex::new(HashSet::new()),
            metrics,
        }
    }

    /// The configured resident-byte budget.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    fn shard_of(&self, key: ArenaKey) -> &Mutex<HashMap<ArenaKey, Arc<ArenaCell>>> {
        let mut h = uic_util::FxHasher::default();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Checks out a per-query handle on the `(model, seed)` arena,
    /// creating (or rebuilding) the arena if absent. A resident cell
    /// poisoned by an earlier panic is evicted and rebuilt fresh here —
    /// the self-healing path.
    pub fn checkout(&self, g: &Graph, model: DiffusionModel, seed: u64) -> ArenaHandle<'_> {
        let key = (model_key(model), seed);
        let cell = {
            let mut shard = self.shard_of(key).lock().expect("arena shard lock");
            if shard.get(&key).is_some_and(|cell| cell.lock.is_poisoned()) {
                let dead = shard.remove(&key).expect("checked present");
                self.account_removal(&dead);
            }
            match shard.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let coll = RrCollection::new(g, model, seed);
                    let cell = self.admit(key, coll);
                    shard.insert(key, Arc::clone(&cell));
                    cell
                }
            }
        };
        cell.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        ArenaHandle {
            registry: self,
            cell,
            topup: std::cell::Cell::new(0),
            topup_us: std::cell::Cell::new(0),
        }
    }

    /// Installs an already-warm collection (spill reload). Returns
    /// `false` — dropping `coll` — if the key is already resident.
    pub fn install_warm(&self, coll: RrCollection) -> bool {
        let key = (model_key(coll.model()), coll.base_seed());
        let mut shard = self.shard_of(key).lock().expect("arena shard lock");
        if shard.contains_key(&key) {
            return false;
        }
        let cell = self.admit(key, coll);
        shard.insert(key, cell);
        true
    }

    /// Builds the cell for a collection entering the registry and
    /// publishes its resource accounting.
    fn admit(&self, key: ArenaKey, coll: RrCollection) -> Arc<ArenaCell> {
        let bytes = coll.heap_bytes();
        if self.evicted_keys.lock().expect("evicted set").remove(&key) {
            self.metrics.rebuilds_total.inc();
        }
        self.metrics.arenas_resident.add(1);
        self.metrics.arena_bytes.add(bytes as u64);
        Arc::new(ArenaCell {
            key,
            lock: RwLock::new(coll),
            plans: Mutex::new(PlanCache::default()),
            plan_cv: Condvar::new(),
            plan_bytes: AtomicUsize::new(0),
            pending_target: AtomicUsize::new(0),
            bytes: AtomicUsize::new(bytes),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
        })
    }

    /// Reverses [`admit`](Self::admit)'s accounting for a cell leaving
    /// the map (the cell itself lives until its last `Arc` drops).
    fn account_removal(&self, cell: &ArenaCell) {
        self.metrics.evictions_total.inc();
        self.metrics.arenas_resident.sub(1);
        self.metrics
            .arena_bytes
            .sub(cell.bytes.load(Ordering::Relaxed) as u64);
        self.evicted_keys
            .lock()
            .expect("evicted set")
            .insert(cell.key);
    }

    /// Publishes one component's byte delta for `cell` (the collection
    /// on top-up, the plan cache on plan install/evict). Delta-based so
    /// a racing top-up and plan install cannot clobber each other's
    /// accounting.
    ///
    /// Runs under the cell's shard lock, which every removal also holds,
    /// and reaches the resident-byte gauge only while the cell is still
    /// in the map: [`account_removal`](Self::account_removal) settles a
    /// cell's bytes once, so growth of a detached cell (a holder still
    /// serving its query) must not be added to the gauge, or it would
    /// stay there and keep the budget evicting forever.
    fn note_resize(&self, cell: &ArenaCell, old_bytes: usize, new_bytes: usize) {
        let shard = self.shard_of(cell.key).lock().expect("arena shard lock");
        let resident = shard
            .get(&cell.key)
            .is_some_and(|c| std::ptr::eq(&**c, cell));
        if new_bytes >= old_bytes {
            let d = new_bytes - old_bytes;
            cell.bytes.fetch_add(d, Ordering::Relaxed);
            if resident {
                self.metrics.arena_bytes.add(d as u64);
            }
        } else {
            let d = old_bytes - new_bytes;
            cell.bytes.fetch_sub(d, Ordering::Relaxed);
            if resident {
                self.metrics.arena_bytes.sub(d as u64);
            }
        }
    }

    /// Publishes a plan-cache byte delta for `cell` and re-enforces the
    /// byte budget (plans count against the same cap as arenas).
    fn note_plan_resize(&self, cell: &ArenaCell, old_bytes: usize, new_bytes: usize) {
        if new_bytes >= old_bytes {
            cell.plan_bytes
                .fetch_add(new_bytes - old_bytes, Ordering::Relaxed);
        } else {
            cell.plan_bytes
                .fetch_sub(old_bytes - new_bytes, Ordering::Relaxed);
        }
        self.note_resize(cell, old_bytes, new_bytes);
        self.enforce_budget(cell.key);
    }

    /// Evicts least-recently-used arenas (never `protect`) until the
    /// resident-byte level fits the budget. No-op without a budget.
    fn enforce_budget(&self, protect: ArenaKey) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while self.metrics.arena_bytes.get() > budget as u64 {
            // Oldest evictable cell across all shards.
            let mut victim: Option<(u64, Arc<ArenaCell>)> = None;
            for shard in &self.shards {
                let shard = shard.lock().expect("arena shard lock");
                for cell in shard.values() {
                    if cell.key == protect {
                        continue;
                    }
                    let stamp = cell.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(s, _)| stamp < *s) {
                        victim = Some((stamp, Arc::clone(cell)));
                    }
                }
            }
            let Some((stamp, cell)) = victim else {
                return; // nothing evictable: only the protected arena remains
            };
            let mut shard = self.shard_of(cell.key).lock().expect("arena shard lock");
            // Re-check under the shard lock: a concurrent checkout may
            // have touched the cell since we chose it. Racing with such
            // a checkout is benign (its handle keeps the Arc alive) but
            // an already-refreshed stamp means "recently used" — pick
            // again rather than evict the hot arena.
            match shard.get(&cell.key) {
                Some(resident)
                    if Arc::ptr_eq(resident, &cell)
                        && cell.last_used.load(Ordering::Relaxed) == stamp =>
                {
                    shard.remove(&cell.key);
                    self.account_removal(&cell);
                }
                _ => {}
            }
        }
    }

    /// Total RR sets resident across all warm arenas (poisoned cells
    /// count 0).
    pub fn sets_total(&self) -> u64 {
        self.cells()
            .iter()
            .map(|c| c.with_read(|coll| coll.len() as u64).unwrap_or(0))
            .sum()
    }

    /// A snapshot of every resident cell (for spill capture).
    pub fn cells(&self) -> Vec<Arc<ArenaCell>> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("arena shard lock")
                    .values()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl std::fmt::Debug for ArenaRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaRegistry")
            .field("budget_bytes", &self.budget_bytes)
            .field("resident", &self.metrics.arenas_resident.get())
            .finish_non_exhaustive()
    }
}

/// One query's handle on a shared arena: implements [`WarmArena`] so
/// [`uic_core::WarmGrd::run_shared`] can drive selection under the read
/// lock and top-up under the write lock, while the handle accumulates
/// this query's own top-up count (the `rr_topup` response field).
pub struct ArenaHandle<'a> {
    registry: &'a ArenaRegistry,
    cell: Arc<ArenaCell>,
    topup: std::cell::Cell<u64>,
    topup_us: std::cell::Cell<u64>,
}

impl ArenaHandle<'_> {
    /// RR sets appended to the arena by this handle.
    pub fn topup(&self) -> u64 {
        self.topup.get()
    }

    /// Wall time this handle spent in [`WarmArena::prepare`] (µs) —
    /// the top-up phase of the query's latency split.
    pub fn topup_us(&self) -> u64 {
        self.topup_us.get()
    }

    /// Sets currently resident in the arena this handle rides.
    pub fn resident_sets(&self) -> u64 {
        self.read(|coll| coll.len() as u64)
    }

    /// The single-flight leader's plan computation: resume the cached
    /// plan when one exists, else compute from scratch. A fired
    /// `serve.plan.resume` failpoint abandons the resume (`None`) — the
    /// caller evicts the cached plan and rebuilds from scratch, which
    /// the plan contract guarantees is bit-identical.
    fn build_plan(
        &self,
        base: Option<&SelectionPlan>,
        k: u32,
        num_sets: usize,
    ) -> Option<SelectionPlan> {
        let m = &self.registry.metrics;
        match base {
            Some(short) => {
                let resumed = self.read(|coll| try_resume(short, coll, k));
                if resumed.is_some() {
                    m.plan_resumes.inc();
                }
                resumed
            }
            None => {
                m.plan_misses.inc();
                Some(self.read(|coll| SelectionPlan::compute(coll, k, num_sets)))
            }
        }
    }
}

/// Resumes `base` to budget `k` unless the `serve.plan.resume`
/// failpoint fires (chaos: a fault mid-resume must only cost work,
/// never correctness).
fn try_resume(base: &SelectionPlan, coll: &RrCollection, k: u32) -> Option<SelectionPlan> {
    uic_util::fail_point!("serve.plan.resume", || None);
    Some(base.resume(coll, k))
}

impl WarmArena for ArenaHandle<'_> {
    type Error = ServeError;

    fn prepare(&self, g: &Graph, target: usize) -> Result<(), ServeError> {
        uic_util::fail_point!("serve.topup", || Err(ServeError::new(
            ErrorCode::Internal,
            "injected fault: warm-arena top-up (failpoint `serve.topup`)",
        )));
        let phase0 = Instant::now();
        // Fully-warm fast path: when the prefix is already resident and
        // indexed, a read lock suffices — repeat queries never contend
        // on the write lock.
        {
            let t0 = Instant::now();
            let warm = match self.cell.lock.read() {
                Ok(coll) => {
                    self.registry
                        .metrics
                        .lock_wait_us
                        .record(t0.elapsed().as_micros() as u64);
                    coll.len() >= target && coll.index_is_current()
                }
                Err(_) => false, // poisoned: fall through to the healing path
            };
            if warm {
                self.topup_us
                    .set(self.topup_us.get() + phase0.elapsed().as_micros() as u64);
                return Ok(());
            }
        }
        // Publish our demand before blocking: whoever holds the write
        // lock extends once to the max of all coalesced targets, and
        // we find the work already done when our turn comes.
        self.cell
            .pending_target
            .fetch_max(target, Ordering::Relaxed);
        let t0 = Instant::now();
        let mut coll = match self.cell.lock.write() {
            Ok(coll) => coll,
            Err(_) => {
                // Self-heal: detach the poisoned arena so the next
                // query for this key rebuilds it fresh.
                let mut shard = self
                    .registry
                    .shard_of(self.cell.key)
                    .lock()
                    .expect("arena shard lock");
                if let Some(resident) = shard.get(&self.cell.key) {
                    if Arc::ptr_eq(resident, &self.cell) {
                        shard.remove(&self.cell.key);
                        self.registry.account_removal(&self.cell);
                    }
                }
                return Err(ServeError::new(
                    ErrorCode::Internal,
                    "warm arena poisoned by an earlier panic; evicted for rebuild",
                ));
            }
        };
        self.registry
            .metrics
            .lock_wait_us
            .record(t0.elapsed().as_micros() as u64);
        let old_bytes = coll.heap_bytes();
        let before = coll.total_generated();
        // Serve every coalesced demand in one pass (the atomic is
        // monotone, so a stale high-water mark is at worst a no-op
        // against an arena that already grew past it).
        let goal = self.cell.pending_target.load(Ordering::Relaxed).max(target);
        coll.extend_to(g, goal);
        coll.ensure_index();
        let added = coll.total_generated() - before;
        let new_bytes = coll.heap_bytes();
        drop(coll);
        self.topup.set(self.topup.get() + added);
        self.topup_us
            .set(self.topup_us.get() + phase0.elapsed().as_micros() as u64);
        self.registry.note_resize(&self.cell, old_bytes, new_bytes);
        self.registry.enforce_budget(self.cell.key);
        Ok(())
    }

    /// Plan-cached selection: slice a memoized plan when it covers
    /// `k`, resume it when it is too short, compute and memoize on a
    /// cold prefix — single-flight, so concurrent queries for the same
    /// prefix do the work once. Every path returns exactly what the
    /// trait's default (a from-scratch greedy run under the read lock)
    /// would: slices and resumes are bit-identical by the
    /// [`SelectionPlan`] contract.
    fn select(&self, k: u32, num_sets: usize) -> NodeSelectionResult {
        let m = &self.registry.metrics;
        let mut cache = self.cell.plan_cache();
        let (base, _guard) = loop {
            if let Some(plan) = cache.plans.get(&num_sets) {
                if plan.covers(k) {
                    let plan = Arc::clone(plan);
                    drop(cache);
                    m.plan_hits.inc();
                    return plan.slice(k).expect("plan covers k");
                }
            }
            if !cache.inflight.contains(&num_sets) {
                // We lead: reserve the prefix and compute outside the
                // cache lock (the guard clears the reservation even if
                // the computation panics).
                cache.inflight.insert(num_sets);
                let base = cache.plans.get(&num_sets).map(Arc::clone);
                drop(cache);
                break (
                    base,
                    InflightGuard {
                        cell: &self.cell,
                        num_sets,
                    },
                );
            }
            // A leader is already computing this prefix: park, then
            // re-check the cache from the top.
            m.coalesced_waits.inc();
            cache = self
                .cell
                .plan_cv
                .wait(cache)
                .unwrap_or_else(|p| p.into_inner());
        };
        let plan = match self.build_plan(base.as_deref(), k, num_sets) {
            Some(plan) => plan,
            None => {
                // Chaos path: the resume was abandoned mid-flight.
                // Evict the cached plan and rebuild from scratch —
                // costlier, never wrong.
                let evicted = self.cell.plan_cache().plans.remove(&num_sets);
                if let Some(old) = evicted {
                    self.registry
                        .note_plan_resize(&self.cell, old.heap_bytes(), 0);
                }
                m.plan_misses.inc();
                self.read(|coll| SelectionPlan::compute(coll, k, num_sets))
            }
        };
        let answer = plan.slice(k).expect("freshly computed plan covers k");
        if plan.num_sets() != num_sets {
            // The arena was shorter than the requested prefix, so the
            // plan silently capped itself (never happens after a
            // normal `prepare`). The answer matches what from-scratch
            // selection would return right now, but memoizing it under
            // the requested key could serve the short prefix after the
            // arena grows — skip the cache.
            return answer;
        }
        let (old_bytes, new_bytes) = {
            let mut cache = self.cell.plan_cache();
            let old = cache.plans.insert(num_sets, Arc::new(plan));
            let new = cache.plans[&num_sets].heap_bytes();
            (old.map(|p| p.heap_bytes()).unwrap_or(0), new)
        };
        self.registry
            .note_plan_resize(&self.cell, old_bytes, new_bytes);
        answer
    }

    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R {
        let t0 = Instant::now();
        let coll = self
            .cell
            .lock
            .read()
            .expect("warm arena poisoned by an earlier panic");
        self.registry
            .metrics
            .lock_wait_us
            .record(t0.elapsed().as_micros() as u64);
        f(&coll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_graph() -> Graph {
        let mut b = uic_graph::GraphBuilder::new(24);
        for leaf in 1..24u32 {
            b.add_edge(0, leaf, 0.5);
        }
        b.build(uic_graph::Weighting::AsGiven, 0)
    }

    fn registry(budget: Option<usize>) -> (ArenaRegistry, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new());
        (ArenaRegistry::new(budget, Arc::clone(&metrics)), metrics)
    }

    #[test]
    fn checkout_reuses_one_cell_per_key() {
        let g = star_graph();
        let (reg, m) = registry(None);
        let a = reg.checkout(&g, DiffusionModel::IC, 7);
        let b = reg.checkout(&g, DiffusionModel::IC, 7);
        assert!(Arc::ptr_eq(&a.cell, &b.cell), "same key, same arena");
        let c = reg.checkout(&g, DiffusionModel::IC, 8);
        assert!(!Arc::ptr_eq(&a.cell, &c.cell), "different seed, new arena");
        assert_eq!(m.arenas_resident.get(), 2);
    }

    #[test]
    fn prepare_grows_indexes_and_accounts_bytes() {
        let g = star_graph();
        let (reg, m) = registry(None);
        let h = reg.checkout(&g, DiffusionModel::IC, 3);
        h.prepare(&g, 64).unwrap();
        assert_eq!(h.topup(), 64);
        assert!(h.read(|coll| coll.index_is_current()));
        assert_eq!(h.resident_sets(), 64);
        assert!(m.arena_bytes.get() > 0, "growth must be visible");
        // Re-preparing to a smaller target is a no-op.
        h.prepare(&g, 10).unwrap();
        assert_eq!(h.topup(), 64);
        assert!(m.lock_wait_us.count() >= 2, "lock waits are recorded");
    }

    #[test]
    fn budget_eviction_drops_lru_and_counts_rebuild() {
        let g = star_graph();
        // A budget every real arena exceeds: each top-up evicts all
        // arenas but the protected one.
        let (reg, m) = registry(Some(1));
        let a = reg.checkout(&g, DiffusionModel::IC, 1);
        a.prepare(&g, 32).unwrap();
        assert_eq!(m.evictions_total.get(), 0, "own arena is protected");
        let b = reg.checkout(&g, DiffusionModel::IC, 2);
        b.prepare(&g, 32).unwrap();
        assert_eq!(m.evictions_total.get(), 1, "LRU arena (seed 1) evicted");
        assert_eq!(m.arenas_resident.get(), 1);
        // The detached arena still answers its in-flight holder.
        assert_eq!(a.resident_sets(), 32);
        // Recreating the evicted key counts as a rebuild.
        let _a2 = reg.checkout(&g, DiffusionModel::IC, 1);
        assert_eq!(m.rebuilds_total.get(), 1);
    }

    #[test]
    fn growth_of_an_evicted_arena_stays_out_of_the_resident_gauge() {
        let g = star_graph();
        let (reg, m) = registry(Some(1));
        let a = reg.checkout(&g, DiffusionModel::IC, 1);
        a.prepare(&g, 32).unwrap();
        let b = reg.checkout(&g, DiffusionModel::IC, 2);
        b.prepare(&g, 32).unwrap();
        assert_eq!(
            m.evictions_total.get(),
            1,
            "seed 1 evicted under its holder"
        );
        // The holder keeps growing the detached arena and caching plans
        // on it; none of that is resident.
        a.prepare(&g, 64).unwrap();
        a.select(2, 64);
        let resident: usize = reg
            .cells()
            .iter()
            .map(|c| c.bytes.load(Ordering::Relaxed))
            .sum();
        assert_eq!(m.arena_bytes.get(), resident as u64);
    }

    #[test]
    fn poisoned_arena_is_evicted_and_rebuilt_on_checkout() {
        let g = star_graph();
        let (reg, m) = registry(None);
        let h = reg.checkout(&g, DiffusionModel::IC, 5);
        h.prepare(&g, 8).unwrap();
        let cell = Arc::clone(&h.cell);
        let _ = std::thread::spawn(move || {
            let _guard = cell.lock.write().unwrap();
            panic!("injected panic while holding the arena write lock");
        })
        .join();
        assert!(h.cell.lock.is_poisoned());
        let fresh = reg.checkout(&g, DiffusionModel::IC, 5);
        assert!(!Arc::ptr_eq(&fresh.cell, &h.cell), "rebuilt fresh");
        assert!(!fresh.cell.lock.is_poisoned());
        assert_eq!(m.evictions_total.get(), 1);
        assert_eq!(m.rebuilds_total.get(), 1);
        assert_eq!(m.arenas_resident.get(), 1);
    }

    #[test]
    fn install_warm_respects_resident_keys() {
        let g = star_graph();
        let (reg, m) = registry(None);
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 9);
        coll.extend_to(&g, 16);
        assert!(reg.install_warm(coll));
        assert_eq!(m.arenas_resident.get(), 1);
        assert_eq!(reg.sets_total(), 16);
        // A duplicate install is refused.
        let dup = RrCollection::new(&g, DiffusionModel::IC, 9);
        assert!(!reg.install_warm(dup));
        assert_eq!(m.arenas_resident.get(), 1);
        // The installed arena serves checkouts warm.
        let h = reg.checkout(&g, DiffusionModel::IC, 9);
        h.prepare(&g, 16).unwrap();
        assert_eq!(h.topup(), 0, "warm install means no regeneration");
    }

    #[test]
    fn concurrent_readers_share_one_arena() {
        let g = Arc::new(star_graph());
        let (reg, _m) = registry(None);
        let reg = Arc::new(reg);
        reg.checkout(&g, DiffusionModel::IC, 11)
            .prepare(&g, 128)
            .unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let h = reg.checkout(&g, DiffusionModel::IC, 11);
                    h.prepare(&g, 128).unwrap();
                    assert_eq!(h.topup(), 0, "warm prefix: no regeneration");
                    h.read(|coll| {
                        assert!(coll.index_is_current());
                        assert!(coll.len() >= 128);
                    });
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.sets_total(), 128);
    }

    #[test]
    fn plan_cache_hits_slices_and_resumes() {
        let g = star_graph();
        let (reg, m) = registry(None);
        let h = reg.checkout(&g, DiffusionModel::IC, 13);
        h.prepare(&g, 200).unwrap();
        let direct = |k: u32, sets: usize| {
            h.read(|coll| uic_im::node_selection_prefix_indexed(coll, k, sets))
        };
        // Cold prefix: a miss that memoizes.
        let first = h.select(4, 200);
        assert_eq!(first, direct(4, 200));
        assert_eq!((m.plan_hits.get(), m.plan_misses.get()), (0, 1));
        // Same prefix, smaller budget: a pure slice hit.
        assert_eq!(h.select(2, 200), direct(2, 200));
        assert_eq!(m.plan_hits.get(), 1);
        // Same prefix, larger budget: a resume, then sliced on repeat.
        assert_eq!(h.select(7, 200), direct(7, 200));
        assert_eq!(m.plan_resumes.get(), 1);
        assert_eq!(h.select(7, 200), direct(7, 200));
        assert_eq!(m.plan_hits.get(), 2);
        // A different prefix is its own plan key.
        assert_eq!(h.select(4, 100), direct(4, 100));
        assert_eq!(m.plan_misses.get(), 2);
        assert!(
            h.cell.plan_bytes.load(Ordering::Relaxed) > 0,
            "cached plans are byte-accounted"
        );
    }

    #[test]
    fn plan_bytes_count_against_the_arena_budget_and_die_with_the_cell() {
        let g = star_graph();
        let (reg, m) = registry(Some(1));
        let a = reg.checkout(&g, DiffusionModel::IC, 1);
        a.prepare(&g, 64).unwrap();
        a.select(3, 64);
        let total = a.cell.bytes.load(Ordering::Relaxed);
        let plans = a.cell.plan_bytes.load(Ordering::Relaxed);
        assert!(plans > 0 && total > plans, "bytes = arena + plans");
        assert_eq!(m.arena_bytes.get(), total as u64);
        // A second arena's top-up evicts the first, plans and all.
        let b = reg.checkout(&g, DiffusionModel::IC, 2);
        b.prepare(&g, 64).unwrap();
        assert_eq!(m.evictions_total.get(), 1);
        assert_eq!(m.arenas_resident.get(), 1);
        // The rebuilt arena starts with a cold plan cache: the next
        // select is a miss, never a stale hit.
        let a2 = reg.checkout(&g, DiffusionModel::IC, 1);
        a2.prepare(&g, 64).unwrap();
        let misses = m.plan_misses.get();
        assert_eq!(a2.select(3, 64), a.select(3, 64), "bit-identical rebuild");
        assert!(m.plan_misses.get() > misses, "no plan survived eviction");
    }

    #[test]
    fn concurrent_same_prefix_selects_coalesce_into_one_plan() {
        let g = Arc::new(star_graph());
        let (reg, m) = registry(None);
        let reg = Arc::new(reg);
        reg.checkout(&g, DiffusionModel::IC, 17)
            .prepare(&g, 256)
            .unwrap();
        // Computed via `read` + direct selection, which bypasses (and
        // does not populate) the plan cache — the prefix is still cold
        // when the racing threads start.
        let expect = {
            let h = reg.checkout(&g, DiffusionModel::IC, 17);
            h.read(|coll| uic_im::node_selection_prefix_indexed(coll, 5, 256))
        };
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let g = Arc::clone(&g);
                let expect = expect.clone();
                std::thread::spawn(move || {
                    let h = reg.checkout(&g, DiffusionModel::IC, 17);
                    h.prepare(&g, 256).unwrap();
                    assert_eq!(h.select(5, 256), expect);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            m.plan_misses.get() + m.plan_resumes.get(),
            1,
            "single-flight: the prefix was computed exactly once"
        );
        assert_eq!(m.plan_hits.get(), 7, "everyone else sliced the cache");
    }

    #[test]
    fn coalesced_topup_extends_once_to_the_max_demand() {
        let g = Arc::new(star_graph());
        let (reg, _m) = registry(None);
        let reg = Arc::new(reg);
        reg.checkout(&g, DiffusionModel::IC, 19)
            .prepare(&g, 8)
            .unwrap();
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let reg = Arc::clone(&reg);
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let h = reg.checkout(&g, DiffusionModel::IC, 19);
                    h.prepare(&g, 64 * (i + 1)).unwrap();
                    assert!(h.resident_sets() >= 64 * (i + 1) as u64);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let h = reg.checkout(&g, DiffusionModel::IC, 19);
        assert_eq!(h.resident_sets(), 384, "max coalesced demand served");
        // A warm repeat touches only the read lock and adds no top-up.
        h.prepare(&g, 384).unwrap();
        assert_eq!(h.topup(), 0);
    }

    #[test]
    fn model_key_roundtrips() {
        for model in [DiffusionModel::IC, DiffusionModel::LT] {
            assert_eq!(model_of_key(model_key(model)), Some(model));
        }
        assert_eq!(model_of_key(9), None);
    }
}
