//! The four workloads: what each runs, and the inputs its seed makes.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `offline-orkut` | RR generation, index merge, CELF, PRIMA, MC scoring on the largest graph | all of `uic-serve` |
//! | `serve-warm` | frame → parse → admission → plan slice → JSON (repeat queries) | RR generation, scoring |
//! | `serve-churn` | top-up under the write lock, plan misses, LRU eviction and rebuild beside plan-hit reads | — |
//! | `serve-scored` | Monte-Carlo welfare scoring inside served requests | RR generation |
//!
//! The run seed generates every solver seed and the request mix; the
//! graphs are fixed inputs (generator seed [`GEN_SEED`]) and the server
//! only ever sees spec text.

use crate::loadgen::{Mix, Spec};
use crate::report::RunReport;
use crate::server::ServerProc;
use std::path::{Path, PathBuf};
use uic_datasets::{CacheKey, NamedNetwork, SnapshotCache};
use uic_graph::Graph;
use uic_util::{split_seed, UicRng};

/// The workloads, in the order a full run executes them (the in-process
/// workload first, so its peak-memory reading is its own).
pub const NAMES: [&str; 4] = ["offline-orkut", "serve-warm", "serve-churn", "serve-scored"];

/// Generator seed of every stand-in graph (an input, not a run knob).
pub const GEN_SEED: u64 = 42;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Load connections (and generator threads): one per core of the
/// 2-core reference host, matching `--workers 2`.
pub const CONNS: usize = 2;

/// Where and how one run executes.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `uic-serve` binary.
    pub server_bin: PathBuf,
    /// The graph snapshot cache.
    pub cache_dir: PathBuf,
    /// Where result records and traces are written.
    pub out_dir: PathBuf,
    /// The run seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Every workload on a small graph, for the test suite.
    pub smoke: bool,
}

impl Env {
    /// Set-ups this run performs.
    pub fn setups(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// A seed for item `i` of stream `stream`, kept short for spec text.
    pub fn seed_of(&self, stream: u64, i: u64) -> u64 {
        split_seed(split_seed(self.seed, stream), i) % 1_000_000_000
    }

    /// An empty report for `workload`.
    pub fn report(&self, workload: &str) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            seed: self.seed,
            trace: self.trace,
            ..RunReport::default()
        }
    }
}

/// A stand-in network at a scale.
#[derive(Debug, Clone, Copy)]
pub struct Net {
    /// Which stand-in.
    pub which: NamedNetwork,
    /// Its `uic-serve --network` name.
    pub arg: &'static str,
    /// Node-count multiplier.
    pub scale: f64,
}

/// The small graph every smoke workload runs on.
pub const SMOKE_NET: Net = Net {
    which: NamedNetwork::Flixster,
    arg: "flixster",
    scale: 0.2,
};

impl Net {
    /// The `uic-serve serve` flags that load this graph.
    pub fn server_args(&self) -> Vec<String> {
        vec![
            "--network".into(),
            self.arg.into(),
            "--scale".into(),
            self.scale.to_string(),
            "--gen-seed".into(),
            GEN_SEED.to_string(),
        ]
    }

    fn cache_path(&self, cache: &SnapshotCache) -> PathBuf {
        let key = CacheKey::new(
            format!("named/{}", self.which.name()),
            self.scale,
            GEN_SEED,
            "wc",
        );
        cache.path_for(&key)
    }
}

fn cache(dir: &Path) -> Result<SnapshotCache, String> {
    SnapshotCache::new(dir).map_err(|e| format!("snapshot cache {}: {e}", dir.display()))
}

/// Builds `net`'s snapshot if the cache lacks it — untimed, and in a
/// `uic-serve` child so that neither the build's time nor its memory
/// lands in any measurement.
pub fn prepare_snapshot(env: &Env, net: Net) -> Result<(), String> {
    if net.cache_path(&cache(&env.cache_dir)?).exists() {
        return Ok(());
    }
    eprintln!(
        "uic-bench: building the {} snapshot at scale {} (once per cache, untimed)",
        net.which.name(),
        net.scale
    );
    let mut args = net.server_args();
    args.extend(["--workers".to_string(), "1".to_string()]);
    ServerProc::spawn(&env.server_bin, &args, &env.cache_dir, None)?.shutdown()?;
    Ok(())
}

/// Loads `net` from the snapshot cache (after [`prepare_snapshot`]).
pub fn load_graph(env: &Env, net: Net) -> Result<Graph, String> {
    Ok(cache(&env.cache_dir)?.named_network(net.which, net.scale, GEN_SEED))
}

/// A `warm-grd` request line.
pub fn warm_spec(budgets: [u32; 2], seed: u64, sims: u32, write: bool) -> Spec {
    Spec {
        text: format!(
            "warm-grd budgets={},{} seed={seed} sims={sims}",
            budgets[0], budgets[1]
        ),
        budgets: budgets.to_vec(),
        write,
    }
}

/// A serve workload.
pub struct ServeCfg {
    /// The graph the server loads.
    pub net: Net,
    /// `--arena-budget-mb`, if the workload caps arena memory.
    pub arena_budget_mb: Option<usize>,
    /// Every distinct request.
    pub specs: Vec<Spec>,
    /// `specs[..warm]` are answered once during set-up.
    pub warm: usize,
    /// Draws the spec of each request.
    pub mix: Mix,
    /// Open-loop arrival rate (requests per second, fixed intervals).
    pub open_rate: f64,
    /// Share of the run's seconds spent open-loop; the rest is closed
    /// loop (untraced runs only), the two taking turns in slices.
    pub open_share: f64,
    /// Repeat queries must neither top up nor miss the plan cache.
    pub expect_warm: bool,
    /// The arena budget must force evictions.
    pub expect_evictions: bool,
}

/// `0..n` in an order the seed shuffles.
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = UicRng::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
    order
}

/// A Zipf(1) draw over `n` items whose popularity order the seed shuffles.
fn zipf(n: usize, seed: u64) -> Mix {
    let rank = shuffled(n, seed);
    let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for c in &mut cdf {
        acc += *c / total;
        *c = acc;
    }
    Box::new(move |_, rng: &mut UicRng| {
        let u = rng.next_f64();
        rank[cdf.partition_point(|&c| c < u).min(n - 1)]
    })
}

/// The three serve workloads.
pub fn serve_cfg(name: &str, env: &Env) -> Option<ServeCfg> {
    let pick = |full: Net| if env.smoke { SMOKE_NET } else { full };
    match name {
        "serve-warm" => {
            const ARENAS: u32 = 4;
            const SHAPES: [[u32; 2]; 3] = [[50, 25], [30, 30], [100, 50]];
            let mut specs = Vec::new();
            for a in 0..ARENAS {
                let seed = env.seed_of(1, a.into());
                for b in SHAPES {
                    specs.push(warm_spec(b, seed, 0, false));
                }
            }
            // A {100,50} answer costs twice a {30,30} one, so a Zipf
            // draw over all twelve specs would let the seed decide the
            // p50 by which shape it ranked first. Popularity is Zipf
            // over the arenas instead, and the shapes take turns.
            let arena = zipf(ARENAS as usize, env.seed_of(2, 0));
            let shapes = SHAPES.len() as u32;
            Some(ServeCfg {
                net: pick(Net {
                    which: NamedNetwork::Orkut,
                    arg: "orkut",
                    scale: 1.0,
                }),
                arena_budget_mb: None,
                warm: specs.len(),
                mix: Box::new(move |i, rng: &mut UicRng| {
                    arena(i, rng) * shapes + (i % u64::from(shapes)) as u32
                }),
                specs,
                open_rate: if env.smoke { 500.0 } else { 8000.0 },
                open_share: 0.6,
                expect_warm: true,
                expect_evictions: false,
            })
        }
        "serve-churn" => {
            let mut specs = Vec::new();
            for h in 0..2 {
                let seed = env.seed_of(1, h);
                for b in [[20, 10], [40, 20]] {
                    specs.push(warm_spec(b, seed, 0, false));
                }
            }
            let hot = specs.len() as u32;
            for c in 0..8 {
                let seed = env.seed_of(3, c);
                for k in [10, 20, 30, 40, 60, 80] {
                    specs.push(warm_spec([k, k / 2], seed, 0, true));
                }
            }
            // Every fifth request is a write, taken in a seeded order
            // that cycles through all of them, so each run carries the
            // same write work; reads pick a hot spec at random.
            let writes = shuffled(specs.len() - hot as usize, env.seed_of(2, 0));
            Some(ServeCfg {
                net: pick(Net {
                    which: NamedNetwork::DoubanBook,
                    arg: "douban-book",
                    scale: 1.0,
                }),
                arena_budget_mb: Some(if env.smoke { 1 } else { 24 }),
                warm: hot as usize,
                mix: Box::new(move |i, rng: &mut UicRng| {
                    if i % 5 == 4 {
                        hot + writes[(i / 5) as usize % writes.len()]
                    } else {
                        rng.next_below(hot)
                    }
                }),
                specs,
                open_rate: if env.smoke { 20.0 } else { 30.0 },
                open_share: 0.75,
                expect_warm: false,
                expect_evictions: true,
            })
        }
        "serve-scored" => {
            let mut specs = Vec::new();
            for s in 0..16 {
                let seed = env.seed_of(1, s);
                for b in [[20, 10], [10, 10]] {
                    specs.push(warm_spec(b, seed, 64, false));
                }
            }
            // Scoring cost differs from spec to spec by up to twofold, so
            // requests cycle through every spec in a seeded order: each
            // spec is asked equally often, and a run's median does not
            // hinge on how often random draws picked the costly ones.
            let order = shuffled(specs.len(), env.seed_of(2, 0));
            Some(ServeCfg {
                net: pick(Net {
                    which: NamedNetwork::Flixster,
                    arg: "flixster",
                    scale: 1.0,
                }),
                arena_budget_mb: None,
                warm: specs.len(),
                mix: Box::new(move |i, _: &mut UicRng| order[i as usize % order.len()]),
                specs,
                open_rate: if env.smoke { 20.0 } else { 25.0 },
                open_share: 0.7,
                expect_warm: false,
                expect_evictions: false,
            })
        }
        _ => None,
    }
}

/// Runs workload `name` once.
pub fn run(name: &str, env: &Env) -> Result<RunReport, String> {
    if name == "offline-orkut" {
        return crate::offline::run(env);
    }
    let cfg = serve_cfg(name, env)
        .ok_or_else(|| format!("unknown workload `{name}` (one of: {})", NAMES.join(", ")))?;
    crate::serving::run(name, &cfg, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seed: u64) -> Env {
        Env {
            server_bin: PathBuf::new(),
            cache_dir: PathBuf::new(),
            out_dir: PathBuf::new(),
            seed,
            seconds: 1.0,
            trace: false,
            smoke: false,
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in &NAMES[1..] {
            let a = serve_cfg(name, &env(1)).unwrap();
            let b = serve_cfg(name, &env(1)).unwrap();
            let c = serve_cfg(name, &env(2)).unwrap();
            let texts =
                |cfg: &ServeCfg| cfg.specs.iter().map(|s| s.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b));
            assert_ne!(texts(&a), texts(&c));
            let (mut ra, mut rb) = (UicRng::new(5), UicRng::new(5));
            let da: Vec<u32> = (0..50).map(|i| (a.mix)(i, &mut ra)).collect();
            let db: Vec<u32> = (0..50).map(|i| (b.mix)(i, &mut rb)).collect();
            assert_eq!(da, db);
            assert!(da.iter().all(|&i| (i as usize) < a.specs.len()));
        }
    }

    #[test]
    fn zipf_favours_its_top_rank() {
        let mix = zipf(12, 3);
        let mut rng = UicRng::new(9);
        let mut counts = [0u32; 12];
        for _ in 0..12_000 {
            counts[mix(0, &mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 3000, "rank 1 takes ~32% of draws: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }
}
