//! Dataset snapshot cache: build a generated network once, load it in
//! milliseconds thereafter.
//!
//! Every experiment process historically regenerated its stand-in
//! networks from scratch — tens of seconds of generator time at the
//! larger scales. The cache keys each generated graph by a hash of the
//! full generation recipe `(generator spec, scale, seed, weighting)` and
//! stores it in the versioned binary snapshot format of
//! [`uic_graph::snapshot`]; any load failure (missing file, corrupt
//! bytes, older format version) silently falls back to regeneration and
//! rewrites the entry, so the cache can never change results — only skip
//! work. Writes go through a temp file plus atomic rename, so concurrent
//! processes racing on the same key at worst both build.
//!
//! The cache is **opt-in**: [`SnapshotCache::from_env`] activates it when
//! the `UIC_SNAPSHOT_CACHE` environment variable names a directory (the
//! hook `uic_experiments::common::network` uses), and callers can always
//! construct one at an explicit location.

use crate::networks::NamedNetwork;
use std::path::{Path, PathBuf};
use uic_graph::{load_snapshot, write_snapshot, Graph};

/// Environment variable that opts experiment runs into the cache; its
/// value is the cache directory.
pub const CACHE_ENV_VAR: &str = "UIC_SNAPSHOT_CACHE";

/// Bumped whenever a generator's output changes for the same inputs, so
/// stale entries from older code can never be mistaken for current ones
/// (the revision participates in every cache key).
pub const GENERATOR_REVISION: u32 = 1;

/// The full recipe a cached graph is keyed by.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheKey {
    /// Generator identity and parameters, e.g. `named/Orkut(scaled)` or
    /// `pa/n=1000000/epn=10`.
    pub spec: String,
    /// Scale factor of the generation.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Weighting-scheme token (`uic_graph::Weighting` implements
    /// `Display` with the canonical tokens).
    pub weighting: String,
}

impl CacheKey {
    /// A key for `spec` under the given scale/seed/weighting.
    pub fn new(
        spec: impl Into<String>,
        scale: f64,
        seed: u64,
        weighting: impl std::fmt::Display,
    ) -> CacheKey {
        CacheKey {
            spec: spec.into(),
            scale,
            seed,
            weighting: weighting.to_string(),
        }
    }

    /// The canonical string that is hashed into the file name. The
    /// scale enters at full bit precision — rounding it would let two
    /// nearly-equal scales collide onto one entry and serve the wrong
    /// graph.
    fn canonical(&self) -> String {
        format!(
            "{}|scale={:016x}|seed={}|w={}|gen={}",
            self.spec,
            self.scale.to_bits(),
            self.seed,
            self.weighting,
            GENERATOR_REVISION
        )
    }

    /// Cache file name: a sanitized spec prefix (for humans listing the
    /// directory) plus the FNV-1a hash of the canonical key (for
    /// uniqueness).
    pub fn file_name(&self) -> String {
        let prefix: String = self
            .spec
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(40)
            .collect();
        format!(
            "{prefix}-{:016x}.uicg",
            fnv1a64(self.canonical().as_bytes())
        )
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A directory of graph snapshots keyed by [`CacheKey`].
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    dir: PathBuf,
}

impl SnapshotCache {
    /// Opens (creating if needed) a cache at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotCache { dir })
    }

    /// The machine-default location,
    /// `<tmp>/uic-snapshot-cache` (used by benches and smoke tests).
    pub fn at_default_location() -> std::io::Result<SnapshotCache> {
        SnapshotCache::new(std::env::temp_dir().join("uic-snapshot-cache"))
    }

    /// The opt-in hook: a cache at `$UIC_SNAPSHOT_CACHE` when the
    /// variable is set and the directory is creatable, `None` otherwise
    /// (callers then build directly — runs stay hermetic by default).
    pub fn from_env() -> Option<SnapshotCache> {
        let dir = std::env::var_os(CACHE_ENV_VAR)?;
        if dir.is_empty() {
            return None;
        }
        SnapshotCache::new(PathBuf::from(dir)).ok()
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key` is (or would be) stored.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads the entry for `key`, or `None` when absent or unreadable
    /// (corrupt / truncated / foreign-version snapshots are treated as
    /// misses, never errors). An entry written in an older format
    /// version is such a miss: [`SnapshotCache::get_or_build`] rebuilds
    /// it and replaces it in the current format.
    pub fn load(&self, key: &CacheKey) -> Option<Graph> {
        load_snapshot(self.path_for(key)).ok()
    }

    /// Stores `g` under `key` via temp-file + atomic rename.
    ///
    /// The temp name carries the pid *and* a process-global counter:
    /// two threads of one process storing the same key concurrently
    /// (e.g. racing [`SnapshotCache::get_or_build`] misses on one key)
    /// each write their own file, so neither can rename a half-written
    /// snapshot into place.
    pub fn store(&self, key: &CacheKey, g: &Graph) -> std::io::Result<()> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let final_path = self.path_for(key);
        let tmp = self.dir.join(format!(
            ".{}.tmp-{}-{}",
            key.file_name(),
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::File::create(&tmp)?;
        if let Err(e) = write_snapshot(g, file) {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
        std::fs::rename(&tmp, final_path)
    }

    /// The cache's one workflow: return the graph for `key`, building
    /// and storing it on a miss. A failed store is non-fatal (the build
    /// result is still returned; the next process builds again).
    pub fn get_or_build(&self, key: &CacheKey, build: impl FnOnce() -> Graph) -> Graph {
        if let Some(g) = self.load(key) {
            return g;
        }
        let g = build();
        self.store(key, &g).ok();
        g
    }

    /// Cached counterpart of [`crate::named_network`]: identical output, loaded
    /// from a snapshot after the first call per `(which, scale, seed)`.
    pub fn named_network(&self, which: NamedNetwork, scale: f64, seed: u64) -> Graph {
        let key = CacheKey::new(format!("named/{}", which.name()), scale, seed, "wc");
        self.get_or_build(&key, || {
            crate::networks::build_named_network(which, scale, seed)
        })
    }

    /// Removes every cache entry (both finished and abandoned temp
    /// files). Other files in the directory are left alone.
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if name.ends_with(".uicg") || name.contains(".uicg.tmp-") {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_graph::GraphStats;

    fn scratch_cache(tag: &str) -> SnapshotCache {
        let dir = std::env::temp_dir().join(format!("uic-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SnapshotCache::new(dir).unwrap()
    }

    #[test]
    fn snapshot_cache_smoke_generate_load_compare_stats() {
        // The CI smoke path: generate → load → identical stats and graph.
        let cache = scratch_cache("smoke");
        let which = NamedNetwork::Flixster;
        let (scale, seed) = (0.02, 7);
        let built = cache.named_network(which, scale, seed);
        let direct = crate::networks::build_named_network(which, scale, seed);
        assert_eq!(built, direct, "cache must not change the graph");
        let loaded = cache.named_network(which, scale, seed);
        assert_eq!(loaded, direct);
        assert_eq!(
            GraphStats::compute(&loaded),
            GraphStats::compute(&direct),
            "stats of the cached load must match a fresh build"
        );
        assert!(
            cache
                .path_for(&CacheKey::new("named/Flixster", scale, seed, "wc"))
                .exists(),
            "entry file must exist after the first build"
        );
        cache.clear().unwrap();
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn keys_separate_by_every_recipe_field() {
        let base = CacheKey::new("named/X", 1.0, 7, "wc");
        for other in [
            CacheKey::new("named/Y", 1.0, 7, "wc"),
            CacheKey::new("named/X", 2.0, 7, "wc"),
            CacheKey::new("named/X", 1.0, 8, "wc"),
            CacheKey::new("named/X", 1.0, 7, "const:0.01"),
        ] {
            assert_ne!(base.file_name(), other.file_name(), "{other:?}");
        }
        assert_eq!(
            base.file_name(),
            CacheKey::new("named/X", 1.0, 7, "wc").file_name()
        );
        // Full-precision scale: nearly-equal scales must not collide.
        assert_ne!(
            CacheKey::new("named/X", 1e-7, 7, "wc").file_name(),
            CacheKey::new("named/X", 2e-7, 7, "wc").file_name()
        );
    }

    #[test]
    fn corrupt_entries_fall_back_to_rebuild() {
        let cache = scratch_cache("corrupt");
        let key = CacheKey::new("t/corrupt", 1.0, 3, "as-given");
        let g = uic_graph::Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let path = cache.path_for(&key);
        // A truncated entry, and one whose header claims the retired
        // format version 1: the next get_or_build must rebuild and
        // repair either rather than error.
        let corruptions: [fn(&mut Vec<u8>); 2] = [
            |bytes| bytes.truncate(bytes.len() / 2),
            |bytes| bytes[8..12].copy_from_slice(&1u32.to_le_bytes()),
        ];
        for corrupt in corruptions {
            cache.store(&key, &g).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            corrupt(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert!(cache.load(&key).is_none(), "corrupt entry must be a miss");
            let mut built = false;
            let rebuilt = cache.get_or_build(&key, || {
                built = true;
                g.clone()
            });
            assert!(built, "a miss must run the builder");
            assert_eq!(rebuilt, g);
            assert_eq!(cache.load(&key).as_ref(), Some(&g), "entry repaired");
            assert_eq!(
                std::fs::read(&path).unwrap()[8..12],
                2u32.to_le_bytes(),
                "entry rewritten in the current format"
            );
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn concurrent_misses_of_one_key_store_without_corruption() {
        // Regression: the temp-file name used to be keyed by pid alone,
        // so two threads of one process storing the same key wrote THE
        // SAME temp file and could rename a half-written snapshot into
        // place. Hammer get_or_build from four threads on a key that is
        // missing (even rounds) or holds an old-version entry (odd
        // rounds); every call must serve the exact graph, every load
        // after it must hit, and the round must leave a loadable entry
        // in the current format.
        let cache = scratch_cache("miss-race");
        let key = CacheKey::new("t/miss-race", 1.0, 3, "as-given");
        let g = uic_graph::Graph::from_edges(
            6,
            &[
                (0, 1, 0.5),
                (1, 2, 0.25),
                (2, 3, 0.75),
                (3, 4, 0.5),
                (4, 5, 0.5),
            ],
        );
        let path = cache.path_for(&key);
        for round in 0..16 {
            if round % 2 == 0 {
                std::fs::remove_file(&path).ok();
            } else {
                cache.store(&key, &g).unwrap();
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
            }
            // All four threads miss together, so their stores overlap.
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        start.wait();
                        let got = cache.get_or_build(&key, || g.clone());
                        assert_eq!(got, g, "round {round}");
                        // Once any store has landed, the entry stays
                        // whole: later stores only rename whole files
                        // over it.
                        for i in 0..20 {
                            let loaded = cache.load(&key);
                            assert_eq!(loaded.as_ref(), Some(&g), "round {round}, read {i}");
                        }
                    });
                }
            });
            assert_eq!(
                std::fs::read(&path).unwrap()[8..12],
                2u32.to_le_bytes(),
                "round {round}: entry must end in the current format"
            );
            assert_eq!(cache.load(&key).as_ref(), Some(&g), "round {round}");
        }
        // Abandoned temp files (if any) still match clear()'s pattern.
        cache.clear().unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn readers_racing_the_rewrite_always_see_a_whole_snapshot() {
        // Companion to the miss-race test above: here the readers never
        // write — they hammer `load` while one writer thread keeps
        // replacing the entry through `store`. Atomic rename means a
        // reader either opens the old file or the new one, so every load
        // must be a hit serving the exact graph — a miss or a different
        // graph would mean a reader observed a half-written entry.
        let cache = scratch_cache("reader-race");
        let key = CacheKey::new("t/reader-race", 1.0, 3, "as-given");
        let g = uic_graph::Graph::from_edges(
            5,
            &[(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.75), (3, 4, 0.5)],
        );
        cache.store(&key, &g).unwrap();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for _ in 0..40 {
                    cache.store(&key, &g).unwrap();
                    std::thread::yield_now();
                }
            });
            for _ in 0..3 {
                s.spawn(|| {
                    for i in 0..40 {
                        let loaded = cache.load(&key);
                        assert_eq!(loaded.as_ref(), Some(&g), "read {i} under rewrite churn");
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(cache.load(&key).as_ref(), Some(&g));
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn get_or_build_skips_the_builder_on_a_hit() {
        let cache = scratch_cache("hit");
        let key = CacheKey::new("t/hit", 1.0, 3, "wc");
        let g = {
            let mut b = uic_graph::GraphBuilder::new(4);
            b.add_arc(0, 1);
            b.add_arc(1, 2);
            b.build(uic_graph::Weighting::WeightedCascade, 0)
        };
        let first = cache.get_or_build(&key, || g.clone());
        assert_eq!(first, g);
        let second = cache.get_or_build(&key, || panic!("builder must not run on a hit"));
        assert_eq!(second, g);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn env_hook_requires_the_variable() {
        // The variable is unset in the test environment, so the hook
        // must decline (hermetic default).
        if std::env::var_os(CACHE_ENV_VAR).is_none() {
            assert!(SnapshotCache::from_env().is_none());
        }
    }
}
