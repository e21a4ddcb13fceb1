//! Runs every workload in `--smoke` mode (a small graph, about a second
//! each) through the real `uic-bench` and `uic-serve` binaries, untraced
//! and traced, and checks that each workload emits every metric
//! `BENCHMARK.json` names and passes its output checks.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use uic_bench_harness::json::Json;
use uic_bench_harness::report::{END_TO_END, PER_LAYER};
use uic_bench_harness::workloads::NAMES;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the harness sits one level below the repository root")
}

fn benchmark() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// Builds `uic-serve` into this test's own target directory: the cargo
/// running the test holds the lock on the main one.
fn serve_binary(tmp: &Path) -> PathBuf {
    let target = tmp.join("serve-build");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "uic-serve",
        ])
        .args(["--bin", "uic-serve", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building uic-serve failed");
    target.join("release").join("uic-serve")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_harness() {
    let bench = benchmark();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, NAMES);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(bench.get("end_to_end").unwrap()), pairs(&END_TO_END));
    assert_eq!(names(bench.get("per_layer").unwrap()), pairs(&PER_LAYER));
}

#[test]
fn every_workload_emits_its_metrics_and_passes_its_checks() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("uic-bench-smoke");
    let server = serve_binary(&tmp);
    let bench = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_uic-bench"))
            .args(["--smoke", "--seed", "3", "--trace", trace, "--server-bin"])
            .arg(&server)
            .arg("--cache-dir")
            .arg(tmp.join("cache"))
            .arg("--out-dir")
            .arg(tmp.join(format!("out-{trace}")))
            .output()
            .expect("run uic-bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "uic-bench --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let emitted: BTreeSet<(String, String)> = stdout
            .lines()
            .filter_map(|l| {
                let mut f = l.strip_prefix("METRIC ")?.split(' ');
                Some((f.next()?.to_string(), f.next()?.to_string()))
            })
            .collect();
        for workload in NAMES {
            for (metric, _) in names(bench.get(list).unwrap()) {
                assert!(
                    emitted.contains(&(workload.to_string(), metric.clone())),
                    "{workload} did not emit {metric} (--trace {trace})"
                );
            }
        }
        let last = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert!(last.num("attempted").unwrap() >= 1.0);
        assert_eq!(last.num("failed"), Some(0.0));
    }
}
