//! The `uic-bench` command line.
//!
//! ```text
//! uic-bench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--server-bin PATH] [--cache-dir DIR] [--out-dir DIR]
//! uic-bench compare PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
//!                 [--claim WORKLOAD:METRIC]...
//! ```
//!
//! `run` without `--workload` runs every workload in turn. Each run
//! prints `METRIC <workload> <name> <value> <unit>` lines, writes its
//! record to the output directory, and ends standard output with one
//! JSON object `{"correct","attempted","failed","metrics"}`. The exit
//! code is 0 when every output check passed, 1 when one failed, and 2
//! when the run could not be carried out.

use std::path::PathBuf;
use std::process::ExitCode;
use uic_bench_harness::compare::{compare, end_to_end_defs, load_runs, render};
use uic_bench_harness::json::Json;
use uic_bench_harness::report::RunReport;
use uic_bench_harness::workloads::{self, Env, DEFAULT_SECONDS, NAMES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => cmd_run(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("uic-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--flag`s (`bare` names the latter).
fn parse_flags(args: &[String], bare: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = if bare.contains(&name) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone()
        };
        out.push((name.to_string(), value));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["smoke"])?;
    const KNOWN: [&str; 8] = [
        "workload",
        "seed",
        "seconds",
        "trace",
        "smoke",
        "server-bin",
        "cache-dir",
        "out-dir",
    ];
    if let Some((bad, _)) = flags.iter().find(|(n, _)| !KNOWN.contains(&n.as_str())) {
        return Err(format!("unknown flag --{bad}"));
    }
    let smoke = flag(&flags, "smoke").is_some();
    let parse = |name: &str, default: f64| -> Result<f64, String> {
        flag(&flags, name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("--{name} {v}: not a number"))
        })
    };
    let seed = flag(&flags, "seed").map_or(Ok(1), |v| {
        v.parse::<u64>()
            .map_err(|_| format!("--seed {v}: not an unsigned integer"))
    })?;
    let seconds = parse("seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: outside (0, 600]"));
    }
    let trace = match flag(&flags, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe_dir = exe.parent().ok_or("executable has no parent directory")?;
    let build_dir = exe_dir.parent().unwrap_or(exe_dir);
    let path = |name: &str, default: PathBuf| flag(&flags, name).map_or(default, PathBuf::from);
    let env = Env {
        server_bin: path("server-bin", exe_dir.join("uic-serve")),
        cache_dir: path("cache-dir", build_dir.join("uic-bench-cache")),
        out_dir: path("out-dir", build_dir.join("uic-bench-out")),
        seed,
        seconds,
        trace,
        smoke,
    };
    if !env.server_bin.is_file() {
        return Err(format!(
            "no uic-serve binary at {} (build it with `cargo build --release -p uic-serve`, \
             or pass --server-bin)",
            env.server_bin.display()
        ));
    }
    for dir in [&env.cache_dir, &env.out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }

    let names: Vec<&str> = match flag(&flags, "workload") {
        Some(w) if NAMES.contains(&w) => vec![w],
        Some(w) => {
            return Err(format!(
                "unknown workload `{w}` (one of: {})",
                NAMES.join(", ")
            ))
        }
        None => NAMES.to_vec(),
    };
    let mut reports = Vec::new();
    for name in &names {
        eprintln!(
            "uic-bench: {name} seed {seed}, {seconds} s{}",
            if trace { ", traced" } else { "" }
        );
        let report = workloads::run(name, &env)?;
        for line in report.metric_lines() {
            println!("{line}");
        }
        for p in &report.problems {
            eprintln!("uic-bench: {name}: CHECK FAILED: {p}");
        }
        if trace {
            if let Some(m) = report
                .metrics
                .iter()
                .find(|m| m.name == "trace.overhead_us")
            {
                eprintln!("uic-bench: {name}: tracing overhead {:.1} us per request (median of traced - untraced)", m.value);
            }
        }
        let record = env.out_dir.join(format!(
            "result-{name}-s{seed}{}.json",
            if trace { "-trace" } else { "" }
        ));
        std::fs::write(&record, report.to_json() + "\n")
            .map_err(|e| format!("write {}: {e}", record.display()))?;
        reports.push(report);
    }

    let correct = reports.iter().all(RunReport::correct);
    if let [only] = reports.as_slice() {
        println!("{}", only.result_line());
    } else {
        let combined = RunReport {
            attempted: reports.iter().map(|r| r.attempted).sum(),
            failed: reports.iter().map(|r| r.failed).sum(),
            problems: reports.iter().flat_map(|r| r.problems.clone()).collect(),
            metrics: reports
                .iter()
                .flat_map(|r| {
                    r.metrics
                        .iter()
                        .map(move |m| uic_bench_harness::report::Metric {
                            name: format!("{}/{}", r.workload, m.name),
                            ..m.clone()
                        })
                })
                .collect(),
            ..RunReport::default()
        };
        println!("{}", combined.result_line());
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (files, rest): (Vec<&String>, Vec<&String>) = {
        let split = args
            .iter()
            .position(|a| a.starts_with("--"))
            .unwrap_or(args.len());
        (
            args[..split].iter().collect(),
            args[split..].iter().collect(),
        )
    };
    let [parent, change] = files.as_slice() else {
        return Err("usage: uic-bench compare PARENT.json CHANGE.json [--benchmark PATH] [--claim WORKLOAD:METRIC]...".into());
    };
    let rest: Vec<String> = rest.into_iter().cloned().collect();
    let flags = parse_flags(&rest, &[])?;
    let bench_path = flag(&flags, "benchmark").unwrap_or("BENCHMARK.json");
    let bench = Json::parse(
        &std::fs::read_to_string(bench_path).map_err(|e| format!("read {bench_path}: {e}"))?,
    )?;
    let defs = end_to_end_defs(&bench)?;
    let mut claims = Vec::new();
    for (name, value) in &flags {
        match name.as_str() {
            "benchmark" => {}
            "claim" => {
                let (w, m) = value
                    .split_once(':')
                    .ok_or_else(|| format!("--claim {value}: expected WORKLOAD:METRIC"))?;
                claims.push((w.to_string(), m.to_string()));
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let rows = compare(&defs, &load_runs(parent)?, &load_runs(change)?, &claims);
    if rows.is_empty() {
        return Err("no workload and metric appear in both files".into());
    }
    print!("{}", render(&rows));
    Ok(if rows.iter().any(|r| r.verdict.rejects()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
