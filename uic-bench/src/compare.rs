//! `uic-bench compare PARENT CHANGE`: judges a change against its parent
//! from alternating runs of both.
//!
//! * A *claimed* metric (`--claim WORKLOAD:METRIC`) counts as a gain only
//!   when the change wins at least nine tenths of at least ten pairs
//!   (ties count for neither side) and the medians differ by more than
//!   the parent's own interquartile distance.
//! * Every other pairing of end-to-end metric and workload must not be
//!   worse at the median by more than the metric's bound in
//!   `BENCHMARK.json`; where the parent's spread exceeds the bound it is
//!   `unresolved`, unless every change run beats every parent run.
//!
//! Run records are the one-line JSON objects `uic-bench` writes to its
//! output directory; a file may hold a JSON array of them or one per
//! line, in the order the runs were made.

use crate::json::Json;
use crate::stats::{median, quartiles};

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Its name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening of the median, as a share of the parent's.
    pub bound: f64,
}

impl MetricDef {
    /// Whether `x` is strictly better than `y`.
    fn better(&self, x: f64, y: f64) -> bool {
        if self.higher_is_better {
            x > y
        } else {
            x < y
        }
    }
}

/// The `end_to_end` metrics of a parsed `BENCHMARK.json`.
pub fn end_to_end_defs(bench: &Json) -> Result<Vec<MetricDef>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.num("bound").ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Reads run records from a JSON array or a JSON-lines file.
pub fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if let Ok(Json::Arr(runs)) = Json::parse(&text) {
        return Ok(runs);
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// One compared pairing.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: String,
    /// The metric's bound.
    pub bound: f64,
    /// Parent and change values, in run order.
    pub parent: Vec<f64>,
    /// See `parent`.
    pub change: Vec<f64>,
    /// Pairs (parent run `i`, change run `i`) the change won.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// How one pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A claimed metric that met the gain rule.
    Gain,
    /// A claimed metric that did not.
    ClaimNotMet,
    /// Within its bound.
    Ok,
    /// Every change run beat every parent run.
    Better,
    /// Worse than its bound allows.
    Regression,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// Fewer than two runs on a side.
    TooFewRuns,
}

impl Verdict {
    /// Whether this verdict rejects the change.
    pub fn rejects(self) -> bool {
        matches!(self, Verdict::ClaimNotMet | Verdict::Regression)
    }
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) != Some(true))
        .filter_map(|r| r.get("metrics")?.get(metric)?.num("value"))
        .collect()
}

/// Compares every (workload, end-to-end metric) pairing present on both
/// sides; `claims` lists the `(workload, metric)` pairs the change
/// claims to improve.
pub fn compare(
    defs: &[MetricDef],
    parent: &[Json],
    change: &[Json],
    claims: &[(String, String)],
) -> Vec<Row> {
    let mut workloads: Vec<String> = Vec::new();
    for r in parent {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !workloads.iter().any(|x| x == w) {
                workloads.push(w.to_string());
            }
        }
    }
    let mut rows = Vec::new();
    for w in &workloads {
        for def in defs {
            let a = values(parent, w, &def.name);
            let b = values(change, w, &def.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let claimed = claims.iter().any(|(cw, cm)| cw == w && *cm == def.name);
            let wins = a
                .iter()
                .zip(&b)
                .filter(|(x, y)| def.better(**y, **x))
                .count();
            let verdict = judge(def, &a, &b, wins, claimed);
            rows.push(Row {
                workload: w.clone(),
                metric: def.name.clone(),
                bound: def.bound,
                parent: a,
                change: b,
                wins,
                verdict,
            });
        }
    }
    rows
}

fn judge(def: &MetricDef, a: &[f64], b: &[f64], wins: usize, claimed: bool) -> Verdict {
    let (Some([a1, _, a3]), Some(_)) = (quartiles(a), quartiles(b)) else {
        return Verdict::TooFewRuns;
    };
    let better = |x: f64, y: f64| def.better(x, y);
    let (ma, mb) = (median(a), median(b));
    if claimed {
        let pairs = a.len().min(b.len());
        let gain =
            pairs >= 10 && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > a3 - a1;
        return if gain {
            Verdict::Gain
        } else {
            Verdict::ClaimNotMet
        };
    }
    let every_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if (a3 - a1) / ma.abs() > def.bound {
        return if every_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if def.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse > def.bound {
        Verdict::Regression
    } else if every_better {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// The comparison as a table, one row per workload and metric.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>28} {:>28} {:>8} {:>6} {:>6}  verdict\n",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "bound",
        "wins"
    );
    let cell = |v: &[f64]| match quartiles(v) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4} (n={})", median(v), v.len()),
    };
    for r in rows {
        let (ma, mb) = (median(&r.parent), median(&r.change));
        let pairs = r.parent.len().min(r.change.len());
        out.push_str(&format!(
            "{:<14} {:<12} {:>28} {:>28} {:>+7.2}% {:>5.1}% {:>6}  {:?}\n",
            r.workload,
            r.metric,
            cell(&r.parent),
            cell(&r.change),
            100.0 * (mb - ma) / ma.abs(),
            100.0 * r.bound,
            format!("{}/{pairs}", r.wins),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    fn verdict(def: &MetricDef, a: &[f64], b: &[f64], claimed: bool) -> Verdict {
        let wins = a
            .iter()
            .zip(b)
            .filter(|(x, y)| def.better(**y, **x))
            .count();
        judge(def, a, b, wins, claimed)
    }

    #[test]
    fn a_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x - 20.0).collect();
        assert_eq!(verdict(&def(false), &parent, &faster, true), Verdict::Gain);
        let barely: Vec<f64> = parent.iter().map(|x| x - 1.0).collect();
        assert_eq!(
            verdict(&def(false), &parent, &barely, true),
            Verdict::ClaimNotMet
        );
        assert_eq!(
            verdict(&def(false), &parent[..5], &faster[..5], true),
            Verdict::ClaimNotMet
        );
    }

    #[test]
    fn unclaimed_metrics_are_held_to_their_bound() {
        let parent = vec![100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&def(false), &parent, &[105.0, 104.0, 106.0], false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&def(false), &parent, &[120.0, 121.0, 119.0], false),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&def(true), &parent, &[80.0, 81.0, 79.0], false),
            Verdict::Regression
        );
        let noisy = vec![50.0, 100.0, 150.0, 200.0];
        assert_eq!(
            verdict(&def(false), &noisy, &[120.0, 130.0], false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&def(false), &noisy, &[10.0, 20.0], false),
            Verdict::Better
        );
    }

    #[test]
    fn records_group_by_workload_and_skip_traced_runs() {
        let rec = |w: &str, trace: bool, v: f64| {
            Json::parse(&format!(
                r#"{{"workload":"{w}","trace":{trace},"metrics":{{"m":{{"value":{v},"unit":"ms"}}}}}}"#
            ))
            .unwrap()
        };
        let parent = vec![
            rec("a", false, 1.0),
            rec("a", false, 1.0),
            rec("a", true, 9.0),
        ];
        let change = vec![rec("a", false, 1.0), rec("a", false, 1.0)];
        let rows = compare(&[def(false)], &parent, &change, &[]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].parent, vec![1.0, 1.0]);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }
}
