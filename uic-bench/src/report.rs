//! One run's results: the `METRIC` lines, the JSON record written to
//! the output directory, and the one-line result object that ends
//! standard output.

use uic_util::JsonWriter;

/// The end-to-end metrics every untraced run reports, with their units
/// (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units
/// (the `per_layer` list of `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str); 16] = [
    ("graph.load_ms", "ms"),
    ("parse.ms", "ms"),
    ("rrset.topup_ms", "ms"),
    ("rrset.sets", "count"),
    ("rrset.sets_per_s", "1/s"),
    ("select.ms", "ms"),
    ("select.calls", "count"),
    ("estimate.ms", "ms"),
    ("score.ms", "ms"),
    ("json.ms", "ms"),
    ("unattributed.ms", "ms"),
    ("traced.ms", "ms"),
    ("trace.overhead_us", "us"),
    ("plan.hit_ratio", "ratio"),
    ("shard.evictions", "count"),
    ("shard.topup_sets", "count"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric name.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// The unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The workload name.
    pub workload: String,
    /// The run seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed, were refused, or answered wrong.
    pub failed: u64,
    /// Failed output checks (empty = correct).
    pub problems: Vec<String>,
    /// The gated metrics: [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Further measurements, printed and recorded but not gated.
    pub extra: Vec<Metric>,
}

impl RunReport {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Appends a gated metric, taking its unit from the contract list.
    pub fn gated(&mut self, name: &str, value: f64) {
        let list: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let unit = list
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a gated metric of this mode"))
            .1;
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Appends an ungated measurement.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push(Metric::new(name, value, unit));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// `METRIC <workload> <name> <value> <unit>` for every measurement.
    pub fn metric_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .map(|m| format!("METRIC {} {} {} {}", self.workload, m.name, m.value, m.unit))
            .collect()
    }

    /// The full record, as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.string(&self.workload);
        w.key("seed");
        w.u64(self.seed);
        w.key("trace");
        w.bool(self.trace);
        self.write_outcome(&mut w);
        w.key("extra");
        metrics_object(&mut w, &self.extra);
        w.key("problems");
        w.begin_array();
        for p in &self.problems {
            w.string(p);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The result object the benchmark prints last:
    /// `{"correct","attempted","failed","metrics"}`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_outcome(&mut w);
        w.end_object();
        w.finish()
    }

    fn write_outcome(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.bool(self.correct());
        w.key("attempted");
        w.u64(self.attempted);
        w.key("failed");
        w.u64(self.failed);
        w.key("metrics");
        metrics_object(w, &self.metrics);
    }
}

fn metrics_object(w: &mut JsonWriter, metrics: &[Metric]) {
    w.begin_object();
    for m in metrics {
        w.key(&m.name);
        w.begin_object();
        w.key("value");
        w.f64(m.value);
        w.key("unit");
        w.string(&m.unit);
        w.end_object();
    }
    w.end_object();
}
