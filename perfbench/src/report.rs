//! What a run prints: a human-readable summary, then one JSON line.
//!
//! The summary lists every metric the workload measured by name, with
//! its unit and sample count, plus the run's configuration and its
//! correctness verdict. The last line of standard output is the JSON
//! object the benchmark contract asks for: the gated end-to-end metrics
//! of `BENCHMARK.json` (untraced run) or its per-layer metrics (traced
//! run).

use hwm_jsonio::Json;
use std::fmt::Write as _;

/// The end-to-end metrics `BENCHMARK.json` gates, reported by every
/// workload (name, unit). What each means per workload is in `README.md`;
/// the summary also prints each workload's own end-to-end metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
];

/// The per-layer metrics `BENCHMARK.json` lists, reported by every traced
/// run (name, unit). A layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_req", "B"),
    ("transport.rtt_overhead_us", "us"),
    ("server.handle_us.register", "us"),
    ("server.handle_us.unlock", "us"),
    ("server.handle_us.status", "us"),
    ("server.handle_us.disable", "us"),
    ("throttle.check_ns", "ns"),
    ("throttle.rejected", "count"),
    ("journal.append_us", "us"),
    ("journal.commit_us", "us"),
    ("journal.events_per_flush", "count"),
    ("journal.bytes_per_event", "B"),
    ("registry.fresh_share", "ratio"),
    ("registry.duplicate_share", "ratio"),
    ("metering.added_build_ms", "ms"),
    ("metering.verify_ms", "ms"),
    ("metering.assemble_ms", "ms"),
    ("metering.safe_edges_ms", "ms"),
    ("metering.key_bfs_us", "us"),
    ("metering.key_len", "count"),
    ("metering.keys_valid_share", "ratio"),
    ("rub.fabricate_us", "us"),
    ("attacks.guesses", "count"),
    ("attacks.trapped_share", "ratio"),
    ("metrics.inc_ns", "ns"),
    ("metrics.observe_ns", "ns"),
    ("metrics.sample_us", "us"),
    ("metrics.series", "count"),
    ("router.handle_us", "us"),
    ("replication.sync_us", "us"),
    ("replication.lag_events_max", "count"),
    ("cluster.route_skew", "ratio"),
    ("cluster.oracle_divergent", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Configuration lines (key, value), printed with the run.
    pub config: Vec<(String, String)>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or differ from the oracle.
    pub failed: u64,
    /// Whether every check the workload makes passed (failures above are
    /// counted, never hidden; see `README.md` for what each workload
    /// treats as a known defect).
    pub correct: bool,
    /// Notes on the verdict (what was checked, what failed).
    pub verdict: Vec<String>,
    /// FNV-1a digest of the checked outputs: equal for equal seeds.
    pub digest: u64,
    /// Every metric measured, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report for `workload`.
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            correct: true,
            ..Report::default()
        }
    }

    /// Records a configuration line.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed share of attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {}", self.workload);
        for (k, v) in &self.config {
            let _ = writeln!(out, "  config  {k:<24} {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  metric  {:<28} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "  checks  attempted {} failed {} fail_ratio {:.6} digest {:#018x} verdict {}",
            self.attempted,
            self.failed,
            self.fail_ratio(),
            self.digest,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for v in &self.verdict {
            let _ = writeln!(out, "  check   {v}");
        }
        out
    }

    /// The contract's JSON line: `names` picked from the measured
    /// metrics (0 for a name this workload did not measure).
    pub fn json_line(&self, names: &[(&str, &'static str)]) -> String {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }
}
