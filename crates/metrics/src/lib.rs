//! Live serving metrics for the metering stack.
//!
//! `hwm-trace` answers *post-hoc* questions: run a binary with
//! `--profile`, read the per-phase breakdown afterwards. A running
//! activation service needs the *live* counterpart — unlock rates,
//! lockout storms and duplicate-readout (clone) evidence visible while
//! the server is up, without killing it to read the journal. This crate
//! provides that substrate:
//!
//! * [`MetricsRegistry`] — a lock-sharded store of monotonic counters,
//!   gauges and fixed-bucket histograms. Series are keyed by
//!   `(name, label set)` and hashed onto shards, so concurrent writers
//!   rarely contend on the same mutex. A write to a series that already
//!   exists finds it by comparing the borrowed labels and allocates
//!   nothing; a [`Snapshot`] locks the shards in index order and merges
//!   them into one sorted view, the same "merge per-worker state in a
//!   fixed order" move `hwm-trace` uses to make span trees
//!   `--jobs`-invariant.
//! * [`Snapshot`] — the deterministic read side: families sorted by name,
//!   series sorted by label set, rendered as Prometheus-style text
//!   ([`Snapshot::to_prometheus`]) or strict JSON for the wire.
//! * [`audit`] — the append-only alert stream (`audit.jsonl`, schema v1):
//!   one JSON line per security-relevant event (clone evidence, lockouts,
//!   remote disables), with the same strict parse-or-reject contract as
//!   the registry journal.
//! * [`latency`] — nearest-rank percentile summaries, shared by the
//!   serving benchmarks and the live registry so both agree on quantile
//!   semantics.
//! * [`timeseries`] — a fixed-capacity ring-buffer history of the
//!   det-class series, sampled on the logical tick clock, with windowed
//!   derivations (rate per 1k ticks, sliding max, per-mille EWMA).
//! * [`alert`] — declarative threshold / burn-rate / absence rules with
//!   hysteresis, evaluated over the sampled history; firings are pure
//!   functions of the accepted request sequence.
//!
//! **Determinism contract.** Metric *values* split in two classes, the
//! counter/gauge split of `hwm-trace` generalized:
//!
//! * [`MetricClass::Det`] — pure functions of the accepted request
//!   sequence (outcome counters, registry state gauges, logical-clock
//!   readings). For a deterministic workload these are byte-identical in
//!   the exposition for any `--jobs` value.
//! * [`MetricClass::Timing`] — wall-clock quantities (handler latency
//!   histograms, journal fsync timings). Real and useful, but
//!   scheduling-dependent; [`Snapshot::deterministic`] filters them out,
//!   and that filtered view is what the determinism tests and
//!   `hwm_monitor --json` pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod audit;
pub mod latency;
mod snapshot;
pub mod timeseries;

pub use alert::{
    AlertEngine, AlertError, AlertRule, AlertRuleSet, AlertState, AlertTransition, RuleKind,
    RuleStatus, SeriesSelector, WindowStat, ALERT_FIRE_KIND, ALERT_RESOLVE_KIND,
    RULES_SCHEMA_VERSION,
};
pub use audit::{AuditError, AuditEvent, AuditLog, AuditValue, AUDIT_SCHEMA_VERSION};
pub use latency::{percentile, LatencySummary};
pub use snapshot::{Family, HistogramSnapshot, Series, SeriesValue, Snapshot, SnapshotError};
pub use timeseries::{
    DumpSeries, History, HistoryConfig, HistoryDump, Sample, SeriesHistory, WindowStats,
    HISTORY_SCHEMA_VERSION,
};

use hwm_jsonio::{fnv1a, FNV_BASIS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the snapshot JSON schema ([`Snapshot::to_json`]) and of the
/// text exposition's `# SCHEMA` header. Bump on incompatible change.
pub const SCHEMA_VERSION: u64 = 1;

/// Whether a metric's value is part of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// A pure function of the accepted request sequence: byte-identical
    /// across `--jobs` values for a deterministic workload.
    Det,
    /// Wall-clock / scheduling-dependent; excluded from determinism
    /// checks (and from `hwm_monitor --json` unless asked for).
    Timing,
}

impl MetricClass {
    /// Wire name (`"det"` / `"timing"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Det => "det",
            MetricClass::Timing => "timing",
        }
    }

    /// Parses a wire name back to the class.
    pub fn parse(s: &str) -> Option<MetricClass> {
        match s {
            "det" => Some(MetricClass::Det),
            "timing" => Some(MetricClass::Timing),
            _ => None,
        }
    }
}

/// What kind of series a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-written `u64` (set semantics).
    Gauge,
    /// Fixed-bucket histogram of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// Wire/exposition name (`"counter"` / `"gauge"` / `"histogram"`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parses a wire name back to the kind.
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// Handler-latency bucket bounds in nanoseconds (upper-inclusive edges):
/// roughly 1-2-5 per decade from 1 µs to 1 s. Observations above the last
/// bound land in the overflow bucket.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    1_000_000_000,
];

/// A borrowed label set as call sites write it: `&[("op", "unlock")]`.
pub type LabelRefs<'a> = &'a [(&'static str, &'a str)];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

#[derive(Debug, Clone)]
struct HistData {
    bounds: &'static [u64],
    /// One count per bound plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// Last trace id to land in each bucket (index-aligned with
    /// `counts`); `None` until a traced observation arrives.
    exemplars: Vec<Option<u64>>,
}

#[derive(Debug, Clone)]
enum SeriesData {
    Counter(u64),
    Gauge(u64),
    Histogram(HistData),
}

#[derive(Debug, Clone)]
struct StoredSeries {
    class: MetricClass,
    data: SeriesData,
}

/// One lock's share of the series: `(label hash, key, series)` in
/// first-seen order. Series are never removed, so a position is a stable
/// slot ([`MetricsRegistry::visit_det_ints`] hands it out).
#[derive(Debug, Default)]
struct Shard {
    series: Vec<(u64, SeriesKey, StoredSeries)>,
}

/// The lock-sharded metric store.
///
/// Writers hash `(name, labels)` onto one of the shards and lock only
/// that shard; [`MetricsRegistry::snapshot`] locks the shards in index
/// order and merges them into one deterministic, sorted [`Snapshot`].
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
    /// Unique within the process: tells [`History`] whose slots it cached.
    id: u64,
}

/// Default shard count: enough that the per-connection handler threads of
/// the TCP transport rarely collide, small enough that a snapshot's
/// lock-all sweep stays cheap.
pub const DEFAULT_SHARDS: usize = 8;

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(DEFAULT_SHARDS)
    }
}

impl MetricsRegistry {
    /// A registry with `shards` independent locks (at least 1).
    pub fn new(shards: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
            id: {
                static NEXT: AtomicU64 = AtomicU64::new(0);
                NEXT.fetch_add(1, Ordering::Relaxed)
            },
        }
    }

    /// Runs `f` on the data of `name{labels}` under its shard's lock,
    /// creating the series with `init` when first seen (the only time a
    /// key is built). A hit compares the hash, then the borrowed labels:
    /// no allocation, no owned-string hashing.
    fn with_slot(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        init: impl FnOnce() -> StoredSeries,
        f: impl FnOnce(&mut SeriesData),
    ) {
        let mut hash = fnv1a(FNV_BASIS, name.as_bytes());
        for (k, v) in labels {
            hash = fnv1a(hash, k.as_bytes());
            hash = fnv1a(hash, v.as_bytes());
        }
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        let mut shard = shard.lock().expect("metrics shard poisoned");
        let pos = shard.series.iter().position(|(h, k, _)| {
            *h == hash
                && k.name == name
                && k.labels.iter().map(|(k, v)| (*k, v.as_str())).eq(labels.iter().copied())
        });
        let pos = pos.unwrap_or_else(|| {
            let labels = labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
            shard.series.push((hash, SeriesKey { name, labels }, init()));
            shard.series.len() - 1
        });
        f(&mut shard.series[pos].2.data);
    }

    /// Adds `delta` to the counter `name{labels}`. Counters are always
    /// [`MetricClass::Det`]: by definition they count events of the
    /// request sequence, never wall time.
    pub fn inc(&self, name: &'static str, labels: LabelRefs<'_>, delta: u64) {
        let init = || StoredSeries {
            class: MetricClass::Det,
            data: SeriesData::Counter(0),
        };
        self.with_slot(name, labels, init, |data| match data {
            SeriesData::Counter(v) => *v += delta,
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        });
    }

    /// Sets the gauge `name{labels}` to `value` (last write wins).
    pub fn set_gauge(&self, name: &'static str, labels: LabelRefs<'_>, class: MetricClass, value: u64) {
        let init = || StoredSeries {
            class,
            data: SeriesData::Gauge(0),
        };
        self.with_slot(name, labels, init, |data| match data {
            SeriesData::Gauge(v) => *v = value,
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        });
    }

    /// Records `value` into the fixed-bucket histogram `name{labels}`.
    /// The bucket `bounds` are fixed per family; every call site for a
    /// given name must pass the same slice.
    pub fn observe(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
    ) {
        self.observe_inner(name, labels, class, bounds, value, None);
    }

    /// [`MetricsRegistry::observe`] plus an exemplar: the bucket `value`
    /// lands in remembers `trace_id` (last writer wins), surfacing one
    /// attributable trace per bucket in the exposition's `# EXEMPLAR`
    /// lines. For a serialized request sequence "last" is deterministic,
    /// so exemplars stay golden-snapshot material.
    pub fn observe_exemplar(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
        trace_id: u64,
    ) {
        self.observe_inner(name, labels, class, bounds, value, Some(trace_id));
    }

    fn observe_inner(
        &self,
        name: &'static str,
        labels: LabelRefs<'_>,
        class: MetricClass,
        bounds: &'static [u64],
        value: u64,
        exemplar: Option<u64>,
    ) {
        let init = || StoredSeries {
            class,
            data: SeriesData::Histogram(HistData {
                bounds,
                counts: vec![0; bounds.len() + 1],
                count: 0,
                sum: 0,
                exemplars: vec![None; bounds.len() + 1],
            }),
        };
        self.with_slot(name, labels, init, |data| match data {
            SeriesData::Histogram(h) => {
                debug_assert_eq!(h.bounds, bounds, "histogram {name:?} bounds changed");
                let bucket = h.bounds.partition_point(|&b| b < value);
                h.counts[bucket] += 1;
                h.count += 1;
                h.sum = h.sum.saturating_add(value);
                if exemplar.is_some() {
                    h.exemplars[bucket] = exemplar;
                }
            }
            other => panic!("metric {name:?} already registered as {}", data_kind(other).as_str()),
        });
    }

    /// Visits every det-class counter and gauge series without building
    /// a [`Snapshot`]: no histogram-bucket clones, no global sort, no
    /// per-series allocation. The first argument is the series' slot: a
    /// small integer that names the same series for the registry's
    /// whole life, so a caller can cache per-series state by it the way
    /// [`History::sample_registry`] does. Visit order follows the
    /// shards, not the keys — callers that need a deterministic view
    /// must sort, or land the values in an ordered container.
    pub fn visit_det_ints(
        &self,
        mut f: impl FnMut(usize, &'static str, &[(&'static str, String)], MetricKind, u64),
    ) {
        let stride = self.shards.len();
        for (index, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (pos, (_, k, v)) in shard.series.iter().enumerate() {
                if v.class != MetricClass::Det {
                    continue;
                }
                let slot = pos * stride + index;
                match v.data {
                    SeriesData::Counter(val) => {
                        f(slot, k.name, &k.labels, MetricKind::Counter, val)
                    }
                    SeriesData::Gauge(val) => f(slot, k.name, &k.labels, MetricKind::Gauge, val),
                    SeriesData::Histogram(_) => {}
                }
            }
        }
    }

    /// Merges every shard (locked in index order) into one sorted,
    /// deterministic [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut merged: Vec<(SeriesKey, StoredSeries)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (_, k, v) in &shard.series {
                merged.push((k.clone(), v.clone()));
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot::build(merged.into_iter().map(|(k, v)| {
            (
                k.name.to_string(),
                k.labels.iter().map(|(n, v)| (n.to_string(), v.clone())).collect(),
                v.class,
                match v.data {
                    SeriesData::Counter(v) => (MetricKind::Counter, SeriesValue::Int(v)),
                    SeriesData::Gauge(v) => (MetricKind::Gauge, SeriesValue::Int(v)),
                    SeriesData::Histogram(h) => (
                        MetricKind::Histogram,
                        SeriesValue::Hist(HistogramSnapshot {
                            bounds: h.bounds.to_vec(),
                            counts: h.counts,
                            count: h.count,
                            sum: h.sum,
                            exemplars: h.exemplars,
                        }),
                    ),
                },
            )
        }))
    }
}

fn data_kind(data: &SeriesData) -> MetricKind {
    match data {
        SeriesData::Counter(_) => MetricKind::Counter,
        SeriesData::Gauge(_) => MetricKind::Gauge,
        SeriesData::Histogram(_) => MetricKind::Histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_label_sets() {
        let m = MetricsRegistry::default();
        m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 2);
        m.inc("requests_total", &[("op", "unlock"), ("outcome", "key")], 3);
        m.inc("requests_total", &[("op", "register"), ("outcome", "ok")], 1);
        let s = m.snapshot();
        assert_eq!(s.counter("requests_total", &[("op", "unlock"), ("outcome", "key")]), Some(5));
        assert_eq!(s.counter("requests_total", &[("op", "register"), ("outcome", "ok")]), Some(1));
        assert_eq!(s.counter_total("requests_total"), 6);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let m = MetricsRegistry::default();
        m.set_gauge("clock", &[], MetricClass::Det, 5);
        m.set_gauge("clock", &[], MetricClass::Det, 9);
        assert_eq!(m.snapshot().gauge("clock", &[]), Some(9));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = MetricsRegistry::default();
        static BOUNDS: &[u64] = &[10, 100, 1000];
        for v in [1, 5, 10, 50, 200, 5000] {
            m.observe("lat", &[], MetricClass::Timing, BOUNDS, v);
        }
        let s = m.snapshot();
        let h = s.histogram("lat", &[]).expect("histogram recorded");
        assert_eq!(h.counts, vec![3, 1, 1, 1], "le=10:{{1,5,10}} le=100:{{50}} le=1000:{{200}} +Inf:{{5000}}");
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1 + 5 + 10 + 50 + 200 + 5000);
        assert_eq!(h.quantile(50.0), 10, "nearest-rank median lands in the first bucket");
        assert_eq!(h.quantile(99.0), 1000, "p99 saturates at the last finite bound");
    }

    #[test]
    fn concurrent_writers_produce_the_serial_snapshot() {
        let m = MetricsRegistry::new(4);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let m = &m;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        m.inc("ticks", &[("worker", if t % 2 == 0 { "even" } else { "odd" })], 1);
                        m.observe("obs", &[], MetricClass::Det, &[50, 1000], i);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.counter("ticks", &[("worker", "even")]), Some(400));
        assert_eq!(s.counter("ticks", &[("worker", "odd")]), Some(400));
        let h = s.histogram("obs", &[]).unwrap();
        assert_eq!(h.count, 800);
        assert_eq!(h.counts, vec![8 * 51, 8 * 49, 0]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_programming_errors() {
        let m = MetricsRegistry::default();
        m.inc("x", &[], 1);
        m.set_gauge("x", &[], MetricClass::Det, 1);
    }
}
