//! Per-layer measurement for traced runs.
//!
//! Spans are taken around the benchmark's own calls into each crate's
//! public functions; nothing inside the crates is instrumented. The
//! probes here time the lock-construction pieces, key search,
//! fabrication and the metrics API the same way for every workload.

use crate::fleet::{Die, LockSpec};
use crate::report::Report;
use hwm_attacks::brute::{brute_force_stats, BruteForceStats};
use hwm_metering::bfsm::{SafeEdges, SafeSearch};
use hwm_metering::{AddedStg, Bfsm, Designer, Foundry, UnlockKey};
use hwm_metrics::{History, HistoryConfig, MetricClass, MetricsRegistry, LATENCY_BUCKETS_NS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Accumulated span durations by name.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    spans: BTreeMap<&'static str, (u64, u64)>,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Adds one span of `ns` nanoseconds.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        let e = self.spans.entry(name).or_insert((0, 0));
        e.0 += ns;
        e.1 += 1;
    }

    /// Mean span length in nanoseconds (0 when never entered).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(total, n)| total as f64 / n.max(1) as f64)
    }

    /// Times the span was entered.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |&(_, n)| n)
    }
}

/// Times the lock-construction pieces [`Designer::new`] runs — added-STG
/// build, exit-reachability verification, BFSM assembly — then one
/// key-safe edge table per SFFSM group and one key search per die, each
/// key checked on its die.
///
/// # Errors
///
/// Lock construction failures.
pub fn metering_probe(spec: &LockSpec, dies: &[Die], report: &mut Report) -> io::Result<()> {
    let o = &spec.options;
    let seed = spec.seed;
    let groups = 1u8 << o.group_bits;
    let b = o.resolved_input_bits(&spec.original);
    let mut spans = Spans::default();
    let mut added = None;
    for attempt in 0..16u64 {
        let s = seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let candidate = spans
            .time("added_build", || {
                AddedStg::build(
                    o.added_modules,
                    b,
                    o.overrides_per_module,
                    o.links_per_module,
                    s,
                )
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        if spans.time("verify", || candidate.verify_exit_reachability(groups)) {
            added = Some(candidate);
            break;
        }
    }
    let added = added.ok_or_else(|| io::Error::other("no verified added STG"))?;
    let bfsm = spans
        .time("assemble", || {
            Bfsm::assemble_with_remote_disable(
                spec.original.clone(),
                added,
                o.black_holes,
                o.trapdoor_length,
                o.group_bits,
                o.dummy_ffs,
                o.remote_disable,
                seed,
            )
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
    let ms = |n: &str| spans.mean_ns(n) * spans.count(n) as f64 / 1e6;
    report.metric(
        "metering.added_build_ms",
        "ms",
        ms("added_build"),
        spans.count("added_build"),
    );
    report.metric(
        "metering.verify_ms",
        "ms",
        ms("verify"),
        spans.count("verify"),
    );
    report.metric("metering.assemble_ms", "ms", ms("assemble"), 1);

    let edges: Vec<SafeEdges> = (0..groups)
        .map(|g| spans.time("safe_edges", || bfsm.safe_edges(g)))
        .collect();
    report.metric(
        "metering.safe_edges_ms",
        "ms",
        spans.mean_ns("safe_edges") / 1e6,
        spans.count("safe_edges"),
    );
    key_probe(&bfsm, &edges, dies, report);
    Ok(())
}

/// One key search per die over prebuilt edge tables: mean search time,
/// mean key length, and the share of keys that unlock their die.
fn key_probe(bfsm: &Bfsm, edges: &[SafeEdges], dies: &[Die], report: &mut Report) {
    let mut spans = Spans::default();
    let mut search = SafeSearch::default();
    let (mut keys, mut valid, mut symbols) = (0u64, 0u64, 0u64);
    for die in dies {
        let Ok((composed, group)) = bfsm.parse_readout(&die.chip.scan_flip_flops().0) else {
            continue;
        };
        let found = spans.time("key_bfs", || {
            bfsm.safe_sequence_to_exit_via(&edges[group as usize], composed, &mut search)
        });
        let Ok(mut values) = found else { continue };
        values.push(bfsm.unlock_symbol());
        keys += 1;
        symbols += values.len() as u64;
        let mut chip = die.chip.clone();
        if chip.apply_key(&UnlockKey { values }).is_ok() {
            valid += 1;
        }
    }
    report.metric(
        "metering.key_bfs_us",
        "us",
        spans.mean_ns("key_bfs") / 1e3,
        keys,
    );
    report.metric(
        "metering.key_len",
        "count",
        symbols as f64 / keys.max(1) as f64,
        keys,
    );
    report.metric(
        "metering.keys_valid_share",
        "ratio",
        valid as f64 / keys.max(1) as f64,
        keys,
    );
}

/// Mean time to fabricate one die from `designer`'s blueprint.
pub fn fabricate_probe(designer: &Designer, count: usize, seed: u64, report: &mut Report) {
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0x5EED);
    let t0 = Instant::now();
    for _ in 0..count {
        black_box(foundry.fabricate_one());
    }
    let us = t0.elapsed().as_nanos() as f64 / count.max(1) as f64 / 1e3;
    report.metric("rub.fabricate_us", "us", us, count as u64);
}

/// Brute-force walks per attack probe.
pub const BRUTE_RUNS: usize = 16;
/// Guess cap per walk.
pub const BRUTE_CAP: u64 = 100_000;

/// The paper's brute-force attack on fresh dies of `designer`'s lock:
/// [`BRUTE_RUNS`] walks of at most [`BRUTE_CAP`] random inputs each.
pub fn brute_force(designer: &Designer, seed: u64) -> BruteForceStats {
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xB207);
    brute_force_stats(
        BRUTE_RUNS,
        BRUTE_CAP,
        || foundry.fabricate_one(),
        seed ^ 0xA77,
    )
}

/// Guesses spent and the share of walks a black hole trapped, over one
/// [`brute_force`] batch.
pub fn attacks_probe(designer: &Designer, seed: u64, report: &mut Report) {
    let stats = brute_force(designer, seed);
    let runs = stats.runs as u64;
    report.metric(
        "attacks.guesses",
        "count",
        stats.mean_attempts * stats.runs as f64,
        runs,
    );
    report.metric(
        "attacks.trapped_share",
        "ratio",
        stats.trapped_fraction,
        runs,
    );
}

/// Times the metrics API on the server's own label sets, and one history
/// sample over `live` (a registry holding a served run's series).
pub fn metrics_probe(live: &MetricsRegistry, report: &mut Report) {
    const CALLS: u64 = 20_000;
    let scratch = MetricsRegistry::default();
    let ops = [
        ("register", "registered"),
        ("unlock", "key"),
        ("status", "status"),
        ("disable", "disabled"),
    ];
    let t0 = Instant::now();
    for i in 0..CALLS {
        let (op, outcome) = ops[(i % 4) as usize];
        scratch.inc(
            "service_requests_total",
            &[("op", op), ("outcome", outcome)],
            1,
        );
    }
    report.metric(
        "metrics.inc_ns",
        "ns",
        t0.elapsed().as_nanos() as f64 / CALLS as f64,
        CALLS,
    );
    let t0 = Instant::now();
    for i in 0..CALLS {
        let (op, _) = ops[(i % 4) as usize];
        scratch.observe(
            "service_handler_ns",
            &[("op", op)],
            MetricClass::Timing,
            LATENCY_BUCKETS_NS,
            i * 37,
        );
    }
    report.metric(
        "metrics.observe_ns",
        "ns",
        t0.elapsed().as_nanos() as f64 / CALLS as f64,
        CALLS,
    );

    const SAMPLES: u64 = 512;
    let mut history = History::new(HistoryConfig::default());
    let stride = HistoryConfig::default().stride;
    let t0 = Instant::now();
    for k in 1..=SAMPLES {
        history.sample_registry(k * stride, live);
    }
    report.metric(
        "metrics.sample_us",
        "us",
        t0.elapsed().as_nanos() as f64 / SAMPLES as f64 / 1e3,
        SAMPLES,
    );
    let series: usize = live
        .snapshot()
        .families
        .iter()
        .map(|f| f.series.len())
        .sum();
    report.metric("metrics.series", "count", series as f64, 1);
}
