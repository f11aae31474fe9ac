//! The `lock_q6` workload: the paper's Table 3 at its largest size
//! (18 added FFs, q = 6). For each of a fixed set of lock instances:
//! build the lock, fabricate dies, issue one key per die and check that
//! each key unlocks its die; then a short brute-force batch. No service
//! code runs. `--seed` picks the dies and the brute-force walks.

use crate::fleet::{self, Die, LockSpec};
use crate::layers;
use crate::report::Report;
use crate::util;
use crate::Opts;
use hwm_metering::Designer;
use hwm_metrics::percentile;
use hwm_service::registry::{digest_update, DIGEST_BASIS};
use std::io;
use std::time::Instant;

/// Lock instances built per run.
pub const LOCKS: usize = 4;
/// Dies keyed per lock for each second of `--seconds`.
pub const KEYS_PER_LOCK_PER_S: usize = 30;
/// Dies keyed per batch; figures are taken over batches.
pub const BATCH: usize = 40;
/// Attempts at a lock build or key batch while the host steals CPU time.
const ATTEMPTS: usize = 3;

fn keys_per_lock(opts: &Opts) -> usize {
    opts.scaled(((opts.seconds * KEYS_PER_LOCK_PER_S as f64) as usize).max(100))
}

fn locks(opts: &Opts) -> usize {
    if opts.quick {
        1
    } else {
        LOCKS
    }
}

fn build(spec: &LockSpec) -> io::Result<Designer> {
    spec.designer().map_err(|e| io::Error::other(e.to_string()))
}

/// Keys issued for one lock: per-key times in issue order, and a check.
struct KeyPhase {
    ns: Vec<u64>,
    valid: u64,
    digest: u64,
}

/// Issues a key for every die on a copy of `designer` (the copy shares
/// the built key-safe edge tables) and checks each key on its die.
fn issue_keys(designer: &Designer, dies: &[Die]) -> KeyPhase {
    let mut designer = designer.clone();
    let mut phase = KeyPhase {
        ns: Vec::with_capacity(dies.len()),
        valid: 0,
        digest: DIGEST_BASIS,
    };
    for die in dies {
        let t0 = Instant::now();
        let key = designer.issue_key(&die.chip.scan_flip_flops());
        phase.ns.push(t0.elapsed().as_nanos() as u64);
        if let Ok(key) = key {
            for &v in &key.values {
                phase.digest = digest_update(phase.digest, &v.to_le_bytes());
            }
            if die.chip.clone().apply_key(&key).is_ok() {
                phase.valid += 1;
            }
        }
    }
    phase
}

fn describe(spec: &LockSpec, opts: &Opts, report: &mut Report) {
    report.config("lock", spec.label);
    report.config(
        "lock_seeds",
        format!(
            "{:?}",
            (0..locks(opts))
                .map(|i| spec.instance(i).seed)
                .collect::<Vec<_>>()
        ),
    );
    report.config("keys_per_lock", keys_per_lock(opts));
    report.config(
        "brute_force",
        format!(
            "{} walks x {} guesses",
            layers::BRUTE_RUNS,
            layers::BRUTE_CAP
        ),
    );
}

/// Runs the `lock_q6` workload: all locks are built first, then keys
/// are issued in batches of [`BATCH`] dies, round-robin over the locks,
/// and every figure is a median or a slow-side quartile over batches.
///
/// # Errors
///
/// Lock construction failures.
pub fn run(opts: &Opts) -> io::Result<Report> {
    let spec = LockSpec::table3_q6();
    let mut report = Report::new("lock_q6");
    describe(&spec, opts, &mut report);
    if opts.trace {
        return traced(&spec, opts, report);
    }
    let mut discarded = 0;
    let (mut builds, mut firsts) = (Vec::new(), Vec::new());
    let mut locks_built = Vec::new();
    for i in 0..locks(opts) {
        let lock = spec.instance(i);
        let ((designer, built), _) = util::unstolen(ATTEMPTS, &mut discarded, || {
            let t0 = Instant::now();
            Ok((build(&lock)?, t0.elapsed().as_secs_f64()))
        })?;
        builds.push(built);
        let dies = fleet::fabricate(
            &designer,
            keys_per_lock(opts),
            opts.seed.wrapping_add(i as u64),
        );
        // The first key builds the group's key-safe edge table.
        let mut designer = designer;
        let t0 = Instant::now();
        let _ = designer.issue_key(&dies[0].chip.scan_flip_flops());
        firsts.push(t0.elapsed().as_secs_f64() * 1e3);
        locks_built.push((designer, dies));
    }

    let (mut keys, mut valid) = (0u64, 0u64);
    let mut digest = DIGEST_BASIS;
    let (mut rates, mut p50s, mut p90s, mut all_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let per_lock = keys_per_lock(opts);
    for start in (1..per_lock).step_by(BATCH) {
        for (designer, dies) in &locks_built {
            let batch = &dies[start..(start + BATCH).min(per_lock)];
            let (phase, _) =
                util::unstolen(ATTEMPTS, &mut discarded, || Ok(issue_keys(designer, batch)))?;
            keys += phase.ns.len() as u64;
            valid += phase.valid;
            digest = digest_update(digest, &phase.digest.to_le_bytes());
            rates.push(phase.ns.len() as f64 / (phase.ns.iter().sum::<u64>() as f64 / 1e9));
            p50s.push(percentile(&mut phase.ns.clone(), 50.0) as f64 / 1e3);
            p90s.push(percentile(&mut phase.ns.clone(), 90.0) as f64 / 1e3);
            all_ns.extend_from_slice(&phase.ns);
        }
    }
    let (designer, _) = locks_built
        .last()
        .ok_or_else(|| io::Error::other("no lock built"))?;
    let ((stats, brute_s), _) = util::unstolen(ATTEMPTS, &mut discarded, || {
        let t0 = Instant::now();
        Ok((
            layers::brute_force(designer, opts.seed),
            t0.elapsed().as_secs_f64(),
        ))
    })?;
    let guesses = stats.mean_attempts * stats.runs as f64;
    digest = digest_update(digest, &stats.mean_attempts.to_bits().to_le_bytes());

    let timed = all_ns.len() as u64;
    report.metric(
        "setup_s",
        "s",
        util::slow_quartile(&builds, false),
        builds.len() as u64,
    );
    report.metric(
        "lock_build_ms",
        "ms",
        util::median(&builds) * 1e3,
        builds.len() as u64,
    );
    report.metric(
        "first_key_ms",
        "ms",
        util::median(&firsts),
        firsts.len() as u64,
    );
    report.metric("keys_per_s", "1/s", util::median(&rates), timed);
    report.metric("ops_per_s", "1/s", util::slow_quartile(&rates, true), timed);
    report.metric("p50_us", "us", util::slow_quartile(&p50s, false), timed);
    report.metric("p90_us", "us", util::slow_quartile(&p90s, false), timed);
    report.metric(
        "p99_us",
        "us",
        percentile(&mut all_ns, 99.0) as f64 / 1e3,
        timed,
    );
    report.metric("guesses_per_s", "1/s", guesses / brute_s, stats.runs as u64);
    report.config("batches", rates.len());
    report.config("phases_discarded_for_steal", discarded);
    report.attempted = keys;
    report.failed = keys - valid;
    report.digest = digest;
    report.correct = valid == keys;
    report.verdict.push(format!(
        "{keys} keys issued after each lock's first, {valid} unlock their die"
    ));
    report.metric("fail_ratio", "ratio", report.fail_ratio(), keys);
    report.metric("peak_rss_mb", "MiB", util::peak_rss_mb(), 1);
    Ok(report)
}

fn traced(spec: &LockSpec, opts: &Opts, mut report: Report) -> io::Result<Report> {
    let count = keys_per_lock(opts) / 2;
    // Untraced: the designer's own construction and key issuance.
    let t0 = Instant::now();
    let designer = build(spec)?;
    let dies = fleet::fabricate(&designer, count, opts.seed);
    let phase = issue_keys(&designer, &dies);
    let plain_s = t0.elapsed().as_secs_f64();
    // Traced: the same work split into its pieces, each in a span.
    let t0 = Instant::now();
    layers::metering_probe(spec, &dies, &mut report)?;
    let traced_s = t0.elapsed().as_secs_f64();
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        (traced_s / plain_s - 1.0) * 100.0,
        1,
    );
    layers::fabricate_probe(&designer, count, opts.seed, &mut report);

    layers::attacks_probe(&designer, opts.seed, &mut report);
    let keys = phase.ns.len() as u64;
    report.attempted = keys;
    report.failed = keys - phase.valid;
    report.correct = phase.valid == keys;
    report.digest = phase.digest;
    report.verdict.push(format!(
        "{keys} keys issued, {} unlock their die",
        phase.valid
    ));
    report.metric("fail_ratio", "ratio", report.fail_ratio(), keys);
    report.metric("peak_rss_mb", "MiB", util::peak_rss_mb(), 1);
    Ok(report)
}
