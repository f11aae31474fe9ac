//! The serving workloads, `activate` and `lookup`: fab traffic offered
//! open-loop over loopback TCP to an [`ActivationServer`] with a
//! file-backed journal, checked against an in-process replay.
//!
//! * `activate` — every rate point runs on a fresh server and a fresh
//!   journal file, so each point serves the same fresh fleet: registers,
//!   unlocks (a key search each), wrong guesses and remote disables.
//! * `lookup` — one long-lived server whose fleet was registered and
//!   unlocked during set-up; the timed traffic is `Status{ic}` queries and
//!   re-unlocks of activated dies, none of which appends to the journal.
//!
//! The server runs with the default [`ServerConfig`]: its throttle
//! already admits the honest traffic below without a single refusal (one
//! request per logical tick spread over [`fleet::FAB_CLIENTS`] clients,
//! each refilled a token per tick), and any refusal is counted as a
//! failure.

use crate::fleet::{self, Die, LockSpec};
use crate::layers::{self, Spans};
use crate::loadgen::{self, Frames, RatePoint};
use crate::report::Report;
use crate::util::{self, Kept, WorkDir};
use crate::Opts;
use hwm_jsonio::Json;
use hwm_metering::{Designer, UnlockKey};
use hwm_metrics::{percentile, Snapshot};
use hwm_service::registry::{digest_update, DIGEST_BASIS};
use hwm_service::wire::{encode_frame, read_frame, write_frame_with, FrameScratch};
use hwm_service::{
    ActivationServer, Client, ErrorCode, LocalClient, RateLimiter, Registry, Request, Response,
    ServerConfig, TcpServer, TracedRequest,
};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dies in the `activate` fleet: about 3,000 requests per rate point.
/// The serving lock has 32,768 possible readouts, 26 times the fleet.
pub const ACTIVATE_DIES: usize = 1260;
/// Dies registered and unlocked before `lookup` starts. `Status` walks
/// every record, so this fleet size sets its cost.
pub const LOOKUP_FLEET: usize = 2000;
/// Requests per `lookup` rate point.
pub const LOOKUP_REQUESTS: usize = 3000;
/// The rate ladder: rung `k` offers `LADDER_BASE * LADDER_STEP^k` req/s.
pub const LADDER_BASE: f64 = 2000.0;
/// Ratio between neighbouring rungs.
pub const LADDER_STEP: f64 = 1.05;
/// Rungs on the ladder (the top one offers about 210k req/s).
pub const LADDER_RUNGS: usize = 96;
/// A rate point is met only if its p99 latency stays within this limit.
pub const P99_LIMIT_US: u64 = 1000;
/// Attempts per ladder rung before it counts as not met: the host can
/// stall a 2-vCPU virtual machine for milliseconds at a time, and one
/// such stall inside a 0.2 s probe is enough to break the p99 limit.
pub const PROBE_ATTEMPTS: usize = 2;
/// Untraced and traced in-process replays behind `bench.trace_overhead_pct`.
const TRACE_ROUNDS: usize = 5;
/// The share of an untraced run's wall time spent timing set-ups between
/// rounds.
const SETUP_SHARE: f64 = 0.1;
/// Times a rate point is re-served when the host stole CPU time during
/// it (see [`RatePoint::stolen`]) before the next attempt is kept anyway.
pub const STEAL_RETRIES: usize = 4;
/// Reference rates for `p50_us`, `p90_us` and `p99_us`, per workload: about
/// 22 % and 20 % of the highest met rates this benchmark first measured for
/// `activate` (17.8k req/s) and `lookup` (106k req/s) on a 2-core x86-64
/// virtual machine. At 8,000 req/s, `activate`'s p50 fell among requests
/// queued behind a key search, where queueing amplifies every swing in the
/// host's speed.
pub const REFERENCE_RATE: [f64; 2] = [4_000.0, 20_000.0];

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh dies registering and unlocking.
    Activate,
    /// Reads against an activated fleet.
    Lookup,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Activate => "activate",
            Kind::Lookup => "lookup",
        }
    }

    fn reference_rate(self) -> f64 {
        REFERENCE_RATE[self as usize]
    }
}

/// Encodes requests into wire frames exactly as a client sends them.
///
/// # Errors
///
/// Frames above the protocol's size limit.
pub fn encode_requests(reqs: &[Request]) -> io::Result<Frames> {
    let mut scratch = FrameScratch::new();
    let mut frames = Frames::default();
    for req in reqs {
        frames.push(encode_frame(
            &mut scratch,
            &TracedRequest::untraced(req.clone()).to_json(),
        )?);
    }
    Ok(frames)
}

/// The response payload bytes a server puts on the wire for `resp`.
pub fn payload_bytes(resp: &Response) -> Vec<u8> {
    resp.to_json().to_string().into_bytes()
}

/// Replays `reqs` serially through a [`LocalClient`] against `server`.
///
/// # Errors
///
/// A frame the in-process codec rejects.
pub fn replay(server: &Arc<ActivationServer>, reqs: &[Request]) -> io::Result<Vec<Response>> {
    let mut client = LocalClient::new(Arc::clone(server));
    reqs.iter()
        .map(|r| client.call(r).map_err(|e| io::Error::other(e.message)))
        .collect()
}

/// Builds a warm designer: one key issued per SFFSM group, so every
/// group's key-safe edge table exists before serving (a long-running
/// designer pays that once per process, not per request).
///
/// # Errors
///
/// Lock construction failures.
pub fn warm_designer(spec: &LockSpec) -> io::Result<Designer> {
    let mut designer = spec
        .designer()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let groups = 1usize << spec.options.group_bits;
    let probe = fleet::fabricate(&designer, 64 * groups, spec.seed ^ 0x3A3A);
    let mut warmed = vec![false; groups];
    for die in &probe {
        let g = die.chip.group() as usize;
        if !warmed[g] && designer.issue_key(&die.chip.scan_flip_flops()).is_ok() {
            warmed[g] = true;
        }
    }
    Ok(designer)
}

/// What an in-process replay produced: the reference every TCP run is
/// checked against.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Response payloads of the timed traffic, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Rolling digest of the journal after the traffic.
    pub journal_digest: u64,
    /// Journal events after the traffic.
    pub journal_len: u64,
}

/// Outcome of checking one run's responses.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Responses compared.
    pub attempted: u64,
    /// Responses that differ from the oracle or are missing, plus
    /// refusals (throttled or locked out).
    pub failed: u64,
    /// Keys delivered.
    pub keys: u64,
    /// Keys that did not unlock their die.
    pub bad_keys: u64,
    /// FNV-1a over every response payload, in order.
    pub digest: u64,
}

impl Check {
    fn absorb(&mut self, other: &Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.keys += other.keys;
        self.bad_keys += other.bad_keys;
    }
}

/// Compares `got` with the oracle one response at a time and checks every
/// delivered key against the die it was issued for.
pub fn check_responses(got: &[Vec<u8>], want: &[Vec<u8>], dies: &HashMap<&str, &Die>) -> Check {
    let mut check = Check {
        attempted: want.len() as u64,
        digest: DIGEST_BASIS,
        ..Check::default()
    };
    for (i, want) in want.iter().enumerate() {
        let Some(payload) = got.get(i) else {
            check.failed += 1;
            continue;
        };
        check.digest = digest_update(check.digest, payload);
        let resp = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|j| Response::from_json(&j).ok());
        let Some(resp) = resp.filter(|_| payload == want) else {
            check.failed += 1;
            continue;
        };
        match resp {
            Response::Error {
                code: ErrorCode::Throttled | ErrorCode::LockedOut,
                ..
            } => check.failed += 1,
            Response::Key { ic, key } => {
                check.keys += 1;
                let unlocks = dies.get(ic.as_str()).is_some_and(|die| {
                    die.chip
                        .clone()
                        .apply_key(&UnlockKey { values: key })
                        .is_ok()
                });
                if !unlocks {
                    check.bad_keys += 1;
                }
            }
            _ => {}
        }
    }
    check.failed += got.len().saturating_sub(want.len()) as u64;
    check
}

/// Everything a serving run needs, generated from the seed.
struct World {
    spec: LockSpec,
    designer: Designer,
    fleet: Vec<Die>,
    /// Requests that bring the fleet up before timing (lookup only).
    bring_up: Vec<Request>,
    /// The timed traffic of one rate point.
    schedule: Vec<Request>,
    frames: Frames,
}

impl World {
    fn build(kind: Kind, seed: u64, opts: &Opts) -> io::Result<World> {
        let spec = LockSpec::serving();
        let designer = warm_designer(&spec)?;
        let (fleet, bring_up, schedule) = match kind {
            Kind::Activate => {
                let fleet = fleet::fabricate(&designer, opts.scaled(ACTIVATE_DIES), seed);
                let schedule = fleet::activation_schedule(&fleet, seed);
                (fleet, Vec::new(), schedule)
            }
            Kind::Lookup => {
                let fleet = fleet::fabricate(&designer, opts.scaled(LOOKUP_FLEET), seed);
                let bring_up = fleet::bring_up_schedule(&fleet);
                // Look up only dies whose readout is unique in the fleet:
                // those are the ones bring-up activated.
                let mut seen: HashMap<&str, usize> = HashMap::new();
                for d in &fleet {
                    *seen.entry(d.readout.as_str()).or_insert(0) += 1;
                }
                let active: Vec<&Die> = fleet
                    .iter()
                    .filter(|d| seen[d.readout.as_str()] == 1)
                    .collect();
                let schedule = fleet::lookup_schedule(&active, opts.scaled(LOOKUP_REQUESTS), seed);
                (fleet, bring_up, schedule)
            }
        };
        let frames = encode_requests(&schedule)?;
        Ok(World {
            spec,
            designer,
            fleet,
            bring_up,
            schedule,
            frames,
        })
    }

    fn dies(&self) -> HashMap<&str, &Die> {
        self.fleet.iter().map(|d| (d.ic.as_str(), d)).collect()
    }

    /// A fresh server on a journal file at `path`, with the fleet brought
    /// up; returns the server and the bring-up responses.
    fn server(&self, path: &Path) -> io::Result<(Arc<ActivationServer>, Vec<Response>)> {
        let _ = std::fs::remove_file(path);
        let server = Arc::new(ActivationServer::new(
            self.designer.clone(),
            Registry::open(path)?,
            ServerConfig::default(),
        ));
        let resps = replay(&server, &self.bring_up)?;
        Ok((server, resps))
    }

    /// The in-process reference: bring-up plus one pass of the traffic on
    /// an in-memory journal.
    fn oracle(&self) -> io::Result<(Vec<Vec<u8>>, Oracle)> {
        let server = Arc::new(ActivationServer::new(
            self.designer.clone(),
            Registry::in_memory(),
            ServerConfig::default(),
        ));
        let bring_up = replay(&server, &self.bring_up)?
            .iter()
            .map(payload_bytes)
            .collect();
        let payloads = replay(&server, &self.schedule)?
            .iter()
            .map(payload_bytes)
            .collect();
        let (journal_digest, journal_len) =
            server.with_registry(|r| (r.rolling_digest(), r.journal_len()));
        Ok((
            bring_up,
            Oracle {
                payloads,
                journal_digest,
                journal_len,
            },
        ))
    }
}

/// Whether the journal at `path`, reopened, carries the oracle's state.
fn journal_matches(path: &Path, oracle: &Oracle) -> io::Result<bool> {
    let reopened = Registry::open(path)?;
    Ok(reopened.rolling_digest() == oracle.journal_digest
        && reopened.journal_len() == oracle.journal_len)
}

/// One rate point's outcome.
struct Point {
    point: RatePoint,
    check: Check,
    /// Journal checks that failed (activate: per point; lookup: at end).
    journal_failed: bool,
    snapshot: Option<Snapshot>,
    commit: Duration,
    journal_bytes: u64,
}

impl Point {
    fn met(&self) -> bool {
        self.check.failed == 0
            && self.check.bad_keys == 0
            && !self.journal_failed
            && percentile(&mut self.point.latency_ns.clone(), 99.0) <= P99_LIMIT_US * 1000
            && percentile(&mut self.point.late_ns.clone(), 99.0) <= P99_LIMIT_US * 1000
            && !self.point.backlog_grew()
    }
}

/// Where rate points are served.
enum Target {
    /// A fresh server per point (activate).
    Fresh,
    /// One long-lived server (lookup).
    Shared {
        server: Arc<ActivationServer>,
        tcp: TcpServer,
    },
}

struct Bench<'w> {
    world: &'w World,
    oracle: Oracle,
    dies: HashMap<&'w str, &'w Die>,
    work: WorkDir,
    target: Target,
    /// Rate points served, discarded ones included.
    points: usize,
    /// Points discarded because the host stole CPU time during them.
    discarded: usize,
    /// Every served point's checks, discarded ones included.
    totals: Check,
    journal_failures: u64,
    corrupt: Option<usize>,
}

impl Bench<'_> {
    /// Serves one rate point and checks it.
    fn serve(&mut self, rate: f64) -> io::Result<Point> {
        self.points += 1;
        let (mut point, journal_failed, snapshot, commit, journal_bytes) = match &self.target {
            Target::Fresh => {
                let path = self.work.path().join("journal.jsonl");
                let (server, _) = self.world.server(&path)?;
                let tcp = TcpServer::spawn_with_poll(
                    "127.0.0.1:0",
                    Arc::clone(&server),
                    ServerConfig::default().accept_poll_ms,
                )?;
                let point = loadgen::offer(tcp.addr(), &self.world.frames, rate);
                tcp.shutdown();
                let t0 = Instant::now();
                let committed = server.commit_journal().is_ok();
                let commit = t0.elapsed();
                let snapshot = server.snapshot();
                drop(server);
                let point = point?;
                let ok = committed && journal_matches(&path, &self.oracle)?;
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                (point, !ok, Some(snapshot), commit, bytes)
            }
            Target::Shared { tcp, .. } => {
                let point = loadgen::offer(tcp.addr(), &self.world.frames, rate)?;
                (point, false, None, Duration::ZERO, 0)
            }
        };
        if let Some(k) = self.corrupt.take() {
            if let Some(byte) = point.payloads.get_mut(k).and_then(|p| p.last_mut()) {
                *byte ^= 0x01;
            }
        }
        let check = check_responses(&point.payloads, &self.oracle.payloads, &self.dies);
        self.totals.absorb(&check);
        self.journal_failures += u64::from(journal_failed);
        Ok(Point {
            point,
            check,
            journal_failed,
            snapshot,
            commit,
            journal_bytes,
        })
    }

    /// Serves a rate point until one runs without the host stealing CPU
    /// time from this machine, at most `1 + STEAL_RETRIES` times; the last
    /// attempt is returned whatever happened (callers check
    /// [`RatePoint::stolen`]).
    fn measure(&mut self, rate: f64) -> io::Result<Point> {
        for _ in 0..STEAL_RETRIES {
            let p = self.serve(rate)?;
            if !p.point.stolen() {
                return Ok(p);
            }
            self.discarded += 1;
        }
        self.serve(rate)
    }

    /// Bisection over the ladder for the highest rung that is met; a rung
    /// gets `PROBE_ATTEMPTS` tries.
    fn search(&mut self) -> io::Result<f64> {
        let (mut lo, mut hi) = (0i64, LADDER_RUNGS as i64 - 1);
        let mut best = 0.0;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let rate = LADDER_BASE * LADDER_STEP.powi(mid as i32);
            let mut met = false;
            for _ in 0..PROBE_ATTEMPTS {
                met = self.measure(rate)?.met();
                if met {
                    break;
                }
            }
            if met {
                best = rate;
                lo = mid + 1;
            } else {
                hi = mid - 1;
            }
        }
        Ok(best)
    }
}

/// One set-up: lock construction, warm-up, fabrication, schedule
/// encoding, and one server start (with the fleet brought up) and stop on
/// a journal file.
fn setup_world(kind: Kind, opts: &Opts) -> io::Result<World> {
    let w = World::build(kind, opts.seed, opts)?;
    let work = WorkDir::new(&format!("{}-setup", kind.name()))?;
    let (server, _) = w.server(&work.path().join("journal.jsonl"))?;
    let tcp = TcpServer::spawn_with_poll(
        "127.0.0.1:0",
        Arc::clone(&server),
        ServerConfig::default().accept_poll_ms,
    )?;
    tcp.shutdown();
    Ok(w)
}

fn describe(kind: Kind, world: &World, report: &mut Report) {
    report.config("lock", world.spec.label);
    report.config(
        "readout_space",
        1u64 << (3 * world.spec.options.added_modules + world.spec.options.group_bits),
    );
    report.config("fleet_dies", world.fleet.len());
    report.config("requests_per_point", world.schedule.len());
    if kind == Kind::Lookup {
        report.config("bring_up_requests", world.bring_up.len());
        report.config("status_share_pct", fleet::STATUS_SHARE_PCT);
    }
    report.config("flush_policy", ServerConfig::default().flush.config_name());
    report.config(
        "transport",
        "loopback TCP, one pipelined connection, open loop",
    );
    report.config(
        "cpu",
        util::pinned_cpu().map_or("not pinned".to_string(), |c| format!("pinned to cpu{c}")),
    );
    report.config("p99_limit_us", P99_LIMIT_US);
    report.config("reference_rate_rps", kind.reference_rate());
    report.config(
        "ladder",
        format!("{LADDER_BASE} * {LADDER_STEP}^k req/s, k < {LADDER_RUNGS}"),
    );
}

/// Registration outcomes of the traffic, from the oracle's responses.
fn registry_shares(world: &World, bring_up: &[Vec<u8>], oracle: &Oracle, report: &mut Report) {
    let (mut registers, mut fresh, mut dup) = (0u64, 0u64, 0u64);
    let reqs = world.bring_up.iter().chain(&world.schedule);
    for (req, payload) in reqs.zip(bring_up.iter().chain(&oracle.payloads)) {
        if !matches!(req, Request::Register { .. }) {
            continue;
        }
        registers += 1;
        let text = String::from_utf8_lossy(payload);
        if text.contains("\"registered\"") {
            fresh += 1;
        } else if text.contains("duplicate_readout") {
            dup += 1;
        }
    }
    report.metric(
        "registry.fresh_share",
        "ratio",
        fresh as f64 / registers.max(1) as f64,
        registers,
    );
    report.metric(
        "registry.duplicate_share",
        "ratio",
        dup as f64 / registers.max(1) as f64,
        registers,
    );
}

/// Runs a serving workload.
///
/// # Errors
///
/// Socket, filesystem or set-up failures (not response mismatches, which
/// are counted).
pub fn run(kind: Kind, opts: &Opts) -> io::Result<Report> {
    let started = Instant::now();
    let mut report = Report::new(kind.name());
    let mut setups = util::SetupTimes::default();
    // A few set-ups now; the run times more between its rounds.
    let world = setups.repeat(opts, 0.0, || setup_world(kind, opts))?;
    describe(kind, &world, &mut report);
    let (bring_up_oracle, oracle) = world.oracle()?;
    registry_shares(&world, &bring_up_oracle, &oracle, &mut report);

    let work = WorkDir::new(kind.name())?;
    let mut bench = Bench {
        world: &world,
        oracle: oracle.clone(),
        dies: world.dies(),
        work,
        target: Target::Fresh,
        points: 0,
        discarded: 0,
        totals: Check::default(),
        journal_failures: 0,
        corrupt: opts.corrupt_response,
    };
    if kind == Kind::Lookup {
        let (server, resps) = world.server(&bench.work.path().join("journal.jsonl"))?;
        let got: Vec<Vec<u8>> = resps.iter().map(payload_bytes).collect();
        bench
            .totals
            .absorb(&check_responses(&got, &bring_up_oracle, &bench.dies));
        let tcp = TcpServer::spawn_with_poll(
            "127.0.0.1:0",
            Arc::clone(&server),
            ServerConfig::default().accept_poll_ms,
        )?;
        bench.target = Target::Shared { server, tcp };
    }

    let mut digests = Vec::new();
    if opts.trace {
        let p = bench.measure(kind.reference_rate())?;
        digests.push(p.check.digest);
        traced_layers(&world, &bench, &p, opts, &mut report)?;
    } else {
        let max_rate = bench.search()?;
        let (mut saturated, mut p50s, mut p90s, mut p99s, mut lates, mut backlogs) = (
            Kept::default(),
            Kept::default(),
            Kept::default(),
            Kept::default(),
            Kept::default(),
            Kept::default(),
        );
        let mut rounds = 0;
        // Past `--seconds`, keep going (up to the deadline) until enough
        // reference points ran without the host stealing CPU time.
        while rounds < opts.min_rounds()
            || started.elapsed().as_secs_f64() < opts.seconds
            || (p50s.clean() < opts.min_clean()
                && started.elapsed().as_secs_f64() < opts.deadline())
        {
            rounds += 1;
            let p = bench.measure(f64::INFINITY)?;
            let rate = p.point.payloads.len() as f64 / p.point.wall.as_secs_f64();
            saturated.push(rate, p.point.stolen());
            let p = bench.measure(kind.reference_rate())?;
            let stolen = p.point.stolen();
            digests.push(p.check.digest);
            let us = |q| percentile(&mut p.point.latency_ns.clone(), q) as f64 / 1e3;
            p50s.push(us(50.0), stolen);
            p90s.push(us(90.0), stolen);
            p99s.push(us(99.0), stolen);
            lates.push(
                percentile(&mut p.point.late_ns.clone(), 99.0) as f64 / 1e3,
                stolen,
            );
            backlogs.push(f64::from(p.point.backlog_max()), stolen);
            if setups.behind(SETUP_SHARE, started.elapsed().as_secs_f64()) {
                drop(setups.time(|| setup_world(kind, opts))?);
            }
        }
        let pts = (world.schedule.len() * p50s.used().len()) as u64;
        let sat = saturated.used().len() as u64;
        report.metric("max_rate_rps", "1/s", max_rate, 1);
        report.metric("saturated_rps", "1/s", saturated.median(), sat);
        report.metric("ops_per_s", "1/s", saturated.slow_quartile(true), sat);
        report.metric("p50_us", "us", p50s.slow_quartile(false), pts);
        report.metric("p90_us", "us", p90s.slow_quartile(false), pts);
        report.metric("p99_us", "us", p99s.slow_quartile(false), pts);
        report.metric("loadgen.late_p99_us", "us", lates.median(), pts);
        report.metric("loadgen.backlog_max", "count", backlogs.max(), pts);
        report.config("rounds", rounds);
        report.config("reference_points_clean", p50s.clean());
    }
    setups.report(&mut report);
    report.config("rate_points", bench.points);
    report.config("rate_points_discarded_for_steal", bench.discarded);

    if let Target::Shared { server, tcp } = std::mem::replace(&mut bench.target, Target::Fresh) {
        tcp.shutdown();
        let committed = server.commit_journal().is_ok();
        drop(server);
        let path = bench.work.path().join("journal.jsonl");
        if !(committed && journal_matches(&path, &oracle)?) {
            bench.journal_failures += 1;
        }
    }

    let totals = &bench.totals;
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    report.digest = digests.first().copied().unwrap_or(0);
    if digests.iter().any(|&d| d != report.digest) {
        report
            .verdict
            .push("response streams differ between rate points".into());
        report.correct = false;
    }
    report.verdict.push(format!(
        "{} responses compared with the in-process replay, {} differ or were refused",
        totals.attempted, totals.failed
    ));
    report.verdict.push(format!(
        "{} keys delivered, {} failed to unlock their die",
        totals.keys, totals.bad_keys
    ));
    report.verdict.push(format!(
        "{} reopened journals differ from the replay's digest",
        bench.journal_failures
    ));
    if totals.bad_keys > 0 || bench.journal_failures > 0 {
        report.correct = false;
    }
    report.metric("fail_ratio", "ratio", report.fail_ratio(), totals.attempted);
    report.metric("peak_rss_mb", "MiB", util::peak_rss_mb(), 1);
    Ok(report)
}

/// The traced run's per-layer numbers: the reference-rate point already
/// served, an in-process replay with spans at every layer boundary, and
/// the shared probes.
fn traced_layers(
    world: &World,
    bench: &Bench<'_>,
    p: &Point,
    opts: &Opts,
    report: &mut Report,
) -> io::Result<()> {
    let n = p.point.payloads.len().max(1) as u64;
    report.metric(
        "loadgen.late_p99_us",
        "us",
        percentile(&mut p.point.late_ns.clone(), 99.0) as f64 / 1e3,
        n,
    );
    report.metric(
        "loadgen.backlog_max",
        "count",
        f64::from(p.point.backlog_max()),
        n,
    );
    report.metric(
        "wire.bytes_per_req",
        "B",
        (world.frames.byte_len() + p.point.reply_bytes) as f64 / n as f64,
        n,
    );
    let snapshot = match (&p.snapshot, &bench.target) {
        (Some(s), _) => s.clone(),
        (None, Target::Shared { server, .. }) => server.snapshot(),
        (None, Target::Fresh) => Snapshot::default(),
    };
    // Transport overhead: what the client saw minus what the handler
    // spent, from the server's own `service_handler_ns` histogram.
    let handler = snapshot
        .family("service_handler_ns")
        .map_or((0u64, 0u64), |f| {
            f.series.iter().fold((0, 0), |acc, s| match &s.value {
                hwm_metrics::SeriesValue::Hist(h) => (acc.0 + h.sum, acc.1 + h.count),
                hwm_metrics::SeriesValue::Int(_) => acc,
            })
        });
    let client_us = p.point.sent_to_reply_ns.iter().sum::<u64>() as f64 / n as f64 / 1e3;
    let handler_us = handler.0 as f64 / handler.1.max(1) as f64 / 1e3;
    report.metric("transport.rtt_overhead_us", "us", client_us - handler_us, n);
    let refused: u64 = snapshot.family("service_requests_total").map_or(0, |f| {
        f.series
            .iter()
            .filter(|s| {
                s.labels
                    .iter()
                    .any(|(k, v)| k == "outcome" && (v == "throttled" || v == "locked_out"))
            })
            .map(|s| match s.value {
                hwm_metrics::SeriesValue::Int(v) => v,
                hwm_metrics::SeriesValue::Hist(_) => 0,
            })
            .sum()
    });
    report.metric("throttle.rejected", "count", refused as f64, n);

    // Journal: append time as the registry itself exports it; the commit
    // barrier as the benchmark timed it. Flush batching is observed on the
    // in-process replay below.
    let append = snapshot
        .histogram("journal_append_ns", &[])
        .map_or(0.0, |h| h.mean() as f64 / 1e3);
    let appends = snapshot
        .histogram("journal_append_ns", &[])
        .map_or(0, |h| h.count);
    report.metric("journal.append_us", "us", append, appends);
    let commit = match &bench.target {
        Target::Shared { server, .. } => {
            let t0 = Instant::now();
            let _ = server.commit_journal();
            t0.elapsed()
        }
        Target::Fresh => p.commit,
    };
    report.metric("journal.commit_us", "us", commit.as_nanos() as f64 / 1e3, 1);
    let events = bench.oracle.journal_len;
    let bytes = if p.journal_bytes > 0 {
        p.journal_bytes
    } else {
        std::fs::metadata(bench.work.path().join("journal.jsonl")).map_or(0, |m| m.len())
    };
    report.metric(
        "journal.bytes_per_event",
        "B",
        bytes as f64 / events.max(1) as f64,
        events,
    );

    // The in-process replay on fresh servers, untraced and traced in
    // alternating order; the overhead compares their medians.
    let reqs = &world.schedule;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spans = Spans::default();
    let mut last_server = None;
    let (mut appended, mut flushes) = (0, 0);
    for round in 0..TRACE_ROUNDS {
        for with_spans in [round % 2 == 0, round % 2 == 1] {
            let path = bench.work.path().join("replay.jsonl");
            let (server, _) = world.server(&path)?;
            let t0 = Instant::now();
            if with_spans {
                spans = Spans::default();
                traced_replay(&server, reqs, &mut spans)?;
                traced.push(t0.elapsed().as_secs_f64());
                last_server = Some(server);
            } else {
                let (len0, writes0) = (
                    server.with_registry(|r| r.journal_len()),
                    util::write_syscalls(),
                );
                replay(&server, reqs)?;
                plain.push(t0.elapsed().as_secs_f64());
                appended = server.with_registry(|r| r.journal_len()) - len0;
                flushes = util::write_syscalls() - writes0;
            }
        }
    }
    // Nothing else in the process writes during the replay, so each write
    // system call is one journal flush reaching the file.
    report.metric(
        "journal.events_per_flush",
        "count",
        appended as f64 / flushes.max(1) as f64,
        appended,
    );
    let enc = spans.mean_ns("encode");
    let dec = spans.mean_ns("decode");
    report.metric("wire.encode_ns", "ns", enc, spans.count("encode"));
    report.metric("wire.decode_ns", "ns", dec, spans.count("decode"));
    for op in ["register", "unlock", "status", "disable"] {
        let key = format!("handle/{op}");
        let us = spans.mean_ns(&key) / 1e3;
        report.metric(
            &format!("server.handle_us.{op}"),
            "us",
            us,
            spans.count(&key),
        );
    }
    let overhead = (util::median(&traced) / util::median(&plain) - 1.0) * 100.0;
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        overhead,
        TRACE_ROUNDS as u64,
    );

    throttle_probe(reqs, report);
    if let Some(server) = last_server {
        layers::metrics_probe(server.metrics(), report);
    }
    layers::metering_probe(&world.spec, &world.fleet, report)?;
    layers::fabricate_probe(&world.designer, world.fleet.len(), opts.seed, report);
    layers::attacks_probe(&world.designer, opts.seed, report);
    // The cluster layer on this workload's traffic, bring-up included.
    let traffic: Vec<Request> = world
        .bring_up
        .iter()
        .chain(&world.schedule)
        .cloned()
        .collect();
    crate::failover::cluster_probe(&world.designer, &traffic, opts.seed, report)
}

/// The in-process transport's work per request — encode, decode,
/// dispatch, encode, decode — with a span around each step.
fn traced_replay(
    server: &Arc<ActivationServer>,
    reqs: &[Request],
    spans: &mut Spans,
) -> io::Result<()> {
    let mut scratch = FrameScratch::new();
    let mut wire = Vec::new();
    for req in reqs {
        wire.clear();
        let traced = TracedRequest::untraced(req.clone());
        spans.time("encode", || {
            write_frame_with(&mut scratch, &mut wire, &traced.to_json())
        })?;
        let decoded = spans.time("decode", || -> io::Result<TracedRequest> {
            let json =
                read_frame(&mut wire.as_slice())?.ok_or_else(|| io::Error::other("truncated"))?;
            TracedRequest::from_json(&json).map_err(|e| io::Error::other(e.message))
        })?;
        let name = match decoded.req {
            Request::Register { .. } => "handle/register",
            Request::Unlock { .. } => "handle/unlock",
            Request::Status { .. } => "handle/status",
            _ => "handle/disable",
        };
        let resp = spans.time(name, || server.handle_at(&decoded.req, None));
        wire.clear();
        spans.time("encode", || {
            write_frame_with(&mut scratch, &mut wire, &resp.to_json())
        })?;
        spans.time("decode", || -> io::Result<Response> {
            let json =
                read_frame(&mut wire.as_slice())?.ok_or_else(|| io::Error::other("truncated"))?;
            Response::from_json(&json).map_err(|e| io::Error::other(e.message))
        })?;
    }
    Ok(())
}

/// Admission checks for the traffic's (client, tick) sequence on a
/// limiter with the server's default tuning.
pub fn throttle_probe(reqs: &[Request], report: &mut Report) {
    let mut limiter = RateLimiter::new(ServerConfig::default().throttle);
    let t0 = Instant::now();
    for (tick, req) in reqs.iter().enumerate() {
        std::hint::black_box(limiter.check(req.client(), tick as u64 + 1));
    }
    report.metric(
        "throttle.check_ns",
        "ns",
        t0.elapsed().as_nanos() as f64 / reqs.len().max(1) as f64,
        reqs.len() as u64,
    );
}
