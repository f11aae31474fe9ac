//! The `failover` workload: an in-process [`ClusterRouter`] over three
//! replicated shards, one leader killed at a seeded tick, driven by a
//! single closed-loop caller and checked against a single-node oracle.
//!
//! Known defect, counted rather than hidden: throttle failure streaks
//! are kept per shard. A wrong guess routed to one shard is not cleared
//! by the successful unlock routed to another, so a client can be locked
//! out on a shard where the single-node oracle never locks it out. Each
//! such response (the cluster answers `locked_out`, the oracle does not)
//! counts as a failure. Any other divergence makes the run incorrect.

use crate::fleet::{self, Die, LockSpec};
use crate::layers::{self, Spans};
use crate::report::Report;
use crate::serving::{payload_bytes, replay, warm_designer};
use crate::util::{self, Kept};
use crate::Opts;
use hwm_cluster::{
    ClusterError, ClusterRouter, LocalLink, NodeLink, RepFrame, ShardGroup, ShardNode,
};
use hwm_metering::{Designer, UnlockKey};
use hwm_metrics::{percentile, MetricsRegistry, SeriesValue};
use hwm_service::registry::{digest_update, DIGEST_BASIS};
use hwm_service::wire::{read_frame, write_frame_with, FrameScratch};
use hwm_service::{
    ActivationServer, Client, ErrorCode, FaultKind, FaultPlan, Handler, LocalClient, Registry,
    Request, Response, ServerConfig, ServerRole, TracedRequest,
};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs of an epoch while the host steals CPU time (the last counts).
const STEAL_ATTEMPTS: usize = 5;
/// Shards (replica groups).
pub const SHARDS: usize = 3;
/// Followers per shard.
pub const FOLLOWERS: usize = 2;
/// Virtual nodes per shard on the hash ring.
pub const VNODES: usize = 64;
/// Fab lines sending traffic.
pub const CLIENTS: usize = 16;
/// Dies per fab line.
pub const PER_CLIENT: usize = 64;

/// A link that records how long each replication frame takes, by kind.
struct TimedLink {
    inner: LocalLink,
    spans: Arc<Mutex<Spans>>,
}

impl NodeLink for TimedLink {
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        let name = match frame {
            RepFrame::Forward { .. } => "forward",
            RepFrame::Append { .. } => "append",
            RepFrame::Snapshot { .. } => "snapshot",
            RepFrame::Promote { .. } => "promote",
            _ => "other",
        };
        let t0 = Instant::now();
        let reply = self.inner.call(frame);
        let ns = t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span lock").record(name, ns);
        reply
    }
}

struct World {
    designer: Designer,
    fleet: Vec<Die>,
    schedule: Vec<Request>,
    plan: FaultPlan,
}

impl World {
    fn build(opts: &Opts) -> io::Result<World> {
        let designer = warm_designer(&LockSpec::nine_ff())?;
        let fleet = fleet::fabricate(&designer, opts.scaled(CLIENTS * PER_CLIENT), opts.seed);
        let schedule = fleet::interleaved_schedule(&fleet, CLIENTS, opts.seed);
        Ok(World::new(designer, fleet, schedule, opts.seed))
    }

    /// A world around given traffic, with the leader kill drawn from `seed`.
    fn new(designer: Designer, fleet: Vec<Die>, schedule: Vec<Request>, seed: u64) -> World {
        let eligible: Vec<u64> = (1..=schedule.len() as u64).collect();
        let plan = FaultPlan::new(seed, FaultKind::ConnDrop, &eligible, 1);
        World {
            designer,
            fleet,
            schedule,
            plan,
        }
    }

    /// A fresh cluster; `spans` wraps every link in a [`TimedLink`].
    fn cluster(
        &self,
        spans: Option<&Arc<Mutex<Spans>>>,
    ) -> (ClusterRouter, Vec<Vec<Arc<ShardNode>>>) {
        let mut nodes = Vec::new();
        let mut groups = Vec::new();
        for shard in 0..SHARDS {
            let replicas: Vec<Arc<ShardNode>> = (0..=FOLLOWERS)
                .map(|i| {
                    let role = if i == 0 {
                        ServerRole::Leader
                    } else {
                        ServerRole::Follower
                    };
                    let config = ServerConfig {
                        role,
                        ..ServerConfig::default()
                    };
                    let server = Arc::new(ActivationServer::new(
                        self.designer.clone(),
                        Registry::in_memory(),
                        config,
                    ));
                    if i == 0 {
                        server.enable_replication();
                    }
                    Arc::new(ShardNode::new(shard as u64, server))
                })
                .collect();
            let mut links: Vec<Box<dyn NodeLink>> = replicas
                .iter()
                .map(|node| -> Box<dyn NodeLink> {
                    let inner = LocalLink::new(Arc::clone(node));
                    match spans {
                        Some(s) => Box::new(TimedLink {
                            inner,
                            spans: Arc::clone(s),
                        }),
                        None => Box::new(inner),
                    }
                })
                .collect();
            let leader = links.remove(0);
            groups.push(ShardGroup {
                leader,
                followers: links,
            });
            nodes.push(replicas);
        }
        (
            ClusterRouter::new(groups, VNODES, Some(self.plan.clone())),
            nodes,
        )
    }
}

/// What one epoch measured.
struct Epoch {
    latencies_ns: Vec<u64>,
    wall_s: f64,
    responses: Vec<Response>,
    /// Whether every live follower's journal matches its leader's.
    followers_converged: bool,
}

fn live_digests_agree(nodes: &[Vec<Arc<ShardNode>>], router: &ClusterRouter) -> bool {
    if router.sync_replication().is_err() {
        return false;
    }
    let failed: Vec<usize> = router.timeline().iter().map(|f| f.shard).collect();
    nodes.iter().enumerate().all(|(shard, replicas)| {
        let live = &replicas[usize::from(failed.contains(&shard))..];
        let state = |n: &Arc<ShardNode>| {
            n.server()
                .with_registry(|r| (r.journal_len(), r.rolling_digest()))
        };
        live.iter().all(|n| state(n) == state(&live[0]))
    })
}

fn run_epoch(world: &World) -> io::Result<Epoch> {
    let (router, nodes) = world.cluster(None);
    let router = Arc::new(router);
    let mut client = LocalClient::new(Arc::clone(&router));
    let mut latencies_ns = Vec::with_capacity(world.schedule.len());
    let mut responses = Vec::with_capacity(world.schedule.len());
    let t0 = Instant::now();
    for req in &world.schedule {
        let t = Instant::now();
        let resp = client.call(req).map_err(|e| io::Error::other(e.message))?;
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        responses.push(resp);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let followers_converged = live_digests_agree(&nodes, &router);
    Ok(Epoch {
        latencies_ns,
        wall_s,
        responses,
        followers_converged,
    })
}

/// Per-response comparison with the oracle.
#[derive(Debug, Default)]
struct Divergence {
    /// Responses that differ from the oracle.
    divergent: u64,
    /// First divergent response (1-based tick) and whether it is the
    /// known defect (see [`throttle_divergence`]). Every later divergence
    /// follows from that one: lockout state, and with it the fleet counts
    /// in `Status` replies, no longer agree.
    first: Option<(usize, bool)>,
    /// The first divergent pair: cluster response, oracle response.
    first_pair: Option<(String, String)>,
    bad_keys: u64,
}

/// Whether `got` differs from the oracle's `want` only in lockout state —
/// the per-shard failure-streak defect: one side refuses with
/// `locked_out`, or both return the same error but only one of them
/// fires a lockout (`retry_at`) because the streak was split across, or
/// never cleared on, a shard.
fn throttle_divergence(got: &Response, want: &[u8]) -> bool {
    let want = std::str::from_utf8(want)
        .ok()
        .and_then(|t| hwm_jsonio::Json::parse(t).ok())
        .and_then(|j| Response::from_json(&j).ok());
    let locked = |r: &Response| r.has_code(ErrorCode::LockedOut);
    match (got, &want) {
        (_, Some(w)) if locked(got) || locked(w) => true,
        (
            Response::Error {
                code: a,
                retry_at: ra,
                ..
            },
            Some(Response::Error {
                code: b,
                retry_at: rb,
                ..
            }),
        ) => a == b && ra != rb,
        _ => false,
    }
}

fn compare(got: &[Response], oracle: &[Vec<u8>], dies: &HashMap<&str, &Die>) -> Divergence {
    let mut d = Divergence::default();
    for (i, (resp, want)) in got.iter().zip(oracle).enumerate() {
        if payload_bytes(resp) != *want {
            d.divergent += 1;
            d.first
                .get_or_insert((i + 1, throttle_divergence(resp, want)));
            d.first_pair.get_or_insert_with(|| {
                (
                    String::from_utf8_lossy(&payload_bytes(resp)).into_owned(),
                    String::from_utf8_lossy(want).into_owned(),
                )
            });
            continue;
        }
        if let Response::Key { ic, key } = resp {
            let ok = dies.get(ic.as_str()).is_some_and(|die| {
                die.chip
                    .clone()
                    .apply_key(&UnlockKey {
                        values: key.clone(),
                    })
                    .is_ok()
            });
            if !ok {
                d.bad_keys += 1;
            }
        }
    }
    d.divergent += oracle.len().abs_diff(got.len()) as u64;
    d
}

/// Runs the `failover` workload.
///
/// # Errors
///
/// Set-up or cluster transport failures (response divergence is counted,
/// not raised).
pub fn run(opts: &Opts) -> io::Result<Report> {
    let started = Instant::now();
    let mut report = Report::new("failover");
    let mut setups = util::SetupTimes::default();
    let world = setups.repeat(opts, 1.5, || {
        let w = World::build(opts)?;
        drop(w.cluster(None));
        Ok(w)
    })?;
    setups.report(&mut report);
    report.config("lock", LockSpec::nine_ff().label);
    report.config(
        "cluster",
        format!("{SHARDS} shards x (1 leader + {FOLLOWERS} followers), {VNODES} vnodes, in-process links, replication window 1"),
    );
    report.config(
        "traffic",
        format!(
            "{CLIENTS} fab lines x {} dies, one closed-loop caller",
            world.fleet.len() / CLIENTS
        ),
    );
    report.config("requests_per_epoch", world.schedule.len());
    report.config("leader_kill_tick", format!("{:?}", world.plan.crash_ticks));

    let oracle_server = Arc::new(ActivationServer::new(
        world.designer.clone(),
        Registry::in_memory(),
        ServerConfig::default(),
    ));
    let oracle: Vec<Vec<u8>> = replay(&oracle_server, &world.schedule)?
        .iter()
        .map(payload_bytes)
        .collect();
    let dies: HashMap<&str, &Die> = world.fleet.iter().map(|d| (d.ic.as_str(), d)).collect();
    let crash = world.plan.crash_ticks.first().map_or(0, |&t| t as usize);

    let (mut attempted, mut failed, mut bad_keys, mut diverged_followers) =
        (0u64, 0u64, 0u64, 0u64);
    let mut first = None;
    let mut first_pair: Option<(String, String)> = None;
    let mut digest = None;
    let (mut rates, mut p50s, mut p90s, mut p99s, mut failovers) = (
        Kept::default(),
        Kept::default(),
        Kept::default(),
        Kept::default(),
        Kept::default(),
    );
    let mut discarded = 0;
    let mut epochs = 0;
    let mut absorb = |e: &Epoch, report: &mut Report| {
        let d = compare(&e.responses, &oracle, &dies);
        attempted += oracle.len() as u64;
        failed += d.divergent;
        bad_keys += d.bad_keys;
        diverged_followers += u64::from(!e.followers_converged);
        first = first.or(d.first);
        if first_pair.is_none() {
            first_pair = d.first_pair.clone();
        }
        let dg = e
            .responses
            .iter()
            .fold(DIGEST_BASIS, |s, r| digest_update(s, &payload_bytes(r)));
        if *digest.get_or_insert(dg) != dg {
            report.correct = false;
            report
                .verdict
                .push("response streams differ between epochs".into());
        }
    };
    if opts.trace {
        let e = run_epoch(&world)?;
        absorb(&e, &mut report);
        traced_layers(&world, &e, &oracle, opts, &mut report)?;
    } else {
        // Past `--seconds`, keep going (up to the deadline) until enough
        // epochs ran without the host stealing CPU time.
        while epochs < opts.min_rounds()
            || started.elapsed().as_secs_f64() < opts.seconds
            || (rates.clean() < opts.min_clean()
                && started.elapsed().as_secs_f64() < opts.deadline())
        {
            epochs += 1;
            let (e, stolen) = util::unstolen(STEAL_ATTEMPTS, &mut discarded, || run_epoch(&world))?;
            absorb(&e, &mut report);
            rates.push(e.latencies_ns.len() as f64 / e.wall_s, stolen);
            let us = |q| percentile(&mut e.latencies_ns.clone(), q) as f64 / 1e3;
            p50s.push(us(50.0), stolen);
            p90s.push(us(90.0), stolen);
            p99s.push(us(99.0), stolen);
            if crash > 0 {
                failovers.push(e.latencies_ns[crash - 1] as f64 / 1e6, stolen);
            }
        }
        let reqs = world.schedule.len() as u64 * rates.used().len() as u64;
        report.metric("throughput_rps", "1/s", rates.median(), reqs);
        report.metric("ops_per_s", "1/s", rates.slow_quartile(true), reqs);
        report.metric("p50_us", "us", p50s.slow_quartile(false), reqs);
        report.metric("p90_us", "us", p90s.slow_quartile(false), reqs);
        report.metric("p99_us", "us", p99s.slow_quartile(false), reqs);
        report.metric(
            "failover_ms",
            "ms",
            failovers.median(),
            failovers.used().len() as u64,
        );
        report.config("epochs_clean", rates.clean());
        report.config("epochs", epochs);
        report.config("epochs_discarded_for_steal", discarded);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.digest = digest.unwrap_or(0);
    let known = first.is_none_or(|(_, known)| known);
    report.verdict.push(format!(
        "{attempted} responses compared with the single-node oracle: {failed} differ"
    ));
    if let Some((tick, _)) = first {
        report.verdict.push(format!(
            "first divergence at request #{tick}: {}",
            if known {
                "lockout state differs, from per-shard throttle failure streaks (known defect; later divergences follow from it)"
            } else {
                "not the known throttle-streak defect"
            }
        ));
    }
    if let Some((got, want)) = &first_pair {
        report.verdict.push(format!(
            "first divergent response: cluster {got} / oracle {want}"
        ));
    }
    report.verdict.push(format!(
        "{bad_keys} delivered keys failed to unlock their die"
    ));
    report.verdict.push(format!(
        "{diverged_followers} epochs ended with a follower journal unlike its leader's"
    ));
    if !known || bad_keys > 0 || diverged_followers > 0 {
        report.correct = false;
    }
    report.metric("fail_ratio", "ratio", report.fail_ratio(), attempted);
    report.metric("peak_rss_mb", "MiB", util::peak_rss_mb(), 1);
    Ok(report)
}

/// One pass of a world's schedule through a fresh cluster whose links
/// are timed, with a span around each step a client's request takes.
struct TimedPass {
    /// `encode`, `decode` and `router` spans.
    steps: Spans,
    /// Replication frames by kind (`forward`, `append`, ...).
    links: Spans,
    lag_max: u64,
    wire_bytes: usize,
    responses: Vec<Response>,
    routing: Vec<u64>,
    wall_s: f64,
    /// The replicas, for their own exported metrics.
    nodes: Vec<Vec<Arc<ShardNode>>>,
    /// The router's metrics registry after the pass.
    router_metrics: Arc<MetricsRegistry>,
}

fn timed_pass(world: &World) -> io::Result<TimedPass> {
    let spans = Arc::new(Mutex::new(Spans::default()));
    let (router, nodes) = world.cluster(Some(&spans));
    let mut steps = Spans::default();
    let mut scratch = FrameScratch::new();
    let mut buf = Vec::new();
    let (mut lag_max, mut wire_bytes) = (0u64, 0usize);
    let mut responses = Vec::with_capacity(world.schedule.len());
    let t0 = Instant::now();
    for (i, req) in world.schedule.iter().enumerate() {
        buf.clear();
        let traced = TracedRequest::untraced(req.clone());
        steps.time("encode", || {
            write_frame_with(&mut scratch, &mut buf, &traced.to_json())
        })?;
        let decoded = steps.time("decode", || -> io::Result<TracedRequest> {
            let json =
                read_frame(&mut buf.as_slice())?.ok_or_else(|| io::Error::other("truncated"))?;
            TracedRequest::from_json(&json).map_err(|e| io::Error::other(e.message))
        })?;
        let resp = steps.time("router", || router.handle(&decoded.req));
        wire_bytes += buf.len();
        buf.clear();
        steps.time("encode", || {
            write_frame_with(&mut scratch, &mut buf, &resp.to_json())
        })?;
        wire_bytes += buf.len();
        responses.push(steps.time("decode", || -> io::Result<Response> {
            let json =
                read_frame(&mut buf.as_slice())?.ok_or_else(|| io::Error::other("truncated"))?;
            Response::from_json(&json).map_err(|e| io::Error::other(e.message))
        })?);
        if i % 64 == 63 {
            let snap = router.snapshot();
            if let Some(f) = snap.family("cluster_replication_lag") {
                for s in &f.series {
                    if let SeriesValue::Int(v) = s.value {
                        lag_max = lag_max.max(v);
                    }
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let links = spans.lock().expect("span lock").clone();
    Ok(TimedPass {
        steps,
        links,
        lag_max,
        wire_bytes,
        responses,
        routing: router.routing_counts(),
        wall_s,
        nodes,
        router_metrics: Arc::clone(router.metrics()),
    })
}

/// The cluster layer's metrics from a timed pass: router time per
/// request, replication time per shipped batch, the largest follower lag
/// seen, routing skew (busiest shard over the mean), and responses that
/// differ from the single-node oracle.
fn report_cluster(pass: &TimedPass, oracle: &[Vec<u8>], report: &mut Report) {
    let n = pass.responses.len() as u64;
    report.metric(
        "router.handle_us",
        "us",
        pass.steps.mean_ns("router") / 1e3,
        n,
    );
    let appends = pass.links.count("append");
    report.metric(
        "replication.sync_us",
        "us",
        pass.links.mean_ns("append") / 1e3,
        appends,
    );
    report.metric(
        "replication.lag_events_max",
        "count",
        pass.lag_max as f64,
        n / 64,
    );
    let mean = pass.routing.iter().sum::<u64>() as f64 / pass.routing.len().max(1) as f64;
    let max = pass.routing.iter().copied().max().unwrap_or(0) as f64;
    report.metric(
        "cluster.route_skew",
        "ratio",
        max / mean.max(1.0),
        pass.routing.len() as u64,
    );
    let divergent = pass
        .responses
        .iter()
        .zip(oracle)
        .filter(|(r, want)| payload_bytes(r) != **want)
        .count();
    report.metric("cluster.oracle_divergent", "count", divergent as f64, n);
}

/// The cluster layer on another workload's traffic: `schedule` through a
/// fresh cluster of this workload's shape (seeded leader kill included),
/// reporting the cluster metrics only.
///
/// # Errors
///
/// Cluster transport failures.
pub fn cluster_probe(
    designer: &Designer,
    schedule: &[Request],
    seed: u64,
    report: &mut Report,
) -> io::Result<()> {
    let world = World::new(designer.clone(), Vec::new(), schedule.to_vec(), seed);
    let oracle_server = Arc::new(ActivationServer::new(
        designer.clone(),
        Registry::in_memory(),
        ServerConfig::default(),
    ));
    let oracle: Vec<Vec<u8>> = replay(&oracle_server, schedule)?
        .iter()
        .map(payload_bytes)
        .collect();
    report_cluster(&timed_pass(&world)?, &oracle, report);
    Ok(())
}

fn traced_layers(
    world: &World,
    first: &Epoch,
    oracle: &[Vec<u8>],
    opts: &Opts,
    report: &mut Report,
) -> io::Result<()> {
    let pass = timed_pass(world)?;
    let plain_s = run_epoch(world)?.wall_s.min(first.wall_s);
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        (pass.wall_s / plain_s - 1.0) * 100.0,
        2,
    );
    let n = world.schedule.len() as u64;
    let wire = &pass.steps;
    report.metric(
        "wire.encode_ns",
        "ns",
        wire.mean_ns("encode"),
        wire.count("encode"),
    );
    report.metric(
        "wire.decode_ns",
        "ns",
        wire.mean_ns("decode"),
        wire.count("decode"),
    );
    report.metric(
        "wire.bytes_per_req",
        "B",
        pass.wire_bytes as f64 / n.max(1) as f64,
        n,
    );
    report_cluster(&pass, oracle, report);

    // The shards' own exports: handler time by op and journal appends.
    let mut handle: HashMap<String, (u64, u64)> = HashMap::new();
    let (mut append_ns, mut appends, mut journal_bytes, mut events) = (0u64, 0u64, 0u64, 0u64);
    for replicas in &pass.nodes {
        for node in replicas {
            let snap = node.server().snapshot();
            if let Some(f) = snap.family("service_handler_ns") {
                for s in &f.series {
                    if let (Some((_, op)), SeriesValue::Hist(h)) =
                        (s.labels.iter().find(|(k, _)| k == "op"), &s.value)
                    {
                        let e = handle.entry(op.clone()).or_insert((0, 0));
                        e.0 += h.sum;
                        e.1 += h.count;
                    }
                }
            }
            if let Some(h) = snap.histogram("journal_append_ns", &[]) {
                append_ns += h.sum;
                appends += h.count;
            }
            node.server().with_registry(|r| {
                journal_bytes += r.journal_bytes().map_or(0, |b| b.len() as u64);
                events += r.journal_len();
            });
        }
    }
    for op in ["register", "unlock", "status", "disable"] {
        let (sum, n) = handle.get(op).copied().unwrap_or((0, 0));
        report.metric(
            &format!("server.handle_us.{op}"),
            "us",
            sum as f64 / n.max(1) as f64 / 1e3,
            n,
        );
    }
    report.metric(
        "journal.append_us",
        "us",
        append_ns as f64 / appends.max(1) as f64 / 1e3,
        appends,
    );
    report.metric(
        "journal.bytes_per_event",
        "B",
        journal_bytes as f64 / events.max(1) as f64,
        events,
    );
    let registers = world
        .schedule
        .iter()
        .filter(|r| matches!(r, Request::Register { .. }))
        .count() as u64;
    let accepted = first
        .responses
        .iter()
        .filter(|r| matches!(r, Response::Registered { .. }))
        .count() as u64;
    let dups = first
        .responses
        .iter()
        .filter(|r| r.has_code(ErrorCode::DuplicateReadout))
        .count() as u64;
    report.metric(
        "registry.fresh_share",
        "ratio",
        accepted as f64 / registers.max(1) as f64,
        registers,
    );
    report.metric(
        "registry.duplicate_share",
        "ratio",
        dups as f64 / registers.max(1) as f64,
        registers,
    );
    let refused = first
        .responses
        .iter()
        .filter(|r| r.has_code(ErrorCode::Throttled) || r.has_code(ErrorCode::LockedOut))
        .count();
    report.metric(
        "throttle.rejected",
        "count",
        refused as f64,
        first.responses.len() as u64,
    );
    crate::serving::throttle_probe(&world.schedule, report);
    layers::metrics_probe(&pass.router_metrics, report);
    layers::metering_probe(&LockSpec::nine_ff(), &world.fleet, report)?;
    layers::fabricate_probe(&world.designer, world.fleet.len(), opts.seed, report);
    layers::attacks_probe(&world.designer, opts.seed, report);
    Ok(())
}
