//! Cluster simulation tests: the golden routing/failover report
//! (`results/cluster.txt`), jobs-invariance, the failover-equals-oracle
//! matrix over seeds and replication transports, and the snapshot
//! catch-up path for a follower that joined late.

use hwm_bench::cluster::{run_cluster_sim, ClusterSimConfig};
use hwm_bench::serve::{bench_designer, build_plans, round_robin, server_config};
use hwm_cluster::{ClusterRouter, LocalLink, NodeLink, RepFrame, ShardGroup, ShardNode};
use hwm_service::{ActivationServer, Handler, Registry, Response, ServerConfig, ServerRole};
use std::path::PathBuf;
use std::sync::Arc;

/// Production seed used by regen_results.sh (the binaries' default).
const GOLDEN_SEED: u64 = 2024;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

#[test]
fn cluster_snapshot_reproduces() {
    let outcome = run_cluster_sim(&ClusterSimConfig::new(GOLDEN_SEED)).expect("sim runs");
    assert!(outcome.matches(), "divergence:\n{}", outcome.report());
    // The binary appends the greppable CI line after a matching run.
    let expected = format!("{}counters sum matches single-node oracle\n", outcome.report());
    assert_eq!(
        expected,
        golden("cluster.txt"),
        "results/cluster.txt is stale — rerun regen_results.sh"
    );
}

/// The checked-in slowest-trace rendering reproduces: same pipeline as
/// `cluster_bench --traces-out` piped through `hwm_traces --slowest 5`.
#[test]
fn trace_rendering_matches_golden() {
    let outcome = run_cluster_sim(&ClusterSimConfig::new(GOLDEN_SEED)).expect("sim runs");
    let spans = hwm_trace::spans_from_jsonl(&outcome.trace_jsonl).expect("dump parses");
    let trees = hwm_trace::TraceQuery {
        slowest: Some(5),
        ..Default::default()
    }
    .run(&spans);
    let rendered = hwm_trace::render_traces(&trees);
    assert_eq!(
        rendered,
        golden("traces.txt"),
        "results/traces.txt is stale — rerun regen_results.sh"
    );
    // The failover request kept its trace id: the retry rides under the
    // same tree as the re-dispatched request.
    assert!(rendered.contains("retry @router"), "{rendered}");
    assert!(rendered.contains("promote @router"), "{rendered}");
}

#[test]
fn cluster_report_is_independent_of_jobs() {
    let jobs1 = run_cluster_sim(&ClusterSimConfig {
        jobs: 1,
        ..ClusterSimConfig::new(GOLDEN_SEED)
    })
    .expect("sim runs");
    let jobs4 = run_cluster_sim(&ClusterSimConfig {
        jobs: 4,
        ..ClusterSimConfig::new(GOLDEN_SEED)
    })
    .expect("sim runs");
    assert_eq!(jobs1.report(), jobs4.report(), "--jobs leaked into the report");
}

/// The acceptance matrix: for each seed, a 3-shard cluster with one
/// injected leader crash must equal the fault-free single-node oracle.
fn assert_failover_matches(seed: u64, tcp: bool) {
    let config = ClusterSimConfig {
        tcp,
        ..ClusterSimConfig::new(seed)
    };
    let outcome = run_cluster_sim(&config).expect("sim runs");
    assert_eq!(outcome.timeline.len(), 1, "seed {seed}: the kill must fire");
    assert!(
        outcome.matches(),
        "seed {seed} tcp={tcp} diverged:\n{}",
        outcome.report()
    );
}

#[test]
fn failover_matches_oracle_in_process() {
    for seed in [GOLDEN_SEED, 7, 99] {
        assert_failover_matches(seed, false);
    }
}

#[test]
fn failover_matches_oracle_over_tcp() {
    for seed in [GOLDEN_SEED, 7, 99] {
        assert_failover_matches(seed, true);
    }
}

fn replica(seed: u64, role: ServerRole) -> Arc<ActivationServer> {
    let config = ServerConfig {
        role,
        ..server_config()
    };
    Arc::new(ActivationServer::new(
        bench_designer(seed),
        Registry::in_memory(),
        config,
    ))
}

fn expect_ack(frame: RepFrame) -> u64 {
    match frame {
        RepFrame::Ack { seq, .. } => seq,
        other => panic!("expected an ack, got {other:?}"),
    }
}

/// A follower that joins mid-stream catches up from a snapshot, then
/// rides the normal append stream, and is promotable.
#[test]
fn snapshot_catchup_then_promotion() {
    let seed = 42;
    let leader_server = replica(seed, ServerRole::Leader);
    leader_server.enable_replication();
    let leader = ShardNode::new(0, Arc::clone(&leader_server));
    let follower_server = replica(seed, ServerRole::Follower);
    let follower = ShardNode::new(0, Arc::clone(&follower_server));

    let designer = bench_designer(seed);
    let schedule = round_robin(&build_plans(&designer, 2, 4, seed, 1));
    let join_at = schedule.len() / 2;
    for (i, req) in schedule.iter().enumerate() {
        let reply = leader.handle_rep(&RepFrame::Forward {
            shard: 0,
            tick: i as u64 + 1,
            req: req.clone(),
            trace: None,
        });
        let (entries, audit) = match reply {
            RepFrame::Reply { entries, audit, .. } => (entries, audit),
            other => panic!("expected a reply, got {other:?}"),
        };
        if i == join_at {
            // The follower joins now: everything so far arrives as one
            // snapshot plus the full audit prefix.
            let snap = leader_server.state_snapshot();
            let (audit_prefix, _) = leader_server.audit_events_since(0);
            let seq = expect_ack(follower.handle_rep(&RepFrame::Snapshot {
                shard: 0,
                snapshot: snap.to_json(),
                audit: audit_prefix,
                trace: None,
            }));
            assert_eq!(seq, leader_server.with_registry(|r| r.journal_len()));
        } else if i > join_at && (!entries.is_empty() || !audit.is_empty()) {
            expect_ack(follower.handle_rep(&RepFrame::Append {
                shard: 0,
                entries,
                audit,
                trace: None,
            }));
        }
    }

    // Caught up: same journal position, same rolling digest.
    let (leader_len, leader_digest) =
        leader_server.with_registry(|r| (r.journal_len(), r.rolling_digest()));
    let (follower_len, follower_digest) =
        follower_server.with_registry(|r| (r.journal_len(), r.rolling_digest()));
    assert_eq!(follower_len, leader_len);
    assert_eq!(follower_digest, leader_digest);
    assert_eq!(
        follower_server.audit_jsonl(),
        leader_server.audit_jsonl(),
        "mirrored audit stream must be byte-identical"
    );

    // And promotable: after promotion the registry states agree.
    expect_ack(follower.handle_rep(&RepFrame::Promote {
        shard: 0,
        clock: schedule.len() as u64,
        trace: None,
    }));
    assert_eq!(follower_server.role(), ServerRole::Leader);
    let leader_records = leader_server.with_registry(|r| r.records().to_vec());
    let follower_records = follower_server.with_registry(|r| r.records().to_vec());
    assert_eq!(follower_records, leader_records);
}

/// One shard whose leader answers and whose followers are wired to the
/// given shard ids (a follower addressed as another shard refuses every
/// shipment).
fn one_shard_router(seed: u64, follower_shards: &[u64]) -> ClusterRouter {
    let leader = replica(seed, ServerRole::Leader);
    leader.enable_replication();
    let link = |shard: u64, server| -> Box<dyn NodeLink> {
        Box::new(LocalLink::new(Arc::new(ShardNode::new(shard, server))))
    };
    let followers = follower_shards
        .iter()
        .map(|&shard| link(shard, replica(seed, ServerRole::Follower)))
        .collect();
    let group = ShardGroup {
        leader: link(0, leader),
        followers,
    };
    ClusterRouter::new(vec![group], 16, None)
}

/// `sync_replication` checks the watermark rule: it passes while every
/// follower acked its leader's journal length and fails once one
/// follower refused a shipment.
#[test]
fn sync_replication_flags_a_follower_behind_its_leader() {
    let seed = 5;
    let schedule = round_robin(&build_plans(&bench_designer(seed), 1, 1, seed, 1));
    let healthy = one_shard_router(seed, &[0, 0]);
    let resp = healthy.handle(&schedule[0]);
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    healthy.sync_replication().expect("every follower acked");

    let lagging = one_shard_router(seed, &[0, 9]);
    let resp = lagging.handle(&schedule[0]);
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    let err = lagging.sync_replication().expect_err("follower 1 never acked");
    assert!(err.message.contains("follower 1 of shard 0"), "{}", err.message);
}
