//! Property-based tests of the serving layer's crash-safety invariants:
//! the rate limiter (token bucket + exponential lockout) and the journal
//! snapshot/compaction machinery.
//!
//! The limiter properties run the real [`RateLimiter`] against a tiny
//! reference model of the parts with exact contracts (lockout lifecycle,
//! failure streaks) plus conservation bounds for the token bucket. The
//! registry properties drive a file-backed, randomly-compacting registry
//! and an in-memory twin through the same operation sequence and require
//! the recovered world (snapshot + journal tail) to be state- and
//! digest-equivalent to a strict replay of the twin's full journal, and
//! hold the registry's incrementally kept counts to a full recount.

use hwm_service::{
    Decision, IcState, RateLimiter, RecoverOptions, Registry, RegistryCounts, RegistrySnapshot,
    ThrottleConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique per-case scratch directories (proptest runs many cases per
/// process).
static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hwm-props-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLIENTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Expected duration of a client's next lockout: doubling per prior
/// lockout, capped.
fn expected_duration(config: &ThrottleConfig, prior_lockouts: u32) -> u64 {
    config
        .base_lockout_ticks
        .saturating_mul(1u64 << prior_lockouts.min(63))
        .min(config.max_lockout_ticks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lockout lifecycle is exact: a client is refused with `LockedOut`
    /// precisely while a modeled lockout is pending, every fresh lockout
    /// lasts `min(base * 2^k, max)` ticks, and admissions never exceed
    /// the bucket's conservation bound (burst + elapsed refills).
    #[test]
    fn limiter_lockouts_are_exact_and_tokens_conserved(
        burst in 1u32..6,
        refill_ticks in 1u64..5,
        failure_threshold in 1u32..5,
        base in 4u64..40,
        cap_doublings in 0u32..4,
        ops in prop::collection::vec((0u8..3, 0usize..3, 0u64..4), 1..120),
    ) {
        let config = ThrottleConfig {
            burst,
            refill_ticks,
            failure_threshold,
            base_lockout_ticks: base,
            max_lockout_ticks: base << cap_doublings,
        };
        let mut limiter = RateLimiter::new(config);
        let mut now = 1u64;
        // The reference model: per-client lockout expiry, failure streak,
        // prior-lockout count, and token-conservation bookkeeping.
        let mut locked_until: HashMap<&str, u64> = HashMap::new();
        let mut streak: HashMap<&str, u32> = HashMap::new();
        let mut lockouts: HashMap<&str, u32> = HashMap::new();
        let mut admitted: HashMap<&str, u64> = HashMap::new();
        let mut first_seen: HashMap<&str, u64> = HashMap::new();

        for (op, who, dt) in ops {
            now += dt; // logical clock never goes backward
            let client = CLIENTS[who];
            first_seen.entry(client).or_insert(now);
            match op {
                // Admission check.
                0 => match limiter.check(client, now) {
                    Decision::Allowed => {
                        let until = locked_until.get(client).copied().unwrap_or(0);
                        prop_assert!(now >= until, "admitted during a lockout");
                        *admitted.entry(client).or_insert(0) += 1;
                    }
                    Decision::Throttled { retry_at } => {
                        prop_assert!(retry_at > now, "retry tick must be in the future");
                    }
                    Decision::LockedOut { until } => {
                        let expected = locked_until.get(client).copied().unwrap_or(0);
                        prop_assert_eq!(until, expected, "phantom or stale lockout");
                        prop_assert!(now < until, "expired lockout still refusing");
                    }
                },
                // Wrong-readout failure, as the server reports it: only
                // after an admitted request.
                1 => {
                    if limiter.check(client, now) == Decision::Allowed {
                        *admitted.entry(client).or_insert(0) += 1;
                        let fired = limiter.record_failure(client, now);
                        let s = streak.entry(client).or_insert(0);
                        *s += 1;
                        if *s >= failure_threshold {
                            let k = *lockouts.entry(client).or_insert(0);
                            let until = now + expected_duration(&config, k);
                            prop_assert_eq!(fired, Some(until), "lockout duration law");
                            locked_until.insert(client, until);
                            *lockouts.get_mut(client).unwrap() += 1;
                            *s = 0;
                        } else {
                            prop_assert_eq!(fired, None, "lockout fired early");
                        }
                    }
                }
                // Success clears the streak.
                _ => {
                    limiter.record_success(client);
                    streak.insert(client, 0);
                }
            }
        }
        // Conservation: a client can never have been admitted more often
        // than its initial burst plus one token per elapsed refill period.
        for (client, count) in &admitted {
            let elapsed = now - first_seen[client];
            prop_assert!(
                *count <= u64::from(burst) + elapsed / refill_ticks,
                "{client} admitted {count} times with burst {burst} over {elapsed} ticks"
            );
        }
        // The global lockout counter is the sum of the per-client ones.
        let total: u64 = CLIENTS
            .iter()
            .map(|c| u64::from(limiter.lockout_count(c)))
            .sum();
        prop_assert_eq!(limiter.total_lockouts(), total);
    }

    /// Lockout durations are monotone: each consecutive lockout of one
    /// client lasts at least as long as the previous, doubles until the
    /// cap, and the client is always admitted once the lockout expires.
    #[test]
    fn lockouts_double_monotonically_and_expire(
        base in 2u64..50,
        cap_doublings in 0u32..6,
        threshold in 1u32..6,
        rounds in 1usize..8,
    ) {
        let config = ThrottleConfig {
            burst: u32::MAX, // never throttled: isolate the lockout path
            refill_ticks: 1,
            failure_threshold: threshold,
            base_lockout_ticks: base,
            max_lockout_ticks: base << cap_doublings,
        };
        let mut limiter = RateLimiter::new(config);
        let mut now = 1u64;
        let mut durations = Vec::new();
        for k in 0..rounds {
            let until = loop {
                now += 1;
                prop_assert_eq!(limiter.check("c", now), Decision::Allowed);
                if let Some(until) = limiter.record_failure("c", now) {
                    break until;
                }
            };
            durations.push(until - now);
            prop_assert_eq!(until - now, expected_duration(&config, k as u32));
            // Locked for the whole window, admitted at the boundary.
            prop_assert_eq!(limiter.check("c", until - 1), Decision::LockedOut { until });
            prop_assert_eq!(limiter.locked_until("c", until - 1), Some(until));
            now = until;
            prop_assert_eq!(limiter.check("c", now), Decision::Allowed);
            prop_assert_eq!(limiter.locked_until("c", now), None);
        }
        prop_assert!(
            durations.windows(2).all(|w| w[0] <= w[1]),
            "durations shrank: {durations:?}"
        );
        prop_assert!(durations.iter().all(|d| *d <= config.max_lockout_ticks));
    }

    /// Snapshot + journal-tail recovery is equivalent to a strict replay
    /// of the full journal, for arbitrary operation sequences and
    /// arbitrary compaction points — and the rolling digest survives
    /// compaction unchanged.
    #[test]
    fn compaction_round_trips_for_arbitrary_histories(
        compact_every in 0u64..5,
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..6), 1..60),
    ) {
        let dir = case_dir("compact");
        let path = dir.join("journal.jsonl");
        let mut disk = Registry::open_with(
            &path,
            RecoverOptions {
                compact_every,
                ..RecoverOptions::default()
            },
        )
        .unwrap();
        let mut mem = Registry::in_memory();
        for (op, ic_idx, readout_idx) in ops {
            let ic = format!("ic-{ic_idx}");
            let readout = format!("0101-{readout_idx}");
            // Apply the same operation to both worlds; they must agree on
            // the outcome (including rejections).
            let (a, b) = match op {
                0 => (
                    disk.register("fab", &ic, &readout, 0).map_err(|e| e.to_string()),
                    mem.register("fab", &ic, &readout, 0).map_err(|e| e.to_string()),
                ),
                1 => (
                    disk.mark_unlocked(&ic, 4, "fab").map_err(|e| e.to_string()),
                    mem.mark_unlocked(&ic, 4, "fab").map_err(|e| e.to_string()),
                ),
                2 => (
                    disk.mark_disabled(&ic, "alice").map_err(|e| e.to_string()),
                    mem.mark_disabled(&ic, "alice").map_err(|e| e.to_string()),
                ),
                // An explicit compaction point — a no-op for the twin.
                _ => (disk.compact().map_err(|e| e.to_string()), Ok(())),
            };
            prop_assert_eq!(a, b, "file-backed and in-memory worlds diverged");
        }
        let digest_before = disk.rolling_digest();
        drop(disk);

        let full = mem.journal_bytes().unwrap().to_vec();
        let replayed = Registry::replay(std::str::from_utf8(&full).unwrap()).unwrap();
        let recovered = Registry::open(&path).unwrap();
        prop_assert_eq!(recovered.records(), replayed.records());
        prop_assert_eq!(recovered.counts(), replayed.counts());
        prop_assert_eq!(recovered.clones(), replayed.clones());
        prop_assert_eq!(recovered.rolling_digest(), replayed.rolling_digest());
        prop_assert_eq!(recovered.rolling_digest(), digest_before);
        prop_assert_eq!(
            recovered.snapshot_events() + recovered.replayed_events(),
            replayed.journal_len(),
            "snapshot + tail must cover every journaled event"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `Registry::counts` is kept up to date by every state change
    /// instead of walking the fleet; after every step of an arbitrary
    /// history it must equal that walk, on every path a registry is
    /// built by: live mutation (duplicate readouts and ICs included,
    /// disables from both live states), compaction plus reopen,
    /// `from_snapshot`, strict `replay` and replicated application.
    #[test]
    fn counts_match_a_full_recount_after_every_step(
        ops in prop::collection::vec((0u8..6, 0usize..8, 0usize..6), 1..60),
    ) {
        let dir = case_dir("counts");
        let path = dir.join("journal.jsonl");
        let mut disk = Registry::open(&path).unwrap();
        let mut leader = Registry::in_memory();
        leader.enable_replication();
        let mut follower = Registry::in_memory();
        for (op, ic_idx, readout_idx) in ops {
            let ic = format!("ic-{ic_idx}");
            let readout = format!("0101-{readout_idx}");
            for r in [&mut disk, &mut leader] {
                let _ = match op {
                    0 | 1 => r.register("fab", &ic, &readout, 0),
                    2 => r.mark_unlocked(&ic, 4, "fab"),
                    3 => r.mark_disabled(&ic, "alice"),
                    _ => Ok(()),
                };
            }
            for line in leader.drain_replication() {
                follower.apply_replicated(&line).unwrap();
            }
            let mut rebuilt = Vec::new();
            match op {
                4 => {
                    disk.compact().unwrap();
                    drop(disk);
                    disk = Registry::open(&path).unwrap();
                }
                5 => {
                    let snap = RegistrySnapshot {
                        seq: leader.journal_len(),
                        digest: leader.rolling_digest(),
                        records: leader.records().to_vec(),
                        clones: leader.clones().to_vec(),
                    };
                    rebuilt.push(Registry::from_snapshot(snap).unwrap());
                    let journal = std::str::from_utf8(leader.journal_bytes().unwrap()).unwrap();
                    rebuilt.push(Registry::replay(journal).unwrap());
                }
                _ => {}
            }
            for r in [&disk, &leader, &follower].into_iter().chain(&rebuilt) {
                prop_assert_eq!(r.counts(), recount(r));
            }
            prop_assert_eq!(disk.counts(), leader.counts());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The fleet walk `Registry::counts` did before it kept its counts
/// incrementally — the slow oracle for that fast path.
fn recount(r: &Registry) -> RegistryCounts {
    let mut c = RegistryCounts {
        registered: r.records().len() as u64,
        duplicates: r.clones().len() as u64,
        ..RegistryCounts::default()
    };
    for record in r.records() {
        match record.state {
            IcState::Registered => {}
            IcState::Unlocked => c.unlocked += 1,
            IcState::Disabled => c.disabled += 1,
        }
    }
    c
}

/// Returns `j` with one unknown field injected into its `trace` object
/// — the strict codec must reject the result.
fn tamper_trace_context(j: &hwm_jsonio::Json) -> hwm_jsonio::Json {
    use hwm_jsonio::Json;
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    if k == "trace" {
                        if let Json::Obj(inner) = v {
                            let mut inner = inner.clone();
                            inner.push(("wat".into(), Json::U64(1)));
                            return (k.clone(), Json::Obj(inner));
                        }
                    }
                    (k.clone(), v.clone())
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    /// The traced-request envelope round-trips for any request shape
    /// and any trace context; an untraced envelope serializes exactly
    /// like the bare request (old peers parse it unchanged); and a
    /// tampered trace context is rejected by the strict codec.
    #[test]
    fn traced_request_envelope_roundtrips_and_rejects_tampering(
        trace_id in any::<u64>(),
        parent in any::<u64>(),
        tick in any::<u64>(),
        has_trace in any::<bool>(),
        which in 0usize..4,
        client_idx in 0usize..3,
        ic_idx in 0usize..3,
    ) {
        use hwm_service::{Request, TracedRequest};
        use hwm_trace::TraceContext;

        const ICS: [&str; 3] = ["ic-0", "ic-7", "wafer9"];
        let client = CLIENTS[client_idx].to_string();
        let ic = ICS[ic_idx].to_string();
        let req = match which {
            0 => Request::Register {
                client: client.clone(),
                ic: ic.clone(),
                readout: "0101".into(),
            },
            1 => Request::Unlock { client: client.clone(), readout: "0101".into() },
            2 => Request::RemoteDisable { client: client.clone(), ic: ic.clone() },
            _ => Request::Status { client: client.clone(), ic: Some(ic.clone()) },
        };
        let trace = has_trace.then_some(TraceContext { trace_id, parent_span: parent, tick });
        let traced = TracedRequest { req, trace };
        let j = traced.to_json();
        let back = TracedRequest::from_json(&j).expect("round-trip parses");
        prop_assert_eq!(back.to_json().to_string(), j.to_string());
        prop_assert_eq!(back.trace.is_some(), has_trace);
        if has_trace {
            let tampered = tamper_trace_context(&j);
            prop_assert!(
                TracedRequest::from_json(&tampered).is_err(),
                "unknown trace field must be rejected"
            );
        } else {
            prop_assert_eq!(
                j.to_string(),
                traced.req.to_json().to_string(),
                "untraced envelope must serialize like the bare request"
            );
        }
    }
}

proptest! {
    /// A pipelined burst of frames, split at arbitrary byte boundaries,
    /// decodes through [`FrameDecoder`] to exactly the same payload
    /// sequence a whole-buffer `read_frame` loop produces — the wire
    /// contract both transports' batched read paths rely on.
    #[test]
    fn frame_stream_decodes_identically_for_any_split(
        which in prop::collection::vec(0usize..4, 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..24),
        seed in any::<u64>(),
    ) {
        use hwm_service::wire::{read_frame, write_frame, FrameDecoder};
        use hwm_service::Request;

        let reqs: Vec<Request> = which
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let client = CLIENTS[i % CLIENTS.len()].to_string();
                let ic = format!("die-{}", seed.wrapping_add(i as u64) % 97);
                match w {
                    0 => Request::Register { client, ic, readout: "010101".into() },
                    1 => Request::Unlock { client, readout: "101010".into() },
                    2 => Request::RemoteDisable { client, ic },
                    _ => Request::Status { client, ic: Some(ic) },
                }
            })
            .collect();
        let mut stream = Vec::new();
        for req in &reqs {
            write_frame(&mut stream, &req.to_json()).expect("encode");
        }

        // Reference: drain the whole buffer through read_frame.
        let mut whole = Vec::new();
        let mut cursor = stream.as_slice();
        while let Some(p) = read_frame(&mut cursor).expect("read_frame") {
            whole.push(p.to_string());
        }
        prop_assert_eq!(whole.len(), reqs.len());

        // Candidate: the same bytes, chopped at arbitrary boundaries.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        bounds.push(0);
        bounds.push(stream.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut decoder = FrameDecoder::new();
        let mut split = Vec::new();
        for pair in bounds.windows(2) {
            decoder.extend(&stream[pair[0]..pair[1]]);
            while let Some(p) = decoder.next_frame().expect("decode") {
                split.push(p.to_string());
            }
        }
        prop_assert_eq!(decoder.pending(), 0);
        prop_assert_eq!(split, whole);
    }
}
