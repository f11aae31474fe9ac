//! The cluster router: one front end over N replicated shards.
//!
//! The router speaks the *client* wire protocol unchanged (it
//! implements [`hwm_service::Handler`], so both existing transports
//! front it) and owns everything a single node cannot decide alone:
//!
//! * **The global logical clock.** Every non-admin request gets the
//!   next tick and is forwarded with it ([`RepFrame::Forward`]), so
//!   shard-local admission decisions, journal lines and audit events
//!   land at exactly the tick a single-node server would have used.
//! * **Routing.** Register/Unlock route by *readout* on the consistent
//!   ring — colocating a readout's whole history on one shard is what
//!   keeps passive-metering clone detection (duplicate readouts) exact.
//!   Disable/Status route by the IC-to-shard assignment learned from
//!   shipped register entries, falling back to the ring.
//! * **Replication.** The leader's reply carries the journal entries
//!   and audit events the request produced; the router ships them to
//!   every follower synchronously ([`RepFrame::Append`]) and tracks
//!   acks as a replicated-seq watermark before the next dispatch.
//! * **Fleet counters.** The router maintains the oracle-equivalent
//!   det-class counters itself (requests by op/outcome, audit kinds,
//!   journal events, lifecycle gauges) — a dead leader takes nothing
//!   with it, because the authoritative aggregates never lived on a
//!   shard.
//! * **Failover.** On a plan-scheduled crash tick the doomed shard's
//!   leader link is dropped *before* dispatch, follower watermarks are
//!   checkpointed, the most-caught-up follower (ties: lowest index) is
//!   promoted, and the request re-dispatches to the new leader at the
//!   same tick.

use crate::frame::RepFrame;
use crate::link::NodeLink;
use crate::ring::HashRing;
use crate::ClusterError;
use hwm_jsonio::Json;
use hwm_metrics::{AuditEvent, AuditLog, History, HistoryConfig, MetricClass, MetricsRegistry, Snapshot};
use hwm_service::{ErrorCode, FaultPlan, Handler, Request, Response};
use hwm_trace::{spans_to_jsonl, SpanRecord, TraceContext, TraceRing, TraceScope};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bucket bounds for the det-class `cluster_request_units` histogram:
/// span-tree size per traced routed request.
const REQUEST_UNITS_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// One shard's replica set, as links.
///
/// The leader's server must already have replication capture armed
/// ([`hwm_service::ActivationServer::enable_replication`]) — the router
/// only sees links and cannot arm it.
pub struct ShardGroup {
    /// Link to the shard leader.
    pub leader: Box<dyn NodeLink>,
    /// Links to the followers, promotion candidates in index order.
    pub followers: Vec<Box<dyn NodeLink>>,
}

/// One failover, as the router's timeline records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Global tick of the doomed request (the crash fires pre-dispatch).
    pub tick: u64,
    /// The shard whose leader died.
    pub shard: usize,
    /// Index of the promoted follower within the shard's follower list.
    pub promoted: usize,
    /// The promoted follower's replicated-seq watermark.
    pub watermark: u64,
}

struct ShardState {
    leader: Option<Box<dyn NodeLink>>,
    followers: Vec<Box<dyn NodeLink>>,
    /// Leader journal length after its last reply.
    leader_seq: u64,
    /// Per-follower acknowledged journal length, index-aligned.
    acks: Vec<u64>,
    /// Requests routed here (the routing-distribution report).
    requests: u64,
}

/// Where one die is in its lifecycle, as the router last saw it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Life {
    Registered,
    Unlocked,
    Disabled,
}

/// The lifecycle mirror: the router's own copy of the fleet aggregates
/// a single-node registry would hold. Updated from responses and
/// shipped entries, never read back from a shard — so a leader crash
/// cannot lose them. `unlocked` and `disabled` count *current states*
/// (a disabled die leaves `unlocked`), matching
/// [`hwm_service::RegistryCounts`]; `registered` counts records, which
/// never leave the registry.
#[derive(Default)]
struct Mirror {
    registered: u64,
    unlocked: u64,
    disabled: u64,
    duplicates: u64,
    lockouts: u64,
}

struct RouterInner {
    ring: HashRing,
    shards: Vec<ShardState>,
    clock: u64,
    ic_to_shard: HashMap<String, usize>,
    ic_states: HashMap<String, Life>,
    /// Merged audit stream, seqs renumbered densely on ingest; ticks
    /// already increase monotonically because the router serializes.
    audit: AuditLog,
    mirror: Mirror,
    plan: Option<FaultPlan>,
    timeline: Vec<FailoverEvent>,
    /// Distributed-tracing seed; `None` leaves tracing off (the
    /// default), keeping untraced runs byte-identical to pre-tracing
    /// builds.
    trace_seed: Option<u64>,
    /// The router's span ring: one assembled tree per traced request,
    /// served by the `Traces` admin request and dumped by
    /// `--traces-out`.
    traces: TraceRing,
}

/// The cluster front end. See the module docs for the contract.
pub struct ClusterRouter {
    inner: Mutex<RouterInner>,
    metrics: Arc<MetricsRegistry>,
}

impl ClusterRouter {
    /// Builds a router over `groups` (index = shard id) with `vnodes`
    /// virtual nodes per shard on the ring, optionally armed with a
    /// leader-crash schedule (`plan` ticks index the global clock).
    pub fn new(groups: Vec<ShardGroup>, vnodes: usize, plan: Option<FaultPlan>) -> ClusterRouter {
        let shards = groups
            .into_iter()
            .map(|g| {
                let acks = vec![0; g.followers.len()];
                ShardState {
                    leader: Some(g.leader),
                    followers: g.followers,
                    leader_seq: 0,
                    acks,
                    requests: 0,
                }
            })
            .collect::<Vec<_>>();
        ClusterRouter {
            inner: Mutex::new(RouterInner {
                ring: HashRing::new(shards.len(), vnodes),
                shards,
                clock: 0,
                ic_to_shard: HashMap::new(),
                ic_states: HashMap::new(),
                audit: AuditLog::new(),
                mirror: Mirror::default(),
                plan,
                timeline: Vec::new(),
                trace_seed: None,
                traces: TraceRing::default(),
            }),
            metrics: Arc::new(MetricsRegistry::default()),
        }
    }

    /// Arms (or disarms) distributed tracing: with `Some(seed)` the
    /// router derives a root trace context for every routed request and
    /// assembles one span tree per request across all participating
    /// nodes.
    pub fn set_trace_seed(&self, seed: Option<u64>) {
        self.lock().trace_seed = seed;
    }

    /// The newest `limit` spans in the router's ring (all of them when
    /// `limit` is `None`).
    pub fn trace_records(&self, limit: Option<usize>) -> Vec<SpanRecord> {
        self.lock().traces.records(limit)
    }

    /// The router's span ring as JSONL — what `--traces-out` writes.
    pub fn trace_dump(&self) -> String {
        spans_to_jsonl(&self.lock().traces.records(None))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RouterInner> {
        self.inner.lock().expect("router state poisoned")
    }

    /// The router's live metrics registry (fleet aggregates plus the
    /// `cluster_*` families).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Checks the watermark rule (DESIGN.md §9): every live follower
    /// has acked exactly its leader's journal length. The router ships
    /// each request's entries to every follower before it answers, so a
    /// follower that trails here was refused or lost a shipment, and
    /// comparing its state against the leader's would be meaningless.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] naming the first follower whose acked seq
    /// differs from its leader's.
    pub fn sync_replication(&self) -> Result<(), ClusterError> {
        let inner = self.lock();
        for (shard, st) in inner.shards.iter().enumerate() {
            if let Some(i) = st.acks.iter().position(|&seq| seq != st.leader_seq) {
                return Err(ClusterError::new(format!(
                    "follower {i} of shard {shard} acked seq {} but its leader is at {}",
                    st.acks[i], st.leader_seq
                )));
            }
        }
        Ok(())
    }

    /// A snapshot with the fleet gauges refreshed — what the `Metrics`
    /// wire request returns.
    pub fn snapshot(&self) -> Snapshot {
        self.refresh_gauges(&self.lock());
        self.metrics.snapshot()
    }

    /// The merged audit stream as JSONL — byte-comparable against a
    /// single-node oracle's `audit.jsonl`.
    pub fn audit_jsonl(&self) -> String {
        self.lock().audit.to_jsonl()
    }

    /// Global ticks elapsed (= non-admin requests routed).
    pub fn clock(&self) -> u64 {
        self.lock().clock
    }

    /// Requests routed to each shard, by shard index.
    pub fn routing_counts(&self) -> Vec<u64> {
        self.lock().shards.iter().map(|s| s.requests).collect()
    }

    /// The failovers performed so far, in order.
    pub fn timeline(&self) -> Vec<FailoverEvent> {
        self.lock().timeline.clone()
    }

    /// Publishes the fleet gauges from the mirror — the same families,
    /// labels and values a single-node server's `refresh_gauges` would
    /// publish, plus per-shard replication lag.
    fn refresh_gauges(&self, inner: &RouterInner) {
        let m = &self.metrics;
        let mir = &inner.mirror;
        let awaiting = mir.registered - mir.unlocked - mir.disabled;
        m.set_gauge("registry_ics", &[("state", "registered")], MetricClass::Det, awaiting);
        m.set_gauge("registry_ics", &[("state", "unlocked")], MetricClass::Det, mir.unlocked);
        m.set_gauge("registry_ics", &[("state", "disabled")], MetricClass::Det, mir.disabled);
        m.set_gauge("registry_duplicates", &[], MetricClass::Det, mir.duplicates);
        m.set_gauge("service_clock_ticks", &[], MetricClass::Det, inner.clock);
        m.set_gauge("throttle_lockouts_total", &[], MetricClass::Det, mir.lockouts);
        for (i, st) in inner.shards.iter().enumerate() {
            let lag = match st.acks.iter().min() {
                Some(&slowest) => st.leader_seq.saturating_sub(slowest),
                None => 0,
            };
            let shard = i.to_string();
            m.set_gauge(
                "cluster_replication_lag",
                &[("shard", &shard)],
                MetricClass::Det,
                lag,
            );
        }
    }

    /// The shard a request belongs to.
    fn route_for(&self, inner: &RouterInner, req: &Request) -> usize {
        match req {
            Request::Register { readout, .. } | Request::Unlock { readout, .. } => {
                inner.ring.route(readout)
            }
            Request::RemoteDisable { ic, .. } => inner
                .ic_to_shard
                .get(ic)
                .copied()
                .unwrap_or_else(|| inner.ring.route(ic)),
            Request::Status { ic: Some(ic), .. } => inner
                .ic_to_shard
                .get(ic)
                .copied()
                .unwrap_or_else(|| inner.ring.route(ic)),
            Request::Status {
                ic: None, client, ..
            } => inner.ring.route(client),
            Request::Metrics { .. }
            | Request::Audit { .. }
            | Request::History { .. }
            | Request::Traces { .. } => {
                unreachable!("admin requests are answered by the router")
            }
        }
    }

    /// Kills the shard's leader (drops the link), promotes the
    /// most-caught-up follower (ties: lowest index), and records the
    /// failover. When `trace` is set (its parent is the request's
    /// `failover` span) the checkpoint and promotion steps land as spans
    /// and the contexts propagate in the frames.
    fn failover(
        &self,
        inner: &mut RouterInner,
        shard: usize,
        tick: u64,
        trace: Option<&TraceContext>,
        spans: &mut Vec<SpanRecord>,
        scope: &mut TraceScope,
    ) -> Result<(), ClusterError> {
        let st = &mut inner.shards[shard];
        // The dead leader's link is dropped first: nothing may reach it
        // again, and over TCP this closes the connection.
        st.leader = None;
        let mut best: Option<(usize, u64)> = None;
        for (i, follower) in st.followers.iter().enumerate() {
            let seq = match follower.call(&RepFrame::Checkpoint {
                shard: shard as u64,
                trace: trace.cloned(),
            })? {
                RepFrame::Ack { seq, .. } => seq,
                RepFrame::Error { message } => {
                    return Err(ClusterError::new(format!(
                        "checkpoint refused by follower {i} of shard {shard}: {message}"
                    )))
                }
                other => {
                    return Err(ClusterError::new(format!(
                        "unexpected checkpoint reply from shard {shard}: {other:?}"
                    )))
                }
            };
            if let Some(ctx) = trace {
                let id = scope.span(ctx.trace_id, ctx.parent_span, "checkpoint");
                spans.push(SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: id,
                    parent: ctx.parent_span,
                    name: "checkpoint".into(),
                    node: "router".into(),
                    tick: ctx.tick,
                    units: seq,
                    attrs: vec![("follower".into(), i.to_string())],
                });
            }
            // Strictly greater keeps the lowest index on ties.
            if best.is_none_or(|(_, s)| seq > s) {
                best = Some((i, seq));
            }
        }
        let (idx, watermark) = best.ok_or_else(|| {
            ClusterError::new(format!("shard {shard} has no follower to promote"))
        })?;
        let promoted = st.followers.remove(idx);
        st.acks.remove(idx);
        match promoted.call(&RepFrame::Promote {
            shard: shard as u64,
            clock: tick.saturating_sub(1),
            trace: trace.cloned(),
        })? {
            RepFrame::Ack { .. } => {}
            RepFrame::Error { message } => {
                return Err(ClusterError::new(format!(
                    "promotion refused on shard {shard}: {message}"
                )))
            }
            other => {
                return Err(ClusterError::new(format!(
                    "unexpected promotion reply from shard {shard}: {other:?}"
                )))
            }
        }
        if let Some(ctx) = trace {
            let id = scope.span(ctx.trace_id, ctx.parent_span, "promote");
            spans.push(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: id,
                parent: ctx.parent_span,
                name: "promote".into(),
                node: "router".into(),
                tick: ctx.tick,
                units: watermark,
                attrs: vec![("follower".into(), idx.to_string())],
            });
        }
        st.leader = Some(promoted);
        st.leader_seq = watermark;
        self.metrics.inc("cluster_failovers_total", &[], 1);
        hwm_trace::counter("cluster_failovers", 1);
        inner.timeline.push(FailoverEvent {
            tick,
            shard,
            promoted: idx,
            watermark,
        });
        Ok(())
    }

    /// One parallel fan-out: every follower receives the batch
    /// concurrently and the acks reassemble in follower index order.
    /// Ship spans are created up front, also in index order — span ids
    /// come from the router's scope counters, so they must not depend
    /// on completion order — which keeps traced dumps byte-identical to
    /// the old sequential fan-out (follower apply spans never touch the
    /// router's scope, so pre-creation changes no id).
    fn ship_batch(
        shard: usize,
        st: &mut ShardState,
        entries: &[String],
        audit: &[AuditEvent],
        trace: Option<&TraceContext>,
        spans: &mut Vec<SpanRecord>,
        scope: &mut TraceScope,
    ) -> Result<(), ClusterError> {
        if st.followers.is_empty() || (entries.is_empty() && audit.is_empty()) {
            return Ok(());
        }
        let mut ships: Vec<(Option<SpanRecord>, Option<TraceContext>)> =
            Vec::with_capacity(st.followers.len());
        for i in 0..st.followers.len() {
            match trace {
                Some(ctx) => {
                    let id = scope.span(ctx.trace_id, ctx.parent_span, "replicate/ship");
                    let record = SpanRecord {
                        trace_id: ctx.trace_id,
                        span_id: id,
                        parent: ctx.parent_span,
                        name: "replicate/ship".into(),
                        node: "router".into(),
                        tick: ctx.tick,
                        units: entries.len() as u64,
                        attrs: vec![("follower".into(), i.to_string())],
                    };
                    ships.push((Some(record), Some(ctx.child(id))));
                }
                None => ships.push((None, None)),
            }
        }
        let followers = &st.followers;
        let results: Vec<Result<RepFrame, ClusterError>> = std::thread::scope(|s| {
            let handles = followers
                .iter()
                .zip(&ships)
                .map(|(follower, (_, ship_trace))| {
                    let frame = RepFrame::Append {
                        shard: shard as u64,
                        entries: entries.to_vec(),
                        audit: audit.to_vec(),
                        trace: *ship_trace,
                    };
                    s.spawn(move || follower.call(&frame))
                })
                .collect::<Vec<_>>();
            handles
                .into_iter()
                .map(|h| h.join().expect("replication fan-out thread panicked"))
                .collect()
        });
        // Reassemble in follower index order — [ship_i, applies_i] per
        // follower, exactly the sequence the sequential loop pushed.
        for (i, (result, (record, _))) in results.into_iter().zip(ships).enumerate() {
            if let Some(r) = record {
                spans.push(r);
            }
            match result? {
                RepFrame::Ack {
                    seq,
                    spans: apply_spans,
                    ..
                } => {
                    st.acks[i] = seq;
                    spans.extend(apply_spans);
                }
                RepFrame::Error { message } => {
                    return Err(ClusterError::new(format!(
                        "follower {i} of shard {shard} refused entries: {message}"
                    )))
                }
                other => {
                    return Err(ClusterError::new(format!(
                        "unexpected append reply from shard {shard}: {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Forwards to the shard leader, ships the produced journal entries
    /// and audit events to the followers, and folds both into the
    /// router's aggregates. Returns the shard's response. When `trace`
    /// is set (its parent is the request's `dispatch` span) the leader's
    /// spans come back in the reply, each follower shipment gets a
    /// `replicate/ship` span, and the follower's `replicate/apply` spans
    /// come back in the acks.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        inner: &mut RouterInner,
        shard: usize,
        tick: u64,
        req: &Request,
        trace: Option<&TraceContext>,
        spans: &mut Vec<SpanRecord>,
        scope: &mut TraceScope,
    ) -> Result<Response, ClusterError> {
        let st = &inner.shards[shard];
        let leader = st
            .leader
            .as_ref()
            .ok_or_else(|| ClusterError::new(format!("shard {shard} has no leader")))?;
        let reply = leader.call(&RepFrame::Forward {
            shard: shard as u64,
            tick,
            req: req.clone(),
            trace: trace.cloned(),
        })?;
        let (resp, seq, entries, audit, leader_spans) = match reply {
            RepFrame::Reply {
                resp,
                seq,
                entries,
                audit,
                spans,
                ..
            } => (resp, seq, entries, audit, spans),
            RepFrame::Error { message } => {
                return Err(ClusterError::new(format!(
                    "shard {shard} refused the forward: {message}"
                )))
            }
            other => {
                return Err(ClusterError::new(format!(
                    "unexpected forward reply from shard {shard}: {other:?}"
                )))
            }
        };
        spans.extend(leader_spans);
        // Ship to every follower (in parallel) before answering: no
        // follower ever lags past the one request in flight, so any
        // follower is promotable (the watermark rule in DESIGN.md §9).
        let st = &mut inner.shards[shard];
        st.leader_seq = seq;
        Self::ship_batch(shard, st, &entries, &audit, trace, spans, scope)?;
        // Fold journal events into the fleet counter (what a single
        // node's registry metrics would have counted).
        for line in &entries {
            if let Ok(Json::Obj(fields)) = Json::parse(line) {
                if let Some(event) = fields
                    .iter()
                    .find(|(k, _)| k == "event")
                    .and_then(|(_, v)| v.as_str())
                {
                    self.metrics
                        .inc("journal_events_total", &[("event", event)], 1);
                }
            }
        }
        // Merge the audit stream: seqs renumber densely on ingest,
        // ticks are already global.
        for e in &audit {
            self.metrics
                .inc("audit_events_total", &[("kind", &e.kind)], 1);
            if e.kind == "lockout" {
                inner.mirror.lockouts += 1;
            }
            inner.audit.replicate(e);
        }
        Ok(resp)
    }
}

impl Handler for ClusterRouter {
    fn handle(&self, req: &Request) -> Response {
        Handler::handle_traced(self, req, None)
    }

    fn handle_traced(&self, req: &Request, trace: Option<&TraceContext>) -> Response {
        let mut inner = self.lock();
        match req {
            Request::Metrics { .. } => {
                self.refresh_gauges(&inner);
                return Response::Metrics {
                    snapshot: self.metrics.snapshot(),
                };
            }
            Request::Audit { since, .. } => {
                let (events, next) = inner.audit.events_since(since.unwrap_or(0));
                return Response::Audit { events, next };
            }
            Request::History { window, .. } => {
                // Per-shard histories are shard-local serving state and
                // deliberately not merged (DESIGN.md §9): the router
                // answers with an empty dump.
                return Response::History {
                    history: History::new(HistoryConfig::disabled()).dump(*window),
                };
            }
            Request::Traces { limit, .. } => {
                return Response::Traces {
                    spans: inner.traces.records(limit.map(|l| l as usize)),
                };
            }
            _ => {}
        }
        let now = inner.clock + 1;
        let shard = self.route_for(&inner, req);
        let op = match req {
            Request::Register { .. } => "register",
            Request::Unlock { .. } => "unlock",
            Request::RemoteDisable { .. } => "disable",
            Request::Status { .. } => "status",
            _ => unreachable!("admin handled above"),
        };
        // A supplied context is always honored; otherwise derive a root
        // context only when tracing is armed. The failover and the
        // retry below reuse the same trace id: one tree per request,
        // crash or not.
        let ctx = match trace {
            Some(c) => Some(*c),
            None => inner
                .trace_seed
                .map(|seed| TraceContext::root(seed, now, req.client(), op)),
        };
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut scope = TraceScope::new();
        let root_id = ctx.as_ref().map(|c| {
            if c.parent_span == 0 {
                scope.span(c.trace_id, 0, "request")
            } else {
                c.parent_span
            }
        });
        // A scheduled leader crash fires pre-dispatch on the shard the
        // doomed request routes to; the request then re-dispatches to
        // the promoted follower at the same tick.
        let crash_due = inner.plan.as_ref().is_some_and(|plan| plan.is_crash(now));
        let mut dispatch_parent = root_id;
        if crash_due {
            // The failover subtree sits at the previous tick: the doomed
            // dispatch never happened, and the tick spread deterministically
            // surfaces failover traces under `--slowest`.
            let failover_trace = ctx.as_ref().zip(root_id).map(|(c, root)| {
                let id = scope.span(c.trace_id, root, "failover");
                spans.push(SpanRecord {
                    trace_id: c.trace_id,
                    span_id: id,
                    parent: root,
                    name: "failover".into(),
                    node: "router".into(),
                    tick: now.saturating_sub(1),
                    units: 0,
                    attrs: vec![("shard".into(), shard.to_string())],
                });
                let mut child = c.child(id);
                child.tick = now.saturating_sub(1);
                child
            });
            if let Err(e) = self.failover(
                &mut inner,
                shard,
                now,
                failover_trace.as_ref(),
                &mut spans,
                &mut scope,
            ) {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.message,
                    retry_at: None,
                };
            }
            // The re-dispatch keeps the trace id; the `retry` span marks
            // it as the second attempt of the same request.
            if let (Some(c), Some(root)) = (ctx.as_ref(), root_id) {
                let id = scope.span(c.trace_id, root, "retry");
                spans.push(SpanRecord {
                    trace_id: c.trace_id,
                    span_id: id,
                    parent: root,
                    name: "retry".into(),
                    node: "router".into(),
                    tick: now,
                    units: 0,
                    attrs: Vec::new(),
                });
                dispatch_parent = Some(id);
            }
        }
        inner.clock = now;
        hwm_trace::counter("cluster_requests", 1);
        let dispatch_trace = ctx.as_ref().zip(dispatch_parent).map(|(c, parent)| {
            let id = scope.span(c.trace_id, parent, "dispatch");
            spans.push(SpanRecord {
                trace_id: c.trace_id,
                span_id: id,
                parent,
                name: "dispatch".into(),
                node: "router".into(),
                tick: now,
                units: 0,
                attrs: vec![("shard".into(), shard.to_string())],
            });
            let mut child = c.child(id);
            child.tick = now;
            child
        });
        let resp = match self.dispatch(
            &mut inner,
            shard,
            now,
            req,
            dispatch_trace.as_ref(),
            &mut spans,
            &mut scope,
        ) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.message,
                retry_at: None,
            },
        };
        inner.shards[shard].requests += 1;
        let shard_label = shard.to_string();
        self.metrics
            .inc("cluster_requests_total", &[("shard", &shard_label)], 1);
        let outcome = match &resp {
            Response::Registered { .. } => "registered",
            Response::Key { .. } => "key",
            Response::Disabled { .. } => "disabled",
            Response::Status(_) => "status",
            Response::Metrics { .. }
            | Response::Audit { .. }
            | Response::History { .. }
            | Response::Traces { .. } => {
                unreachable!("admin handled above")
            }
            Response::Error { code, .. } => code.as_str(),
        };
        if let Some(c) = &ctx {
            if c.parent_span == 0 {
                // This router roots the tree: the `request` span carries
                // the client-facing attributes, outcome included.
                let mut attrs = vec![
                    ("client".to_string(), req.client().to_string()),
                    ("kind".to_string(), op.to_string()),
                ];
                let ic = match req {
                    Request::Register { ic, .. } | Request::RemoteDisable { ic, .. } => {
                        Some(ic.clone())
                    }
                    Request::Status { ic, .. } => ic.clone(),
                    _ => None,
                };
                if let Some(ic) = ic {
                    attrs.push(("ic".to_string(), ic));
                }
                attrs.push(("outcome".to_string(), outcome.to_string()));
                spans.insert(
                    0,
                    SpanRecord {
                        trace_id: c.trace_id,
                        span_id: root_id.expect("traced request has a root id"),
                        parent: 0,
                        name: "request".into(),
                        node: "router".into(),
                        tick: now,
                        units: 0,
                        attrs,
                    },
                );
            }
            self.metrics.observe_exemplar(
                "cluster_request_units",
                &[("op", op)],
                MetricClass::Det,
                REQUEST_UNITS_BOUNDS,
                spans.len() as u64,
                c.trace_id,
            );
            for s in spans {
                inner.traces.push(s);
            }
        }
        self.metrics
            .inc("service_requests_total", &[("op", op), ("outcome", outcome)], 1);
        if outcome == "unknown_readout" {
            self.metrics.inc("service_wrong_readouts_total", &[], 1);
        }
        // Mirror the lifecycle transition and learn IC placement.
        match (&resp, req) {
            (Response::Registered { .. }, Request::Register { ic, .. }) => {
                inner.mirror.registered += 1;
                inner.ic_to_shard.insert(ic.clone(), shard);
                inner.ic_states.insert(ic.clone(), Life::Registered);
            }
            (Response::Key { ic, .. }, _) => {
                inner.mirror.unlocked += 1;
                inner.ic_states.insert(ic.clone(), Life::Unlocked);
            }
            (Response::Disabled { ic, .. }, _) => {
                // A disabled die leaves the unlocked state count.
                if inner.ic_states.insert(ic.clone(), Life::Disabled) == Some(Life::Unlocked) {
                    inner.mirror.unlocked -= 1;
                }
                inner.mirror.disabled += 1;
            }
            (Response::Error { code, .. }, _) if *code == ErrorCode::DuplicateReadout => {
                inner.mirror.duplicates += 1;
            }
            _ => {}
        }
        // Rewrite fleet-wide numbers the shard cannot know.
        match resp {
            Response::Registered { ic, .. } => Response::Registered {
                ic,
                total: inner.mirror.registered,
            },
            Response::Status(mut s) => {
                s.registered = inner.mirror.registered;
                s.unlocked = inner.mirror.unlocked;
                s.disabled = inner.mirror.disabled;
                s.duplicates = inner.mirror.duplicates;
                s.lockouts = inner.mirror.lockouts;
                Response::Status(s)
            }
            other => other,
        }
    }
}
