//! `jellytool serve` — routing as a long-running service.
//!
//! A daemon that loads one RRG and its all-pairs path table, then
//! exposes a JSON control/data plane over a zero-dependency HTTP/1.1
//! server ([`http`]):
//!
//! | Endpoint                 | Semantics                                          |
//! |--------------------------|----------------------------------------------------|
//! | `GET /paths/{src}/{dst}` | the pair's current paths (data plane, hot path)    |
//! | `POST /faults`           | apply a seeded or explicit link-fault plan live    |
//! | `POST /repair`           | restore the pristine (fault-free) table            |
//! | `GET /metrics`           | `jellyfish-metrics v1` snapshot (non-resetting)    |
//! | `GET /events`            | `jellyfish-events v1` journal: cursor + long-poll  |
//! | `GET /trace`             | toggle trace capture; second call returns the JSON |
//! | `GET /healthz`           | liveness + resident bytes + cache hit rate         |
//! | `POST /shutdown`         | clean stop (drains, then exits the accept loop)    |
//!
//! Request dispatch is a pure function ([`ServeState::dispatch`]) from
//! `(method, target, body)` to a response rendered into a caller-owned
//! buffer. The TCP layer and the in-process soak harness ([`soak`])
//! share that one code path, so what the load test exercises is exactly
//! what the daemon serves. On the `/paths` hot path the handler only
//! appends to the reused response buffer — no per-request allocation in
//! steady state.
//!
//! Every endpoint runs under a [`jellyfish_obs::span`] with a static
//! `serve.<endpoint>` name, so `/metrics` reports per-endpoint call
//! counts and latency histograms for free.
//!
//! # Determinism contract
//!
//! `/paths` bodies contain no counters, timestamps, or other mutable
//! state — only the pair, the (fixed) selection name, and the paths.
//! For a fixed topology seed the body is byte-identical across
//! processes, and `POST /repair` restores the pristine base table, so a
//! query is byte-identical before a fault and after a fault+repair
//! cycle. CI pins this with `cmp` on two curl captures.
//!
//! The same discipline extends to history: `/events` bodies carry only
//! `seq` plus logical time (a per-daemon tick counter bumped by each
//! serve-level event; library events ride the simulator cycle or 0), so
//! two fresh daemons fed the same control sequence emit byte-identical
//! streams — CI pins that with `cmp` on two `jellytool tail` captures.
//! `/paths` itself publishes nothing: the hot path never takes the
//! journal lock.

pub mod http;
pub mod rates;
pub mod soak;

use jellyfish::JellyfishNetwork;
use jellyfish_obs::journal::{EventKind, Journal};
use jellyfish_obs::json::{parse_json, JsonValue};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{DegradedGraph, FaultPlan, Graph, NodeId, RrgParams};
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// What a handler produced: the body is already in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` to frame the body with.
    pub content_type: &'static str,
    /// True for `POST /shutdown`: the server answers, then stops.
    pub shutdown: bool,
    /// True for `GET /events?follow=1`: the TCP layer switches the
    /// connection to a chunked event stream instead of framing `out`
    /// (the body buffer is empty). Meaningless to in-process callers,
    /// which should long-poll instead.
    pub stream: bool,
}

impl Response {
    fn ok(content_type: &'static str) -> Self {
        Self { status: 200, content_type, shutdown: false, stream: false }
    }

    fn json(status: u16) -> Self {
        Self { status, content_type: CT_JSON, shutdown: false, stream: false }
    }
}

const CT_JSON: &str = "application/json";
const CT_METRICS: &str = "text/plain; charset=utf-8";
const CT_EVENTS: &str = "text/plain; charset=utf-8";

/// The mutable half of the daemon: the currently-served table plus the
/// cumulative set of failed links it reflects.
struct LiveState {
    /// Table answering `/paths` right now. Swapped wholesale on
    /// `/faults` and `/repair`; in-flight readers keep their `Arc`.
    table: Arc<PathTable>,
    /// Undirected links currently failed (cumulative across `/faults`
    /// calls, cleared by `/repair`).
    failed_links: Vec<(NodeId, NodeId)>,
    /// Completed fault applications since startup (observability only;
    /// never rendered into `/paths` bodies).
    fault_rounds: u64,
    /// Completed repairs since startup.
    repair_rounds: u64,
}

/// Everything the daemon serves from. Shared across connection threads
/// behind one `Arc`; all endpoints are `&self`.
pub struct ServeState {
    net: JellyfishNetwork,
    selection: PathSelection,
    /// `selection.name()` rendered once — keeps `/paths` allocation-free.
    selection_name: String,
    seed: u64,
    /// Pristine fault-free table; `/repair` restores this exact `Arc`.
    base: Arc<PathTable>,
    live: RwLock<LiveState>,
    stop: AtomicBool,
    /// The event journal `/events` serves. Serve-level events publish
    /// here directly; `jellytool serve` additionally installs this as
    /// the process-global sink so library-layer events (link-down,
    /// faults-applied, cache lifecycle) land in the same stream.
    journal: Arc<Journal>,
    /// Logical clock for serve-level events: bumped once per event, so
    /// streams carry relative ticks, never wall-clock.
    ticks: AtomicU64,
    /// `/paths` sliding-window rate gauges for `/healthz`.
    rates: rates::SlidingRates,
}

impl ServeState {
    /// Builds the RRG, computes (or cache-loads) the all-pairs table,
    /// and wraps both for serving.
    ///
    /// When a global [`jellyfish_routing::PathCache`] is installed the
    /// table load goes through it, so a warmed cache makes startup a
    /// disk read instead of a full compute.
    pub fn new(params: RrgParams, seed: u64, selection: PathSelection) -> Result<Self, String> {
        Self::with_journal(params, seed, selection, Arc::new(Journal::new()))
    }

    /// [`ServeState::new`] publishing into a caller-owned journal —
    /// what `jellytool serve` uses so the same journal can also be
    /// installed as the process-global sink, and what tests use to keep
    /// per-daemon streams isolated inside one process.
    pub fn with_journal(
        params: RrgParams,
        seed: u64,
        selection: PathSelection,
        journal: Arc<Journal>,
    ) -> Result<Self, String> {
        let net = JellyfishNetwork::build(params, seed).map_err(|e| e.to_string())?;
        let base = match jellyfish_routing::cache::global_cache() {
            Some(cache) => cache.load_or_compute(net.graph(), selection, &PairSet::AllPairs, seed),
            None => Arc::new(net.paths(selection, &PairSet::AllPairs, seed)),
        };
        let state = Self {
            selection_name: selection.name(),
            selection,
            seed,
            live: RwLock::new(LiveState {
                table: Arc::clone(&base),
                failed_links: Vec::new(),
                fault_rounds: 0,
                repair_rounds: 0,
            }),
            base,
            net,
            stop: AtomicBool::new(false),
            journal,
            ticks: AtomicU64::new(0),
            rates: rates::SlidingRates::new(),
        };
        state.publish(EventKind::ServeStarted {
            switches: state.net.graph().num_nodes() as u64,
            seed,
            selection: state.selection_name.clone(),
        });
        Ok(state)
    }

    /// The journal `/events` serves from.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Publishes one serve-level event at the next logical tick.
    fn publish(&self, kind: EventKind) {
        let tick = self.ticks.fetch_add(1, Ordering::SeqCst);
        self.journal.publish(tick, kind);
    }

    /// The underlying intact graph.
    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    /// The selection scheme the daemon serves.
    pub fn selection(&self) -> PathSelection {
        self.selection
    }

    /// True once `POST /shutdown` has been served.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The table currently answering `/paths`.
    fn live_table(&self) -> Arc<PathTable> {
        Arc::clone(&self.live.read().unwrap_or_else(PoisonError::into_inner).table)
    }

    /// Routes one request. Clears `out`, renders the body into it, and
    /// returns the framing. Never panics on untrusted input: unknown
    /// paths are 404, wrong methods 405, bad parameters 400 — all with
    /// a JSON error body.
    pub fn dispatch(&self, method: &str, target: &str, body: &str, out: &mut String) -> Response {
        out.clear();
        // Query strings only matter to `/events`; strip for routing so
        // `/healthz?x=1` still resolves.
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let mut seg = path.strip_prefix('/').unwrap_or(path).split('/');
        let head = seg.next().unwrap_or("");
        match (method, head) {
            ("GET", "paths") => {
                let _span = jellyfish_obs::span("serve.paths");
                let resp = self.get_paths(seg.next(), seg.next(), seg.next(), out);
                self.rates.record(resp.status == 200);
                resp
            }
            ("POST", "faults") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.faults");
                self.post_faults(body, out)
            }
            ("POST", "repair") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.repair");
                self.post_repair(out)
            }
            ("GET", "metrics") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.metrics");
                self.get_metrics(out)
            }
            ("GET", "events") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.events");
                self.get_events(query, out)
            }
            ("GET", "trace") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.trace");
                self.get_trace(out)
            }
            ("GET", "healthz") if seg.next().is_none() => {
                let _span = jellyfish_obs::span("serve.healthz");
                self.get_healthz(out)
            }
            ("POST", "shutdown") if seg.next().is_none() => {
                self.stop.store(true, Ordering::SeqCst);
                // Published after the stop flag flips so a streaming
                // `/events` connection that wakes on this event observes
                // `stopping()` and terminates its chunk stream cleanly.
                self.publish(EventKind::ServeStopping);
                out.push_str("{\"stopping\":true}");
                Response { status: 200, content_type: CT_JSON, shutdown: true, stream: false }
            }
            ("GET" | "HEAD", _) => error_into(out, 404, "no such endpoint"),
            (
                _,
                "paths" | "metrics" | "events" | "trace" | "healthz" | "faults" | "repair"
                | "shutdown",
            ) => error_into(out, 405, "method not allowed"),
            _ => error_into(out, 404, "no such endpoint"),
        }
    }

    /// `GET /paths/{src}/{dst}` — the data plane. Appends only to `out`.
    fn get_paths(
        &self,
        src: Option<&str>,
        dst: Option<&str>,
        extra: Option<&str>,
        out: &mut String,
    ) -> Response {
        let (Some(src), Some(dst), None) = (src, dst, extra) else {
            return error_into(out, 400, "expected /paths/{src}/{dst}");
        };
        let (Ok(src), Ok(dst)) = (src.parse::<NodeId>(), dst.parse::<NodeId>()) else {
            return error_into(out, 400, "src and dst must be switch ids");
        };
        let n = self.net.graph().num_nodes() as NodeId;
        if src >= n || dst >= n {
            return error_into(out, 400, "switch id out of range");
        }
        if src == dst {
            return error_into(out, 400, "src and dst must differ");
        }
        let table = self.live_table();
        let Some(set) = table.get(src, dst) else {
            return error_into(out, 404, "pair not covered by the table");
        };
        // Rendered by hand so the body stays counter-free and the call
        // allocation-free: every write appends to the reused buffer.
        let _ = write!(out, "{{\"src\":{src},\"dst\":{dst},\"selection\":\"");
        out.push_str(&self.selection_name);
        let _ = write!(out, "\",\"k\":{},\"paths\":[", set.len());
        for (i, path) in set.iter().enumerate() {
            out.push(if i == 0 { '[' } else { ',' });
            if i > 0 {
                out.push('[');
            }
            for (j, node) in path.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{node}");
            }
            out.push(']');
        }
        out.push_str("]}");
        Response::ok(CT_JSON)
    }

    /// `POST /faults` — applies a fault plan to the live table.
    ///
    /// Body: `{"rate": R, "seed": S}` (a seeded [`FaultPlan`] over the
    /// intact graph's links) or `{"links": [[u, v], ...]}` (explicit).
    /// Faults accumulate across calls; affected pairs are immediately
    /// repaired on the degraded fabric (seeded, deterministic).
    fn post_faults(&self, body: &str, out: &mut String) -> Response {
        let parsed = match parse_json(body) {
            Ok(v) => v,
            Err(e) => return error_into(out, 400, &format!("bad JSON body: {e}")),
        };
        let (new_links, plan_seed) = match fault_request(&parsed, self.net.graph()) {
            Ok(r) => r,
            Err(msg) => return error_into(out, 400, &msg),
        };

        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        // The degraded view reflects *all* faults to date, old and new.
        let mut view = DegradedGraph::new(self.net.graph());
        for &(u, v) in live.failed_links.iter().chain(new_links.iter()) {
            view.fail_link(u, v);
        }
        let mut table = (*live.table).clone();
        let report = table.apply_faults(&view);
        let affected = report.affected_pairs();
        let repaired = table.repair(&view, &affected, plan_seed);
        live.table = Arc::new(table);
        for &l in &new_links {
            if !live.failed_links.contains(&l) {
                live.failed_links.push(l);
            }
        }
        live.fault_rounds += 1;
        self.publish(EventKind::ServeFaultRound {
            new_links: new_links.len() as u64,
            total_links: live.failed_links.len() as u64,
            affected_pairs: affected.len() as u64,
            repaired_pairs: repaired as u64,
            disconnected_pairs: report.disconnected_pairs as u64,
        });
        let _ = write!(
            out,
            "{{\"new_failed_links\":{},\"total_failed_links\":{},\"affected_pairs\":{},\
             \"paths_removed\":{},\"repaired_pairs\":{},\"disconnected_pairs\":{}}}",
            new_links.len(),
            live.failed_links.len(),
            affected.len(),
            report.paths_removed,
            repaired,
            report.disconnected_pairs,
        );
        Response::json(200)
    }

    /// `POST /repair` — drops every fault and restores the pristine
    /// base table (the exact startup `Arc`, so `/paths` bodies return
    /// to their byte-identical pre-fault form).
    fn post_repair(&self, out: &mut String) -> Response {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        let cleared = live.failed_links.len();
        live.failed_links.clear();
        live.table = Arc::clone(&self.base);
        live.repair_rounds += 1;
        self.publish(EventKind::ServeRepaired { cleared_links: cleared as u64 });
        let _ = write!(out, "{{\"restored\":true,\"cleared_links\":{cleared}}}");
        Response::json(200)
    }

    /// `GET /metrics` — non-resetting `jellyfish-metrics v1` snapshot.
    fn get_metrics(&self, out: &mut String) -> Response {
        self.export_gauges();
        let snapshot = jellyfish_obs::global().clone();
        let mut buf = Vec::new();
        if jellyfish_obs::write_metrics(&snapshot, &mut buf).is_err() {
            return error_into(out, 503, "metrics serialization failed");
        }
        match String::from_utf8(buf) {
            Ok(text) => {
                out.push_str(&text);
                Response::ok(CT_METRICS)
            }
            Err(_) => error_into(out, 503, "metrics serialization failed"),
        }
    }

    /// `GET /events?since=SEQ&wait_ms=MS[&follow=1]` — the journal.
    ///
    /// Without `follow`, answers one `jellyfish-events v1` document:
    /// everything newer than the `since` cursor, long-polling up to
    /// `wait_ms` (clamped to [`MAX_WAIT_MS`], default
    /// [`DEFAULT_WAIT_MS`]) when the cursor is already caught up — a
    /// timeout is an empty 200, never an error. With `follow=1` the TCP
    /// layer upgrades the connection to an unbounded chunked stream
    /// ([`stream_events`]); in-process callers get the header-only
    /// framing and should long-poll instead.
    fn get_events(&self, query: Option<&str>, out: &mut String) -> Response {
        let q = match EventsQuery::parse(query) {
            Ok(q) => q,
            Err(msg) => return error_into(out, 400, &msg),
        };
        if q.follow {
            return Response {
                status: 200,
                content_type: CT_EVENTS,
                shutdown: false,
                stream: true,
            };
        }
        let drain = if q.wait_ms == 0 {
            self.journal.drain_since(q.since)
        } else {
            self.journal.wait_since(q.since, Duration::from_millis(q.wait_ms))
        };
        jellyfish_obs::journal::write_events(drain.missed, &drain.events, out);
        Response::ok(CT_EVENTS)
    }

    /// `GET /trace` — first call arms capture, second drains it.
    fn get_trace(&self, out: &mut String) -> Response {
        if jellyfish_obs::trace::enabled() {
            jellyfish_obs::trace::disable();
            let trace = jellyfish_obs::trace::take();
            let drained: usize = trace.threads.iter().map(|t| t.records.len()).sum();
            self.publish(EventKind::TraceDrained { events: drained as u64 });
            out.push_str(&trace.to_chrome_json());
            Response::ok(CT_JSON)
        } else {
            jellyfish_obs::trace::enable(jellyfish_obs::trace::TraceConfig::default());
            self.publish(EventKind::TraceArmed);
            out.push_str("{\"tracing\":\"started\"}");
            Response::json(200)
        }
    }

    /// `GET /healthz` — liveness plus the gauges the soak harness (and
    /// an operator) watches: resident table bytes, process RSS, global
    /// cache hit rate.
    fn get_healthz(&self, out: &mut String) -> Response {
        self.export_gauges();
        let table = self.live_table();
        let (failed, faults, repairs) = {
            let live = self.live.read().unwrap_or_else(PoisonError::into_inner);
            (live.failed_links.len(), live.fault_rounds, live.repair_rounds)
        };
        let _ = write!(
            out,
            "{{\"status\":\"ok\",\"switches\":{},\"selection\":\"{}\",\"seed\":{},\
             \"failed_links\":{failed},\"fault_rounds\":{faults},\"repair_rounds\":{repairs},\
             \"table_resident_bytes\":{}",
            self.net.graph().num_nodes(),
            self.selection_name,
            self.seed,
            table.resident_bytes(),
        );
        match resident_bytes() {
            Some(rss) => {
                let _ = write!(out, ",\"rss_bytes\":{rss}");
            }
            None => out.push_str(",\"rss_bytes\":null"),
        }
        match jellyfish_routing::cache::global_cache() {
            Some(cache) => {
                let _ = write!(out, ",\"cache_hit_rate\":{:.6}", cache.counters().hit_rate());
            }
            None => out.push_str(",\"cache_hit_rate\":null"),
        }
        // Journal + trace overflow accounting: soak/CI asserts nothing
        // silently dropped history.
        let _ = write!(
            out,
            ",\"journal_last_seq\":{},\"journal_dropped\":{}",
            self.journal.last_seq(),
            self.journal.dropped(),
        );
        let _ = write!(
            out,
            ",\"trace_armed\":{},\"trace_dropped\":{}",
            jellyfish_obs::trace::enabled(),
            jellyfish_obs::trace::dropped_so_far(),
        );
        // Sliding-window rates over the last WINDOW_SECS seconds.
        let _ = write!(
            out,
            ",\"rate_window_secs\":{},\"qps_window\":{:.3}",
            rates::WINDOW_SECS,
            self.rates.qps_window(),
        );
        match self.rates.hit_rate_window() {
            Some(rate) => {
                let _ = write!(out, ",\"paths_hit_rate_window\":{rate:.6}}}");
            }
            None => out.push_str(",\"paths_hit_rate_window\":null}"),
        }
        Response::json(200)
    }

    /// Refreshes the registry gauges `/metrics` exports.
    fn export_gauges(&self) {
        let table_bytes = self.live_table().resident_bytes() as f64;
        let mut g = jellyfish_obs::global();
        g.gauge_set("serve.table_resident_bytes", table_bytes);
        g.gauge_set("serve.journal_last_seq", self.journal.last_seq() as f64);
        g.gauge_set("serve.journal_dropped", self.journal.dropped() as f64);
        g.gauge_set("serve.qps_window", self.rates.qps_window());
        if let Some(rss) = resident_bytes() {
            g.gauge_set("serve.rss_bytes", rss as f64);
        }
        if let Some(cache) = jellyfish_routing::cache::global_cache() {
            g.gauge_set("serve.cache_hit_rate", cache.counters().hit_rate());
        }
    }
}

/// Default `/events` long-poll bound when `wait_ms` is absent.
pub const DEFAULT_WAIT_MS: u64 = 2_000;

/// Upper clamp on the `/events` long-poll bound: the wait stays shorter
/// than any reasonable client/proxy idle timeout.
pub const MAX_WAIT_MS: u64 = 30_000;

/// Parsed `/events` query string. Strict: unknown keys, duplicates,
/// non-numeric / negative / overflowing numbers, and bare or empty
/// parameters are all 400s — the long-poll path must never hang on
/// garbage input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventsQuery {
    since: u64,
    wait_ms: u64,
    follow: bool,
}

impl EventsQuery {
    fn parse(query: Option<&str>) -> Result<Self, String> {
        let mut q = Self { since: 0, wait_ms: DEFAULT_WAIT_MS, follow: false };
        let Some(query) = query else { return Ok(q) };
        if query.is_empty() {
            return Err("empty query string".into());
        }
        let (mut saw_since, mut saw_wait, mut saw_follow) = (false, false, false);
        for part in query.split('&') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("malformed query parameter {part:?}"));
            };
            let seen = match key {
                "since" => &mut saw_since,
                "wait_ms" => &mut saw_wait,
                "follow" => &mut saw_follow,
                other => return Err(format!("unknown query parameter {other:?}")),
            };
            if std::mem::replace(seen, true) {
                return Err(format!("duplicate query parameter {key:?}"));
            }
            match key {
                "since" => {
                    q.since = value
                        .parse::<u64>()
                        .map_err(|_| format!("since must be a u64 cursor, got {value:?}"))?;
                }
                "wait_ms" => {
                    let ms = value
                        .parse::<u64>()
                        .map_err(|_| format!("wait_ms must be a u64, got {value:?}"))?;
                    q.wait_ms = ms.min(MAX_WAIT_MS);
                }
                "follow" => {
                    q.follow = match value {
                        "1" => true,
                        "0" => false,
                        other => return Err(format!("follow must be 0 or 1, got {other:?}")),
                    };
                }
                _ => unreachable!("unknown keys rejected above"),
            }
        }
        Ok(q)
    }
}

/// Parses a `POST /faults` body into the links to fail plus the seed
/// used for the deterministic repair pass.
fn fault_request(body: &JsonValue, graph: &Graph) -> Result<(Vec<(NodeId, NodeId)>, u64), String> {
    if let Some(links) = body.get("links") {
        let Some(list) = links.as_array() else {
            return Err("\"links\" must be an array of [u, v] pairs".into());
        };
        let mut out = Vec::with_capacity(list.len());
        for pair in list {
            let parsed = pair.as_array().and_then(|uv| {
                if uv.len() != 2 {
                    return None;
                }
                let u = node_id(&uv[0])?;
                let v = node_id(&uv[1])?;
                (u != v).then_some((u, v))
            });
            match parsed {
                Some(l) => out.push(l),
                None => return Err("each link must be a [u, v] pair of distinct ids".into()),
            }
        }
        let seed = body.get("seed").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        return Ok((out, seed));
    }
    let Some(rate) = body.get("rate").and_then(JsonValue::as_f64) else {
        return Err("body must carry \"links\" or \"rate\"".into());
    };
    if !(0.0..=1.0).contains(&rate) {
        return Err("\"rate\" must be in [0, 1]".into());
    }
    let Some(seed) = body.get("seed").and_then(JsonValue::as_f64) else {
        return Err("seeded fault plans need a \"seed\"".into());
    };
    let seed = seed as u64;
    let plan = FaultPlan::random_links(graph, rate, 0, seed);
    let links = plan
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            jellyfish_topology::FaultKind::Link { u, v } => Some((u, v)),
            jellyfish_topology::FaultKind::Switch { .. } => None,
        })
        .collect();
    Ok((links, seed))
}

fn node_id(v: &JsonValue) -> Option<NodeId> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= u32::MAX as f64).then_some(f as NodeId)
}

/// Renders `{"error": "..."}` into `out` (JSON-escaped) and frames it.
fn error_into(out: &mut String, status: u16, reason: &str) -> Response {
    out.clear();
    out.push_str("{\"error\":\"");
    for c in reason.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push_str("\"}");
    Response::json(status)
}

/// Current resident set size from `/proc/self/status` (`VmRSS`), if the
/// platform exposes it.
pub fn resident_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

/// Peak resident set size (`VmHWM`), if the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Runs the accept loop until `POST /shutdown`. Each connection gets a
/// thread with its own reused request/response buffers; keep-alive
/// connections serve any number of requests.
pub fn run(state: Arc<ServeState>, listener: TcpListener) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.stopping() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || {
            handle_connection(&state, stream, addr);
        }));
        workers.retain(|h| !h.is_finished());
    }
    for h in workers {
        let _ = h.join();
    }
    Ok(())
}

/// Serves one connection until close, error, or shutdown. After
/// answering `POST /shutdown` (whether or not the answer could be
/// written) it pokes the accept loop awake with a throwaway local
/// connection so [`run`] observes the stop flag.
fn handle_connection(state: &ServeState, stream: TcpStream, addr: std::net::SocketAddr) {
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut out = String::with_capacity(4096);
    loop {
        let request = match http::read_request(&mut reader) {
            Ok(Ok(Some(r))) => r,
            Ok(Ok(None)) | Err(_) => break,
            Ok(Err(e)) => {
                let resp = error_into(&mut out, e.status, &e.reason);
                let _ = http::write_response(&mut writer, resp.status, CT_JSON, &out, false);
                break;
            }
        };
        let resp = state.dispatch(&request.method, &request.target, &request.body, &mut out);
        if resp.stream {
            // `GET /events?follow=1`: the connection becomes a chunked
            // event stream until the client hangs up or the daemon stops.
            let _ = stream_events(state, &mut writer, &request.target);
            break;
        }
        let keep = request.keep_alive && !resp.shutdown;
        let written = http::write_response(&mut writer, resp.status, resp.content_type, &out, keep);
        if resp.shutdown {
            // Wake the accept loop so it can re-check the stop flag. This
            // must not depend on the write: a client that hangs up before
            // reading the answer makes it fail, and without the wake-up
            // the accept loop would block forever.
            let _ = TcpStream::connect(addr);
            break;
        }
        if written.is_err() || !keep {
            break;
        }
    }
}

/// How often an idle streaming connection re-checks the stop flag.
const STREAM_POLL: Duration = Duration::from_millis(250);

/// Idle polls between keep-alive heartbeats (a blank-line chunk the
/// `jellyfish-events v1` parser skips): ~10 s at [`STREAM_POLL`], so a
/// silently vanished client turns into a write error instead of a
/// thread parked forever.
const STREAM_HEARTBEAT_POLLS: u32 = 40;

/// Serves `GET /events?follow=1`: a chunked `jellyfish-events v1`
/// stream starting at the request's `since` cursor. Ends when the
/// client disconnects (write error) or the daemon begins shutting down
/// — the `serve-stopping` event doubles as the wakeup that lets the
/// stream flush its tail and terminate cleanly.
fn stream_events(
    state: &ServeState,
    writer: &mut (impl io::Write + ?Sized),
    target: &str,
) -> io::Result<()> {
    // Dispatch validated the query already; re-derive the cursor.
    let query = target.split_once('?').map(|(_, q)| q);
    let mut cursor = EventsQuery::parse(query).map(|q| q.since).unwrap_or(0);
    http::write_chunked_head(writer, 200, CT_EVENTS)?;

    let mut buf = String::with_capacity(1024);
    buf.push_str(jellyfish_obs::journal::EVENTS_HEADER);
    buf.push('\n');
    let first = state.journal.drain_since(cursor);
    if first.missed > 0 {
        let _ = writeln!(buf, "missed {}", first.missed);
    }
    for ev in &first.events {
        jellyfish_obs::journal::render_event(ev, &mut buf);
    }
    cursor = cursor.max(first.last_seq);
    http::write_chunk(writer, &buf)?;

    let mut idle_polls = 0u32;
    let mut saw_stopping = first.events.iter().any(|e| matches!(e.kind, EventKind::ServeStopping));
    loop {
        if state.stopping() {
            break;
        }
        let drain = state.journal.wait_since(cursor, STREAM_POLL);
        if drain.events.is_empty() {
            idle_polls += 1;
            if idle_polls >= STREAM_HEARTBEAT_POLLS {
                idle_polls = 0;
                http::write_chunk(writer, "\n")?;
            }
            continue;
        }
        idle_polls = 0;
        buf.clear();
        for ev in &drain.events {
            saw_stopping |= matches!(ev.kind, EventKind::ServeStopping);
            jellyfish_obs::journal::render_event(ev, &mut buf);
        }
        cursor = drain.last_seq;
        http::write_chunk(writer, &buf)?;
    }
    // The stop flag flips a beat before `serve-stopping` is published;
    // a streamer that broke in that window would truncate the tail. One
    // bounded wait flushes it so every stream ends on serve-stopping.
    if !saw_stopping {
        let tail = state.journal.wait_since(cursor, STREAM_POLL);
        if !tail.events.is_empty() {
            buf.clear();
            for ev in &tail.events {
                jellyfish_obs::journal::render_event(ev, &mut buf);
            }
            http::write_chunk(writer, &buf)?;
        }
    }
    http::write_chunked_end(writer)
}
