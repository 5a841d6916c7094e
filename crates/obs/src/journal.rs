//! Globally sequenced, bounded, typed event journal.
//!
//! The registry answers "what is the state now"; the journal answers
//! "what happened, in order". Every layer that mutates shared state —
//! fault injection and recabling in `topology`, table repair and cache
//! lifecycle in `routing`, scenario phases and audit verdicts in
//! `flitsim`, daemon control actions in `bench/serve` — publishes a
//! typed [`Event`] into a process-wide sink, and readers follow the
//! stream with a cursor:
//!
//! * [`Journal`] — a bounded drop-oldest ring of events, each stamped
//!   with a monotone `seq` (starting at 1) under one lock, so the
//!   global order is total and two identical runs number their events
//!   identically;
//! * [`Journal::drain_since`] — cursor reads: "everything after seq N",
//!   plus a `missed` count when the ring already evicted part of that
//!   range (overflow is also accounted in the per-journal
//!   [`Journal::dropped`] counter and the global `obs.journal.dropped`
//!   registry counter);
//! * [`Journal::wait_since`] — bounded long-poll: block on a `Condvar`
//!   until something newer than the cursor exists or the timeout
//!   expires (an expired wait returns an empty, well-formed drain);
//! * `jellyfish-events v1` — a line-oriented text rendering
//!   ([`write_events`] / [`read_events`], strict parser) in the same
//!   idiom as `jellyfish-faults v1` / `jellyfish-metrics v1`.
//!
//! Determinism contract: events carry `seq` plus a *logical* time
//! (simulator cycle, or a publisher-relative tick counter) — never a
//! wall-clock timestamp — so byte-comparing two streams is meaningful.
//! Only the long-poll *timeout* consults the wall clock, and a timeout
//! never changes stream content.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::Ring;

/// First line of the text rendering.
pub const EVENTS_HEADER: &str = "jellyfish-events v1";

/// Default ring capacity for [`Journal::new`] — deep enough that a
/// serve fault/repair cycle (a handful of events per failed link) fits
/// hundreds of rounds before eviction.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What happened. One variant per instrumented state mutation; each
/// renders as a stable space-delimited type token plus its fields.
///
/// Variants whose last field is free-form text (`regime`, `invariant`,
/// `selection`) serialize that field as the rest of the line; it must
/// not contain `\n` (enforced by construction — publishers pass token
/// or `Display`-rendered values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A link failed in a degraded topology view.
    LinkDown {
        /// One endpoint switch.
        u: u32,
        /// The other endpoint switch.
        v: u32,
    },
    /// A switch failed in a degraded topology view (its incident links
    /// also emit [`EventKind::LinkDown`]).
    SwitchDown {
        /// The failed switch.
        node: u32,
    },
    /// An incremental expansion recabled the network.
    Recabled {
        /// Switches added by the expansion step.
        added_switches: u64,
        /// Existing edges removed to free ports.
        removed_edges: u64,
        /// New edges added (to and among the new switches).
        added_edges: u64,
    },
    /// `PathTable::apply_faults` pruned dead paths.
    FaultsApplied {
        /// Pairs that lost at least one path.
        affected_pairs: u64,
        /// Total paths removed.
        paths_removed: u64,
        /// Pairs left with no surviving path.
        disconnected_pairs: u64,
    },
    /// `PathTable::repair` recomputed affected pairs.
    PairsRepaired {
        /// Pairs whose path sets were rebuilt.
        repaired: u64,
    },
    /// `PathTable::extend` absorbed an expansion step.
    TableExtended {
        /// Existing pairs whose path sets were touched by recabling.
        affected_pairs: u64,
        /// Pairs newly added (to/from new switches).
        new_pairs: u64,
        /// Existing pairs repaired in place.
        repaired: u64,
        /// Previously disconnected pairs that regained a path.
        reconnected: u64,
    },
    /// The path cache evicted a table file from the disk store.
    CacheEvicted {
        /// Size of the evicted file in bytes.
        bytes: u64,
    },
    /// The path cache recovered a poisoned lock.
    CachePoisonRecovered,
    /// A single-flight leader died and followers were released to retry.
    CacheFlightAbandoned,
    /// A traffic scenario advanced to a new phase.
    ScenarioPhase {
        /// Zero-based phase index within the plan.
        index: u64,
        /// Regime name (`steady`, `flows`, `idle`).
        regime: String,
    },
    /// A runtime audit invariant failed (published just before the
    /// simulator panics with the structured violation).
    AuditViolation {
        /// Stable invariant name, e.g. `packet-conservation`.
        invariant: String,
    },
    /// The serve daemon finished building its state.
    ServeStarted {
        /// Switch count of the served topology.
        switches: u64,
        /// Construction seed.
        seed: u64,
        /// Selection scheme label, e.g. `redksp(k=4)`.
        selection: String,
    },
    /// A `POST /faults` round was accepted.
    ServeFaultRound {
        /// Links newly failed by this round.
        new_links: u64,
        /// Cumulative failed links after this round.
        total_links: u64,
        /// Pairs that lost paths this round.
        affected_pairs: u64,
        /// Pairs repaired in the same round.
        repaired_pairs: u64,
        /// Pairs left disconnected after repair.
        disconnected_pairs: u64,
    },
    /// A `POST /repair` restored the pristine table.
    ServeRepaired {
        /// Failed links cleared by the restore.
        cleared_links: u64,
    },
    /// `GET /trace?arm=1` enabled tracing.
    TraceArmed,
    /// `GET /trace` drained the trace rings.
    TraceDrained {
        /// Trace events exported by the drain.
        events: u64,
    },
    /// The daemon accepted `POST /shutdown` and is stopping.
    ServeStopping,
}

impl EventKind {
    /// The stable type token used in `jellyfish-events v1` lines.
    pub fn token(&self) -> &'static str {
        match self {
            EventKind::LinkDown { .. } => "link-down",
            EventKind::SwitchDown { .. } => "switch-down",
            EventKind::Recabled { .. } => "recabled",
            EventKind::FaultsApplied { .. } => "faults-applied",
            EventKind::PairsRepaired { .. } => "repaired",
            EventKind::TableExtended { .. } => "extended",
            EventKind::CacheEvicted { .. } => "cache-evicted",
            EventKind::CachePoisonRecovered => "cache-poison-recovered",
            EventKind::CacheFlightAbandoned => "cache-flight-abandoned",
            EventKind::ScenarioPhase { .. } => "scenario-phase",
            EventKind::AuditViolation { .. } => "audit-violation",
            EventKind::ServeStarted { .. } => "serve-started",
            EventKind::ServeFaultRound { .. } => "serve-fault-round",
            EventKind::ServeRepaired { .. } => "serve-repaired",
            EventKind::TraceArmed => "trace-armed",
            EventKind::TraceDrained { .. } => "trace-drained",
            EventKind::ServeStopping => "serve-stopping",
        }
    }
}

/// One journal entry: a monotone sequence number, the publisher's
/// logical time, and the typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number, 1-based, strictly increasing.
    pub seq: u64,
    /// Publisher-defined logical time (simulator cycle, serve tick);
    /// never wall-clock.
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Result of a cursor read: the surviving events after the cursor, how
/// many in that range were already evicted, and the newest sequence
/// number ever assigned (0 when nothing was ever published).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drain {
    /// Surviving events with `seq > since`, oldest first, contiguous.
    pub events: Vec<Event>,
    /// Events in `(since, oldest_surviving)` lost to ring overflow.
    pub missed: u64,
    /// Highest `seq` assigned so far (cursor for the next read).
    pub last_seq: u64,
}

struct Inner {
    ring: Ring<Event>,
    /// Sequence number the next published event receives (starts at 1).
    next_seq: u64,
}

/// A bounded, totally ordered event ring with long-poll support.
///
/// All methods take `&self`; publishing assigns `seq` under the
/// internal lock so sequence order equals publication order. Overflow
/// drops the oldest events ("keep the newest history"), counted per
/// journal and in the global `obs.journal.dropped` registry counter.
pub struct Journal {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// A journal with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A journal holding at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { ring: Ring::new(capacity, 1024), next_seq: 1 }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Publishers never panic while holding the lock, but a reader
        // could (e.g. an allocation failure mid-clone); recovering keeps
        // the journal usable — losing observability must never take the
        // daemon down.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event at logical time `time`, waking every waiter.
    /// Returns the assigned sequence number.
    pub fn publish(&self, time: u64, kind: EventKind) -> u64 {
        let seq = {
            let mut inner = self.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            if inner.ring.push(Event { seq, time, kind }) {
                crate::global().counter_add("obs.journal.dropped", 1);
            }
            seq
        };
        self.cond.notify_all();
        seq
    }

    fn drain_locked(inner: &Inner, since: u64) -> Drain {
        let last_seq = inner.next_seq - 1;
        let oldest = inner.next_seq - inner.ring.len() as u64;
        // Events in (since, oldest) existed but were evicted.
        let missed = oldest.saturating_sub(since + 1).min(last_seq.saturating_sub(since));
        let start = (since + 1).saturating_sub(oldest).min(inner.ring.len() as u64) as usize;
        let events = inner.ring.iter().skip(start).cloned().collect();
        Drain { events, missed, last_seq }
    }

    /// Everything published after cursor `since` that still survives,
    /// without blocking. `since = 0` reads from the beginning.
    pub fn drain_since(&self, since: u64) -> Drain {
        Self::drain_locked(&self.lock(), since)
    }

    /// Bounded long-poll: returns as soon as an event newer than
    /// `since` exists (often immediately), or an empty drain once
    /// `timeout` expires.
    pub fn wait_since(&self, since: u64, timeout: Duration) -> Drain {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.next_seq - 1 > since {
                return Self::drain_locked(&inner, since);
            }
            let now = Instant::now();
            if now >= deadline {
                return Self::drain_locked(&inner, since);
            }
            let (guard, _) = self
                .cond
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Highest sequence number assigned so far (0 before any publish).
    pub fn last_seq(&self) -> u64 {
        self.lock().next_seq - 1
    }

    /// Events this journal evicted due to overflow.
    pub fn dropped(&self) -> u64 {
        self.lock().ring.dropped()
    }
}

static SINK: OnceLock<RwLock<Arc<Journal>>> = OnceLock::new();

fn sink() -> &'static RwLock<Arc<Journal>> {
    SINK.get_or_init(|| RwLock::new(Arc::new(Journal::new())))
}

/// The process-wide journal library instrumentation publishes into.
/// Defaults to a fresh [`Journal::new`]; daemons swap in their own via
/// [`install_global`].
pub fn global() -> Arc<Journal> {
    Arc::clone(&sink().read().unwrap_or_else(PoisonError::into_inner))
}

/// Replaces the process-wide journal — the serve daemon installs its
/// own so library-layer events (topology faults, cache lifecycle) show
/// up on `/events` alongside serve-level events.
pub fn install_global(journal: Arc<Journal>) {
    *sink().write().unwrap_or_else(PoisonError::into_inner) = journal;
}

/// Publishes into the process-wide journal. The convenience entry point
/// for library instrumentation: `journal::publish(cycle, kind)`.
pub fn publish(time: u64, kind: EventKind) -> u64 {
    global().publish(time, kind)
}

// ---------------------------------------------------------------------
// jellyfish-events v1 text format
// ---------------------------------------------------------------------
//
//   jellyfish-events v1
//   missed <count>                      (omitted when 0)
//   event <seq> <time> <type> [args...]
//
// All numbers are decimal u64. `seq` is strictly increasing down the
// file. Type tokens and per-type arity are fixed; for `scenario-phase`,
// `audit-violation` and `serve-started` the final field is the rest of
// the line. Blank lines are ignored (the streaming mode emits them as
// keep-alive heartbeats).

fn render_kind(kind: &EventKind, out: &mut String) {
    use fmt::Write as _;
    let _ = match kind {
        EventKind::LinkDown { u, v } => write!(out, " {u} {v}"),
        EventKind::SwitchDown { node } => write!(out, " {node}"),
        EventKind::Recabled { added_switches, removed_edges, added_edges } => {
            write!(out, " {added_switches} {removed_edges} {added_edges}")
        }
        EventKind::FaultsApplied { affected_pairs, paths_removed, disconnected_pairs } => {
            write!(out, " {affected_pairs} {paths_removed} {disconnected_pairs}")
        }
        EventKind::PairsRepaired { repaired } => write!(out, " {repaired}"),
        EventKind::TableExtended { affected_pairs, new_pairs, repaired, reconnected } => {
            write!(out, " {affected_pairs} {new_pairs} {repaired} {reconnected}")
        }
        EventKind::CacheEvicted { bytes } => write!(out, " {bytes}"),
        EventKind::CachePoisonRecovered | EventKind::CacheFlightAbandoned => Ok(()),
        EventKind::ScenarioPhase { index, regime } => write!(out, " {index} {regime}"),
        EventKind::AuditViolation { invariant } => write!(out, " {invariant}"),
        EventKind::ServeStarted { switches, seed, selection } => {
            write!(out, " {switches} {seed} {selection}")
        }
        EventKind::ServeFaultRound {
            new_links,
            total_links,
            affected_pairs,
            repaired_pairs,
            disconnected_pairs,
        } => {
            write!(
                out,
                " {new_links} {total_links} {affected_pairs} {repaired_pairs} {disconnected_pairs}"
            )
        }
        EventKind::ServeRepaired { cleared_links } => write!(out, " {cleared_links}"),
        EventKind::TraceArmed | EventKind::ServeStopping => Ok(()),
        EventKind::TraceDrained { events } => write!(out, " {events}"),
    };
}

/// Renders one event as its `event <seq> <time> <type> ...` line
/// (newline included).
pub fn render_event(ev: &Event, out: &mut String) {
    use fmt::Write as _;
    let _ = write!(out, "event {} {} {}", ev.seq, ev.time, ev.kind.token());
    render_kind(&ev.kind, out);
    out.push('\n');
}

/// Renders a full `jellyfish-events v1` document: header, optional
/// `missed` line, one line per event.
pub fn write_events(missed: u64, events: &[Event], out: &mut String) {
    use fmt::Write as _;
    out.push_str(EVENTS_HEADER);
    out.push('\n');
    if missed > 0 {
        let _ = writeln!(out, "missed {missed}");
    }
    for ev in events {
        render_event(ev, out);
    }
}

/// Why a `jellyfish-events v1` document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventsReadError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for EventsReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jellyfish-events parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for EventsReadError {}

fn err(line: usize, message: impl Into<String>) -> EventsReadError {
    EventsReadError { line, message: message.into() }
}

fn field(
    line: usize,
    parts: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<u64, EventsReadError> {
    let raw = parts.next().ok_or_else(|| err(line, format!("missing {what}")))?;
    raw.parse::<u64>().map_err(|_| err(line, format!("{what} must be a u64, got {raw:?}")))
}

/// Joins every remaining field into the rest-of-line payload.
fn rest_of_line(parts: &mut std::str::SplitWhitespace<'_>) -> String {
    let fields: Vec<&str> = parts.by_ref().collect();
    fields.join(" ")
}

fn parse_kind(
    line_no: usize,
    token: &str,
    parts: &mut std::str::SplitWhitespace<'_>,
) -> Result<EventKind, EventsReadError> {
    let kind = match token {
        "link-down" => EventKind::LinkDown {
            u: field(line_no, parts, "u")? as u32,
            v: field(line_no, parts, "v")? as u32,
        },
        "switch-down" => EventKind::SwitchDown { node: field(line_no, parts, "node")? as u32 },
        "recabled" => EventKind::Recabled {
            added_switches: field(line_no, parts, "added_switches")?,
            removed_edges: field(line_no, parts, "removed_edges")?,
            added_edges: field(line_no, parts, "added_edges")?,
        },
        "faults-applied" => EventKind::FaultsApplied {
            affected_pairs: field(line_no, parts, "affected_pairs")?,
            paths_removed: field(line_no, parts, "paths_removed")?,
            disconnected_pairs: field(line_no, parts, "disconnected_pairs")?,
        },
        "repaired" => EventKind::PairsRepaired { repaired: field(line_no, parts, "repaired")? },
        "extended" => EventKind::TableExtended {
            affected_pairs: field(line_no, parts, "affected_pairs")?,
            new_pairs: field(line_no, parts, "new_pairs")?,
            repaired: field(line_no, parts, "repaired")?,
            reconnected: field(line_no, parts, "reconnected")?,
        },
        "cache-evicted" => EventKind::CacheEvicted { bytes: field(line_no, parts, "bytes")? },
        "cache-poison-recovered" => EventKind::CachePoisonRecovered,
        "cache-flight-abandoned" => EventKind::CacheFlightAbandoned,
        "scenario-phase" => {
            let index = field(line_no, parts, "index")?;
            let regime = rest_of_line(parts);
            if regime.is_empty() {
                return Err(err(line_no, "missing regime"));
            }
            EventKind::ScenarioPhase { index, regime }
        }
        "audit-violation" => {
            let invariant = rest_of_line(parts);
            if invariant.is_empty() {
                return Err(err(line_no, "missing invariant"));
            }
            EventKind::AuditViolation { invariant }
        }
        "serve-started" => {
            let switches = field(line_no, parts, "switches")?;
            let seed = field(line_no, parts, "seed")?;
            let selection = rest_of_line(parts);
            if selection.is_empty() {
                return Err(err(line_no, "missing selection"));
            }
            EventKind::ServeStarted { switches, seed, selection }
        }
        "serve-fault-round" => EventKind::ServeFaultRound {
            new_links: field(line_no, parts, "new_links")?,
            total_links: field(line_no, parts, "total_links")?,
            affected_pairs: field(line_no, parts, "affected_pairs")?,
            repaired_pairs: field(line_no, parts, "repaired_pairs")?,
            disconnected_pairs: field(line_no, parts, "disconnected_pairs")?,
        },
        "serve-repaired" => {
            EventKind::ServeRepaired { cleared_links: field(line_no, parts, "cleared_links")? }
        }
        "trace-armed" => EventKind::TraceArmed,
        "trace-drained" => EventKind::TraceDrained { events: field(line_no, parts, "events")? },
        "serve-stopping" => EventKind::ServeStopping,
        other => return Err(err(line_no, format!("unknown event type {other:?}"))),
    };
    // Rest-of-line variants drained the iterator above; for everything
    // else a leftover field is an arity error.
    if parts.next().is_some() {
        return Err(err(line_no, format!("trailing fields after {}", kind.token())));
    }
    Ok(kind)
}

/// Strict parser for a `jellyfish-events v1` document. Returns the
/// `missed` count and the events; rejects bad headers, unknown types,
/// wrong arity, non-numeric fields, and non-increasing `seq` — always
/// with the offending line number, never a panic.
pub fn read_events(text: &str) -> Result<(u64, Vec<Event>), EventsReadError> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(err(1, "empty document, expected header"));
    };
    if header != EVENTS_HEADER {
        return Err(err(1, format!("bad header {header:?}, expected {EVENTS_HEADER:?}")));
    }
    let mut missed = 0u64;
    let mut missed_seen = false;
    let mut events: Vec<Event> = Vec::new();
    let mut last_seq = 0u64;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue; // streaming keep-alive heartbeat
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("missed") => {
                if missed_seen || !events.is_empty() {
                    return Err(err(line_no, "missed line must appear once, before events"));
                }
                missed_seen = true;
                missed = field(line_no, &mut parts, "missed count")?;
                if parts.next().is_some() {
                    return Err(err(line_no, "trailing fields after missed"));
                }
            }
            Some("event") => {
                let seq = field(line_no, &mut parts, "seq")?;
                let time = field(line_no, &mut parts, "time")?;
                let token =
                    parts.next().ok_or_else(|| err(line_no, "missing event type"))?.to_string();
                let kind = parse_kind(line_no, &token, &mut parts)?;
                if seq <= last_seq {
                    return Err(err(
                        line_no,
                        format!("seq {seq} not greater than previous {last_seq}"),
                    ));
                }
                last_seq = seq;
                events.push(Event { seq, time, kind });
            }
            Some(other) => {
                return Err(err(line_no, format!("expected 'event' line, got {other:?}")))
            }
            None => unreachable!("blank lines are skipped above"),
        }
    }
    Ok((missed, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_starts_at_one_and_is_monotone() {
        let j = Journal::with_capacity(8);
        assert_eq!(j.last_seq(), 0);
        assert_eq!(j.publish(10, EventKind::TraceArmed), 1);
        assert_eq!(j.publish(11, EventKind::ServeStopping), 2);
        assert_eq!(j.last_seq(), 2);
        let d = j.drain_since(0);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.missed, 0);
        assert_eq!(d.last_seq, 2);
        assert_eq!(d.events[0].seq, 1);
        assert_eq!(d.events[0].time, 10);
    }

    #[test]
    fn cursor_reads_are_disjoint_and_complete() {
        let j = Journal::with_capacity(64);
        for i in 0..10 {
            j.publish(i, EventKind::CacheEvicted { bytes: i });
        }
        let first = j.drain_since(0);
        let again = j.drain_since(first.last_seq);
        assert!(again.events.is_empty());
        assert_eq!(again.missed, 0);
        j.publish(99, EventKind::TraceArmed);
        let next = j.drain_since(first.last_seq);
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.events[0].seq, 11);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_missed() {
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.publish(i, EventKind::CacheEvicted { bytes: i });
        }
        assert_eq!(j.dropped(), 6);
        let d = j.drain_since(0);
        assert_eq!(d.missed, 6);
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.events[0].seq, 7, "oldest surviving is seq 7");
        assert_eq!(d.last_seq, 10);
        // A cursor inside the evicted range misses only what it had not
        // yet seen.
        let d = j.drain_since(8);
        assert_eq!(d.missed, 0);
        assert_eq!(d.events.len(), 2);
        // A cursor beyond everything sees nothing.
        let d = j.drain_since(10);
        assert_eq!(d.missed, 0);
        assert!(d.events.is_empty());
    }

    #[test]
    fn wait_since_returns_immediately_when_newer_events_exist() {
        let j = Journal::new();
        j.publish(0, EventKind::TraceArmed);
        let t0 = Instant::now();
        let d = j.wait_since(0, Duration::from_secs(5));
        assert_eq!(d.events.len(), 1);
        assert!(t0.elapsed() < Duration::from_secs(1), "must not wait out the timeout");
    }

    #[test]
    fn wait_since_times_out_empty() {
        let j = Journal::new();
        let d = j.wait_since(0, Duration::from_millis(20));
        assert!(d.events.is_empty());
        assert_eq!(d.missed, 0);
        assert_eq!(d.last_seq, 0);
    }

    #[test]
    fn wait_since_wakes_on_publish() {
        let j = Arc::new(Journal::new());
        let j2 = Arc::clone(&j);
        let waiter = std::thread::spawn(move || j2.wait_since(0, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(30));
        j.publish(7, EventKind::ServeStopping);
        let d = waiter.join().unwrap();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].time, 7);
    }

    fn sample_events() -> Vec<Event> {
        let kinds = vec![
            EventKind::LinkDown { u: 3, v: 17 },
            EventKind::SwitchDown { node: 9 },
            EventKind::Recabled { added_switches: 4, removed_edges: 10, added_edges: 26 },
            EventKind::FaultsApplied {
                affected_pairs: 12,
                paths_removed: 40,
                disconnected_pairs: 1,
            },
            EventKind::PairsRepaired { repaired: 12 },
            EventKind::TableExtended {
                affected_pairs: 5,
                new_pairs: 120,
                repaired: 5,
                reconnected: 1,
            },
            EventKind::CacheEvicted { bytes: 4096 },
            EventKind::CachePoisonRecovered,
            EventKind::CacheFlightAbandoned,
            EventKind::ScenarioPhase { index: 2, regime: "flows".into() },
            EventKind::AuditViolation { invariant: "packet-conservation".into() },
            EventKind::ServeStarted { switches: 64, seed: 7, selection: "redksp(k=4)".into() },
            EventKind::ServeFaultRound {
                new_links: 3,
                total_links: 5,
                affected_pairs: 40,
                repaired_pairs: 38,
                disconnected_pairs: 2,
            },
            EventKind::ServeRepaired { cleared_links: 5 },
            EventKind::TraceArmed,
            EventKind::TraceDrained { events: 812 },
            EventKind::ServeStopping,
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event { seq: i as u64 + 1, time: i as u64 * 3, kind })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        let events = sample_events();
        let mut text = String::new();
        write_events(5, &events, &mut text);
        let (missed, back) = read_events(&text).expect("well-formed document");
        assert_eq!(missed, 5);
        assert_eq!(back, events);
        // Re-rendering reproduces the bytes.
        let mut text2 = String::new();
        write_events(missed, &back, &mut text2);
        assert_eq!(text2, text);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let bad = [
            ("", "empty"),
            ("jellyfish-events v2\n", "bad version"),
            ("jellyfish-events v1\nevent\n", "missing seq"),
            ("jellyfish-events v1\nevent 1\n", "missing time"),
            ("jellyfish-events v1\nevent 1 0\n", "missing type"),
            ("jellyfish-events v1\nevent 1 0 no-such-type\n", "unknown type"),
            ("jellyfish-events v1\nevent 1 0 link-down 3\n", "arity"),
            ("jellyfish-events v1\nevent 1 0 link-down 3 4 5\n", "trailing"),
            ("jellyfish-events v1\nevent 1 0 link-down 3 -4\n", "negative field"),
            ("jellyfish-events v1\nevent 1 0 link-down 3 x\n", "non-numeric"),
            ("jellyfish-events v1\nevent 1 0 trace-armed\nevent 1 0 trace-armed\n", "seq repeat"),
            ("jellyfish-events v1\nevent 2 0 trace-armed\nevent 1 0 trace-armed\n", "seq order"),
            ("jellyfish-events v1\nevent 1 0 scenario-phase 2\n", "missing regime"),
            ("jellyfish-events v1\nmissed 1\nmissed 1\n", "double missed"),
            ("jellyfish-events v1\nevent 1 0 trace-armed\nmissed 1\n", "late missed"),
            ("jellyfish-events v1\nbogus 1\n", "unknown line"),
            ("jellyfish-events v1\nevent 99999999999999999999 0 trace-armed\n", "overflow"),
        ];
        for (doc, what) in bad {
            assert!(read_events(doc).is_err(), "{what} must be rejected: {doc:?}");
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = "jellyfish-events v1\n\nevent 1 0 trace-armed\n\n\nevent 2 1 serve-stopping\n";
        let (missed, events) = read_events(text).expect("heartbeats are skippable");
        assert_eq!(missed, 0);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn install_global_swaps_the_sink() {
        // Keep this the only test that touches the global sink: swap it
        // back before returning so parallel tests in this binary see the
        // default.
        let original = global();
        let mine = Arc::new(Journal::with_capacity(16));
        install_global(Arc::clone(&mine));
        publish(42, EventKind::TraceArmed);
        assert_eq!(mine.last_seq(), 1);
        install_global(original);
    }
}
