//! Hierarchical tracing: thread-local span stacks feeding per-thread
//! bounded ring buffers, exportable as Chrome Trace Event Format JSON
//! (loadable in `chrome://tracing` / Perfetto) or as a self-rendered
//! text flame summary with self-time vs. child-time attribution.
//!
//! Relation to [`crate::span`]: registry spans *always* maintain the
//! thread-local span stack (that is how `<name>.self_micros` is
//! attributed) and additionally deposit a trace record whenever tracing
//! is enabled. The [`span`] function in this module creates a
//! *trace-only* span: when tracing is disabled it costs one relaxed
//! atomic load and records nothing anywhere, which makes it cheap
//! enough for per-cycle simulator stages and per-pair routing work
//! inside the rayon fan-out.
//!
//! Memory is bounded: each thread owns a ring of at most
//! [`TraceConfig::capacity`] completed-span records. When a ring is
//! full the *oldest* record is dropped and counted; [`take`] folds the
//! count into the global registry as `obs.trace.dropped`. Because a
//! record is deposited when its span *ends*, long-running enclosing
//! spans (the roots of the timeline) are the last to be written and
//! therefore survive overflow.
//!
//! Timestamps are nanoseconds from a process-wide epoch (latched on
//! first use). Chrome's JSON wants microseconds; the exporter emits
//! fractional microseconds with three decimals, so nothing is lost.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::Ring;

/// Tracing settings, applied by [`enable`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Completed-span records retained per thread (drop-oldest beyond
    /// this). The default of 65 536 keeps a fully traced quick-scale
    /// `jellytool stats` run (a few thousand cycles at a handful of
    /// spans per cycle) without any drops in a few MB per thread.
    pub capacity: usize,
    /// The simulator traces its per-cycle stage spans only on cycles
    /// that fall on this stride (>= 1); other cycles run untraced. 1
    /// traces every cycle.
    pub cycle_stride: u32,
    /// The simulator adds per-router route/arbitrate/eject detail spans
    /// only on cycles that fall on this stride (a multiple of
    /// `cycle_stride` is sensible; must be >= 1). These are much denser
    /// than the cycle stages, hence the coarser default.
    pub detail_stride: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { capacity: 1 << 16, cycle_stride: 1, detail_stride: 64 }
    }
}

/// What kind of event a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed span (`B`/`E` pair in the Chrome export).
    Span,
    /// A zero-duration instant event (`i` in the Chrome export).
    Instant,
}

/// One completed span (or instant) as drained from a thread's ring.
#[derive(Debug, Clone)]
pub struct Record {
    /// Span name (static: names are code, not data).
    pub name: &'static str,
    /// Start, nanoseconds from the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the trace epoch (`start_ns` for instants;
    /// clamped to at least `start_ns + 1` for spans so zero-width spans
    /// keep a well-defined B-before-E order).
    pub end_ns: u64,
    /// Wall time minus the wall time of direct children, accumulated on
    /// the live stack (robust against dropped child records).
    pub self_ns: u64,
    /// Enclosing spans at the time this span ran (0 = root).
    pub depth: u32,
    /// Span or instant.
    pub kind: RecordKind,
}

struct ThreadHandle {
    tid: u32,
    ring: Arc<Mutex<Ring<Record>>>,
}

struct TraceState {
    epoch: Instant,
    enabled: AtomicBool,
    capacity: AtomicUsize,
    cycle_stride: AtomicU32,
    detail_stride: AtomicU32,
    next_tid: AtomicU32,
    threads: Mutex<Vec<ThreadHandle>>,
    /// Overflow already folded out of rings by [`take`]; added to live
    /// ring counts by [`dropped_so_far`] so health endpoints can report
    /// a lifetime total without draining.
    dropped_folded: AtomicU64,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| TraceState {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(TraceConfig::default().capacity),
        cycle_stride: AtomicU32::new(TraceConfig::default().cycle_stride),
        detail_stride: AtomicU32::new(TraceConfig::default().detail_stride),
        next_tid: AtomicU32::new(0),
        threads: Mutex::new(Vec::new()),
        dropped_folded: AtomicU64::new(0),
    })
}

/// Lifetime count of trace records lost to ring overflow: overflow
/// already drained by [`take`] plus overflow still sitting in live
/// rings. Non-destructive — health endpoints poll this without
/// perturbing an armed trace.
pub fn dropped_so_far() -> u64 {
    let st = state();
    let mut total = st.dropped_folded.load(Ordering::Relaxed);
    let threads = st.threads.lock().unwrap_or_else(|p| p.into_inner());
    for handle in threads.iter() {
        total += handle.ring.lock().unwrap_or_else(|p| p.into_inner()).dropped();
    }
    total
}

/// Frame of the thread-local span stack.
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct ThreadCtx {
    stack: Vec<Frame>,
    ring: Arc<Mutex<Ring<Record>>>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    CTX.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ctx = slot.get_or_insert_with(|| {
            let st = state();
            let tid = st.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring::new(st.capacity.load(Ordering::Relaxed), 0)));
            st.threads
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(ThreadHandle { tid, ring: Arc::clone(&ring) });
            ThreadCtx { stack: Vec::new(), ring }
        });
        f(ctx)
    })
}

/// Turns tracing on with the given settings. Existing per-thread rings
/// keep their old capacity; new threads use the new one. Typically
/// called once at process start (`--trace FILE`).
pub fn enable(cfg: TraceConfig) {
    assert!(cfg.capacity >= 1, "trace capacity must be >= 1");
    assert!(cfg.cycle_stride >= 1 && cfg.detail_stride >= 1, "trace strides must be >= 1");
    let st = state();
    st.capacity.store(cfg.capacity, Ordering::Relaxed);
    st.cycle_stride.store(cfg.cycle_stride, Ordering::Relaxed);
    st.detail_stride.store(cfg.detail_stride, Ordering::Relaxed);
    st.enabled.store(true, Ordering::Release);
}

/// Turns tracing off. Already-recorded events stay in the rings until
/// [`take`] drains them.
pub fn disable() {
    state().enabled.store(false, Ordering::Release);
}

/// Whether tracing is currently on (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// The configured per-cycle stage-span stride (see [`TraceConfig`]).
#[inline]
pub fn cycle_stride() -> u32 {
    state().cycle_stride.load(Ordering::Relaxed)
}

/// The configured per-router detail-span stride (see [`TraceConfig`]).
#[inline]
pub fn detail_stride() -> u32 {
    state().detail_stride.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
#[inline]
fn now_ns() -> u64 {
    state().epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Pushes a frame for a beginning span. Returns its start timestamp.
pub(crate) fn begin_frame(name: &'static str) -> u64 {
    let start_ns = now_ns();
    with_ctx(|ctx| ctx.stack.push(Frame { name, start_ns, child_ns: 0 }));
    start_ns
}

/// Pops the innermost frame, attributes its wall time to the parent's
/// child-time, deposits a trace record when tracing is on, and returns
/// `(total_ns, self_ns)` for the registry span to record.
pub(crate) fn end_frame(name: &'static str) -> (u64, u64) {
    let end_ns = now_ns();
    with_ctx(|ctx| {
        let frame = ctx.stack.pop().expect("span stack underflow");
        debug_assert_eq!(frame.name, name, "span end out of order");
        let end_ns = end_ns.max(frame.start_ns + 1);
        let total_ns = end_ns - frame.start_ns;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        if let Some(parent) = ctx.stack.last_mut() {
            parent.child_ns += total_ns;
        }
        if enabled() {
            ctx.ring.lock().unwrap_or_else(|p| p.into_inner()).push(Record {
                name,
                start_ns: frame.start_ns,
                end_ns,
                self_ns,
                depth: ctx.stack.len() as u32,
                kind: RecordKind::Span,
            });
        }
        (total_ns, self_ns)
    })
}

/// A trace-only RAII span: records into the thread's ring (and the
/// timeline's parent/child structure) but not into the metric registry.
/// Inert — no clock read, no thread-local access — while tracing is
/// disabled.
#[must_use = "a trace span measures until it is dropped"]
pub struct TraceSpan {
    name: &'static str,
    active: bool,
}

/// Starts a trace-only span (see [`TraceSpan`]).
#[inline]
pub fn span(name: &'static str) -> TraceSpan {
    let active = enabled();
    if active {
        begin_frame(name);
    }
    TraceSpan { name, active }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.active {
            end_frame(self.name);
        }
    }
}

/// Records a zero-duration instant event (Chrome `i` phase). No-op
/// while tracing is disabled.
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let ts = now_ns();
    with_ctx(|ctx| {
        let depth = ctx.stack.len() as u32;
        ctx.ring.lock().unwrap_or_else(|p| p.into_inner()).push(Record {
            name,
            start_ns: ts,
            end_ns: ts,
            self_ns: 0,
            depth,
            kind: RecordKind::Instant,
        });
    });
}

/// All records drained from one thread.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Small dense thread id (registration order; 0 is usually main).
    pub tid: u32,
    /// Completed records in completion order.
    pub records: Vec<Record>,
}

/// A drained trace: everything recorded since the last [`take`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread record sets, ordered by thread id.
    pub threads: Vec<ThreadTrace>,
    /// Records discarded by drop-oldest ring overflow.
    pub dropped: u64,
}

/// Drains every thread's ring and returns the collected trace. Folds
/// the overflow count into the global registry (`obs.trace.dropped`)
/// and prunes rings of threads that have exited. Spans still open at
/// this point are not part of the result (their records are deposited
/// when they end).
pub fn take() -> Trace {
    let st = state();
    let mut threads = st.threads.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = Trace::default();
    for handle in threads.iter() {
        let mut ring = handle.ring.lock().unwrap_or_else(|p| p.into_inner());
        let records: Vec<Record> = ring.drain().collect();
        out.dropped += ring.take_dropped();
        if !records.is_empty() {
            out.threads.push(ThreadTrace { tid: handle.tid, records });
        }
    }
    // A handle whose ring we hold the only reference to belongs to a
    // thread that has exited; now that it is drained, let it go.
    threads.retain(|h| Arc::strong_count(&h.ring) > 1);
    drop(threads);
    out.threads.sort_by_key(|t| t.tid);
    if out.dropped > 0 {
        st.dropped_folded.fetch_add(out.dropped, Ordering::Relaxed);
        crate::global().counter_add("obs.trace.dropped", out.dropped);
    }
    out
}

/// One Chrome trace event, ready to serialize (kept for sort keys).
struct ChromeEvent {
    ts_ns: u64,
    /// Ordering at equal timestamps: ends (0) before begins (1) before
    /// instants (2), so sibling spans and nesting stay balanced.
    order: u8,
    /// Secondary tiebreak: begins open outermost-first, ends close
    /// innermost-first.
    depth_key: i64,
    json: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond precision, as Chrome wants it.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl Trace {
    /// Total number of records across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.records.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.threads.iter().all(|t| t.records.is_empty())
    }

    /// Renders the trace as Chrome Trace Event Format JSON: one `B`/`E`
    /// pair per span and one `i` event per instant, per-thread metadata
    /// names, events sorted by timestamp within each thread. Loadable
    /// in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for thread in &self.threads {
            let mut events: Vec<ChromeEvent> = Vec::with_capacity(thread.records.len() * 2 + 1);
            for rec in &thread.records {
                let name = json_escape(rec.name);
                match rec.kind {
                    RecordKind::Span => {
                        events.push(ChromeEvent {
                            ts_ns: rec.start_ns,
                            order: 1,
                            depth_key: i64::from(rec.depth),
                            json: format!(
                                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                                thread.tid,
                                ts_us(rec.start_ns),
                                name
                            ),
                        });
                        events.push(ChromeEvent {
                            ts_ns: rec.end_ns,
                            order: 0,
                            depth_key: -i64::from(rec.depth),
                            json: format!(
                                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\"}}",
                                thread.tid,
                                ts_us(rec.end_ns),
                                name
                            ),
                        });
                    }
                    RecordKind::Instant => events.push(ChromeEvent {
                        ts_ns: rec.start_ns,
                        order: 2,
                        depth_key: 0,
                        json: format!(
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                             \"name\":\"{}\"}}",
                            thread.tid,
                            ts_us(rec.start_ns),
                            name
                        ),
                    }),
                }
            }
            events.sort_by_key(|e| (e.ts_ns, e.order, e.depth_key));
            let meta = format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"thread-{}\"}}}}",
                thread.tid, thread.tid
            );
            for json in std::iter::once(meta).chain(events.into_iter().map(|e| e.json)) {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&json);
            }
        }
        out.push_str(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"format\":\
                      \"jellyfish-trace v1\"}}\n",
        );
        out
    }

    /// Per-name aggregation: call count, total (inclusive) time and
    /// self time (exclusive of traced children), sorted by self time
    /// descending. Instants count calls only.
    pub fn flame(&self) -> Vec<FlameRow> {
        use std::collections::BTreeMap;
        let mut rows: BTreeMap<&'static str, FlameRow> = BTreeMap::new();
        for rec in self.threads.iter().flat_map(|t| t.records.iter()) {
            let row = rows.entry(rec.name).or_insert_with(|| FlameRow {
                name: rec.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            if rec.kind == RecordKind::Span {
                row.total_ns += rec.end_ns - rec.start_ns;
                row.self_ns += rec.self_ns;
            }
        }
        let mut rows: Vec<FlameRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// Wall time covered by root spans (depth 0), summed over threads.
    /// By construction the self times of *all* spans sum to this (up to
    /// records lost to ring overflow).
    pub fn total_traced_ns(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.records.iter())
            .filter(|r| r.depth == 0 && r.kind == RecordKind::Span)
            .map(|r| r.end_ns - r.start_ns)
            .sum()
    }

    /// Text flame summary: per-name self/total attribution plus the
    /// self-time-sums-to-total check line.
    pub fn render_flame(&self) -> String {
        let rows = self.flame();
        let total: u64 = self.total_traced_ns();
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        let mut out = String::new();
        let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>10}  {:>14}  {:>14}  {:>6}",
            "span", "calls", "self", "total", "self%"
        );
        for r in &rows {
            let pct = if total > 0 { r.self_ns as f64 / total as f64 * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>10}  {:>14}  {:>14}  {:>5.1}%",
                r.name,
                r.count,
                fmt_ns(r.self_ns),
                fmt_ns(r.total_ns),
                pct
            );
        }
        let _ = writeln!(
            out,
            "traced {} across {} thread(s); self-time sum {} ({:.2}% of traced); {} record(s) \
             dropped",
            fmt_ns(total),
            self.threads.len(),
            fmt_ns(self_sum),
            if total > 0 { self_sum as f64 / total as f64 * 100.0 } else { 100.0 },
            self.dropped
        );
        out
    }
}

/// One line of the flame summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameRow {
    /// Span name.
    pub name: &'static str,
    /// Number of records.
    pub count: u64,
    /// Summed inclusive wall time.
    pub total_ns: u64,
    /// Summed exclusive wall time (total minus traced children).
    pub self_ns: u64,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}us", ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; tests that enable/take must not
    // interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        disable();
        let _ = take();
        {
            let _s = span("obs.trace.test.disabled");
            instant("obs.trace.test.disabled_instant");
        }
        let t = take();
        assert!(
            !t.threads
                .iter()
                .flat_map(|th| th.records.iter())
                .any(|r| r.name.starts_with("obs.trace.test.disabled")),
            "disabled tracing must not record"
        );
    }

    #[test]
    fn nesting_and_self_time_attribution() {
        let _guard = serial();
        enable(TraceConfig::default());
        let _ = take();
        {
            let _outer = span("obs.trace.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("obs.trace.test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            instant("obs.trace.test.mark");
        }
        disable();
        let t = take();
        let find = |name: &str| {
            t.threads
                .iter()
                .flat_map(|th| th.records.iter())
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("record {name} missing"))
                .clone()
        };
        let outer = find("obs.trace.test.outer");
        let inner = find("obs.trace.test.inner");
        let mark = find("obs.trace.test.mark");
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let outer_total = outer.end_ns - outer.start_ns;
        let inner_total = inner.end_ns - inner.start_ns;
        assert_eq!(outer.self_ns, outer_total - inner_total);
        assert_eq!(inner.self_ns, inner_total);
        assert_eq!(mark.kind, RecordKind::Instant);
        assert!(mark.start_ns >= inner.end_ns && mark.start_ns <= outer.end_ns);

        // Flame attribution: self times of the two spans sum to the
        // root's total.
        let rows = t.flame();
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(
            row("obs.trace.test.outer").self_ns + row("obs.trace.test.inner").self_ns,
            outer_total
        );
    }

    #[test]
    fn chrome_export_is_balanced_and_ordered() {
        let _guard = serial();
        enable(TraceConfig::default());
        let _ = take();
        {
            let _a = span("obs.trace.test.a");
            let _b = span("obs.trace.test.b");
        }
        disable();
        let json = take().to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("obs.trace.test.a") && json.contains("obs.trace.test.b"));
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        // b nests inside a: B(a) before B(b), E(b) before E(a).
        let pos = |pat: &str| json.find(pat).unwrap_or_else(|| panic!("{pat} missing"));
        assert!(pos("\"name\":\"obs.trace.test.a\"") < pos("\"name\":\"obs.trace.test.b\""));
        let e_b = json.rfind("\"name\":\"obs.trace.test.b\"").unwrap();
        let e_a = json.rfind("\"name\":\"obs.trace.test.a\"").unwrap();
        assert!(e_b < e_a, "inner span ends before its parent");
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _guard = serial();
        // Fresh thread so the small capacity applies to its new ring.
        enable(TraceConfig { capacity: 4, ..TraceConfig::default() });
        let _ = take();
        std::thread::spawn(|| {
            for _ in 0..10 {
                let _s = span("obs.trace.test.overflow");
            }
        })
        .join()
        .unwrap();
        disable();
        let t = take();
        let kept: Vec<&Record> = t
            .threads
            .iter()
            .flat_map(|th| th.records.iter())
            .filter(|r| r.name == "obs.trace.test.overflow")
            .collect();
        assert_eq!(kept.len(), 4, "capacity-4 ring keeps 4 records");
        assert_eq!(t.dropped, 6, "6 oldest records dropped");
        // Drop-oldest: the retained records are the last to complete.
        for pair in kept.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
        assert!(crate::global().counter("obs.trace.dropped").unwrap_or(0) >= 6);
        // Restore the default capacity for later tests/threads.
        enable(TraceConfig::default());
        disable();
    }

    #[test]
    fn take_prunes_dead_threads() {
        let _guard = serial();
        enable(TraceConfig::default());
        let _ = take();
        std::thread::spawn(|| {
            let _s = span("obs.trace.test.ephemeral");
        })
        .join()
        .unwrap();
        disable();
        let t = take();
        assert!(t
            .threads
            .iter()
            .flat_map(|th| th.records.iter())
            .any(|r| r.name == "obs.trace.test.ephemeral"));
        // Dead thread's ring was drained and pruned: a second take sees
        // nothing from it.
        let t2 = take();
        assert!(!t2
            .threads
            .iter()
            .flat_map(|th| th.records.iter())
            .any(|r| r.name == "obs.trace.test.ephemeral"));
    }

    #[test]
    fn ts_us_has_nanosecond_precision() {
        assert_eq!(ts_us(1_234_567), "1234.567");
        assert_eq!(ts_us(5), "0.005");
    }
}
