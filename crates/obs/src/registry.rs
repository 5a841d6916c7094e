//! Named metrics: counters, gauges and histograms, plus a
//! process-wide registry that timing spans report into.
//!
//! All maps are `BTreeMap`s so iteration (and therefore serialization)
//! order is deterministic. Metric names must be non-empty and free of
//! whitespace — they become single tokens of the `jellyfish-metrics v1`
//! text format.

use crate::hist::LogHistogram;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A set of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty() && !name.contains(char::is_whitespace),
        "metric name {name:?} must be non-empty and whitespace-free"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric of any kind is registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Adds `v` to the named counter (created at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        check_name(name);
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        check_name(name);
        self.gauges.insert(name.to_string(), v);
    }

    /// Records a sample into the named histogram (created empty).
    pub fn hist_record(&mut self, name: &str, v: u64) {
        check_name(name);
        self.hists.entry(name.to_string()).or_default().record(v);
    }

    /// Inserts a pre-built histogram under `name`, merging into any
    /// existing one.
    pub fn hist_merge(&mut self, name: &str, h: &LogHistogram) {
        check_name(name);
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// The named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &LogHistogram)> + '_ {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry: counters add, gauges overwrite,
    /// histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();

/// The process-wide registry that [`span`] timers and library
/// instrumentation report into.
pub fn global() -> MutexGuard<'static, Registry> {
    GLOBAL
        .get_or_init(|| Mutex::new(Registry::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Swaps the global registry for an empty one and returns the old
/// contents (serialize-and-reset).
pub fn take_global() -> Registry {
    std::mem::take(&mut *global())
}

/// A timing span: measures wall-clock time from construction to drop
/// (or [`Span::finish`]) and records it into the global registry as
/// `<name>.micros` and `<name>.self_micros` (histograms) plus
/// `<name>.calls` (counter).
///
/// `<name>.micros` is **total (inclusive) wall time**: when spans nest,
/// a parent's histogram includes every cycle its children spent, so
/// summing `.micros` across names double-counts nested work.
/// `<name>.self_micros` subtracts the time spent inside child spans on
/// the same thread (maintained by the [`crate::trace`] span stack), so
/// self times are disjoint and sum to 100% of the traced wall clock.
///
/// Registry spans also deposit an event into the thread's trace ring
/// whenever hierarchical tracing ([`crate::trace::enable`]) is on, so
/// every instrumented call site appears on the exported timeline.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    done: bool,
}

/// Starts a timing span reporting into the global registry (and onto
/// the trace timeline when tracing is enabled).
pub fn span(name: &'static str) -> Span {
    crate::trace::begin_frame(name);
    Span { name, done: false }
}

impl Span {
    /// Ends the span now and records its duration.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let (total_ns, self_ns) = crate::trace::end_frame(self.name);
        let mut g = global();
        g.hist_record(&format!("{}.micros", self.name), total_ns / 1000);
        g.hist_record(&format!("{}.self_micros", self.name), self_ns / 1000);
        g.counter_add(&format!("{}.calls", self.name), 1);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_iterate_sorted() {
        let mut r = Registry::new();
        r.counter_add("z", 2);
        r.counter_add("a", 1);
        r.counter_add("z", 3);
        assert_eq!(r.counter("z"), Some(5));
        assert_eq!(r.counter("missing"), None);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "z"]);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("load", 0.5);
        r.gauge_set("load", 0.75);
        assert_eq!(r.gauge("load"), Some(0.75));
    }

    #[test]
    fn hists_collect() {
        let mut r = Registry::new();
        r.hist_record("lat", 10);
        r.hist_record("lat", 30);
        assert_eq!(r.hist("lat").unwrap().count(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.hist_record("h", 5);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 9.0);
        b.hist_record("h", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.hist("h").unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn whitespace_names_are_rejected() {
        Registry::new().counter_add("bad name", 1);
    }

    #[test]
    fn spans_record_into_the_global_registry() {
        // The global registry is shared across tests; use a unique name
        // and only assert on it.
        span("obs.test.span_smoke").finish();
        {
            let _guard = span("obs.test.span_smoke");
        }
        let g = global();
        assert_eq!(g.counter("obs.test.span_smoke.calls"), Some(2));
        assert_eq!(g.hist("obs.test.span_smoke.micros").unwrap().count(), 2);
        assert_eq!(g.hist("obs.test.span_smoke.self_micros").unwrap().count(), 2);
    }

    #[test]
    fn nested_spans_attribute_self_time() {
        // `<name>.micros` stays *total* (parent includes child), while
        // `<name>.self_micros` excludes child time — the parent's self
        // histogram must not contain the child's 5 ms.
        {
            let _outer = span("obs.test.nested_outer");
            let inner = span("obs.test.nested_inner");
            std::thread::sleep(std::time::Duration::from_millis(5));
            inner.finish();
        }
        let g = global();
        let outer_total = g.hist("obs.test.nested_outer.micros").unwrap().max();
        let outer_self = g.hist("obs.test.nested_outer.self_micros").unwrap().max();
        let inner_total = g.hist("obs.test.nested_inner.micros").unwrap().max();
        assert!(outer_total >= inner_total, "total time includes the child");
        // Log-bucketed histograms have ~1.6% relative error; stay clear.
        assert!(inner_total >= 4_500, "child slept 5 ms, saw {inner_total} us");
        assert!(
            outer_self < inner_total,
            "self time excludes the child ({outer_self} vs {inner_total})"
        );
    }
}
