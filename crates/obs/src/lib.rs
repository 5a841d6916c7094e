#![warn(missing_docs)]
//! Self-hosted observability for the Jellyfish reproduction.
//!
//! The build environment has no registry access, so instead of
//! `tracing` + `hdrhistogram` this crate implements the small slice the
//! workspace needs, dependency-free:
//!
//! * [`LogHistogram`] — a log-bucketed `u64` histogram (~1.6% relative
//!   quantile error) with a p50/p90/p99/p999 block, cheap enough to
//!   record every ejected packet in the cycle-level simulator;
//! * [`Registry`] — named counters / gauges / histograms with
//!   deterministic (sorted) iteration, plus a process-wide instance
//!   ([`global`]) that library instrumentation reports into;
//! * [`span`] — RAII wall-clock timing spans (`<name>.micros` total and
//!   `<name>.self_micros` exclusive histograms plus a `<name>.calls`
//!   counter in the global registry), used around path table
//!   construction/repair and the simulator sweep stages;
//! * [`trace`] — hierarchical tracing: thread-local span stacks feeding
//!   bounded per-thread rings, exported as Chrome Trace Event Format
//!   JSON or a text flame summary with self-time attribution;
//! * [`Ring`] — the bounded drop-oldest ring behind the trace rings,
//!   the event journal and the simulator's audit flight recorder;
//! * [`json`] — a strict, minimal JSON reader (bench baselines for the
//!   regression gate, trace files in tests);
//! * `jellyfish-metrics v1` — a line-oriented text format
//!   ([`write_metrics`] / [`read_metrics`], lossless round-trip) in the
//!   same idiom as the `jellyfish-run v2` / `jellyfish-faults v1`
//!   formats, plus a JSON summary of one histogram ([`hist_to_json`]).
//!
//! What belongs where: *always-on* aggregates (timings, run counters,
//! latency percentiles) go through this crate unconditionally — their
//! cost is nanoseconds per event. *Per-cycle* telemetry (link occupancy,
//! credit stalls) lives behind the simulator's `obs` feature because
//! even a strided sweep over every link is measurable work.

mod hist;
pub mod journal;
pub mod json;
mod registry;
mod ring;
mod serialize;
pub mod trace;

pub use hist::LogHistogram;
pub use registry::{global, span, take_global, Registry, Span};
pub use ring::Ring;
pub use serialize::{hist_to_json, read_metrics, write_metrics, MetricsReadError, METRICS_HEADER};
