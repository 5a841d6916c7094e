#![warn(missing_docs)]
//! Cycle-level interconnection network simulator (Booksim 2.0 equivalent).
//!
//! The paper evaluates routing with Booksim 2.0 extended with the Jellyfish
//! topology. This crate is a from-scratch reimplementation of the slice of
//! Booksim the paper exercises:
//!
//! * input-queued virtual-channel routers with credit-based flow control;
//! * **single-flit packets** (a packet is one flit, per the paper's
//!   settings — the focus is routing, not flow control);
//! * channel latency of 10 cycles, 32-entry VC buffers;
//! * router speedup 2.0, modeled as a per-input grant cap in a one-pass
//!   switch allocator (an input port may forward up to two packets per
//!   cycle; each output channel still carries at most one);
//! * deadlock freedom by hop-indexed VCs: a packet entering its `h`-th
//!   network channel uses VC `h`, so the VC count equals the longest path
//!   in use (the paper sizes it by the network diameter; UGAL's
//!   valiant-routed paths can exceed the diameter, so we size from the
//!   actual path set);
//! * Bernoulli injection per compute node, warmup of 500 cycles, then 10
//!   sample windows of 500 cycles; the network counts as saturated when a
//!   sample's average packet latency exceeds 500 cycles.
//!
//! Routing is at the source: the [`Mechanism`]
//! chooses one of the precomputed paths (or a valiant path for vanilla
//! UGAL) when the packet is generated, using downstream-credit queue
//! estimates for the adaptive schemes.
//!
//! A [`Simulator`] advances the network as contiguous router shards in
//! lockstep ([`parallel`]): one shard by default, more with
//! [`Simulator::with_threads`], byte-identical results either way.

#[cfg(feature = "audit")]
pub mod audit;
pub mod config;
pub mod mechanism;
#[cfg(feature = "obs")]
pub mod observe;
pub mod parallel;
pub mod sim;
pub mod stats;
pub mod sweep;
#[doc(hidden)]
pub mod test_util;

#[cfg(feature = "audit")]
pub use audit::{AuditConfig, AuditEvent, Violation};
pub use config::SimConfig;
pub use mechanism::Mechanism;
#[cfg(feature = "obs")]
pub use observe::{ObserveConfig, SimMetrics};
pub use parallel::{install_threads, resolve_threads, Simulator};
pub use stats::{read_result, write_result, FlowStats, ResultReadError, RunResult};
pub use sweep::{
    latency_curve, run_at, saturation_search, saturation_throughput, LoadPoint, SweepConfig,
};
