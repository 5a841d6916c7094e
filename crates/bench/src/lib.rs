#![warn(missing_docs)]
//! Reproduction harness for every table and figure of the paper.
//!
//! `jellytool repro <experiment>` (`cargo run --release -p jellyfish-bench
//! --bin jellytool -- repro <experiment>`) regenerates the paper's evaluation artifacts.
//! The library's speed is measured end to end by `perfbench/`, not here.
//!
//! Experiments run at two scales:
//!
//! * [`Scale::Quick`] (default) — fewer random instances and sampled pair
//!   sets so `jellytool repro all` finishes on a laptop in tens of minutes;
//! * [`Scale::Paper`] — the paper's full instance counts and pair
//!   coverage.
//!
//! Every experiment prints measured values next to the paper's reported
//! numbers so the reproduction claims in EXPERIMENTS.md are auditable.

pub mod experiments;
pub mod scale;
pub mod serve;

pub use scale::Scale;
