//! Measurement machinery: sample windows and run results, plus the
//! line-oriented text persistence for [`RunResult`] (same idiom as the
//! routing crate's path-table format):
//!
//! ```text
//! jellyfish-run v2
//! offered <f64>
//! ...one `<field> <value>` line per scalar field...
//! samples <f64> <f64> ...
//! hops <u64> <u64> ...
//! ```
//!
//! Floats are written with Rust's shortest round-tripping formatting;
//! `NaN` is legal (an empty run has no mean latency). Duplicate field
//! lines are rejected, not last-wins-ignored. v2 added the
//! `measured_cycles` scalar and the latency percentile block
//! (`p50_latency` .. `p999_latency`); v1 files are no longer read.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Outcome of one simulation run at a fixed offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Offered load in packets/node/cycle.
    pub offered: f64,
    /// Accepted throughput in packets/node/cycle over the measurement
    /// phase.
    pub accepted: f64,
    /// Mean packet latency (cycles) over all packets ejected during
    /// measurement; `NaN` if nothing was ejected.
    pub avg_latency: f64,
    /// Mean latency per sample window (empty windows report `NaN`).
    pub sample_latencies: Vec<f64>,
    /// Whether the network saturated (a sample exceeded the latency
    /// threshold, a window ejected nothing while traffic was queued, or a
    /// source queue overflowed).
    pub saturated: bool,
    /// Packets generated during measurement.
    pub generated: u64,
    /// Packets ejected during measurement.
    pub ejected: u64,
    /// Cycles actually measured. Equal to the configured
    /// `sample_cycles * num_samples` on a clean run, smaller when the
    /// run terminated early (source-queue overflow or early saturation
    /// exit). Rates (`accepted`, link utilizations) are normalized by
    /// this, not by the configured length.
    pub measured_cycles: u64,
    /// Minimum packet latency observed during measurement (0 if none).
    pub min_latency: u64,
    /// Maximum packet latency observed during measurement.
    pub max_latency: u64,
    /// Median packet latency (cycles), log-bucketed estimate within
    /// ~1.6% relative error (exact below 128).
    pub p50_latency: u64,
    /// 90th-percentile packet latency (cycles), same precision as p50.
    pub p90_latency: u64,
    /// 99th-percentile packet latency (cycles), same precision as p50.
    pub p99_latency: u64,
    /// 99.9th-percentile packet latency (cycles), same precision as p50.
    pub p999_latency: u64,
    /// Ejected-packet counts by network hop count (index = hops).
    pub hop_histogram: Vec<u64>,
    /// Mean utilization over directed switch links during measurement
    /// (fraction of cycles each link carried a packet).
    pub mean_link_utilization: f64,
    /// Utilization of the busiest directed link.
    pub max_link_utilization: f64,
    /// Packets dropped over the whole run because of failed links or
    /// switches (in-flight on a cut wire, stuck past the reroute retry
    /// budget, or destined across a disconnected pair). Always 0 without
    /// a fault plan.
    pub dropped: u64,
    /// Packets successfully rerouted around a failed link mid-route over
    /// the whole run. Always 0 without a fault plan.
    pub rerouted: u64,
}

/// Flow-level accounting for a scenario-driven run (see
/// `Simulator::with_scenario`): the conservation ledger
/// `generated == completed + live + dropped` plus the FCT histogram.
/// Covers the whole run, warmup included — flows are open-to-close
/// entities and do not respect sample-window boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// Flows arrived over the whole run (stochastic + explicit).
    pub generated: u64,
    /// Flows whose every packet ejected at the destination.
    pub completed: u64,
    /// Flows that lost at least one packet to a fault (they can never
    /// complete). Always 0 without a fault plan.
    pub dropped: u64,
    /// Flows still open when the run ended.
    pub live: u64,
    /// Exact sum of completed-flow completion times (cycles).
    pub fct_sum: u64,
    /// Log-bucketed flow-completion-time histogram: exactly one sample
    /// per completed flow (arrival at the source NIC to last packet
    /// ejected).
    pub fct_hist: jellyfish_obs::LogHistogram,
}

impl FlowStats {
    /// Mean flow completion time in cycles (`NaN` with no completions).
    pub fn mean_fct(&self) -> f64 {
        self.fct_sum as f64 / self.completed as f64
    }
}

/// Magic header line of the run-result text format.
const HEADER: &str = "jellyfish-run v2";

/// Serializes a [`RunResult`] into the v2 text format.
pub fn write_result<W: Write>(r: &RunResult, mut out: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "{HEADER}").unwrap();
    writeln!(buf, "offered {}", r.offered).unwrap();
    writeln!(buf, "accepted {}", r.accepted).unwrap();
    writeln!(buf, "avg_latency {}", r.avg_latency).unwrap();
    writeln!(buf, "saturated {}", u8::from(r.saturated)).unwrap();
    writeln!(buf, "generated {}", r.generated).unwrap();
    writeln!(buf, "ejected {}", r.ejected).unwrap();
    writeln!(buf, "measured_cycles {}", r.measured_cycles).unwrap();
    writeln!(buf, "min_latency {}", r.min_latency).unwrap();
    writeln!(buf, "max_latency {}", r.max_latency).unwrap();
    writeln!(buf, "p50_latency {}", r.p50_latency).unwrap();
    writeln!(buf, "p90_latency {}", r.p90_latency).unwrap();
    writeln!(buf, "p99_latency {}", r.p99_latency).unwrap();
    writeln!(buf, "p999_latency {}", r.p999_latency).unwrap();
    writeln!(buf, "mean_link_utilization {}", r.mean_link_utilization).unwrap();
    writeln!(buf, "max_link_utilization {}", r.max_link_utilization).unwrap();
    writeln!(buf, "dropped {}", r.dropped).unwrap();
    writeln!(buf, "rerouted {}", r.rerouted).unwrap();
    buf.push_str("samples");
    for s in &r.sample_latencies {
        write!(buf, " {s}").unwrap();
    }
    buf.push('\n');
    buf.push_str("hops");
    for h in &r.hop_histogram {
        write!(buf, " {h}").unwrap();
    }
    buf.push('\n');
    out.write_all(buf.as_bytes())
}

/// Errors from [`read_result`].
#[derive(Debug)]
pub enum ResultReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file.
    Parse(String),
}

impl std::fmt::Display for ResultReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultReadError::Io(e) => write!(f, "i/o error: {e}"),
            ResultReadError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for ResultReadError {}

impl From<io::Error> for ResultReadError {
    fn from(e: io::Error) -> Self {
        ResultReadError::Io(e)
    }
}

/// Parses a v2 text file back into a [`RunResult`]. Duplicate field
/// lines (scalar, `samples` or `hops`) are an error: a file that says
/// `ejected` twice is corrupt, and silently keeping the last occurrence
/// would misreport the run.
pub fn read_result<R: BufRead>(input: R) -> Result<RunResult, ResultReadError> {
    let bad = |m: String| ResultReadError::Parse(m);
    let mut lines = input.lines();
    let header = lines.next().ok_or_else(|| bad("missing header".into()))??;
    if header.trim() != HEADER {
        return Err(bad(format!("bad header {header:?}")));
    }
    let mut scalars: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut samples: Option<Vec<f64>> = None;
    let mut hops: Option<Vec<u64>> = None;
    for line in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "samples" => {
                if samples.is_some() {
                    return Err(bad("duplicate samples line".into()));
                }
                let v: Result<Vec<f64>, _> = rest.split_whitespace().map(str::parse).collect();
                samples = Some(v.map_err(|e| bad(format!("bad sample: {e}")))?);
            }
            "hops" => {
                if hops.is_some() {
                    return Err(bad("duplicate hops line".into()));
                }
                let v: Result<Vec<u64>, _> = rest.split_whitespace().map(str::parse).collect();
                hops = Some(v.map_err(|e| bad(format!("bad hop count: {e}")))?);
            }
            _ => {
                if scalars.insert(key.to_string(), rest.trim().to_string()).is_some() {
                    return Err(bad(format!("duplicate field {key:?}")));
                }
            }
        }
    }
    fn field<T: std::str::FromStr>(
        scalars: &std::collections::HashMap<String, String>,
        key: &str,
    ) -> Result<T, ResultReadError> {
        scalars
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ResultReadError::Parse(format!("missing or bad field {key:?}")))
    }
    Ok(RunResult {
        offered: field(&scalars, "offered")?,
        accepted: field(&scalars, "accepted")?,
        avg_latency: field(&scalars, "avg_latency")?,
        sample_latencies: samples.ok_or_else(|| bad("missing samples line".into()))?,
        saturated: field::<u8>(&scalars, "saturated")? != 0,
        generated: field(&scalars, "generated")?,
        ejected: field(&scalars, "ejected")?,
        measured_cycles: field(&scalars, "measured_cycles")?,
        min_latency: field(&scalars, "min_latency")?,
        max_latency: field(&scalars, "max_latency")?,
        p50_latency: field(&scalars, "p50_latency")?,
        p90_latency: field(&scalars, "p90_latency")?,
        p99_latency: field(&scalars, "p99_latency")?,
        p999_latency: field(&scalars, "p999_latency")?,
        hop_histogram: hops.ok_or_else(|| bad("missing hops line".into()))?,
        mean_link_utilization: field(&scalars, "mean_link_utilization")?,
        max_link_utilization: field(&scalars, "max_link_utilization")?,
        dropped: field(&scalars, "dropped")?,
        rerouted: field(&scalars, "rerouted")?,
    })
}

/// Accumulates per-window latency/throughput samples.
///
/// Sums are kept as exact integers (packet latencies are integral
/// cycle counts) and means are derived on demand. Integer addition is
/// associative, so per-shard accumulators from the parallel engine
/// merge into bit-identical window means regardless of merge order —
/// the property the `parallel ≡ serial` differential tests rely on.
/// (The previous `f64` running sums were already exact below 2^53, so
/// serial results are unchanged.)
#[derive(Debug, Clone, Default)]
pub struct SampleAccumulator {
    window_lat_sum: u64,
    window_count: u64,
    /// Per finished window: (latency sum, ejected count).
    windows: Vec<(u64, u64)>,
    total_lat_sum: u64,
    total_count: u64,
}

impl SampleAccumulator {
    /// Records an ejected packet's latency.
    #[inline]
    pub fn record(&mut self, latency: u64) {
        self.window_lat_sum += latency;
        self.window_count += 1;
        self.total_lat_sum += latency;
        self.total_count += 1;
    }

    /// Closes the current window.
    pub fn end_window(&mut self) {
        self.windows.push((self.window_lat_sum, self.window_count));
        self.window_lat_sum = 0;
        self.window_count = 0;
    }

    /// Per-window mean latencies (empty windows report `NaN`).
    pub fn window_means(&self) -> Vec<f64> {
        self.windows.iter().map(|&(s, c)| Self::mean(s, c)).collect()
    }

    #[inline]
    fn mean(sum: u64, count: u64) -> f64 {
        if count == 0 {
            f64::NAN
        } else {
            sum as f64 / count as f64
        }
    }

    /// Number of closed windows.
    pub(crate) fn closed_windows(&self) -> usize {
        self.windows.len()
    }

    /// Total ejected packets across closed windows. The simulator closes
    /// any trailing partial window before reading results, so by then
    /// this covers every recorded packet.
    pub fn total_ejected(&self) -> u64 {
        self.windows.iter().map(|&(_, c)| c).sum()
    }

    /// Mean latency across all recorded packets (closed or not).
    pub fn overall_mean(&self) -> f64 {
        Self::mean(self.total_lat_sum, self.total_count)
    }

    /// Raw `(latency sum, ejected count)` of the most recently closed
    /// window. Used by the parallel engine's coordinator to evaluate the
    /// saturation verdict across shards without going through `f64`.
    pub(crate) fn last_window_raw(&self) -> Option<(u64, u64)> {
        self.windows.last().copied()
    }

    /// Folds another accumulator into this one, window by window.
    /// Windows close in lockstep across the parallel engine's shards, so
    /// window `i` here and window `i` there cover the same cycles; the
    /// merged window is the exact integer sum of both.
    pub(crate) fn merge_from(&mut self, other: &SampleAccumulator) {
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), (0, 0));
        }
        for (i, &(s, c)) in other.windows.iter().enumerate() {
            self.windows[i].0 += s;
            self.windows[i].1 += c;
        }
        self.window_lat_sum += other.window_lat_sum;
        self.window_count += other.window_count;
        self.total_lat_sum += other.total_lat_sum;
        self.total_count += other.total_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_records() {
        let mut acc = SampleAccumulator::default();
        acc.record(10);
        acc.record(20);
        acc.end_window();
        acc.record(40);
        acc.end_window();
        assert_eq!(acc.window_means(), vec![15.0, 40.0]);
        assert_eq!(acc.total_ejected(), 3);
        assert!((acc.overall_mean() - 70.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merged_shard_windows_match_a_single_accumulator() {
        // Records split across two accumulators and merged must equal
        // the same records fed to one accumulator — bit-identical.
        let mut whole = SampleAccumulator::default();
        let (mut a, mut b) = (SampleAccumulator::default(), SampleAccumulator::default());
        for (i, lat) in [3u64, 10, 4, 7, 29, 5].into_iter().enumerate() {
            whole.record(lat);
            if i % 2 == 0 {
                a.record(lat);
            } else {
                b.record(lat);
            }
        }
        for acc in [&mut whole, &mut a, &mut b] {
            acc.end_window();
        }
        whole.record(11);
        a.record(11);
        for acc in [&mut whole, &mut a, &mut b] {
            acc.end_window();
        }
        let mut merged = SampleAccumulator::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.window_means(), whole.window_means());
        assert_eq!(merged.total_ejected(), whole.total_ejected());
        assert_eq!(merged.overall_mean(), whole.overall_mean());
        assert_eq!(merged.last_window_raw(), whole.last_window_raw());
    }

    #[test]
    fn empty_window_is_nan() {
        let mut acc = SampleAccumulator::default();
        acc.end_window();
        assert!(acc.window_means()[0].is_nan());
        assert!(acc.overall_mean().is_nan());
        assert_eq!(acc.total_ejected(), 0);
    }

    fn sample_result() -> RunResult {
        RunResult {
            offered: 0.25,
            accepted: 0.2471,
            avg_latency: 43.625,
            sample_latencies: vec![41.0, f64::NAN, 46.25],
            saturated: false,
            generated: 12345,
            ejected: 12001,
            measured_cycles: 5000,
            min_latency: 12,
            max_latency: 419,
            p50_latency: 40,
            p90_latency: 77,
            p99_latency: 130,
            p999_latency: 390,
            hop_histogram: vec![0, 100, 9000, 2901],
            mean_link_utilization: 0.31,
            max_link_utilization: 0.92,
            dropped: 17,
            rerouted: 44,
        }
    }

    #[test]
    fn result_text_round_trip() {
        let r = sample_result();
        let mut buf = Vec::new();
        write_result(&r, &mut buf).unwrap();
        let loaded = read_result(buf.as_slice()).unwrap();
        // NaN != NaN, so compare fields around the NaN sample.
        assert_eq!(loaded.offered, r.offered);
        assert_eq!(loaded.accepted, r.accepted);
        assert_eq!(loaded.avg_latency, r.avg_latency);
        assert_eq!(loaded.sample_latencies.len(), 3);
        assert_eq!(loaded.sample_latencies[0], 41.0);
        assert!(loaded.sample_latencies[1].is_nan());
        assert_eq!(loaded.sample_latencies[2], 46.25);
        assert_eq!(loaded.saturated, r.saturated);
        assert_eq!(loaded.generated, r.generated);
        assert_eq!(loaded.ejected, r.ejected);
        assert_eq!(loaded.measured_cycles, r.measured_cycles);
        assert_eq!(loaded.min_latency, r.min_latency);
        assert_eq!(loaded.max_latency, r.max_latency);
        assert_eq!(loaded.p50_latency, r.p50_latency);
        assert_eq!(loaded.p90_latency, r.p90_latency);
        assert_eq!(loaded.p99_latency, r.p99_latency);
        assert_eq!(loaded.p999_latency, r.p999_latency);
        assert_eq!(loaded.hop_histogram, r.hop_histogram);
        assert_eq!(loaded.mean_link_utilization, r.mean_link_utilization);
        assert_eq!(loaded.max_link_utilization, r.max_link_utilization);
        assert_eq!(loaded.dropped, r.dropped);
        assert_eq!(loaded.rerouted, r.rerouted);
    }

    #[test]
    fn result_read_rejects_garbage() {
        assert!(read_result("bogus\n".as_bytes()).is_err());
        let missing = "jellyfish-run v2\noffered 0.1\n";
        assert!(read_result(missing.as_bytes()).is_err());
        // v1 files are rejected outright rather than misread.
        assert!(read_result("jellyfish-run v1\n".as_bytes()).is_err());
    }

    #[test]
    fn result_read_rejects_duplicates() {
        let mut buf = Vec::new();
        write_result(&sample_result(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for dup in ["ejected 999", "samples 1 2", "hops 0 1"] {
            let corrupt = format!("{text}{dup}\n");
            let err = read_result(corrupt.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("duplicate"), "{dup}: {err}");
        }
        // The original, without duplicated lines, still parses.
        assert!(read_result(text.as_bytes()).is_ok());
    }
}
