//! End-to-end and per-layer benchmark of the Jellyfish routing stack.
//!
//! Four workloads, each timed from outside through the crates' public
//! functions (see `README.md` for why each exists):
//!
//! * [`serve_paths`] — `/paths` answers from a `jellytool serve` daemon
//!   over loopback TCP, with fault/repair rounds beside the reads;
//! * [`table_build`] — cold all-pairs KSP/rKSP/EDKSP/rEDKSP tables;
//! * [`sat_sweep`] — the paper's saturation-throughput search;
//! * [`bursty_flows`] — scenario runs of Poisson bursts and idle drains.
//!
//! A run prints log lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod bursty_flows;
pub mod check;
pub mod client;
pub mod sat_sweep;
pub mod serve_paths;
pub mod stats;
pub mod table_build;

use stats::{median, tail, Fnv};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Topology seed of the fixed fabrics `table_build`, `sat_sweep` and
/// `bursty_flows` run on (the seed `jellytool bench` uses). The
/// workload seed varies what runs on the fabric — table, traffic and
/// scenario seeds — but not the fabric, whose shape alone moves
/// routing and simulation cost by up to a quarter between instances.
pub(crate) const FABRIC_SEED: u64 = 7;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve_paths", "table_build", "sat_sweep", "bursty_flows"];

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics the traced runs report: `(name, unit)`. A traced
/// run reports all of them; one whose layer its workload does not run
/// reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.http.parse_us", "us"),
    ("serve.dispatch.paths_us", "us"),
    ("serve.http.frame_us", "us"),
    ("serve.http.writes_per_response", "count"),
    ("serve.transport_ms", "ms"),
    ("serve.transport_share", "ratio"),
    ("serve.fault_round_ms", "ms"),
    ("serve.dispatch.faults_ms", "ms"),
    ("serve.dispatch.repair_us", "us"),
    ("routing.faults.affected_pairs", "count"),
    ("serve.state_build_ms", "ms"),
    ("routing.table.ksp_ms", "ms"),
    ("routing.table.rksp_ms", "ms"),
    ("routing.table.edksp_ms", "ms"),
    ("routing.table.redksp_ms", "ms"),
    ("routing.yen_us", "us"),
    ("routing.remove_find_us", "us"),
    ("routing.bfs_us", "us"),
    ("routing.table.resident_mb", "MiB"),
    ("topology.build_ms", "ms"),
    ("routing.table.build_ms", "ms"),
    ("flitsim.probes", "count"),
    ("flitsim.sim_cycles", "count"),
    ("flitsim.new_ms", "ms"),
    ("flitsim.run_ms", "ms"),
    ("flitsim.ns_per_cycle", "ns"),
    ("flitsim.ns_per_packet", "ns"),
    ("flitsim.cycle.inject_share", "ratio"),
    ("flitsim.cycle.allocate_share", "ratio"),
    ("flitsim.cycle.traverse_share", "ratio"),
    ("flitsim.flows_completed", "count"),
    ("flitsim.packets_ejected", "count"),
    ("traffic.plan.parse_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.p50_ms", "ms"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement duration in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// The `jellytool` binary `serve_paths` starts.
    pub jellytool: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self { name: name.to_string(), value, unit }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output passed its check.
    pub ok: u64,
    /// Metrics measured.
    pub metrics: Vec<Metric>,
    /// Log lines printed before the result.
    pub notes: Vec<String>,
}

/// Nominal time of [`HostSpeed`]'s reference kernel: normalized
/// durations are expressed at the host speed at which the kernel takes
/// this long (it took 1.2–1.6 ms on the 2-vCPU host the bounds in
/// `BENCHMARK.json` were set on).
pub(crate) const REF_NOMINAL_MS: f64 = 0.8;

/// Elements of the reference kernel's table (4 MiB of `u64`).
const REF_WORDS: usize = 1 << 19;
/// Read-modify-write steps per reference sample.
const REF_STEPS: usize = 100_000;
/// Multiply-and-branch steps per reference sample.
const REF_ALU_STEPS: u64 = 400_000;

/// Tracks the host's momentary speed.
///
/// The host this benchmark runs on is shared: other tenants slow it by
/// up to half for seconds to minutes at a time, so a raw duration says
/// as much about the neighbours as about the code. Every CPU-bound
/// operation is therefore bracketed by two runs of a fixed reference
/// kernel, and its duration is rescaled by `REF_NOMINAL_MS /
/// mean(reference before, reference after)`: the time the operation
/// would have taken at the nominal host speed. Raw durations are logged
/// beside the normalized ones.
///
/// The kernel has two parts, timed together: seeded random
/// read-modify-writes over a 4 MiB table (cache and memory latency), then
/// a dependent chain of multiplies and unpredictable branches (core
/// throughput), which takes a little over a third of the total. The
/// memory part alone sometimes got faster while the routing and
/// simulator code got slower; the branch part follows those episodes.
pub(crate) struct HostSpeed {
    table: Vec<u64>,
    state: u64,
    /// Every reference time sampled, in milliseconds.
    pub samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self {
            table: (0..REF_WORDS as u64).collect(),
            state: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Runs the reference kernel once and returns its time in ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..REF_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 45) as usize % REF_WORDS;
            acc = acc.rotate_left(5) ^ self.table[i];
            self.table[i] = acc.wrapping_add(x);
        }
        for i in 0..REF_ALU_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            if x >> 63 == 1 {
                acc = acc.wrapping_add(x.rotate_left(7));
            } else {
                acc ^= x >> 11;
            }
        }
        self.state = std::hint::black_box(x ^ acc);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// A log line describing the host's speed over the run.
    pub fn summary(&self) -> String {
        let tail = tail(&self.samples).map_or_else(|| "-".into(), |t| format!("{:.4}", t.value));
        format!(
            "host reference kernel: {} samples, median {:.4} ms, tail {tail} ms (nominal \
             {REF_NOMINAL_MS} ms)",
            self.samples.len(),
            median(&self.samples),
        )
    }

    /// Runs `f` between two reference samples.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.sample();
        let t0 = Instant::now();
        let out = f();
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = self.sample();
        (out, Timed { raw_ms, scale: REF_NOMINAL_MS / ((before + after) / 2.0) })
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timed {
    /// Wall-clock milliseconds.
    pub raw_ms: f64,
    /// Factor from raw to nominal host speed.
    pub scale: f64,
}

impl Timed {
    /// A duration that is not rescaled.
    pub fn raw(raw_ms: f64) -> Self {
        Self { raw_ms, scale: 1.0 }
    }

    /// Milliseconds at the nominal host speed.
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.scale
    }
}

/// Per-operation timings of a run, with the work the operations did.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    /// Normalized milliseconds of each operation.
    pub ms: Vec<f64>,
    /// Wall-clock milliseconds of each operation.
    pub raw_ms: Vec<f64>,
    /// Units of work completed, summed over operations.
    pub work: f64,
}

impl OpLog {
    /// Records one operation that completed `work` units.
    pub fn record(&mut self, t: Timed, work: f64) {
        self.ms.push(t.ms());
        self.raw_ms.push(t.raw_ms);
        self.work += work;
    }

    /// Work completed per normalized second of operation time.
    pub fn work_per_s(&self) -> f64 {
        self.work / (self.ms.iter().sum::<f64>() / 1e3)
    }
}

/// Pushes the end-to-end metrics other than `ok_frac` (which the
/// caller derives from the checks), and logs the raw figures beside
/// them. Fails when the run held too few operations for a tail
/// percentile.
pub(crate) fn end_to_end(
    outcome: &mut Outcome,
    setup_s: f64,
    log: &OpLog,
    work_per_s: f64,
    peak_rss_mb: f64,
) -> Result<(), String> {
    let t = tail(&log.ms).ok_or_else(|| {
        format!("only {} operations: a tail percentile needs at least 11", log.ms.len())
    })?;
    let raw_tail = tail(&log.raw_ms).expect("as many samples as the normalized ones");
    outcome.notes.push(format!(
        "tail_ms is p{:.2} of {} operations ({} beyond it); wall clock: p50 {:.4} ms, \
         tail {:.4} ms",
        t.percentile,
        t.samples,
        stats::TAIL_BEYOND,
        median(&log.raw_ms),
        raw_tail.value,
    ));
    let m = &mut outcome.metrics;
    m.push(Metric::new("setup_s", setup_s, "s"));
    m.push(Metric::new("p50_ms", median(&log.ms), "ms"));
    m.push(Metric::new("tail_ms", t.value, "ms"));
    m.push(Metric::new("work_per_s", work_per_s, "1/s"));
    m.push(Metric::new("peak_rss_mb", peak_rss_mb, "MiB"));
    Ok(())
}

/// Pushes the tracing overhead: the traced half's median operation
/// time against the untraced half's.
pub(crate) fn traced_summary(outcome: &mut Outcome, plain: &OpLog, traced: &OpLog) {
    let (p50_plain, p50_traced) = (median(&plain.ms), median(&traced.ms));
    let m = &mut outcome.metrics;
    m.push(Metric::new("trace.overhead_pct", 100.0 * (p50_traced / p50_plain - 1.0), "%"));
    m.push(Metric::new("trace.p50_ms", p50_traced, "ms"));
}

/// This process's resident set in MiB now.
pub(crate) fn own_rss_mb() -> f64 {
    proc_status_kib("/proc/self/status", "VmRSS:").unwrap_or(0) as f64 / 1024.0
}

/// This process's peak resident set in MiB. Logs beside it `base_mb`,
/// the resident set before set-up (the binary and [`HostSpeed`]'s
/// reference table), which the peak includes: the program's own share
/// is the difference.
pub(crate) fn own_peak_rss_mb(outcome: &mut Outcome, base_mb: f64) -> f64 {
    let peak = proc_status_kib("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0;
    outcome.notes.push(format!(
        "peak_rss_mb {peak:.3} MiB includes {base_mb:.3} MiB resident before set-up (binary \
         and reference table)"
    ));
    peak
}

/// Reads a `kB` field (e.g. `VmHWM:`) from a `/proc/.../status` file.
pub(crate) fn proc_status_kib(path: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Checks that a repeated input reproduced its digest: the first
/// digest seen for `key` is remembered, later ones must equal it.
#[derive(Debug, Default)]
pub struct DigestBook {
    seen: BTreeMap<String, u64>,
    /// Repeats that matched.
    pub repeats: u64,
}

impl DigestBook {
    /// Records `digest` for `key`; false if `key` was seen with another
    /// digest.
    pub fn check(&mut self, key: String, digest: u64) -> bool {
        match self.seen.get(&key) {
            Some(&d) => {
                self.repeats += 1;
                d == digest
            }
            None => {
                self.seen.insert(key, digest);
                true
            }
        }
    }

    /// One log line per distinct input: `digest <key> <hex>`.
    pub fn lines(&self) -> Vec<String> {
        self.seen.iter().map(|(k, d)| format!("digest {k} {d:016x}")).collect()
    }
}

/// Where a result came from: the build and machine that produced it.
pub fn provenance(args: &RunArgs, root: &Path) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "provenance {{\"git_commit\":\"{commit}\",\"source_digest\":\"{:016x}\",\
         \"nproc\":{nproc},\"compute_threads\":\"{threads}\",\"build_profile\":\"{profile}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        source_digest(root),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// FNV-1a over the path and bytes of every source file that goes into
/// the build (`crates/`, `vendor/`, `perfbench/`, the root manifests),
/// in sorted order. Identifies the build when no git metadata exists.
pub(crate) fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in
        ["crates", "vendor", "perfbench/src", "perfbench/Cargo.toml", "Cargo.toml", "Cargo.lock"]
    {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. `declared` fixes which metrics appear and in
/// what order; a declared metric the run did not measure reads 0.
pub fn result_json(outcome: &Outcome, correct: bool, declared: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted,
        outcome.attempted - outcome.ok.min(outcome.attempted)
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = outcome.metrics.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
        if i > 0 {
            s.push_str(", ");
        }
        let _ =
            write!(s, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value));
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
