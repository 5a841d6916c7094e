//! Dynamic traffic scenarios: timed phases of flow arrivals, hotspots,
//! and mid-run demand shifts.
//!
//! A [`ScenarioPlan`] is a seeded, serializable schedule of *traffic
//! phases* in the same spirit as the topology crate's `FaultPlan`: each
//! [`Phase`] switches the whole fabric to a new traffic regime at a
//! given cycle, and an optional list of explicit [`ScenarioFlow`]s
//! injects individually sized flows at exact cycles (a pre-materialized
//! trace is just a plan with only explicit flows). Phases come in three
//! shapes:
//!
//! * [`PhaseTraffic::Steady`] — the legacy open-loop regime: per-cycle
//!   Bernoulli injection at a fixed rate under a uniform or permutation
//!   matrix. A plan containing a single steady phase at cycle 0 is
//!   *exactly* the static-pattern simulator (pinned by a differential
//!   test), which makes the scenario engine a strict generalization.
//! * [`PhaseTraffic::Flows`] — discrete-time Poisson flow arrivals
//!   (per-cycle Bernoulli per host) with bounded-Pareto flow sizes and
//!   a configurable matrix, including incast/outcast hotspots.
//! * [`PhaseTraffic::Idle`] — no injection (drain windows between
//!   shifts).
//!
//! Everything stochastic is a pure function of seeds carried in the
//! plan: the per-flow destination and size draws use per-flow RNG
//! streams derived from the simulation seed, hotspot sets and
//! permutation matrices from seeds stored in the [`Matrix`] itself. A
//! fixed-seed scenario run is therefore byte-identical at any thread
//! count.
//!
//! Persistence uses the line-oriented `jellyfish-scenario v1` text
//! format:
//!
//! ```text
//! jellyfish-scenario v1
//! seed <seed>
//! phase <start> steady <rate> <matrix...>
//! phase <start> flows <arrival> pareto <min> <max> <alpha> <matrix...>
//! phase <start> idle
//! flow <start> <src> <dst> <packets>
//! ```
//!
//! where `<matrix...>` is `uniform`, `permutation <seed>`, or
//! `hotspot <nhot> <fraction> <incast|outcast> <seed>`.

use crate::pattern::{random_permutation, PacketDestinations};
use crate::trace::{FlowSpec, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Bounded-Pareto flow-size distribution, in packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSize {
    /// Smallest flow, in packets (`L` of the bounded Pareto).
    pub min: u32,
    /// Largest flow, in packets (`H`).
    pub max: u32,
    /// Tail index (`alpha`); datacenter traces sit around 1.05–1.4.
    pub alpha: f64,
}

impl FlowSize {
    /// A fixed size: every flow is exactly `packets` long.
    pub fn fixed(packets: u32) -> Self {
        Self { min: packets, max: packets, alpha: 1.0 }
    }

    /// Maps a uniform draw `u` in `[0, 1)` through the bounded-Pareto
    /// inverse CDF `(H^a L^a / (H^a - u (H^a - L^a)))^(1/a)`.
    pub fn sample(&self, u: f64) -> u32 {
        if self.min == self.max {
            return self.min;
        }
        let (l, h, a) = (f64::from(self.min), f64::from(self.max), self.alpha);
        let (la, ha) = (l.powf(a), h.powf(a));
        let x = (ha * la / (ha - u * (ha - la))).powf(1.0 / a);
        (x as u32).clamp(self.min, self.max)
    }

    /// Mean of the bounded-Pareto distribution, in packets.
    pub fn mean(&self) -> f64 {
        let (l, h, a) = (f64::from(self.min), f64::from(self.max), self.alpha);
        if self.min == self.max {
            return l;
        }
        if (a - 1.0).abs() < 1e-12 {
            // alpha = 1 limit: L H ln(H/L) / (H - L).
            return l * h * (h / l).ln() / (h - l);
        }
        let la = l.powf(a);
        let ha = h.powf(a);
        (la / (1.0 - la / ha)) * (a / (a - 1.0)) * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
    }

    fn check(&self) -> Result<(), String> {
        if self.min == 0 {
            return Err("flow size min must be >= 1 packet".into());
        }
        if self.min > self.max {
            return Err(format!("flow size min {} > max {}", self.min, self.max));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!("pareto alpha {} must be finite and > 0", self.alpha));
        }
        Ok(())
    }
}

/// Which side of a hotspot is skewed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotspotKind {
    /// Destination skew: a `fraction` of all flows target the hot set
    /// (many-to-few congestion at the receivers).
    Incast,
    /// Source skew: the hot set originates a `fraction` of all flow
    /// arrivals (few-to-many elephants at the senders).
    Outcast,
}

/// A traffic matrix: who talks to whom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Matrix {
    /// Uniform random destinations (excluding self).
    Uniform,
    /// A fixed random permutation drawn from `seed` (fixed points are
    /// silent, matching [`random_permutation`]).
    Permutation {
        /// Seed the permutation is drawn from.
        seed: u64,
    },
    /// A skewed matrix concentrating load on a random `hot`-host set
    /// drawn from `seed`. Only valid in [`PhaseTraffic::Flows`] phases.
    Hotspot {
        /// Number of hot hosts.
        hot: u32,
        /// Fraction of traffic carried by the hot set, in `(0, 1]`.
        fraction: f64,
        /// Incast (hot receivers) or outcast (hot senders).
        kind: HotspotKind,
        /// Seed the hot set is drawn from.
        seed: u64,
    },
}

impl Matrix {
    /// The hot-host set: a Fisher–Yates shuffle prefix of `0..num_hosts`
    /// drawn from the matrix seed (empty for non-hotspot matrices).
    /// Sorted, so membership is binary-searchable.
    pub fn hot_set(&self, num_hosts: usize) -> Vec<u32> {
        let Matrix::Hotspot { hot, seed, .. } = *self else {
            return Vec::new();
        };
        let mut ids: Vec<u32> = (0..num_hosts as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Only the first `hot` swaps of the shuffle matter.
        let take = (hot as usize).min(num_hosts);
        for i in 0..take {
            let j = rng.random_range(i..num_hosts);
            ids.swap(i, j);
        }
        let mut set = ids[..take].to_vec();
        set.sort_unstable();
        set
    }

    /// The per-packet sampler for steady phases.
    ///
    /// # Panics
    /// Panics on hotspot matrices — they are flows-phase only, which
    /// plan validation enforces before any engine sees one.
    pub fn to_destinations(&self, num_hosts: usize) -> PacketDestinations {
        match *self {
            Matrix::Uniform => PacketDestinations::Uniform { num_hosts },
            Matrix::Permutation { seed } => {
                let flows = random_permutation(num_hosts, &mut StdRng::seed_from_u64(seed));
                PacketDestinations::from_flows(num_hosts, &flows)
            }
            Matrix::Hotspot { .. } => {
                panic!("hotspot matrices require a flows phase")
            }
        }
    }

    /// Draws a destination for a new flow from `src`. `hot` is this
    /// matrix's [`Matrix::hot_set`] (sorted).
    pub fn sample_dst(&self, src: u32, num_hosts: usize, hot: &[u32], rng: &mut StdRng) -> u32 {
        let uniform_other = |rng: &mut StdRng| {
            let mut d = rng.random_range(0..num_hosts as u32 - 1);
            if d >= src {
                d += 1;
            }
            d
        };
        match *self {
            Matrix::Uniform => uniform_other(rng),
            Matrix::Permutation { seed } => {
                // Flow-level permutation: fixed partner per source.
                let flows = random_permutation(num_hosts, &mut StdRng::seed_from_u64(seed));
                flows.iter().find(|f| f.src == src).map_or_else(|| uniform_other(rng), |f| f.dst)
            }
            Matrix::Hotspot { fraction, kind, .. } => match kind {
                HotspotKind::Incast => {
                    if rng.random::<f64>() < fraction && !hot.is_empty() {
                        let d = hot[rng.random_range(0..hot.len())];
                        if d != src {
                            return d;
                        }
                    }
                    uniform_other(rng)
                }
                // Outcast skews the *arrival* side (see
                // [`arrival_rates`]); destinations stay uniform.
                HotspotKind::Outcast => uniform_other(rng),
            },
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Matrix::Hotspot { hot, fraction, .. } = *self {
            if hot == 0 {
                return Err("hotspot needs at least one hot host".into());
            }
            if !(fraction.is_finite() && 0.0 < fraction && fraction <= 1.0) {
                return Err(format!("hotspot fraction {fraction} outside (0, 1]"));
            }
        }
        Ok(())
    }
}

/// Per-host flow-arrival probabilities for a flows phase: `arrival` is
/// the fabric-mean per-host per-cycle arrival probability; outcast
/// matrices concentrate a `fraction` of the total arrival mass on the
/// hot set, everything else spreads it uniformly.
pub fn arrival_rates(arrival: f64, matrix: &Matrix, num_hosts: usize) -> Vec<f64> {
    let mut rates = vec![arrival; num_hosts];
    if let Matrix::Hotspot { fraction, kind: HotspotKind::Outcast, .. } = *matrix {
        let hot = matrix.hot_set(num_hosts);
        if hot.is_empty() || hot.len() == num_hosts {
            return rates;
        }
        let total = arrival * num_hosts as f64;
        let hot_rate = (total * fraction / hot.len() as f64).min(1.0);
        let cold_rate = total * (1.0 - fraction) / (num_hosts - hot.len()) as f64;
        rates = vec![cold_rate; num_hosts];
        for &h in &hot {
            rates[h as usize] = hot_rate;
        }
    }
    rates
}

/// The traffic regime of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseTraffic {
    /// No injection.
    Idle,
    /// Open-loop per-cycle Bernoulli injection at `rate` packets per
    /// host per cycle, exactly the legacy static-pattern regime.
    Steady {
        /// Injection rate in packets per host per cycle, in `[0, 1]`.
        rate: f64,
        /// Destination matrix (uniform or permutation).
        matrix: Matrix,
    },
    /// Poisson flow arrivals with bounded-Pareto sizes.
    Flows {
        /// Mean per-host flow-arrival probability per cycle, in `[0, 1]`.
        arrival: f64,
        /// Flow-size distribution.
        size: FlowSize,
        /// Destination matrix (any, including hotspots).
        matrix: Matrix,
    },
}

impl PhaseTraffic {
    /// Stable regime name (`idle`, `steady`, `flows`) — the token the
    /// event journal's `scenario-phase` lines carry.
    pub fn regime(&self) -> &'static str {
        match self {
            PhaseTraffic::Idle => "idle",
            PhaseTraffic::Steady { .. } => "steady",
            PhaseTraffic::Flows { .. } => "flows",
        }
    }

    fn check(&self) -> Result<(), String> {
        match self {
            PhaseTraffic::Idle => Ok(()),
            PhaseTraffic::Steady { rate, matrix } => {
                if !(rate.is_finite() && (0.0..=1.0).contains(rate)) {
                    return Err(format!("steady rate {rate} outside [0, 1]"));
                }
                matrix.check()?;
                if matches!(matrix, Matrix::Hotspot { .. }) {
                    return Err("hotspot matrices require a flows phase".into());
                }
                Ok(())
            }
            PhaseTraffic::Flows { arrival, size, matrix } => {
                if !(arrival.is_finite() && (0.0..=1.0).contains(arrival)) {
                    return Err(format!("arrival rate {arrival} outside [0, 1]"));
                }
                size.check()?;
                matrix.check()
            }
        }
    }
}

/// One traffic-regime switch at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Cycle at which the regime takes effect (`0` = from the start).
    pub start: u64,
    /// The regime.
    pub traffic: PhaseTraffic,
}

/// One explicitly scheduled flow (a pre-materialized trace entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFlow {
    /// Cycle the flow arrives at its source NIC.
    pub start: u64,
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Flow length in packets.
    pub packets: u32,
}

/// A seeded, serializable schedule of traffic phases and explicit
/// flows, each list sorted by start cycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioPlan {
    /// Seed for provenance (carried into per-flow RNG streams by the
    /// simulator configuration, not consumed here).
    pub seed: u64,
    phases: Vec<Phase>,
    flows: Vec<ScenarioFlow>,
}

impl ScenarioPlan {
    /// Empty plan (no phases, no flows: the fabric idles).
    pub fn new(seed: u64) -> Self {
        Self { seed, phases: Vec::new(), flows: Vec::new() }
    }

    /// Schedules a steady phase.
    ///
    /// # Panics
    /// Panics on out-of-range rates or a hotspot matrix (flows-only).
    pub fn add_steady(&mut self, start: u64, rate: f64, matrix: Matrix) {
        self.insert_phase(Phase { start, traffic: PhaseTraffic::Steady { rate, matrix } });
    }

    /// Schedules a flow-arrival phase.
    ///
    /// # Panics
    /// Panics on out-of-range arrival rates or invalid size/matrix
    /// parameters.
    pub fn add_flows(&mut self, start: u64, arrival: f64, size: FlowSize, matrix: Matrix) {
        self.insert_phase(Phase { start, traffic: PhaseTraffic::Flows { arrival, size, matrix } });
    }

    /// Schedules an idle (drain) phase.
    pub fn add_idle(&mut self, start: u64) {
        self.insert_phase(Phase { start, traffic: PhaseTraffic::Idle });
    }

    /// Schedules one explicit flow.
    ///
    /// # Panics
    /// Panics if `src == dst` or `packets == 0`.
    pub fn add_flow(&mut self, start: u64, src: u32, dst: u32, packets: u32) {
        let flow = ScenarioFlow { start, src, dst, packets };
        if let Err(e) = check_flow(&flow) {
            panic!("{e}");
        }
        let pos = self.flows.partition_point(|f| f.start <= start);
        self.flows.insert(pos, flow);
    }

    fn insert_phase(&mut self, phase: Phase) {
        if let Err(e) = phase.traffic.check() {
            panic!("{e}");
        }
        let pos = self.phases.partition_point(|p| p.start <= phase.start);
        self.phases.insert(pos, phase);
    }

    /// The phases, sorted by start cycle.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The explicit flows, sorted by start cycle.
    pub fn flows(&self) -> &[ScenarioFlow] {
        &self.flows
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.flows.is_empty()
    }

    /// A copy with every steady rate and flow-arrival rate multiplied
    /// by `factor` (clamped to 1.0): one plan sweeps a load grid.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor {factor} must be >= 0");
        let mut out = self.clone();
        for p in &mut out.phases {
            match &mut p.traffic {
                PhaseTraffic::Idle => {}
                PhaseTraffic::Steady { rate, .. } => *rate = (*rate * factor).min(1.0),
                PhaseTraffic::Flows { arrival, .. } => *arrival = (*arrival * factor).min(1.0),
            }
        }
        out
    }

    /// Wraps an application trace as a plan: every sized flow becomes
    /// an explicit flow at cycle 0 with `ceil(bytes / packet_bytes)`
    /// packets (zero-byte and self flows are dropped).
    pub fn from_trace(trace: &Trace, packet_bytes: u64, seed: u64) -> Self {
        assert!(packet_bytes > 0, "packet_bytes must be > 0");
        let mut plan = Self::new(seed);
        for f in &trace.flows {
            if f.src == f.dst || f.bytes == 0 {
                continue;
            }
            let packets = f.bytes.div_ceil(packet_bytes).min(u64::from(u32::MAX)) as u32;
            plan.add_flow(0, f.src, f.dst, packets);
        }
        plan
    }

    /// Materializes the plan into per-phase-window [`Trace`]s for the
    /// flow-level application simulator, covering `[0, horizon)`.
    ///
    /// Explicit flows land in the window containing their start cycle;
    /// stochastic phases are sampled (deterministically from the plan
    /// seed) into sized flows: steady phases become their fluid
    /// equivalent (each source's expected volume over the window, split
    /// across its matrix destinations), flows phases draw an expected
    /// number of arrivals per host with matrix destinations and Pareto
    /// sizes. Empty windows are dropped.
    pub fn phase_traces(&self, num_hosts: usize, horizon: u64, packet_bytes: u64) -> Vec<Trace> {
        assert!(packet_bytes > 0, "packet_bytes must be > 0");
        // Window boundaries: phase starts plus 0 and the horizon.
        let mut cuts: Vec<u64> = vec![0];
        cuts.extend(self.phases.iter().map(|p| p.start).filter(|&s| s > 0 && s < horizon));
        cuts.push(horizon);
        cuts.dedup();

        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5CE9_A110);
        let mut traces = Vec::new();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut flows: Vec<FlowSpec> = self
                .flows
                .iter()
                .filter(|f| lo <= f.start && f.start < hi)
                .map(|f| FlowSpec {
                    src: f.src,
                    dst: f.dst,
                    bytes: u64::from(f.packets) * packet_bytes,
                })
                .collect();
            let active = self.phases.partition_point(|p| p.start <= lo);
            if active > 0 {
                let window = hi - lo;
                match self.phases[active - 1].traffic {
                    PhaseTraffic::Idle => {}
                    PhaseTraffic::Steady { rate, matrix } => {
                        let per_host = (rate * window as f64 * packet_bytes as f64) as u64;
                        if per_host > 0 {
                            match matrix.to_destinations(num_hosts) {
                                PacketDestinations::Uniform { .. } => {
                                    // Fluid uniform: spread each source's
                                    // volume across every other host.
                                    let share = per_host / (num_hosts as u64 - 1);
                                    for src in 0..num_hosts as u32 {
                                        for dst in 0..num_hosts as u32 {
                                            if src != dst && share > 0 {
                                                flows.push(FlowSpec { src, dst, bytes: share });
                                            }
                                        }
                                    }
                                }
                                PacketDestinations::Fixed(table) => {
                                    for (src, dst) in table.iter().enumerate() {
                                        if let Some(dst) = dst {
                                            flows.push(FlowSpec {
                                                src: src as u32,
                                                dst: *dst,
                                                bytes: per_host,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                    PhaseTraffic::Flows { arrival, size, matrix } => {
                        let hot = matrix.hot_set(num_hosts);
                        let rates = arrival_rates(arrival, &matrix, num_hosts);
                        for (src, &r) in rates.iter().enumerate() {
                            let expected = r * window as f64;
                            let mut count = expected.floor() as u64;
                            if rng.random::<f64>() < expected.fract() {
                                count += 1;
                            }
                            for _ in 0..count {
                                let dst = matrix.sample_dst(src as u32, num_hosts, &hot, &mut rng);
                                let packets = size.sample(rng.random::<f64>());
                                flows.push(FlowSpec {
                                    src: src as u32,
                                    dst,
                                    bytes: u64::from(packets) * packet_bytes,
                                });
                            }
                        }
                    }
                }
            }
            if !flows.is_empty() {
                traces.push(Trace { flows });
            }
        }
        traces
    }
}

fn check_flow(f: &ScenarioFlow) -> Result<(), String> {
    if f.src == f.dst {
        return Err(format!("flow with identical endpoints {}", f.src));
    }
    if f.packets == 0 {
        return Err("flow needs at least one packet".into());
    }
    Ok(())
}

/// Magic header line of the scenario text format.
const HEADER: &str = "jellyfish-scenario v1";

fn write_matrix(buf: &mut String, matrix: &Matrix) {
    match *matrix {
        Matrix::Uniform => buf.push_str("uniform"),
        Matrix::Permutation { seed } => {
            write!(buf, "permutation {seed}").unwrap();
        }
        Matrix::Hotspot { hot, fraction, kind, seed } => {
            let kind = match kind {
                HotspotKind::Incast => "incast",
                HotspotKind::Outcast => "outcast",
            };
            write!(buf, "hotspot {hot} {fraction} {kind} {seed}").unwrap();
        }
    }
}

/// Serializes `plan` into the v1 text format.
pub fn write_plan<W: Write>(plan: &ScenarioPlan, mut out: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "{HEADER}").unwrap();
    writeln!(buf, "seed {}", plan.seed).unwrap();
    for p in plan.phases() {
        match p.traffic {
            PhaseTraffic::Idle => writeln!(buf, "phase {} idle", p.start).unwrap(),
            PhaseTraffic::Steady { rate, ref matrix } => {
                write!(buf, "phase {} steady {rate} ", p.start).unwrap();
                write_matrix(&mut buf, matrix);
                buf.push('\n');
            }
            PhaseTraffic::Flows { arrival, size, ref matrix } => {
                write!(
                    buf,
                    "phase {} flows {arrival} pareto {} {} {} ",
                    p.start, size.min, size.max, size.alpha
                )
                .unwrap();
                write_matrix(&mut buf, matrix);
                buf.push('\n');
            }
        }
    }
    for f in plan.flows() {
        writeln!(buf, "flow {} {} {} {}", f.start, f.src, f.dst, f.packets).unwrap();
    }
    out.write_all(buf.as_bytes())
}

/// Errors from [`read_plan`].
#[derive(Debug)]
pub enum PlanReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for PlanReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanReadError::Io(e) => write!(f, "i/o error: {e}"),
            PlanReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for PlanReadError {}

impl From<io::Error> for PlanReadError {
    fn from(e: io::Error) -> Self {
        PlanReadError::Io(e)
    }
}

/// Parses a v1 text file back into a [`ScenarioPlan`].
pub fn read_plan<R: BufRead>(input: R) -> Result<ScenarioPlan, PlanReadError> {
    let mut lines = input.lines().enumerate();
    let bad = |line: usize, message: String| PlanReadError::Parse { line, message };

    let (ln, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(bad(0, "missing header".into())),
    };
    if header.trim() != HEADER {
        return Err(bad(ln, format!("bad header {header:?}")));
    }
    let (ln, seed_line) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(bad(0, "missing seed line".into())),
    };
    let seed: u64 = seed_line
        .strip_prefix("seed ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(ln, "bad seed line".into()))?;

    let mut plan = ScenarioPlan::new(seed);
    for (i, line) in lines {
        let ln = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields.next().unwrap();
        let mut num = |what: &str| -> Result<u64, PlanReadError> {
            fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(ln, format!("bad {what} in {line:?}")))
        };
        match tag {
            "phase" => {
                let start = num("start")?;
                let shape = fields
                    .next()
                    .ok_or_else(|| bad(ln, format!("missing phase shape in {line:?}")))?;
                let mut float = |what: &str| -> Result<f64, PlanReadError> {
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(ln, format!("bad {what} in {line:?}")))
                };
                let traffic = match shape {
                    "idle" => PhaseTraffic::Idle,
                    "steady" => {
                        let rate = float("rate")?;
                        let matrix = read_matrix(&mut fields, ln, line)?;
                        PhaseTraffic::Steady { rate, matrix }
                    }
                    "flows" => {
                        let arrival = float("arrival")?;
                        match fields.next() {
                            Some("pareto") => {}
                            _ => return Err(bad(ln, format!("expected pareto size in {line:?}"))),
                        }
                        let mut num = |what: &str| -> Result<u64, PlanReadError> {
                            fields
                                .next()
                                .and_then(|v| v.parse().ok())
                                .ok_or_else(|| bad(ln, format!("bad {what} in {line:?}")))
                        };
                        let min = num("size min")? as u32;
                        let max = num("size max")? as u32;
                        let alpha = fields
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| bad(ln, format!("bad alpha in {line:?}")))?;
                        let matrix = read_matrix(&mut fields, ln, line)?;
                        PhaseTraffic::Flows { arrival, size: FlowSize { min, max, alpha }, matrix }
                    }
                    other => return Err(bad(ln, format!("unrecognized phase shape {other:?}"))),
                };
                traffic.check().map_err(|m| bad(ln, m))?;
                let pos = plan.phases.partition_point(|p| p.start <= start);
                plan.phases.insert(pos, Phase { start, traffic });
            }
            "flow" => {
                let start = num("start")?;
                let src = num("src")? as u32;
                let dst = num("dst")? as u32;
                let packets = num("packets")? as u32;
                let flow = ScenarioFlow { start, src, dst, packets };
                check_flow(&flow).map_err(|m| bad(ln, m))?;
                let pos = plan.flows.partition_point(|f| f.start <= start);
                plan.flows.insert(pos, flow);
            }
            _ => return Err(bad(ln, format!("unrecognized line {line:?}"))),
        }
        if fields.next().is_some() {
            return Err(bad(ln, format!("trailing fields in {line:?}")));
        }
    }
    Ok(plan)
}

fn read_matrix<'a, I: Iterator<Item = &'a str>>(
    fields: &mut I,
    ln: usize,
    line: &str,
) -> Result<Matrix, PlanReadError> {
    let bad = |message: String| PlanReadError::Parse { line: ln, message };
    let kind = fields.next().ok_or_else(|| bad(format!("missing matrix in {line:?}")))?;
    fn num<'a>(
        fields: &mut impl Iterator<Item = &'a str>,
        ln: usize,
        line: &str,
        what: &str,
    ) -> Result<u64, PlanReadError> {
        fields.next().and_then(|v| v.parse().ok()).ok_or_else(|| PlanReadError::Parse {
            line: ln,
            message: format!("bad {what} in {line:?}"),
        })
    }
    match kind {
        "uniform" => Ok(Matrix::Uniform),
        "permutation" => Ok(Matrix::Permutation { seed: num(fields, ln, line, "matrix seed")? }),
        "hotspot" => {
            let hot = num(fields, ln, line, "hot count")? as u32;
            let fraction = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("bad fraction in {line:?}")))?;
            let kind = match fields.next() {
                Some("incast") => HotspotKind::Incast,
                Some("outcast") => HotspotKind::Outcast,
                other => return Err(bad(format!("bad hotspot kind {other:?} in {line:?}"))),
            };
            let seed = num(fields, ln, line, "matrix seed")?;
            Ok(Matrix::Hotspot { hot, fraction, kind, seed })
        }
        other => Err(bad(format!("unrecognized matrix {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shifty_plan() -> ScenarioPlan {
        let mut plan = ScenarioPlan::new(21);
        plan.add_steady(0, 0.25, Matrix::Permutation { seed: 9 });
        plan.add_flows(
            1500,
            0.02,
            FlowSize { min: 1, max: 64, alpha: 1.4 },
            Matrix::Hotspot { hot: 4, fraction: 0.7, kind: HotspotKind::Incast, seed: 5 },
        );
        plan.add_idle(4000);
        plan.add_flow(100, 3, 17, 25);
        plan.add_flow(40, 0, 1, 1);
        plan
    }

    #[test]
    fn phases_and_flows_stay_sorted() {
        let plan = shifty_plan();
        let starts: Vec<u64> = plan.phases().iter().map(|p| p.start).collect();
        assert_eq!(starts, vec![0, 1500, 4000]);
        let flow_starts: Vec<u64> = plan.flows().iter().map(|f| f.start).collect();
        assert_eq!(flow_starts, vec![40, 100]);
    }

    #[test]
    fn plan_text_round_trip() {
        let plan = shifty_plan();
        let mut buf = Vec::new();
        write_plan(&plan, &mut buf).unwrap();
        let back = read_plan(buf.as_slice()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn read_plan_rejects_garbage() {
        let cases: &[(&str, &str)] = &[
            ("", "missing header"),
            ("jellyfish-scenario v2\n", "bad header"),
            ("jellyfish-scenario v1\n", "missing seed"),
            ("jellyfish-scenario v1\nseed x\n", "bad seed"),
            ("jellyfish-scenario v1\nseed 1\nphase 0 warp\n", "unrecognized phase shape"),
            ("jellyfish-scenario v1\nseed 1\nphase 0 steady\n", "bad rate"),
            ("jellyfish-scenario v1\nseed 1\nphase 0 steady 2.0 uniform\n", "outside [0, 1]"),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 steady 0.5 hotspot 2 0.5 incast 1\n",
                "hotspot matrices require a flows phase",
            ),
            ("jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 pareto 0 4 1.1 uniform\n", ">= 1"),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 pareto 9 4 1.1 uniform\n",
                "min 9 > max 4",
            ),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 normal 1 4 1.1 uniform\n",
                "expected pareto",
            ),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 pareto 1 4 1.1 hotspot 0 0.5 incast 1\n",
                "at least one hot host",
            ),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 pareto 1 4 1.1 hotspot 2 1.5 incast 1\n",
                "outside (0, 1]",
            ),
            (
                "jellyfish-scenario v1\nseed 1\nphase 0 flows 0.1 pareto 1 4 1.1 hotspot 2 0.5 sideways 1\n",
                "bad hotspot kind",
            ),
            ("jellyfish-scenario v1\nseed 1\nflow 5 3 3 10\n", "identical endpoints"),
            ("jellyfish-scenario v1\nseed 1\nflow 5 3 4 0\n", "at least one packet"),
            ("jellyfish-scenario v1\nseed 1\nflow 5 3\n", "bad dst"),
            ("jellyfish-scenario v1\nseed 1\nphase 0 idle extra\n", "trailing fields"),
            ("jellyfish-scenario v1\nseed 1\nwombat 1 2\n", "unrecognized line"),
        ];
        for (text, needle) in cases {
            let err = read_plan(text.as_bytes()).expect_err(text);
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text:?}: {msg} should mention {needle:?}");
        }
    }

    #[test]
    fn pareto_sampler_respects_bounds_and_tail() {
        let size = FlowSize { min: 2, max: 1000, alpha: 1.2 };
        assert_eq!(size.sample(0.0), 2);
        assert!(size.sample(0.999_999) <= 1000);
        let mut rng = StdRng::seed_from_u64(11);
        let draws: Vec<u32> = (0..4000).map(|_| size.sample(rng.random())).collect();
        assert!(draws.iter().all(|&d| (2..=1000).contains(&d)));
        // Heavy tail: most flows are small, a few are big.
        let small = draws.iter().filter(|&&d| d <= 10).count();
        let big = draws.iter().filter(|&&d| d >= 500).count();
        assert!(small > draws.len() / 2, "small {small} of {}", draws.len());
        assert!(big > 0, "bounded Pareto must reach its tail");
        // Fixed size is degenerate.
        assert_eq!(FlowSize::fixed(7).sample(0.73), 7);
        assert!((FlowSize::fixed(7).mean() - 7.0).abs() < 1e-12);
        let m = size.mean();
        let empirical = draws.iter().map(|&d| f64::from(d)).sum::<f64>() / draws.len() as f64;
        assert!((empirical - m).abs() / m < 0.25, "mean {m} vs empirical {empirical}");
    }

    #[test]
    fn hot_set_is_deterministic_sorted_and_sized() {
        let m = Matrix::Hotspot { hot: 6, fraction: 0.8, kind: HotspotKind::Incast, seed: 3 };
        let a = m.hot_set(40);
        let b = m.hot_set(40);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&h| h < 40));
        let c = Matrix::Hotspot { hot: 6, fraction: 0.8, kind: HotspotKind::Incast, seed: 4 }
            .hot_set(40);
        assert_ne!(a, c, "different seeds draw different hot sets");
        assert!(Matrix::Uniform.hot_set(40).is_empty());
    }

    #[test]
    fn outcast_arrival_rates_concentrate_mass() {
        let m = Matrix::Hotspot { hot: 2, fraction: 0.8, kind: HotspotKind::Outcast, seed: 3 };
        let rates = arrival_rates(0.01, &m, 20);
        let hot = m.hot_set(20);
        let total: f64 = rates.iter().sum();
        assert!((total - 0.2).abs() < 1e-9, "mass conserved: {total}");
        let hot_mass: f64 = hot.iter().map(|&h| rates[h as usize]).sum();
        assert!((hot_mass - 0.16).abs() < 1e-9, "80% on the hot set: {hot_mass}");
        // Incast and uniform matrices leave arrivals flat.
        let flat = arrival_rates(0.01, &Matrix::Uniform, 20);
        assert!(flat.iter().all(|&r| (r - 0.01).abs() < 1e-12));
    }

    #[test]
    fn incast_sampler_prefers_hot_destinations() {
        let m = Matrix::Hotspot { hot: 3, fraction: 0.9, kind: HotspotKind::Incast, seed: 7 };
        let hot = m.hot_set(30);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        for _ in 0..2000 {
            let d = m.sample_dst(5, 30, &hot, &mut rng);
            assert_ne!(d, 5);
            assert!(d < 30);
            if hot.binary_search(&d).is_ok() {
                hits += 1;
            }
        }
        assert!(hits > 1600, "~90% of flows should hit the hot set, got {hits}/2000");
    }

    #[test]
    fn scaled_multiplies_rates_and_clamps() {
        let plan = shifty_plan().scaled(2.0);
        match plan.phases()[0].traffic {
            PhaseTraffic::Steady { rate, .. } => assert!((rate - 0.5).abs() < 1e-12),
            ref t => panic!("unexpected {t:?}"),
        }
        match plan.phases()[1].traffic {
            PhaseTraffic::Flows { arrival, .. } => assert!((arrival - 0.04).abs() < 1e-12),
            ref t => panic!("unexpected {t:?}"),
        }
        let big = plan.scaled(100.0);
        match big.phases()[0].traffic {
            PhaseTraffic::Steady { rate, .. } => assert!((rate - 1.0).abs() < 1e-12, "clamped"),
            ref t => panic!("unexpected {t:?}"),
        }
        assert_eq!(plan.flows(), shifty_plan().flows(), "explicit flows unscaled");
    }

    #[test]
    fn from_trace_and_phase_traces_round_trip() {
        let trace = Trace {
            flows: vec![
                FlowSpec { src: 0, dst: 3, bytes: 4500 },
                FlowSpec { src: 2, dst: 1, bytes: 1 },
                FlowSpec { src: 4, dst: 4, bytes: 900 }, // self: dropped
                FlowSpec { src: 5, dst: 6, bytes: 0 },   // empty: dropped
            ],
        };
        let plan = ScenarioPlan::from_trace(&trace, 1500, 3);
        assert_eq!(plan.flows().len(), 2);
        assert_eq!(plan.flows()[0], ScenarioFlow { start: 0, src: 0, dst: 3, packets: 3 });
        assert_eq!(plan.flows()[1], ScenarioFlow { start: 0, src: 2, dst: 1, packets: 1 });
        let traces = plan.phase_traces(8, 1000, 1500);
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].flows,
            vec![
                FlowSpec { src: 0, dst: 3, bytes: 4500 },
                FlowSpec { src: 2, dst: 1, bytes: 1500 },
            ]
        );
    }

    #[test]
    fn phase_traces_cut_at_phase_boundaries() {
        let mut plan = ScenarioPlan::new(9);
        plan.add_steady(0, 0.1, Matrix::Permutation { seed: 2 });
        plan.add_flows(500, 0.05, FlowSize::fixed(4), Matrix::Uniform);
        plan.add_idle(800);
        let traces = plan.phase_traces(10, 1000, 100);
        // Steady and flows windows produce traffic; the idle tail is empty.
        assert_eq!(traces.len(), 2);
        assert!(traces[0].flows.iter().all(|f| f.src != f.dst));
        assert!(traces[1].flows.iter().all(|f| f.bytes == 400));
        let again = plan.phase_traces(10, 1000, 100);
        assert_eq!(traces, again, "materialization is seed-deterministic");
    }

    #[test]
    #[should_panic(expected = "hotspot matrices require a flows phase")]
    fn steady_rejects_hotspot_matrices() {
        let mut plan = ScenarioPlan::new(1);
        plan.add_steady(
            0,
            0.2,
            Matrix::Hotspot { hot: 2, fraction: 0.5, kind: HotspotKind::Incast, seed: 1 },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_plans_round_trip(
            seed in any::<u64>(),
            phases in proptest::collection::vec(
                (0u64..10_000, 0usize..4, 0.0f64..1.0, 1u32..64, 1u32..16, 0u64..99), 0..6),
            flows in proptest::collection::vec(
                (0u64..10_000, 0u32..32, 0u32..32, 1u32..2000), 0..8),
        ) {
            let mut plan = ScenarioPlan::new(seed);
            for (start, shape, rate, span, hot, mseed) in phases {
                match shape {
                    0 => plan.add_idle(start),
                    1 => plan.add_steady(start, rate, Matrix::Uniform),
                    2 => plan.add_steady(start, rate, Matrix::Permutation { seed: mseed }),
                    _ => plan.add_flows(
                        start,
                        rate,
                        FlowSize { min: span, max: span + hot, alpha: 0.9 + rate },
                        Matrix::Hotspot {
                            hot,
                            fraction: 0.5,
                            kind: if mseed % 2 == 0 {
                                HotspotKind::Incast
                            } else {
                                HotspotKind::Outcast
                            },
                            seed: mseed,
                        },
                    ),
                }
            }
            for (start, src, dst, packets) in flows {
                if src != dst {
                    plan.add_flow(start, src, dst, packets);
                }
            }
            let mut buf = Vec::new();
            write_plan(&plan, &mut buf).unwrap();
            let back = read_plan(buf.as_slice()).unwrap();
            prop_assert_eq!(plan, back);
        }

        #[test]
        fn pareto_always_in_bounds(min in 1u32..100, extra in 0u32..5000, a in 0.05f64..4.0,
                                   u in 0.0f64..1.0) {
            let size = FlowSize { min, max: min + extra, alpha: a };
            let s = size.sample(u);
            prop_assert!(s >= size.min && s <= size.max);
        }
    }
}
