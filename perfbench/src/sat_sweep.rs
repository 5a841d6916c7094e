//! `sat_sweep`: the paper's saturation-throughput search at quick scale.
//!
//! KSP-adaptive under uniform traffic on RRG(32, 8, 6), resolution
//! 0.02, `Scale::Quick` simulator settings, one compute thread. One
//! operation is one full `saturation_search` for one path selection;
//! operations cycle through the four selections and a small pool of
//! traffic seeds, so later searches repeat earlier ones and must
//! reproduce their digests.

use crate::check::{table_is_valid, Adjacency};
use crate::stats::{median, mix, Fnv};
use crate::table_build::{K, SELECTIONS};
use crate::{DigestBook, HostSpeed, Metric, OpLog, Outcome, RunArgs};
use jellyfish::JellyfishNetwork;
use jellyfish_bench::Scale;
use jellyfish_flitsim::stats::write_result;
use jellyfish_flitsim::sweep::{saturation_search, SweepConfig};
use jellyfish_flitsim::{Mechanism, RunResult};
use jellyfish_obs::trace::{RecordKind, Trace, TraceConfig};
use jellyfish_routing::{PairSet, PathTable};
use jellyfish_topology::RrgParams;
use jellyfish_traffic::PacketDestinations;
use std::cell::RefCell;
use std::time::Instant;

/// The fabric searched: RRG(32, 8, 6), 64 hosts. One search on the
/// 512-host RRG(64, 11, 8) takes 3–4 s on one thread, too long for a
/// run to hold the operations a tail percentile needs.
pub(crate) const PARAMS: (usize, usize, usize) = (32, 8, 6);
/// Saturation-search granularity (quick scale).
pub(crate) const RESOLUTION: f64 = 0.02;
/// Distinct traffic seeds per run.
const SEED_POOL: u64 = 2;
/// Table-set builds during set-up; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;

/// Self time of the simulator's per-cycle stages, summed from trace
/// records, plus the probe spans' totals.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SimTrace {
    /// Self ns in `flitsim.cycle.inject`.
    pub inject_ns: u64,
    /// Self ns in `flitsim.cycle.allocate`.
    pub allocate_ns: u64,
    /// Self ns in `flitsim.cycle.traverse`.
    pub traverse_ns: u64,
}

impl SimTrace {
    /// Folds the records of one drained trace.
    pub fn add(&mut self, trace: &Trace) {
        for r in trace.threads.iter().flat_map(|t| &t.records) {
            if r.kind != RecordKind::Span {
                continue;
            }
            match r.name {
                "flitsim.cycle.inject" => self.inject_ns += r.self_ns,
                "flitsim.cycle.allocate" => self.allocate_ns += r.self_ns,
                "flitsim.cycle.traverse" => self.traverse_ns += r.self_ns,
                _ => {}
            }
        }
    }

    /// Pushes the three stage shares.
    pub fn push_shares(&self, m: &mut Vec<Metric>) {
        let total = (self.inject_ns + self.allocate_ns + self.traverse_ns).max(1) as f64;
        m.push(Metric::new("flitsim.cycle.inject_share", self.inject_ns as f64 / total, "ratio"));
        m.push(Metric::new(
            "flitsim.cycle.allocate_share",
            self.allocate_ns as f64 / total,
            "ratio",
        ));
        m.push(Metric::new(
            "flitsim.cycle.traverse_share",
            self.traverse_ns as f64 / total,
            "ratio",
        ));
    }
}

/// Trace settings for the simulator's traced runs: every cycle's stage
/// spans, no per-router detail spans, rings drained after each
/// operation.
pub(crate) fn trace_config() -> TraceConfig {
    TraceConfig { capacity: 1 << 18, cycle_stride: 1, detail_stride: u32::MAX }
}

/// Cycles a probe simulated: warmup plus measured cycles.
pub(crate) fn simulated_cycles(r: &RunResult, warmup: u32) -> u64 {
    u64::from(warmup) + r.measured_cycles
}

/// Folds a run result into a digest through its text serialization.
pub(crate) fn digest_result(h: &mut Fnv, r: &RunResult) {
    let mut bytes = Vec::new();
    write_result(r, &mut bytes).expect("writing to memory cannot fail");
    h.write(&bytes);
}

fn params() -> RrgParams {
    RrgParams::new(PARAMS.0, PARAMS.1, PARAMS.2)
}

struct Searcher<'a> {
    graph: &'a jellyfish_topology::Graph,
    params: RrgParams,
    tables: &'a [PathTable],
    host: HostSpeed,
    seed: u64,
    ops: u64,
    book: DigestBook,
    log: OpLog,
    probes: u64,
    ejected: u64,
}

impl Searcher<'_> {
    /// One operation: a full saturation search, then its checks.
    fn op(&mut self, outcome: &mut Outcome) {
        let sel = (self.ops % SELECTIONS.len() as u64) as usize;
        let sim_seed = mix(self.seed, 200 + (self.ops / SELECTIONS.len() as u64) % SEED_POOL);
        let mut sim = Scale::Quick.sim_config();
        sim.seed = sim_seed;
        let cfg = SweepConfig {
            graph: self.graph,
            params: self.params,
            table: &self.tables[sel],
            sp_table: None,
            mechanism: Mechanism::KspAdaptive,
            faults: None,
            sim,
            threads: 1,
        };
        let pattern = PacketDestinations::Uniform { num_hosts: self.params.num_hosts() };
        let probes = RefCell::new(Vec::new());
        let (rate, t) = self.host.time(|| {
            saturation_search(&cfg, &pattern, RESOLUTION, |r| {
                probes.borrow_mut().push(r.clone());
                r.saturated
            })
        });
        let probes = probes.into_inner();
        let cycles: u64 = probes.iter().map(|r| simulated_cycles(r, sim.warmup_cycles)).sum();
        self.log.record(t, cycles as f64);
        self.probes += probes.len() as u64;
        self.ejected += probes.iter().map(|r| r.ejected).sum::<u64>();
        outcome.attempted += 1;

        let name = SELECTIONS[sel].name();
        outcome.notes.push(format!(
            "search {name} traffic seed {sim_seed:016x}: saturation {rate:.2} after {} probes, \
             {:.1} ms ({:.1} ms wall clock)",
            probes.len(),
            t.ms(),
            t.raw_ms,
        ));
        let mut ok = true;
        if let Err(e) = check_search(rate, &probes) {
            outcome.notes.push(format!("error {name} seed {sim_seed:x}: {e}"));
            ok = false;
        }
        ok &= check_repeat(&mut self.book, &name, sim_seed, rate, &probes);
        outcome.ok += u64::from(ok);
        self.ops += 1;
    }
}

/// Files a search's digest (the saturation rate it returned and every
/// probe's `RunResult`) under its input, the path selection and traffic
/// seed; false when that input was searched before with another digest.
/// The key holds no output of the search, so a repeated input that
/// returns another rate fails.
pub fn check_repeat(
    book: &mut DigestBook,
    selection: &str,
    sim_seed: u64,
    rate: f64,
    probes: &[RunResult],
) -> bool {
    let mut h = Fnv::default();
    h.write_u64(rate.to_bits());
    for r in probes {
        digest_result(&mut h, r);
    }
    book.check(format!("{selection}@{sim_seed:016x}"), h.finish())
}

/// A search's answer must have an unsaturated probe at the returned
/// rate and a saturated one a grid step above it (rate 0 needs no probe,
/// rate 1 no step above).
pub(crate) fn check_search(rate: f64, probes: &[RunResult]) -> Result<(), String> {
    let probed = |r: f64, saturated: bool| {
        probes.iter().any(|p| (p.offered - r).abs() < 1e-9 && p.saturated == saturated)
    };
    if rate > 0.0 && !probed(rate, false) {
        return Err(format!("no unsaturated probe at the returned rate {rate}"));
    }
    let step = ((rate / RESOLUTION).round() as u32 + 1) as f64 * RESOLUTION;
    let next = if step > 1.0 + 1e-9 { 1.0 } else { step };
    if rate < 1.0 && !probed(next, true) {
        return Err(format!("no saturated probe one step above {rate}"));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let net = JellyfishNetwork::build(params(), crate::FABRIC_SEED).map_err(|e| e.to_string())?;
    let graph = net.graph();
    let adj = Adjacency::new(graph);
    // Set-up: the four tables the searches route on.
    let mut host = HostSpeed::default();
    let base_rss = crate::own_rss_mb();
    let mut setups = Vec::new();
    let mut tables = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let t;
        (tables, t) = host.time(|| {
            SELECTIONS
                .iter()
                .map(|sel| PathTable::compute(graph, *sel, &PairSet::AllPairs, crate::FABRIC_SEED))
                .collect()
        });
        setups.push(t.ms() / 1e3);
    }
    if !tables.iter().all(|t| table_is_valid(t, &adj, K)) {
        return Err("a set-up table holds an invalid path".into());
    }
    let setup_s = median(&setups);
    let mut s = Searcher {
        graph,
        params: *net.params(),
        tables: &tables,
        host,
        seed: args.seed,
        ops: 0,
        book: DigestBook::default(),
        log: OpLog::default(),
        probes: 0,
        ejected: 0,
    };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        s.op(&mut outcome);
    }
    if !args.trace {
        let rss = crate::own_peak_rss_mb(&mut outcome, base_rss);
        crate::end_to_end(&mut outcome, setup_s, &s.log, s.log.work_per_s(), rss)?;
    } else {
        let plain = std::mem::take(&mut s.log);
        let (ops, probes, ejected) = (s.ops as f64, s.probes as f64, s.ejected as f64);
        let host_ns = plain.raw_ms.iter().sum::<f64>() * 1e6;
        let m = &mut outcome.metrics;
        m.push(Metric::new("flitsim.probes", probes / ops, "count"));
        m.push(Metric::new("flitsim.sim_cycles", plain.work / ops, "count"));
        m.push(Metric::new("flitsim.ns_per_cycle", host_ns / plain.work, "ns"));
        m.push(Metric::new("flitsim.ns_per_packet", host_ns / ejected, "ns"));
        m.push(Metric::new("routing.table.build_ms", setup_s * 1e3, "ms"));
        // Traced half: per-cycle stage spans and the probe spans.
        let mut sim_trace = SimTrace::default();
        let (mut new_ns, mut run_ns, mut probe_count) = (0u64, 0u64, 0u64);
        jellyfish_obs::trace::enable(trace_config());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            s.op(&mut outcome);
            let trace = jellyfish_obs::trace::take();
            sim_trace.add(&trace);
            for r in trace.threads.iter().flat_map(|t| &t.records) {
                match r.name {
                    // `flitsim.run` is one probe: simulator construction
                    // plus `flitsim.sim.run`, the cycle loop.
                    "flitsim.run" => {
                        probe_count += 1;
                        new_ns += r.self_ns;
                    }
                    "flitsim.sim.run" => run_ns += r.end_ns - r.start_ns,
                    _ => {}
                }
            }
        }
        jellyfish_obs::trace::disable();
        drop(jellyfish_obs::trace::take());
        let per_probe = probe_count.max(1) as f64 * 1e6;
        let m = &mut outcome.metrics;
        m.push(Metric::new("flitsim.new_ms", new_ns as f64 / per_probe, "ms"));
        m.push(Metric::new("flitsim.run_ms", run_ns as f64 / per_probe, "ms"));
        sim_trace.push_shares(m);
        crate::traced_summary(&mut outcome, &plain, &s.log);
    }
    outcome.notes.push(s.host.summary());
    outcome.notes.extend(s.book.lines());
    outcome.notes.push(format!(
        "sat_sweep: {} searches, {} probes, {} repeated search digests matched",
        outcome.attempted, s.probes, s.book.repeats
    ));
    Ok(outcome)
}
