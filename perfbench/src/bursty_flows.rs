//! `bursty_flows`: scenario runs whose Poisson flow bursts are separated
//! by idle drain phases, so the fabric empties between bursts.
//!
//! RRG(64, 11, 8), rEDKSP(8), KSP-adaptive, `Scale::Quick` simulator
//! settings. One operation is one scenario run; its scenario seed comes
//! from a small pool, so later runs repeat earlier ones and must
//! reproduce their digests.

use crate::check::{table_is_valid, Adjacency};
use crate::sat_sweep::{digest_result, trace_config, SimTrace};
use crate::stats::{median, mix, Fnv};
use crate::table_build::fabric;
use crate::{DigestBook, HostSpeed, Metric, OpLog, Outcome, RunArgs};
use jellyfish::JellyfishNetwork;
use jellyfish_bench::Scale;
use jellyfish_flitsim::{FlowStats, Mechanism, RunResult, SimConfig, Simulator};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_traffic::scenario::{read_plan, write_plan};
use jellyfish_traffic::{FlowSize, Matrix, PacketDestinations, ScenarioPlan};
use std::time::Instant;

/// Bursts per scenario.
pub(crate) const BURSTS: u64 = 5;
/// Cycles from one burst's start to the next.
pub(crate) const PERIOD: u64 = 600;
/// Cycles of flow arrivals at the start of each period; the rest idles.
pub(crate) const BURST_CYCLES: u64 = 150;
/// Flow arrivals per host per cycle during a burst.
pub(crate) const ARRIVAL: f64 = 0.01;
/// Flow sizes in packets: bounded Pareto.
pub(crate) const SIZE: FlowSize = FlowSize { min: 1, max: 32, alpha: 1.4 };
/// Distinct scenario seeds per run.
const SEED_POOL: u64 = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;

/// The plan: `BURSTS` flow phases, each followed by an idle drain.
pub(crate) fn plan(seed: u64) -> ScenarioPlan {
    let mut plan = ScenarioPlan::new(seed);
    for b in 0..BURSTS {
        plan.add_flows(b * PERIOD, ARRIVAL, SIZE, Matrix::Uniform);
        plan.add_idle(b * PERIOD + BURST_CYCLES);
    }
    plan
}

/// Simulator settings: quick scale, long enough for every burst to
/// drain before the run ends.
pub(crate) fn sim_config(seed: u64) -> SimConfig {
    let mut cfg = Scale::Quick.sim_config();
    cfg.seed = seed;
    assert!(u64::from(cfg.total_cycles()) >= BURSTS * PERIOD, "scenario outlasts the run");
    cfg
}

/// The flow ledger must balance, and with idle drains every flow must
/// have completed by the end of the run.
pub(crate) fn check_flows(result: &RunResult, flows: &FlowStats) -> Result<(), String> {
    if result.saturated {
        return Err("the run saturated".into());
    }
    if flows.generated == 0 {
        return Err("no flows were generated".into());
    }
    if flows.generated != flows.completed + flows.live + flows.dropped {
        return Err(format!(
            "flow ledger unbalanced: {} generated, {} completed, {} live, {} dropped",
            flows.generated, flows.completed, flows.live, flows.dropped
        ));
    }
    if flows.live != 0 || flows.dropped != 0 {
        return Err(format!(
            "{} flows live and {} dropped after the drain",
            flows.live, flows.dropped
        ));
    }
    Ok(())
}

fn digest_flows(h: &mut Fnv, f: &FlowStats) {
    for v in [f.generated, f.completed, f.dropped, f.live, f.fct_sum, f.fct_hist.count()] {
        h.write_u64(v);
    }
    for q in [0.5, 0.9, 0.99] {
        h.write_u64(f.fct_hist.value_at_quantile(q));
    }
}

struct Runner<'a> {
    graph: &'a jellyfish_topology::Graph,
    net: &'a JellyfishNetwork,
    table: &'a PathTable,
    plans: &'a [ScenarioPlan],
    host: HostSpeed,
    ops: u64,
    book: DigestBook,
    log: OpLog,
    new_ns: u64,
    run_ns: u64,
    flows_completed: u64,
    ejected: u64,
}

impl Runner<'_> {
    fn op(&mut self, outcome: &mut Outcome) {
        let plan = &self.plans[(self.ops % SEED_POOL) as usize];
        let cfg = sim_config(plan.seed);
        let params = *self.net.params();
        let (graph, table) = (self.graph, self.table);
        let mut split = (0, 0);
        let ((sim, result), t) = self.host.time(|| {
            let t0 = Instant::now();
            let mut sim = Simulator::new(
                graph,
                params,
                table,
                None,
                Mechanism::KspAdaptive,
                PacketDestinations::Uniform { num_hosts: params.num_hosts() },
                0.0,
                cfg,
            )
            .with_scenario(plan);
            let t1 = Instant::now();
            let result = sim.run();
            split = ((t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64);
            (sim, result)
        });
        self.new_ns += split.0;
        self.run_ns += split.1;
        self.log.record(t, f64::from(cfg.total_cycles()));
        outcome.attempted += 1;
        let flows = sim.flow_stats().expect("a scenario is attached");
        self.flows_completed += flows.completed;
        self.ejected += result.ejected;
        let mut ok = true;
        if let Err(e) = check_flows(&result, &flows) {
            outcome.notes.push(format!("error scenario {:x}: {e}", plan.seed));
            ok = false;
        }
        let mut h = Fnv::default();
        digest_result(&mut h, &result);
        digest_flows(&mut h, &flows);
        ok &= self.book.check(format!("scenario@{:016x}", plan.seed), h.finish());
        outcome.ok += u64::from(ok);
        self.ops += 1;
    }
}

/// Builds the fabric, its rEDKSP table and the scenario plans, each
/// plan round-tripped through its text format (parse times go to
/// `parse_us`).
fn set_up(
    seed: u64,
    parse_us: &mut Vec<f64>,
) -> Result<(JellyfishNetwork, PathTable, Vec<ScenarioPlan>), String> {
    let net = fabric()?;
    let table = PathTable::compute(
        net.graph(),
        PathSelection::REdKsp(8),
        &PairSet::AllPairs,
        crate::FABRIC_SEED,
    );
    let mut plans = Vec::new();
    for i in 0..SEED_POOL {
        let made = plan(mix(seed, 300 + i));
        let mut text = Vec::new();
        write_plan(&made, &mut text).map_err(|e| e.to_string())?;
        let p0 = Instant::now();
        let parsed = read_plan(text.as_slice()).map_err(|e| e.to_string())?;
        parse_us.push(p0.elapsed().as_secs_f64() * 1e6);
        if parsed != made {
            return Err("scenario plan did not survive its text format".into());
        }
        plans.push(parsed);
    }
    Ok((net, table, plans))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Set-up: topology, rEDKSP table and the scenario plans, each plan
    // round-tripped through its text format.
    let mut host = HostSpeed::default();
    let base_rss = crate::own_rss_mb();
    let mut setups = Vec::new();
    let mut parse_us = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        let (set_up, t) = host.time(|| set_up(args.seed, &mut parse_us));
        setups.push(t.ms() / 1e3);
        built = Some(set_up?);
    }
    let (net, table, plans) = built.expect("set up at least once");
    if !table_is_valid(&table, &Adjacency::new(net.graph()), 8) {
        return Err("the rEDKSP table holds an invalid path".into());
    }
    let setup_s = median(&setups);
    let mut r = Runner {
        graph: net.graph(),
        net: &net,
        table: &table,
        plans: &plans,
        host,
        ops: 0,
        book: DigestBook::default(),
        log: OpLog::default(),
        new_ns: 0,
        run_ns: 0,
        flows_completed: 0,
        ejected: 0,
    };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        r.op(&mut outcome);
    }
    if !args.trace {
        let rss = crate::own_peak_rss_mb(&mut outcome, base_rss);
        crate::end_to_end(&mut outcome, setup_s, &r.log, r.log.work_per_s(), rss)?;
    } else {
        let plain = std::mem::take(&mut r.log);
        let ops = r.ops as f64;
        let m = &mut outcome.metrics;
        m.push(Metric::new("flitsim.new_ms", r.new_ns as f64 / ops / 1e6, "ms"));
        m.push(Metric::new("flitsim.run_ms", r.run_ns as f64 / ops / 1e6, "ms"));
        m.push(Metric::new("flitsim.ns_per_cycle", r.run_ns as f64 / plain.work, "ns"));
        m.push(Metric::new("flitsim.ns_per_packet", r.run_ns as f64 / r.ejected as f64, "ns"));
        m.push(Metric::new("flitsim.flows_completed", r.flows_completed as f64 / ops, "count"));
        m.push(Metric::new("flitsim.packets_ejected", r.ejected as f64 / ops, "count"));
        m.push(Metric::new("traffic.plan.parse_us", median(&parse_us), "us"));
        let mut sim_trace = SimTrace::default();
        jellyfish_obs::trace::enable(trace_config());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            r.op(&mut outcome);
            sim_trace.add(&jellyfish_obs::trace::take());
        }
        jellyfish_obs::trace::disable();
        drop(jellyfish_obs::trace::take());
        sim_trace.push_shares(&mut outcome.metrics);
        crate::traced_summary(&mut outcome, &plain, &r.log);
    }
    outcome.notes.push(r.host.summary());
    outcome.notes.extend(r.book.lines());
    outcome.notes.push(format!(
        "bursty_flows: {} scenario runs, {} repeated scenario digests matched",
        outcome.attempted, r.book.repeats
    ));
    Ok(outcome)
}
