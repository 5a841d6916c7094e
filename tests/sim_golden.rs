//! Golden simulator output: six small runs whose full `jellyfish-run
//! v2` text and flow ledger are pinned in `fixtures/sim_golden_v1.txt`.
//!
//! The runs cover the simulator's distinct per-cycle regimes — a flow
//! burst followed by an idle drain, mid-run link and switch faults
//! (packets dropped at a network queue head and buffers drained on a
//! failed switch), adaptive KSP-UGAL routing under uniform load — and
//! both early exits of a saturating run: a window whose mean latency
//! crosses the threshold, and a source-queue overflow mid-window —
//! plus a mostly idle run whose gaps hold every kind of event that can
//! fall while the fabric is empty: explicit flows, a link cut, sample
//! windows closing, and a phase start just after the last credit
//! returns.
//! Every one must reproduce the fixture byte for byte on one shard (a
//! serial run) and on two, so a hot-loop change that alters any RNG
//! draw, arbitration decision or drop shows up here as a text diff.

use jellyfish_flitsim::{test_util, write_result, Mechanism, SimConfig, Simulator};
use jellyfish_routing::PathSelection;
use jellyfish_topology::{FaultPlan, RrgParams};
use jellyfish_traffic::{FlowSize, Matrix, PacketDestinations, ScenarioPlan};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/sim_golden_v1.txt");

const PARAMS: RrgParams = RrgParams::new(12, 6, 4);
const TOPO_SEED: u64 = 21;

/// Short schedule: 200 warmup cycles plus eight 200-cycle windows.
fn config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.warmup_cycles = 200;
    cfg.sample_cycles = 200;
    cfg.num_samples = 8;
    cfg.seed = seed;
    cfg
}

struct Case {
    name: &'static str,
    selection: PathSelection,
    mechanism: Mechanism,
    rate: f64,
    cfg: SimConfig,
    faults: Option<FaultPlan>,
    scenario: Option<ScenarioPlan>,
}

fn cases() -> Vec<Case> {
    // Two flow bursts, each followed by an idle drain.
    let mut bursts = ScenarioPlan::new(5);
    let size = FlowSize { min: 1, max: 16, alpha: 1.4 };
    bursts.add_flows(0, 0.01, size, Matrix::Uniform);
    bursts.add_idle(300);
    bursts.add_flows(900, 0.02, size, Matrix::Uniform);
    bursts.add_idle(1000);

    // Two links cut mid-measurement, then two whole switches under
    // enough load that their input buffers hold packets to drain.
    // Mask-only mode leaves pairs without a surviving route, so packets
    // stall at a queue head until their retry budget runs out.
    let mut faults = FaultPlan::new();
    faults.add_link_failure(400, 0, first_neighbor(0));
    faults.add_link_failure(400, 5, first_neighbor(5));
    faults.add_switch_failure(700, 3);
    faults.add_switch_failure(1100, 8);
    let mut fault_cfg = config(11);
    fault_cfg.fault_repair = false;

    // Single-path routing past its capacity, two ways out. With
    // unbounded source queues a closed window's mean latency crosses
    // the threshold and the run stops at that window boundary; with
    // 256-entry queues a queue overflows mid-window first, and the
    // trailing partial window is closed after the loop.
    let mut latency_cfg = config(17);
    latency_cfg.saturation_latency = 200.0;
    latency_cfg.source_queue_cap = 1 << 20;
    let mut overflow_cfg = config(19);
    overflow_cfg.source_queue_cap = 256;

    // A drained fabric between events: a burst, then explicit flows at
    // 450 and 1000, a link cut at 520 and the sample windows closing at
    // 599 and 799 all fall in gaps with nothing in flight, and a second
    // burst starts at 1051, three cycles after the flow started at 1000
    // has returned its last credit.
    let mut gaps = ScenarioPlan::new(31);
    let small = FlowSize { min: 1, max: 8, alpha: 1.4 };
    gaps.add_flows(0, 0.01, small, Matrix::Uniform);
    gaps.add_idle(100);
    gaps.add_flow(450, 0, 17, 6);
    gaps.add_flow(1000, 5, 20, 8);
    gaps.add_flows(1051, 0.01, small, Matrix::Uniform);
    gaps.add_idle(1131);
    let mut gap_cut = FaultPlan::new();
    gap_cut.add_link_failure(520, 0, first_neighbor(0));

    vec![
        Case {
            name: "burst-idle",
            selection: PathSelection::REdKsp(4),
            mechanism: Mechanism::KspAdaptive,
            rate: 0.0,
            cfg: config(7),
            faults: None,
            scenario: Some(bursts),
        },
        Case {
            name: "link-and-switch-faults",
            selection: PathSelection::RKsp(4),
            mechanism: Mechanism::Random,
            rate: 0.45,
            cfg: fault_cfg,
            faults: Some(faults),
            scenario: None,
        },
        Case {
            name: "ksp-ugal-uniform",
            selection: PathSelection::Ksp(4),
            mechanism: Mechanism::KspUgal,
            rate: 0.3,
            cfg: config(13),
            faults: None,
            scenario: None,
        },
        Case {
            name: "latency-exit",
            selection: PathSelection::SinglePath,
            mechanism: Mechanism::SinglePath,
            rate: 0.8,
            cfg: latency_cfg,
            faults: None,
            scenario: None,
        },
        Case {
            name: "overflow-exit",
            selection: PathSelection::SinglePath,
            mechanism: Mechanism::SinglePath,
            rate: 0.7,
            cfg: overflow_cfg,
            faults: None,
            scenario: None,
        },
        Case {
            name: "idle-gap-events",
            selection: PathSelection::EdKsp(3),
            mechanism: Mechanism::RoundRobin,
            rate: 0.0,
            cfg: config(29),
            faults: Some(gap_cut),
            scenario: Some(gaps),
        },
    ]
}

fn first_neighbor(u: u32) -> u32 {
    test_util::graph(PARAMS, TOPO_SEED).neighbors(u)[0]
}

/// Runs one case on `threads` shards and renders its result and flow
/// ledger; also returns the quiescent cycles the run skipped.
fn render(case: &Case, threads: usize) -> (String, u64) {
    let g = test_util::graph(PARAMS, TOPO_SEED);
    let t = test_util::all_pairs_table(PARAMS, TOPO_SEED, case.selection, 3);
    let pattern = PacketDestinations::Uniform { num_hosts: PARAMS.num_hosts() };
    let mut sim =
        Simulator::new(&g, PARAMS, &t, None, case.mechanism, pattern, case.rate, case.cfg)
            .with_threads(threads);
    if let Some(plan) = &case.faults {
        sim = sim.with_fault_plan(plan);
    }
    if let Some(plan) = &case.scenario {
        sim = sim.with_scenario(plan);
    }
    let (result, flows, skipped) = (sim.run(), sim.flow_stats(), sim.skipped_cycles());
    let mut buf = Vec::new();
    write_result(&result, &mut buf).expect("in-memory write");
    let mut out = format!("run {}\n", case.name);
    out.push_str(std::str::from_utf8(&buf).expect("the run format is text"));
    match flows {
        None => out.push_str("flows none\n"),
        Some(f) => {
            let (p50, p90, p99, p999) = f.fct_hist.percentiles();
            writeln!(
                out,
                "flows generated {} completed {} dropped {} live {} fct_sum {} fct_count {} \
                 fct_p50 {p50} fct_p90 {p90} fct_p99 {p99} fct_p999 {p999} fct_max {}",
                f.generated,
                f.completed,
                f.dropped,
                f.live,
                f.fct_sum,
                f.fct_hist.count(),
                f.fct_hist.max()
            )
            .expect("string write");
        }
    }
    (out, skipped)
}

fn render_all(threads: usize) -> String {
    let mut out = String::from("jellyfish-sim-golden v1\n");
    for case in cases() {
        out.push_str(&render(&case, threads).0);
    }
    out
}

#[test]
fn serial_runs_match_the_golden_fixture() {
    jellyfish_repro::audit_simulations(); // per-cycle checks under --features audit
    assert_eq!(render_all(1), FIXTURE, "serial simulator output drifted from the golden fixture");
}

#[test]
fn two_shard_runs_match_the_golden_fixture() {
    jellyfish_repro::audit_simulations();
    assert_eq!(
        render_all(2),
        FIXTURE,
        "two-shard simulator output drifted from the golden fixture"
    );
}

#[test]
fn golden_runs_exercise_every_regime() {
    // Guards the fixture itself: each case must keep reaching the code
    // paths it exists to pin.
    let section = |name: &str| {
        FIXTURE.split("\nrun ").find(|s| s.starts_with(&format!("{name}\n"))).expect("case present")
    };
    let field = |sec: &str, key: &str| -> u64 {
        let line = sec.lines().find(|l| l.starts_with(&format!("{key} "))).expect("field");
        line[key.len() + 1..].parse().expect("integer field")
    };
    let bursts = section("burst-idle");
    assert!(!bursts.contains("flows generated 0 "), "{bursts}");
    assert!(bursts.contains(" live 0 "), "every burst must drain: {bursts}");
    let faults = section("link-and-switch-faults");
    assert!(field(faults, "dropped") > 0, "{faults}");
    let ugal = section("ksp-ugal-uniform");
    assert!(field(ugal, "ejected") > 0, "{ugal}");
    assert!(ugal.contains("saturated 0"), "{ugal}");
    // Both saturating cases stop early: the latency exit on a window
    // boundary, the overflow exit inside a window whose partial
    // samples are still reported.
    let window = u64::from(config(0).sample_cycles);
    let configured = window * u64::from(config(0).num_samples);
    let latency = section("latency-exit");
    assert!(latency.contains("saturated 1"), "{latency}");
    let measured = field(latency, "measured_cycles");
    assert!(measured < configured && measured % window == 0, "{latency}");
    // The gap case keeps its flows and its empty sample windows.
    let gaps = section("idle-gap-events");
    assert!(gaps.contains(" completed 51 ") && gaps.contains(" live 0 "), "{gaps}");
    assert!(gaps.contains("samples NaN ") && field(gaps, "dropped") == 0, "{gaps}");
    let overflow = section("overflow-exit");
    assert!(overflow.contains("saturated 1"), "{overflow}");
    let measured = field(overflow, "measured_cycles");
    assert!(measured < configured && measured % window != 0, "{overflow}");
    let samples = overflow.lines().find(|l| l.starts_with("samples ")).expect("samples line");
    assert_eq!(samples.split(' ').count() as u64 - 1, measured.div_ceil(window), "{overflow}");
}

#[test]
fn quiet_gaps_are_skipped_unless_audited() {
    // Audited runs check every cycle, so they step through the gaps and
    // their byte-identical fixture output doubles as a skipped-vs-not
    // differential test.
    jellyfish_repro::audit_simulations();
    let audited = cfg!(feature = "audit");
    for case in cases() {
        let (text, skipped) = render(&case, 1);
        assert_eq!(render(&case, 2).1, skipped, "{}: shard counts skip alike", case.name);
        if case.scenario.is_none() {
            assert_eq!(skipped, 0, "{}: runs without a scenario never skip", case.name);
        } else if audited {
            assert_eq!(skipped, 0, "{}: audited runs never skip", case.name);
        } else {
            // Both scenario cases spend most of the run drained.
            let measured = text.lines().find(|l| l.starts_with("measured_cycles ")).expect("field");
            let total = u64::from(case.cfg.warmup_cycles) + measured[16..].parse::<u64>().unwrap();
            assert!(skipped > total / 2, "{}: {skipped} of {total} cycles skipped", case.name);
        }
    }
}
