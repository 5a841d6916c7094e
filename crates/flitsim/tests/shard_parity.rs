//! Differential determinism layer for sharded runs.
//!
//! The contract under test: for a fixed seed, a `Simulator` split into
//! any number of shards produces a **byte-identical** `RunResult` —
//! every scalar, the full percentile block, `measured_cycles`, the
//! histograms, and the serialized v2 text form — to the same run on one
//! shard, on random topologies, schemes, loads, and fault plans.
//! Mirrors the cache≡recompute differential suite: the one-shard run
//! (whose output the golden fixtures pin) is the oracle, and every other
//! shard count must be indistinguishable from it.

use jellyfish_flitsim::test_util;
use jellyfish_flitsim::{write_result, Mechanism, RunResult, SimConfig, Simulator};
use jellyfish_routing::PathSelection;
use jellyfish_topology::{FaultPlan, Graph, RrgParams};
use jellyfish_traffic::{FlowSize, HotspotKind, Matrix, PacketDestinations, ScenarioPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// Shard counts compared against the one-shard reference.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn serialized(r: &RunResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_result(r, &mut buf).expect("serialize result");
    buf
}

/// Asserts full equality: the `RunResult` itself (where comparable) and
/// its serialized byte form (which also covers NaN latency windows —
/// `NaN != NaN` would mask a match under plain `==`).
#[track_caller]
fn assert_byte_identical(reference: &RunResult, sharded: &RunResult, label: &str) {
    assert_eq!(
        serialized(reference),
        serialized(sharded),
        "{label}: serialized results differ\none shard: {reference:?}\nsharded:   {sharded:?}"
    );
}

fn uniform(p: &RrgParams) -> PacketDestinations {
    PacketDestinations::Uniform { num_hosts: p.num_hosts() }
}

struct Fixture {
    g: Arc<Graph>,
    p: RrgParams,
    t: Arc<jellyfish_routing::PathTable>,
}

fn fixture(topo_seed: u64, sel: PathSelection) -> Fixture {
    let p = RrgParams::new(10, 6, 4);
    let g = test_util::graph(p, topo_seed);
    let t = test_util::all_pairs_table(p, topo_seed, sel, topo_seed);
    Fixture { g, p, t }
}

fn run(
    f: &Fixture,
    mech: Mechanism,
    rate: f64,
    cfg: SimConfig,
    plan: Option<&FaultPlan>,
    threads: usize,
) -> RunResult {
    let mut sim =
        Simulator::new(&f.g, f.p, &f.t, None, mech, uniform(&f.p), rate, cfg).with_threads(threads);
    if let Some(plan) = plan {
        sim = sim.with_fault_plan(plan);
    }
    sim.run()
}

fn mechanisms() -> impl Strategy<Value = Mechanism> {
    prop_oneof![
        Just(Mechanism::SinglePath),
        Just(Mechanism::Random),
        Just(Mechanism::RoundRobin),
        Just(Mechanism::KspUgal),
        Just(Mechanism::KspAdaptive),
    ]
}

proptest! {
    // Each case is four runs; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology/scheme/load: every shard count matches one
    /// shard, byte for byte.
    #[test]
    fn sharded_runs_are_byte_identical_to_one_shard(
        seed in any::<u64>(),
        rate in 0.02f64..0.3,
        mech in mechanisms(),
        k in 1usize..5,
    ) {
        let f = fixture(seed % 16, PathSelection::REdKsp(k));
        let mut cfg = SimConfig::paper();
        cfg.num_samples = 3;
        cfg.seed = seed;
        let reference = run(&f, mech, rate, cfg, None, 1);
        for threads in THREAD_COUNTS {
            let sharded = run(&f, mech, rate, cfg, None, threads);
            assert_byte_identical(&reference, &sharded, &format!("{mech:?} threads={threads}"));
        }
    }

    /// Random mid-run fault plans (cuts, reroutes, retries, drops):
    /// byte-identical at every shard count. Under the `audit` feature
    /// the case additionally runs with the per-cycle invariant auditor
    /// attached at one and four shards — the merged checks must stay
    /// green and must not perturb the run.
    #[test]
    fn faulted_sharded_runs_are_byte_identical_to_one_shard(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        fraction in 0.02f64..0.25,
        at_cycle in 0u64..400,
        rate in 0.01f64..0.2,
        mech in mechanisms(),
    ) {
        let f = fixture(seed % 16, PathSelection::RKsp(3));
        let plan = FaultPlan::random_links(&f.g, fraction, at_cycle, fault_seed);
        let mut cfg = SimConfig::paper();
        cfg.warmup_cycles = 0; // faults land inside the measured span
        cfg.num_samples = 4;
        cfg.seed = seed;
        let reference = run(&f, mech, rate, cfg, Some(&plan), 1);
        for threads in THREAD_COUNTS {
            let sharded = run(&f, mech, rate, cfg, Some(&plan), threads);
            assert_byte_identical(
                &reference,
                &sharded,
                &format!("faulted {mech:?} threads={threads}"),
            );
        }
        #[cfg(feature = "audit")]
        {
            let audited = |threads: usize| {
                let mut sim =
                    Simulator::new(&f.g, f.p, &f.t, None, mech, uniform(&f.p), rate, cfg)
                        .with_threads(threads)
                        .with_auditor(jellyfish_flitsim::AuditConfig::default())
                        .with_fault_plan(&plan);
                sim.run()
            };
            for threads in [1, 4] {
                assert_byte_identical(
                    &reference,
                    &audited(threads),
                    &format!("faulted+audited {mech:?} threads={threads}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random flow bursts separated by idle drains, with explicit flows
    /// and a link cut landing anywhere — often inside the drained gaps
    /// the run loop jumps over. Three shards match one shard, and under
    /// the `audit` or `obs` feature an audited or observed run, which
    /// steps through every cycle, matches the skipping run byte for
    /// byte, flow ledger included.
    #[test]
    fn skipped_gaps_match_stepping_through(
        seed in any::<u64>(),
        bursts in proptest::collection::vec((0u64..2400, 10u64..200, 0.002f64..0.03), 1..4),
        flows in proptest::collection::vec((0u64..2500, 0u32..20, 0u32..20, 1u32..12), 0..4),
        cut_at in 0u64..2500,
    ) {
        let f = fixture(seed % 16, PathSelection::REdKsp(3));
        let mut plan = ScenarioPlan::new(seed);
        let size = FlowSize { min: 1, max: 12, alpha: 1.4 };
        for &(start, len, rate) in &bursts {
            plan.add_flows(start, rate, size, Matrix::Uniform);
            plan.add_idle(start + len);
        }
        for &(start, src, dst, packets) in &flows {
            if src != dst {
                plan.add_flow(start, src, dst, packets);
            }
        }
        let u = (seed % 10) as u32;
        let mut cut = FaultPlan::new();
        cut.add_link_failure(cut_at, u, f.g.neighbors(u)[0]);
        let mut cfg = SimConfig::paper();
        cfg.num_samples = 4;
        cfg.seed = seed;
        let sim = |threads: usize| {
            Simulator::new(&f.g, f.p, &f.t, None, Mechanism::KspAdaptive, uniform(&f.p), 0.0, cfg)
                .with_threads(threads)
                .with_fault_plan(&cut)
                .with_scenario(&plan)
        };
        let mut one = sim(1);
        let reference = one.run();
        let reference_flows = one.flow_stats();
        let mut three = sim(3);
        assert_byte_identical(&reference, &three.run(), "skipping threads=3");
        prop_assert_eq!(three.flow_stats(), reference_flows.clone());
        prop_assert_eq!(three.skipped_cycles(), one.skipped_cycles());
        #[cfg(feature = "audit")]
        {
            let mut audited = sim(1).with_auditor(jellyfish_flitsim::AuditConfig::default());
            assert_byte_identical(&reference, &audited.run(), "audited, stepping through");
            prop_assert_eq!(audited.flow_stats(), reference_flows.clone());
            prop_assert_eq!(audited.skipped_cycles(), 0);
        }
        #[cfg(feature = "obs")]
        {
            let mut observed =
                sim(1).with_observer(jellyfish_flitsim::ObserveConfig::default());
            assert_byte_identical(&reference, &observed.run(), "observed, stepping through");
            prop_assert_eq!(observed.flow_stats(), reference_flows);
            prop_assert_eq!(observed.skipped_cycles(), 0);
        }
    }
}

/// A dynamic scenario — Poisson flow arrivals with heavy-tailed sizes,
/// a mid-run shift to steady permutation traffic, then an incast
/// hotspot phase plus explicit flows — reproduces the one-shard bytes
/// at every shard count, and the merged flow ledger (generation on the
/// source shard, completion on the destination shard, FCT histogram
/// merged by bucket addition) matches the one-shard ledger exactly.
/// Under the `audit` feature one leg also runs with the per-cycle
/// flow-conservation and fct-accounting invariants armed.
#[test]
fn scenario_run_is_byte_identical_across_thread_counts() {
    let f = fixture(4, PathSelection::REdKsp(4));
    let mut plan = ScenarioPlan::new(17);
    plan.add_flows(0, 0.004, FlowSize { min: 1, max: 16, alpha: 1.3 }, Matrix::Uniform);
    plan.add_steady(900, 0.12, Matrix::Permutation { seed: 6 });
    plan.add_flows(
        1800,
        0.003,
        FlowSize::fixed(5),
        Matrix::Hotspot { hot: 3, fraction: 0.5, kind: HotspotKind::Incast, seed: 8 },
    );
    plan.add_flow(200, 0, 11, 20);
    plan.add_flow(1000, 9, 2, 7);
    let mut cfg = SimConfig::paper();
    cfg.num_samples = 5;
    cfg.seed = 23;
    let scenario_sim = |threads: usize| {
        Simulator::new(&f.g, f.p, &f.t, None, Mechanism::KspAdaptive, uniform(&f.p), 0.0, cfg)
            .with_threads(threads)
            .with_scenario(&plan)
    };
    let mut sim = scenario_sim(1);
    let reference = sim.run();
    let reference_flows = sim.flow_stats().expect("scenario attached");
    assert!(reference_flows.generated > 0, "{reference_flows:?}");
    assert_eq!(reference_flows.fct_hist.count(), reference_flows.completed, "{reference_flows:?}");
    for threads in THREAD_COUNTS {
        let mut sim = scenario_sim(threads);
        let sharded = sim.run();
        assert_byte_identical(&reference, &sharded, &format!("scenario threads={threads}"));
        let flows = sim.flow_stats().expect("scenario attached");
        assert_eq!(flows, reference_flows, "flow ledger diverged at threads={threads}");
    }
    #[cfg(feature = "audit")]
    {
        let mut sim = scenario_sim(4).with_auditor(jellyfish_flitsim::AuditConfig::default());
        let sharded = sim.run();
        assert_byte_identical(&reference, &sharded, "scenario audited threads=4");
        assert_eq!(sim.flow_stats().expect("scenario attached"), reference_flows);
    }
}

/// The paper-scale schedule (500-cycle warmup, 10×500-cycle windows) on
/// the saturation boundary, where window-close decisions and early
/// exits are most fragile: one wrong verdict shifts `measured_cycles`.
#[test]
fn saturating_run_exits_identically() {
    let f = fixture(3, PathSelection::REdKsp(4));
    let mut cfg = SimConfig::paper();
    cfg.seed = 9;
    // 0.9 exits after window 4, 0.95 after window 3 — two distinct
    // early-exit points on the same topology.
    for rate in [0.9, 0.95] {
        let reference = run(&f, Mechanism::SinglePath, rate, cfg, None, 1);
        assert!(reference.saturated, "single-path at rate {rate} must saturate");
        for threads in THREAD_COUNTS {
            let sharded = run(&f, Mechanism::SinglePath, rate, cfg, None, threads);
            assert_byte_identical(&reference, &sharded, &format!("saturating threads={threads}"));
        }
    }
}

/// The cached next link at its two hand-over points: a packet rerouted
/// around a link cut mid-run and a packet crossing into another shard.
/// KSP-adaptive at saturating load with a tenth of the links cut at
/// cycle 300: four shards reproduce the one-shard bytes, and under the
/// `audit` feature both legs also run audited (route validity checks
/// every cached link) and stay byte-identical.
#[test]
fn rerouted_saturating_adaptive_run_matches_at_four_shards() {
    let f = fixture(6, PathSelection::REdKsp(4));
    let plan = FaultPlan::random_links(&f.g, 0.1, 300, 5);
    let mut cfg = SimConfig::paper();
    cfg.seed = 11;
    let mech = Mechanism::KspAdaptive;
    let reference = run(&f, mech, 0.9, cfg, Some(&plan), 1);
    assert!(reference.saturated && reference.rerouted > 0, "{reference:?}");
    let sharded = run(&f, mech, 0.9, cfg, Some(&plan), 4);
    assert_byte_identical(&reference, &sharded, "rerouted adaptive threads=4");
    #[cfg(feature = "audit")]
    for threads in [1, 4] {
        let mut sim = Simulator::new(&f.g, f.p, &f.t, None, mech, uniform(&f.p), 0.9, cfg)
            .with_threads(threads)
            .with_auditor(jellyfish_flitsim::AuditConfig::default())
            .with_fault_plan(&plan);
        let audited = sim.run();
        assert_byte_identical(&reference, &audited, &format!("audited threads={threads}"));
    }
}

/// Thread counts beyond the router count clamp to one router per shard
/// and still reproduce the one-shard bytes.
#[test]
fn oversubscribed_thread_count_clamps_and_matches() {
    let f = fixture(5, PathSelection::Ksp(3));
    let mut cfg = SimConfig::paper();
    cfg.num_samples = 2;
    cfg.seed = 11;
    let reference = run(&f, Mechanism::KspAdaptive, 0.15, cfg, None, 1);
    let sharded = run(&f, Mechanism::KspAdaptive, 0.15, cfg, None, 64);
    assert_byte_identical(&reference, &sharded, "threads=64 on 10 switches");
}

/// `JELLYFISH_SIM_THREADS` splits `SweepConfig { threads: 0 }` runs
/// into shards (the `RAYON_NUM_THREADS`-style override), and the result
/// bytes still match one shard; a value `--threads` would reject fails
/// loudly instead of quietly running on one shard. The env var is
/// process global, so this is the only test in the binary that touches
/// `resolve_threads` — everything else passes explicit counts.
#[test]
fn env_override_engages_parallel_engine_and_matches() {
    let f = fixture(7, PathSelection::REdKsp(4));
    let mut cfg = SimConfig::paper();
    cfg.num_samples = 3;
    cfg.seed = 13;
    let sweep = jellyfish_flitsim::SweepConfig {
        graph: &f.g,
        params: f.p,
        table: &f.t,
        sp_table: None,
        mechanism: Mechanism::KspAdaptive,
        faults: None,
        sim: cfg,
        threads: 0,
    };
    let pattern = uniform(&f.p);
    std::env::remove_var("JELLYFISH_SIM_THREADS");
    let reference = jellyfish_flitsim::run_at(&sweep, &pattern, 0.2);
    assert_eq!(jellyfish_flitsim::resolve_threads(None), 1);
    std::env::set_var("JELLYFISH_SIM_THREADS", "3");
    assert_eq!(jellyfish_flitsim::resolve_threads(None), 3);
    let sharded = jellyfish_flitsim::run_at(&sweep, &pattern, 0.2);
    for bad in ["0", "four", "-2", ""] {
        std::env::set_var("JELLYFISH_SIM_THREADS", bad);
        let err = std::panic::catch_unwind(|| jellyfish_flitsim::resolve_threads(None))
            .expect_err("a bad JELLYFISH_SIM_THREADS must fail");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("must be an integer >= 1"), "{bad:?}: {msg}");
    }
    std::env::remove_var("JELLYFISH_SIM_THREADS");
    assert_byte_identical(&reference, &sharded, "env JELLYFISH_SIM_THREADS=3");
}

/// The golden suite's `idle-gap-events` case: a drained fabric whose
/// gaps hold explicit flow starts, a link cut, sample-window closes and
/// a phase start three cycles after the last credit returns. Two and
/// four shards reproduce the one-shard bytes and flow ledger, and under
/// the `audit` feature audited runs (checked every cycle) match the
/// plain ones byte for byte.
#[test]
fn idle_gap_events_match_at_every_shard_count() {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::EdKsp(3), 3);
    let mut plan = ScenarioPlan::new(31);
    let small = FlowSize { min: 1, max: 8, alpha: 1.4 };
    plan.add_flows(0, 0.01, small, Matrix::Uniform);
    plan.add_idle(100);
    plan.add_flow(450, 0, 17, 6);
    plan.add_flow(1000, 5, 20, 8);
    plan.add_flows(1051, 0.01, small, Matrix::Uniform);
    plan.add_idle(1131);
    let mut cut = FaultPlan::new();
    cut.add_link_failure(520, 0, g.neighbors(0)[0]);
    let mut cfg = SimConfig::paper();
    cfg.warmup_cycles = 200;
    cfg.sample_cycles = 200;
    cfg.num_samples = 8;
    cfg.seed = 29;
    let sim = |threads: usize| {
        Simulator::new(&g, p, &t, None, Mechanism::RoundRobin, uniform(&p), 0.0, cfg)
            .with_threads(threads)
            .with_fault_plan(&cut)
            .with_scenario(&plan)
    };
    let mut one = sim(1);
    let reference = one.run();
    let reference_flows = one.flow_stats().expect("scenario attached");
    assert_eq!(reference_flows.completed, reference_flows.generated, "{reference_flows:?}");
    for threads in [2, 4] {
        let mut sharded = sim(threads);
        let result = sharded.run();
        assert_byte_identical(&reference, &result, &format!("idle gaps threads={threads}"));
        assert_eq!(sharded.flow_stats().expect("scenario attached"), reference_flows);
    }
    #[cfg(feature = "audit")]
    for threads in [1, 4] {
        let mut audited = sim(threads).with_auditor(jellyfish_flitsim::AuditConfig::default());
        let result = audited.run();
        assert_byte_identical(&reference, &result, &format!("idle gaps audited threads={threads}"));
        assert_eq!(audited.flow_stats().expect("scenario attached"), reference_flows);
    }
}
