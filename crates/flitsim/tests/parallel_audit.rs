//! Audit-under-parallelism: the per-cycle invariant auditor must reach
//! the **same verdicts** on the sharded parallel engine as on the
//! serial one — same invariant name, same cycle, same offending link —
//! and the merged flight-recorder dump must read as one coherent,
//! cycle-ordered timeline even though each shard records into its own
//! ring.
#![cfg(feature = "audit")]

use jellyfish_flitsim::test_util;
use jellyfish_flitsim::{AuditConfig, Mechanism, ParallelSimulator, SimConfig, Simulator};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{Graph, RrgParams};
use jellyfish_traffic::{Flow, PacketDestinations};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn uniform(p: &RrgParams) -> PacketDestinations {
    PacketDestinations::Uniform { num_hosts: p.num_hosts() }
}

/// Runs to the violation and returns the structured panic payload, the
/// exact same way the serial suite extracts it.
fn violation_message(run: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must violate");
    err.downcast_ref::<String>().expect("structured panic payload").clone()
}

/// A corrupted credit counter is caught by the merged global
/// credit-conservation check with the serial verdict: same invariant,
/// same cycle, same link/vc — at one shard the full diagnostic string
/// (flight recorder included) is identical to serial's.
#[test]
fn corrupted_credit_same_verdict_across_thread_counts() {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 21);
    let serial_msg = violation_message(|| {
        let mut sim = Simulator::new(
            &g,
            p,
            &t,
            None,
            Mechanism::Random,
            uniform(&p),
            0.1,
            SimConfig::paper(),
        )
        .with_auditor(AuditConfig::default());
        sim.audit_corrupt_credit(3, 0);
        sim.run();
    });
    assert!(serial_msg.contains("audit violation: credit-conservation at cycle 0"), "{serial_msg}");
    for threads in [1usize, 2, 4, 8] {
        let msg = violation_message(|| {
            let mut sim = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::Random,
                uniform(&p),
                0.1,
                SimConfig::paper(),
                threads,
            )
            .with_auditor(AuditConfig::default());
            sim.audit_corrupt_credit(3, 0);
            sim.run();
        });
        // The verdict triple is thread-count independent.
        assert!(
            msg.contains("audit violation: credit-conservation at cycle 0"),
            "threads={threads}: {msg}"
        );
        assert!(msg.contains("link 3"), "threads={threads}: {msg}");
        assert!(msg.contains("vc 0"), "threads={threads}: {msg}");
        if threads == 1 {
            // One shard follows the serial schedule exactly, so even the
            // flight-recorder dump must match byte for byte.
            assert_eq!(msg, serial_msg, "single-shard diagnostic diverged from serial");
        }
    }
}

/// A router-load counter that disagrees with its queues is caught by
/// the `router-load` invariant, naming the router, on the serial engine
/// and at one and two shards (router 7 lives on the second shard).
#[test]
fn corrupted_router_load_names_invariant_and_router() {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 21);
    let serial_msg = violation_message(|| {
        let mut sim = Simulator::new(
            &g,
            p,
            &t,
            None,
            Mechanism::Random,
            uniform(&p),
            0.1,
            SimConfig::paper(),
        )
        .with_auditor(AuditConfig::default());
        sim.audit_corrupt_router_load(7);
        sim.run();
    });
    assert!(serial_msg.contains("audit violation: router-load at cycle 0"), "{serial_msg}");
    assert!(serial_msg.contains("router 7: rtr_load"), "{serial_msg}");
    for threads in [1usize, 2] {
        let msg = violation_message(|| {
            let mut sim = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::Random,
                uniform(&p),
                0.1,
                SimConfig::paper(),
                threads,
            )
            .with_auditor(AuditConfig::default());
            sim.audit_corrupt_router_load(7);
            sim.run();
        });
        assert!(
            msg.contains("audit violation: router-load at cycle 0"),
            "threads={threads}: {msg}"
        );
        assert!(msg.contains("router 7: rtr_load"), "threads={threads}: {msg}");
        if threads == 1 {
            assert_eq!(msg, serial_msg, "single-shard diagnostic diverged from serial");
        }
    }
}

/// A blocked ejection port clogs the fabric until the forward-progress
/// watchdog fires; the merged recorder must still carry the injection
/// context and replay in cycle order.
#[test]
fn blocked_ejection_trips_watchdog_with_coherent_merged_recorder() {
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let p = RrgParams::new(4, 3, 2);
    let t = PathTable::compute(&g, PathSelection::Ksp(2), &PairSet::AllPairs, 0);
    let flows = [1, 2, 3].map(|src| Flow { src, dst: 0 });
    let pattern = PacketDestinations::from_flows(p.num_hosts(), &flows);
    let mut cfg = SimConfig::paper();
    cfg.warmup_cycles = 0;
    cfg.num_samples = 40;
    cfg.source_queue_cap = 1 << 20;
    for threads in [2usize, 4] {
        let msg = violation_message(|| {
            let mut sim = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::SinglePath,
                pattern.clone(),
                0.5,
                cfg,
                threads,
            )
            .with_auditor(AuditConfig { watchdog_cycles: 300, ring_capacity: 16 });
            sim.audit_block_ejection(0);
            sim.run();
        });
        assert!(msg.contains("audit violation: forward-progress"), "threads={threads}: {msg}");
        assert!(
            msg.contains("no grant, ejection, or drop for 300 cycles"),
            "threads={threads}: {msg}"
        );
        assert!(msg.contains("deadlock/livelock"), "threads={threads}: {msg}");
        assert!(msg.contains("flight recorder (oldest first):"), "threads={threads}: {msg}");
        assert!(msg.contains("inject"), "threads={threads}: {msg}");
        // Coherence: the merged dump's event cycles are nondecreasing —
        // per-shard rings were interleaved by cycle, not concatenated.
        let cycles: Vec<u64> = msg
            .lines()
            .filter_map(|l| {
                let rest = l.trim().strip_prefix('[')?;
                let (n, _) = rest.split_once(']')?;
                n.trim().parse().ok()
            })
            .collect();
        assert!(!cycles.is_empty(), "no recorder lines in {msg}");
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "threads={threads}: merged recorder out of cycle order: {cycles:?}"
        );
    }
}

/// The audited parallel run is byte-identical to the un-audited one
/// (auditing never perturbs) and both match serial, at several thread
/// counts — the parallel analogue of `audited_run_is_byte_identical`.
#[test]
fn audited_parallel_run_is_byte_identical() {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::REdKsp(4), 21);
    let serial =
        Simulator::new(&g, p, &t, None, Mechanism::KspUgal, uniform(&p), 0.3, SimConfig::paper())
            .run();
    for threads in [1usize, 2, 4] {
        let run = |audited: bool| {
            let mut sim = ParallelSimulator::new(
                &g,
                p,
                &t,
                None,
                Mechanism::KspUgal,
                uniform(&p),
                0.3,
                SimConfig::paper(),
                threads,
            );
            if audited {
                sim = sim.with_auditor(AuditConfig::default());
            }
            sim.run()
        };
        let plain = run(false);
        let audited = run(true);
        assert_eq!(plain, audited, "threads={threads}: auditing perturbed the run");
        assert_eq!(plain, serial, "threads={threads}: parallel diverged from serial");
    }
}
