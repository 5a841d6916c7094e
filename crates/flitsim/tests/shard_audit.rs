//! The per-cycle invariant auditor at any shard count: the same
//! verdicts — same invariant, cycle and offending resource — as the
//! diagnostics pinned in `fixtures/audit_diagnostics_v1.txt`, which one
//! shard reproduces byte for byte; a merged flight-recorder dump that
//! reads as one cycle-ordered timeline even though each shard records
//! into its own ring; and audited runs byte-identical to plain ones.
#![cfg(feature = "audit")]

use jellyfish_flitsim::test_util;
use jellyfish_flitsim::{AuditConfig, Mechanism, SimConfig, Simulator};
use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{Graph, RrgParams};
use jellyfish_traffic::{Flow, PacketDestinations};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DIAGNOSTICS: &str = include_str!("fixtures/audit_diagnostics_v1.txt");

fn uniform(p: &RrgParams) -> PacketDestinations {
    PacketDestinations::Uniform { num_hosts: p.num_hosts() }
}

/// Runs to the violation and returns the structured panic payload.
fn violation_message(run: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must violate");
    err.downcast_ref::<String>().expect("structured panic payload").clone()
}

/// The three seeded violations the diagnostics fixture pins, each run
/// to its panic at `threads` shards: a corrupted credit, a corrupted
/// router-load counter, and a blocked ejection port that clogs a ring
/// until the forward-progress watchdog fires.
fn seeded_violations(threads: usize) -> Vec<(&'static str, String)> {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::Ksp(4), 21);
    let mesh = || {
        Simulator::new(&g, p, &t, None, Mechanism::Random, uniform(&p), 0.1, SimConfig::paper())
            .with_threads(threads)
            .with_auditor(AuditConfig::default())
    };
    let mut credit = mesh();
    credit.audit_corrupt_credit(3, 0);
    let mut load = mesh();
    load.audit_corrupt_router_load(7);

    let ring = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let ring_p = RrgParams::new(4, 3, 2);
    let ring_t = PathTable::compute(&ring, PathSelection::Ksp(2), &PairSet::AllPairs, 0);
    let flows = [1, 2, 3].map(|src| Flow { src, dst: 0 });
    let converge = PacketDestinations::from_flows(ring_p.num_hosts(), &flows);
    let mut cfg = SimConfig::paper();
    cfg.warmup_cycles = 0;
    cfg.num_samples = 40; // room for the clog plus the watchdog budget
    cfg.source_queue_cap = 1 << 20; // overflow must not preempt the verdict
    let mut blocked =
        Simulator::new(&ring, ring_p, &ring_t, None, Mechanism::SinglePath, converge, 0.5, cfg)
            .with_threads(threads)
            .with_auditor(AuditConfig { watchdog_cycles: 300, ring_capacity: 16 });
    blocked.audit_block_ejection(0);

    [("corrupted-credit", credit), ("corrupted-router-load", load), ("blocked-ejection", blocked)]
        .into_iter()
        .map(|(name, mut sim)| {
            (
                name,
                violation_message(|| {
                    sim.run();
                }),
            )
        })
        .collect()
}

fn render_diagnostics(cases: &[(&str, String)]) -> String {
    let mut out = String::from("jellyfish-audit-diagnostics v1\n");
    for (name, msg) in cases {
        out.push_str(&format!("case {name}\n{msg}\nend\n"));
    }
    out
}

/// Verdict and detail line of each case: invariant, cycle, offending
/// resource and counts.
fn headlines(doc: &str) -> Vec<&str> {
    let lines: Vec<&str> = doc.lines().collect();
    (0..lines.len())
        .filter(|&i| lines[i].starts_with("audit violation: "))
        .flat_map(|i| lines[i..i + 2].iter().copied())
        .collect()
}

/// Cycles of the flight-recorder lines of one diagnostic, in dump order.
fn recorder_cycles(msg: &str) -> Vec<u64> {
    msg.lines()
        .filter_map(|l| {
            let rest = l.trim().strip_prefix('[')?;
            let (n, _) = rest.split_once(']')?;
            n.trim().parse().ok()
        })
        .collect()
}

/// One shard reproduces the pinned diagnostics, flight recorder
/// included, byte for byte. More shards reach the same verdict and
/// detail lines; only the recorded packet ids differ, since each shard's
/// arena numbers its own packets. Their merged recorder must still read
/// in cycle order: per-shard rings are interleaved by cycle, not
/// concatenated.
#[test]
fn seeded_violations_match_the_diagnostics_fixture() {
    assert_eq!(headlines(DIAGNOSTICS).len(), 6, "three cases");
    assert_eq!(render_diagnostics(&seeded_violations(1)), DIAGNOSTICS, "one shard");
    for threads in [2usize, 4, 8] {
        let cases = seeded_violations(threads);
        let doc = render_diagnostics(&cases);
        assert_eq!(headlines(&doc), headlines(DIAGNOSTICS), "threads={threads}");
        let (_, blocked) = &cases[2];
        assert!(blocked.contains("inject"), "threads={threads}: {blocked}");
        let cycles = recorder_cycles(blocked);
        assert!(!cycles.is_empty(), "no recorder lines in {blocked}");
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "threads={threads}: merged recorder out of cycle order: {cycles:?}"
        );
    }
}

/// An audited run is byte-identical to the plain one (auditing never
/// perturbs), and both are the same at every shard count.
#[test]
fn audited_runs_are_byte_identical_at_any_shard_count() {
    let p = RrgParams::new(12, 6, 4);
    let g = test_util::graph(p, 21);
    let t = test_util::all_pairs_table(p, 21, PathSelection::REdKsp(4), 21);
    let run = |threads: usize, audited: bool| {
        let mut sim = Simulator::new(
            &g,
            p,
            &t,
            None,
            Mechanism::KspUgal,
            uniform(&p),
            0.3,
            SimConfig::paper(),
        )
        .with_threads(threads);
        if audited {
            sim = sim.with_auditor(AuditConfig::default());
        }
        sim.run()
    };
    let plain = run(1, false);
    for threads in [1usize, 2, 4] {
        assert_eq!(run(threads, true), plain, "threads={threads}: audited run diverged");
        if threads > 1 {
            assert_eq!(run(threads, false), plain, "threads={threads}: plain run diverged");
        }
    }
}
