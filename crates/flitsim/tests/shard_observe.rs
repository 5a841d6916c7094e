//! Non-perturbation contract for observation of sharded runs:
//! attaching the occupancy/credit observer (at any stride) or enabling
//! dense hierarchical tracing must leave the `RunResult` byte-identical
//! to the unobserved one-shard run, and the observer's own report must
//! not depend on the shard count, because the coordinator samples the
//! assembled global credit state at the same top-of-cycle instant.

use jellyfish_flitsim::test_util;
use jellyfish_flitsim::{write_result, Mechanism, RunResult, SimConfig, Simulator};
use jellyfish_routing::{PathSelection, PathTable};
use jellyfish_topology::{Graph, RrgParams};
use jellyfish_traffic::PacketDestinations;
use std::sync::Arc;

fn setup(seed: u64) -> (Arc<Graph>, RrgParams, Arc<PathTable>) {
    let params = RrgParams::new(10, 6, 4);
    let g = test_util::graph(params, seed);
    let table = test_util::all_pairs_table(params, seed, PathSelection::REdKsp(4), seed);
    (g, params, table)
}

fn bytes(r: &RunResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_result(r, &mut buf).expect("serialize result");
    buf
}

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.seed = seed;
    cfg.num_samples = 3;
    cfg
}

/// Observer striding is non-perturbing at every shard count and stride
/// — including stride 1, the densest sampling, which exercises the
/// extra coordinator barrier every single cycle — and the report is
/// the same at every shard count.
#[cfg(feature = "obs")]
#[test]
fn observer_striding_does_not_perturb_sharded_runs() {
    use jellyfish_flitsim::ObserveConfig;
    let (g, p, t) = setup(6);
    let pattern = PacketDestinations::Uniform { num_hosts: p.num_hosts() };
    let run = |threads: usize, stride: Option<u32>| {
        let mut sim =
            Simulator::new(&g, p, &t, None, Mechanism::KspAdaptive, pattern.clone(), 0.2, cfg(6))
                .with_threads(threads);
        if let Some(stride) = stride {
            sim = sim.with_observer(ObserveConfig { stride });
        }
        let result = bytes(&sim.run());
        (result, sim.take_metrics().map(|m| m.to_json()))
    };
    let (reference, _) = run(1, None);
    let (_, reference_metrics) = run(1, Some(16));
    for threads in [1usize, 2, 4] {
        if threads > 1 {
            assert_eq!(
                run(threads, None).0,
                reference,
                "threads={threads}: unobserved run diverged"
            );
        }
        for stride in [1u32, 16, 64] {
            let (observed, metrics) = run(threads, Some(stride));
            assert_eq!(
                observed, reference,
                "threads={threads} stride={stride}: observer perturbed the run"
            );
            // The report itself is shard-count independent: same
            // sampling cycles, same global credit state, same
            // utilization.
            if stride == 16 && threads > 1 {
                assert_eq!(
                    metrics, reference_metrics,
                    "threads={threads}: observer report diverged from one shard"
                );
            }
        }
    }
}

/// Dense tracing (cycle stride 1) of a sharded run: the per-shard spans
/// and the barrier-wait histogram are recorded, and the `RunResult`
/// stays byte-identical to the untraced run. With `obs` off the spans
/// compile away and this degenerates to a determinism check.
#[test]
fn tracing_does_not_perturb_sharded_runs() {
    let (g, p, t) = setup(5);
    let pattern = PacketDestinations::Uniform { num_hosts: p.num_hosts() };
    let run = |threads: usize| {
        Simulator::new(&g, p, &t, None, Mechanism::KspAdaptive, pattern.clone(), 0.2, cfg(5))
            .with_threads(threads)
            .run()
    };
    let baseline = run(3);

    jellyfish_obs::trace::enable(jellyfish_obs::trace::TraceConfig {
        cycle_stride: 1,
        detail_stride: 1, // densest instrumentation = worst case
        ..Default::default()
    });
    let traced = run(3);
    jellyfish_obs::trace::disable();
    let trace = jellyfish_obs::trace::take();

    assert_eq!(bytes(&traced), bytes(&baseline), "tracing changed the sharded outcome");

    #[cfg(feature = "obs")]
    {
        let names: std::collections::BTreeSet<&str> =
            trace.threads.iter().flat_map(|t| t.records.iter().map(|r| r.name)).collect();
        assert!(names.contains("flitsim.shard.cycle"), "missing per-shard spans in {names:?}");
        // The barrier-wait histogram only fills while tracing is on.
        let reg = jellyfish_obs::take_global();
        assert!(
            reg.hists()
                .any(|(name, h)| name == "flitsim.parallel.barrier_wait_ns" && h.count() > 0),
            "barrier-wait histogram not recorded"
        );
    }
    #[cfg(not(feature = "obs"))]
    let _ = trace;
}
