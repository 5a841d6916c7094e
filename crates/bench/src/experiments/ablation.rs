//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! These go beyond the paper's figures: they quantify the sensitivity of
//! the headline results to `k`, to the LLSKR baseline, to the RRG
//! construction method, to UGAL's MIN bias, and to the injection process.

use crate::scale::Scale;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_flitsim::SweepConfig;
use jellyfish_routing::{LlskrConfig, PairSet};
use jellyfish_topology::analysis::estimate_bisection;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ablation over the path count `k` (the paper fixes k = 8 and notes
/// k = 16 also yields full edge-disjointness).
pub fn ablation_k(scale: Scale, seed: u64) {
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10);
    let flows = random_permutation(params.num_hosts(), &mut rng);
    let union: Vec<_> = switch_pairs(&flows, &params);
    println!("Ablation: path count k on RRG(36,24,16), random permutation");
    println!(
        "{:<12} {:>9} {:>11} {:>10} {:>12}",
        "selection", "avg hops", "% disjoint", "max share", "model thpt"
    );
    for k in [4usize, 8, 16] {
        for sel in [PathSelection::Ksp(k), PathSelection::REdKsp(k)] {
            let all = net.paths(sel, &PairSet::AllPairs, seed);
            let p = net.path_properties(&all);
            let sparse = net.paths(sel, &PairSet::Pairs(union.clone()), seed);
            let t = net.model_throughput(&sparse, &flows);
            println!(
                "{:<12} {:>9.2} {:>10.0}% {:>10} {:>12.3}",
                sel.name(),
                p.avg_path_len,
                p.disjoint_pair_fraction * 100.0,
                p.max_link_share,
                t.mean
            );
        }
    }
    let _ = scale; // k-ablation is cheap at any scale
    println!("\nExpected: rEDKSP stays 100% disjoint at every k (y = 16 >> k);");
    println!("larger k lengthens rEDKSP paths slightly while KSP sharing worsens.");
}

/// LLSKR baseline (Yuan et al.) against the paper's selections.
pub fn ablation_llskr(scale: Scale, seed: u64) {
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x20);
    let flows = random_permutation(params.num_hosts(), &mut rng);
    let union = switch_pairs(&flows, &params);
    println!("Ablation: LLSKR baseline on RRG(36,24,16), random permutation");
    println!(
        "{:<20} {:>11} {:>9} {:>11} {:>12}",
        "selection", "paths/pair", "avg hops", "% disjoint", "model thpt"
    );
    let llskr = PathSelection::Llskr(LlskrConfig { spread: 1, min_paths: 2, max_paths: 16 });
    for sel in [PathSelection::Ksp(8), llskr, PathSelection::REdKsp(8)] {
        let all = net.paths(sel, &PairSet::AllPairs, seed);
        let p = net.path_properties(&all);
        let sparse = net.paths(sel, &PairSet::Pairs(union.clone()), seed);
        let t = net.model_throughput(&sparse, &flows);
        println!(
            "{:<20} {:>11.2} {:>9.2} {:>10.0}% {:>12.3}",
            sel.name(),
            p.avg_paths_per_pair,
            p.avg_path_len,
            p.disjoint_pair_fraction * 100.0,
            t.mean
        );
    }
    let _ = scale;
    println!("\nExpected: LLSKR adapts the path count per pair (more short paths");
    println!("than KSP(8) where they exist) but still shares links; rEDKSP wins.");
}

/// RRG construction method: Jellyfish incremental vs. configuration
/// model. The paper asserts different instances behave alike; this
/// checks the two samplers agree on the metrics that matter.
pub fn ablation_construction(seed: u64) {
    println!("Ablation: RRG construction method (metrics per method)");
    println!(
        "{:<16} {:<14} {:>9} {:>9} {:>14}",
        "topology", "method", "avg spl", "diameter", "bisection est."
    );
    for (name, params) in
        [("RRG(36,24,16)", RrgParams::small()), ("RRG(144,24,19)", RrgParams::new(144, 24, 19))]
    {
        for (mname, method) in [
            ("incremental", ConstructionMethod::Incremental),
            ("pairing", ConstructionMethod::PairingModel),
        ] {
            let net = JellyfishNetwork::build_with(params, method, seed).expect("topology builds");
            let s = net.stats();
            let b = estimate_bisection(net.graph(), 5, seed ^ 0x30);
            println!(
                "{:<16} {:<14} {:>9.3} {:>9} {:>8} edges",
                name, mname, s.avg_shortest_path_len, s.diameter, b.min_cut_edges
            );
        }
    }
    println!("\nExpected: both samplers give statistically indistinguishable");
    println!("path lengths, diameters and bisection estimates.");
}

/// UGAL MIN-bias sweep (the paper sets bias = 0).
pub fn ablation_ugal_bias(scale: Scale, seed: u64) {
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let table = net.paths(PathSelection::REdKsp(8), &PairSet::AllPairs, seed);
    let pattern = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
    println!("Ablation: UGAL MIN bias, KSP-UGAL over rEDKSP(8), uniform random");
    println!("{:<10} {:>12}", "bias", "saturation");
    for bias in [0i64, 50, 200, 1000, 100_000] {
        let mut sim = scale.sim_config();
        sim.ugal_bias = bias;
        sim.seed = seed;
        let cfg = SweepConfig {
            graph: net.graph(),
            params,
            table: &table,
            sp_table: None,
            mechanism: Mechanism::KspUgal,
            faults: None,
            sim,
            threads: 0,
        };
        let sat =
            jellyfish_flitsim::saturation_throughput(&cfg, &pattern, scale.saturation_resolution());
        println!("{bias:<10} {sat:>12.3}");
    }
    println!("\nExpected: large MIN bias degenerates KSP-UGAL toward single-path");
    println!("routing and costs saturation throughput; bias 0 (the paper) is best.");
}

/// Estimate-form comparison: the physical queue-plus-hop-latency
/// estimate (default) against the classic queue-times-hops UGAL product.
/// With the product form, KSP-UGAL's anchored minimal path wins; with
/// the physical form, KSP-adaptive's two-choice balancing wins — the
/// paper's reported ordering.
pub fn ablation_estimate(scale: Scale, seed: u64) {
    use jellyfish_flitsim::config::EstimateForm;
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let table = net.paths(PathSelection::REdKsp(8), &PairSet::AllPairs, seed);
    let pattern = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
    println!("Ablation: adaptive latency-estimate form over rEDKSP(8), uniform random");
    println!("{:<22} {:>12} {:>14}", "estimate", "KSP-UGAL", "KSP-adaptive");
    for (name, form) in [
        ("queue+hop-latency", EstimateForm::QueuePlusHopLatency),
        ("queue*hops", EstimateForm::QueueTimesHops),
    ] {
        print!("{name:<22}");
        for mech in [Mechanism::KspUgal, Mechanism::KspAdaptive] {
            let mut sim = scale.sim_config();
            sim.estimate = form;
            sim.seed = seed;
            let cfg = SweepConfig {
                graph: net.graph(),
                params,
                table: &table,
                sp_table: None,
                mechanism: mech,
                faults: None,
                sim,
                threads: 0,
            };
            let sat = jellyfish_flitsim::saturation_throughput(
                &cfg,
                &pattern,
                scale.saturation_resolution(),
            );
            print!(" {sat:>12.3}");
        }
        println!();
    }
    println!("\nExpected: the product form favors KSP-UGAL; the physical form lets");
    println!("KSP-adaptive's two-choice balancing pull ahead (the paper's result).");
}

/// Injection-process comparison at a fixed load.
pub fn ablation_injection(scale: Scale, seed: u64) {
    use jellyfish_flitsim::config::InjectionProcess;
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let table = net.paths(PathSelection::REdKsp(8), &PairSet::AllPairs, seed);
    let pattern = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
    println!("Ablation: injection process, random routing over rEDKSP(8)");
    println!("{:<12} {:>8} {:>12} {:>10}", "process", "load", "avg latency", "accepted");
    for process in [InjectionProcess::Bernoulli, InjectionProcess::Periodic] {
        for load in [0.2, 0.5, 0.8] {
            let mut sim = scale.sim_config();
            sim.injection = process;
            sim.seed = seed;
            let r = net.simulate(&table, None, Mechanism::Random, &pattern, load, sim);
            println!(
                "{:<12} {:>8.1} {:>12.1} {:>10.3}",
                format!("{process:?}"),
                load,
                r.avg_latency,
                r.accepted
            );
        }
    }
    println!("\nExpected: periodic pacing trims queueing latency at equal load");
    println!("(Bernoulli burstiness costs a few cycles) without changing accepted");
    println!("throughput below saturation.");
}

/// Packet-size ablation: saturation throughput as packets grow from the
/// paper's single flit to multi-flit (channels serialize F cycles per
/// packet, so packet-rate capacity scales as 1/F).
pub fn ablation_flits(scale: Scale, seed: u64) {
    let params = RrgParams::small();
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let table = net.paths(PathSelection::REdKsp(8), &PairSet::AllPairs, seed);
    let pattern = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
    println!("Ablation: packet size, KSP-adaptive over rEDKSP(8), uniform random");
    println!("{:<8} {:>14} {:>20}", "flits", "sat (pkts)", "sat x flits (flits)");
    for flits in [1u16, 2, 4] {
        let mut sim = scale.sim_config();
        sim.packet_flits = flits;
        sim.seed = seed;
        let cfg = SweepConfig {
            graph: net.graph(),
            params,
            table: &table,
            sp_table: None,
            mechanism: Mechanism::KspAdaptive,
            faults: None,
            sim,
            threads: 0,
        };
        let sat =
            jellyfish_flitsim::saturation_throughput(&cfg, &pattern, scale.saturation_resolution());
        println!("{flits:<8} {sat:>14.3} {:>20.3}", sat * flits as f64);
    }
    println!("\nExpected: packet saturation rate scales ~1/flits while the flit");
    println!("rate (sat x flits) stays roughly constant — the channels, not the");
    println!("routing, are the binding resource.");
}
