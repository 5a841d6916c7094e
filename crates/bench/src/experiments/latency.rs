//! Figures 11–13: average packet latency vs. offered load on
//! RRG(720,24,19) for the four path-selection schemes.

use super::selections_k8;
use crate::scale::Scale;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_flitsim::{LoadPoint, SweepConfig};
use jellyfish_routing::PairSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Result of one latency/load figure.
#[derive(Debug, Clone)]
pub struct LatencyFigure {
    /// Topology label.
    pub topology: &'static str,
    /// Traffic pattern label.
    pub pattern: &'static str,
    /// Routing mechanism label.
    pub mechanism: &'static str,
    /// selection name -> curve.
    pub curves: BTreeMap<String, Vec<LoadPoint>>,
}

/// Runs Figure 11 (uniform-random, `random` mechanism), 12 (random
/// permutation, KSP-adaptive) or 13 (random shift, KSP-adaptive).
pub fn figure(which: u8, scale: Scale, seed: u64) -> LatencyFigure {
    // Figure 11 needs an all-pairs path table (uniform traffic); on one
    // core that is minutes of Yen runs for RRG(720,24,19), so quick
    // scale demonstrates the same curves on the paper's small topology.
    let (params, topology) = match (which, scale) {
        (11, Scale::Quick) => (RrgParams::small(), "RRG(36,24,16)"),
        _ => (RrgParams::medium(), "RRG(720,24,19)"),
    };
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let hosts = params.num_hosts();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);

    let (pattern_name, mechanism, dests, pairs): (_, _, _, PairSet) = match which {
        11 => (
            "uniform random",
            Mechanism::Random,
            PacketDestinations::Uniform { num_hosts: hosts },
            PairSet::AllPairs,
        ),
        12 => {
            let flows = random_permutation(hosts, &mut rng);
            let pairs = PairSet::Pairs(switch_pairs(&flows, &params));
            (
                "random permutation",
                Mechanism::KspAdaptive,
                PacketDestinations::from_flows(hosts, &flows),
                pairs,
            )
        }
        13 => {
            let flows = random_shift(hosts, &mut rng);
            let pairs = PairSet::Pairs(switch_pairs(&flows, &params));
            (
                "random shift",
                Mechanism::KspAdaptive,
                PacketDestinations::from_flows(hosts, &flows),
                pairs,
            )
        }
        _ => panic!("latency figures are 11-13"),
    };

    let rates: Vec<f64> = match scale {
        Scale::Quick => vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9],
        Scale::Paper => (1..=19).map(|i| i as f64 * 0.05).collect(),
    };

    let mut curves = BTreeMap::new();
    for sel in selections_k8() {
        let table = net.paths(sel, &pairs, seed ^ 0x88);
        let mut sim = scale.sim_config();
        sim.seed = seed ^ 0x99;
        let cfg = SweepConfig {
            graph: net.graph(),
            params,
            table: &table,
            sp_table: None,
            mechanism,
            faults: None,
            sim,
            threads: 0,
        };
        curves.insert(sel.name(), jellyfish_flitsim::latency_curve(&cfg, &dests, &rates));
    }
    LatencyFigure { topology, pattern: pattern_name, mechanism: mechanism.name(), curves }
}

/// Prints a latency figure as load rows × selection columns (cycles;
/// `sat` once saturated).
pub fn print_latency_figure(fig: &LatencyFigure) {
    println!(
        "Average packet latency vs offered load: {} traffic, {} routing, {}",
        fig.pattern, fig.mechanism, fig.topology
    );
    let sels: Vec<String> = selections_k8().iter().map(|s| s.name()).collect();
    print!("{:<8}", "load");
    for s in &sels {
        print!(" {s:>11}");
    }
    println!();
    let any = fig.curves.values().next().expect("at least one curve");
    for (i, point) in any.iter().enumerate() {
        print!("{:<8.2}", point.offered);
        for s in &sels {
            let p = &fig.curves[s][i];
            if p.result.saturated {
                print!(" {:>11}", "sat");
            } else {
                print!(" {:>11.1}", p.result.avg_latency);
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full figures run on RRG(720,24,19) and are exercised by `jellytool
    // repro`; here we validate the mechanics on a small instance.
    #[test]
    fn latency_curves_have_expected_shape() {
        let params = RrgParams::new(12, 6, 4);
        let net = JellyfishNetwork::build(params, 5).unwrap();
        let table = net.paths(PathSelection::REdKsp(4), &PairSet::AllPairs, 1);
        let dests = PacketDestinations::Uniform { num_hosts: params.num_hosts() };
        let points = net.latency_curve(
            &table,
            None,
            Mechanism::Random,
            &dests,
            &[0.05, 0.3],
            SimConfig::paper(),
        );
        assert_eq!(points.len(), 2);
        assert!(!points[0].result.saturated);
        assert!(points[0].result.avg_latency > 0.0);
    }

    #[test]
    #[should_panic(expected = "latency figures")]
    fn bad_figure_index_panics() {
        figure(14, Scale::Quick, 0);
    }
}
