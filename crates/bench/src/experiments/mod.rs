//! One module per paper artifact (tables I–VI, figures 4–13).

pub mod ablation;
pub mod collective;
pub mod faults;
pub mod latency;
pub mod model;
pub mod properties;
pub mod saturation;
pub mod stencil;

use jellyfish::prelude::*;
use jellyfish_routing::PairSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three topologies of Table I.
pub fn paper_topologies() -> [(&'static str, RrgParams); 3] {
    [
        ("RRG(36,24,16)", RrgParams::small()),
        ("RRG(720,24,19)", RrgParams::medium()),
        ("RRG(2880,48,38)", RrgParams::large()),
    ]
}

/// The four path-selection schemes compared throughout the paper (k = 8).
pub fn selections_k8() -> [PathSelection; 4] {
    [
        PathSelection::Ksp(8),
        PathSelection::RKsp(8),
        PathSelection::EdKsp(8),
        PathSelection::REdKsp(8),
    ]
}

/// Samples `count` distinct ordered switch pairs (without replacement in
/// expectation; duplicates are deduped by `PairSet`).
pub fn sample_pairs(switches: usize, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let s = rng.random_range(0..switches as u32);
        let d = rng.random_range(0..switches as u32);
        if s != d {
            pairs.push((s, d));
        }
    }
    pairs
}

/// Pair set for property measurements: all pairs, or a seeded sample for
/// big topologies.
pub fn property_pairs(params: &RrgParams, sample: Option<usize>, seed: u64) -> PairSet {
    match sample {
        None => PairSet::AllPairs,
        Some(count) => PairSet::Pairs(sample_pairs(params.switches, count, seed)),
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(frac: f64) -> String {
    format!("{:.0}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_pairs_are_valid() {
        let pairs = sample_pairs(10, 50, 1);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|&(s, d)| s != d && s < 10 && d < 10));
    }

    #[test]
    fn selection_list_matches_paper() {
        let names: Vec<String> = selections_k8().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["KSP(8)", "rKSP(8)", "EDKSP(8)", "rEDKSP(8)"]);
    }
}
