//! Process-to-node mappings.
//!
//! Physical traffic depends on where ranks land: the paper evaluates a
//! *linear* mapping (rank `i` on compute node `i`) and a *random* mapping
//! (ranks shuffled over the nodes).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A process-to-node mapping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Rank `i` runs on compute node `i`.
    Linear,
    /// Ranks are placed on a random permutation of the nodes (seeded).
    Random {
        /// Seed for the placement shuffle.
        seed: u64,
    },
}

impl Mapping {
    /// Paper-style name ("linear" / "random").
    pub fn name(&self) -> &'static str {
        match self {
            Mapping::Linear => "linear",
            Mapping::Random { .. } => "random",
        }
    }

    /// Materializes the rank -> host assignment.
    ///
    /// # Panics
    /// Panics if there are more ranks than hosts.
    pub fn assign(&self, num_ranks: usize, num_hosts: usize) -> Vec<u32> {
        assert!(num_ranks <= num_hosts, "cannot place {num_ranks} ranks on {num_hosts} hosts");
        match self {
            Mapping::Linear => (0..num_ranks as u32).collect(),
            Mapping::Random { seed } => {
                let mut hosts: Vec<u32> = (0..num_hosts as u32).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                hosts.shuffle(&mut rng);
                hosts.truncate(num_ranks);
                hosts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn linear_is_identity() {
        assert_eq!(Mapping::Linear.assign(4, 8), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_is_a_partial_permutation() {
        let a = Mapping::Random { seed: 5 }.assign(50, 64);
        assert_eq!(a.len(), 50);
        let set: HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 50, "hosts must be distinct");
        assert!(a.iter().all(|&h| h < 64));
        assert_ne!(a, Mapping::Linear.assign(50, 64));
    }

    #[test]
    fn random_deterministic_per_seed() {
        let a = Mapping::Random { seed: 7 }.assign(30, 30);
        let b = Mapping::Random { seed: 7 }.assign(30, 30);
        assert_eq!(a, b);
        let c = Mapping::Random { seed: 8 }.assign(30, 30);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_ranks_panics() {
        Mapping::Linear.assign(9, 8);
    }
}
