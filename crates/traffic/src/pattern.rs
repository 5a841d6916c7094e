//! Host-level traffic patterns.
//!
//! A *flow* is an ordered host pair. Pattern generators build the flow
//! lists used by the throughput model (paper Figures 4–6); the
//! [`PacketDestinations`] sampler provides per-packet destinations for the
//! cycle-level simulator (random permutation / shift pick a fixed partner,
//! uniform-random draws a fresh destination per packet).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// One host-to-host flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    /// Source host (compute node) id.
    pub src: u32,
    /// Destination host id.
    pub dst: u32,
}

/// Random permutation: every host sends to exactly one other host and
/// receives from exactly one (a derangement-like permutation; fixed points
/// are filtered out, so hosts mapped to themselves simply stay silent, as
/// in the paper's "each node communicates with **at most** one node").
pub fn random_permutation(num_hosts: usize, rng: &mut StdRng) -> Vec<Flow> {
    let mut perm: Vec<u32> = (0..num_hosts as u32).collect();
    perm.shuffle(rng);
    perm.iter()
        .enumerate()
        .filter(|&(src, &dst)| src as u32 != dst)
        .map(|(src, &dst)| Flow { src: src as u32, dst })
        .collect()
}

/// Shift-N: host `i` sends to host `(i + n) mod num_hosts`.
pub fn shift(num_hosts: usize, n: usize) -> Vec<Flow> {
    assert!(num_hosts > 0, "shift needs at least one host");
    (0..num_hosts as u32)
        .map(|src| Flow { src, dst: ((src as usize + n) % num_hosts) as u32 })
        .filter(|f| f.src != f.dst)
        .collect()
}

/// Random shift: a shift-N pattern with `n` drawn uniformly from
/// `1..num_hosts`.
pub fn random_shift(num_hosts: usize, rng: &mut StdRng) -> Vec<Flow> {
    assert!(num_hosts > 1, "random shift needs at least two hosts");
    let n = rng.random_range(1..num_hosts);
    shift(num_hosts, n)
}

/// Random(X): every host sends to `x` distinct random other hosts.
pub fn random_x(num_hosts: usize, x: usize, rng: &mut StdRng) -> Vec<Flow> {
    assert!(x < num_hosts, "Random(X) needs X < number of hosts ({x} >= {num_hosts})");
    let mut flows = Vec::with_capacity(num_hosts * x);
    let mut chosen = vec![u32::MAX; num_hosts]; // generation-stamped marker
    for src in 0..num_hosts as u32 {
        let mut picked = 0;
        while picked < x {
            let dst = rng.random_range(0..num_hosts as u32);
            if dst == src || chosen[dst as usize] == src {
                continue;
            }
            chosen[dst as usize] = src;
            flows.push(Flow { src, dst });
            picked += 1;
        }
    }
    flows
}

/// All-to-all: every ordered host pair.
pub fn all_to_all(num_hosts: usize) -> Vec<Flow> {
    let mut flows = Vec::with_capacity(num_hosts * num_hosts.saturating_sub(1));
    for src in 0..num_hosts as u32 {
        for dst in 0..num_hosts as u32 {
            if src != dst {
                flows.push(Flow { src, dst });
            }
        }
    }
    flows
}

/// Per-packet destination sampling for the cycle-level simulator.
#[derive(Debug, Clone)]
pub enum PacketDestinations {
    /// Every packet draws a uniformly random destination (excluding the
    /// source host).
    Uniform {
        /// Total number of hosts.
        num_hosts: usize,
    },
    /// Each source has a fixed destination (permutation / shift patterns);
    /// `None` means the host does not inject.
    Fixed(Vec<Option<u32>>),
}

impl PacketDestinations {
    /// Builds the fixed-destination table from a flow list where each
    /// source appears at most once.
    ///
    /// # Panics
    /// Panics if a source appears in two flows (not a single-destination
    /// pattern).
    pub fn from_flows(num_hosts: usize, flows: &[Flow]) -> Self {
        let mut table = vec![None; num_hosts];
        for f in flows {
            assert!(
                table[f.src as usize].is_none(),
                "host {} has multiple destinations; not a per-packet pattern",
                f.src
            );
            table[f.src as usize] = Some(f.dst);
        }
        PacketDestinations::Fixed(table)
    }

    /// Destination for the next packet from `src`, or `None` if `src`
    /// does not inject under this pattern.
    #[inline]
    pub fn sample(&self, src: u32, rng: &mut StdRng) -> Option<u32> {
        match self {
            PacketDestinations::Uniform { num_hosts } => {
                debug_assert!(*num_hosts > 1);
                let mut d = rng.random_range(0..*num_hosts as u32 - 1);
                if d >= src {
                    d += 1; // skip self
                }
                Some(d)
            }
            PacketDestinations::Fixed(table) => table[src as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn permutation_is_one_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let flows = random_permutation(100, &mut rng);
        let srcs: HashSet<_> = flows.iter().map(|f| f.src).collect();
        let dsts: HashSet<_> = flows.iter().map(|f| f.dst).collect();
        assert_eq!(srcs.len(), flows.len());
        assert_eq!(dsts.len(), flows.len());
        assert!(flows.iter().all(|f| f.src != f.dst));
        assert!(flows.len() >= 97, "at most a few fixed points expected");
    }

    #[test]
    fn shift_wraps_around() {
        let flows = shift(10, 3);
        assert_eq!(flows.len(), 10);
        assert!(flows.iter().all(|f| f.dst == (f.src + 3) % 10));
    }

    #[test]
    fn shift_zero_is_silent() {
        assert!(shift(10, 0).is_empty());
        assert!(shift(10, 10).is_empty());
    }

    #[test]
    fn random_shift_is_a_shift() {
        let mut rng = StdRng::seed_from_u64(1);
        let flows = random_shift(50, &mut rng);
        assert_eq!(flows.len(), 50);
        let n = (flows[0].dst + 50 - flows[0].src) % 50;
        assert!(n > 0);
        assert!(flows.iter().all(|f| (f.dst + 50 - f.src) % 50 == n));
    }

    #[test]
    fn random_x_degree_and_distinctness() {
        let mut rng = StdRng::seed_from_u64(2);
        let flows = random_x(40, 5, &mut rng);
        assert_eq!(flows.len(), 40 * 5);
        for src in 0..40u32 {
            let dsts: Vec<_> = flows.iter().filter(|f| f.src == src).map(|f| f.dst).collect();
            assert_eq!(dsts.len(), 5);
            let set: HashSet<_> = dsts.iter().collect();
            assert_eq!(set.len(), 5, "destinations must be distinct");
            assert!(!dsts.contains(&src));
        }
    }

    #[test]
    fn all_to_all_counts() {
        let flows = all_to_all(6);
        assert_eq!(flows.len(), 30);
        let set: HashSet<_> = flows.iter().collect();
        assert_eq!(set.len(), 30);
    }

    #[test]
    fn uniform_sampler_never_self() {
        let s = PacketDestinations::Uniform { num_hosts: 8 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = HashSet::new();
        for _ in 0..400 {
            let d = s.sample(3, &mut rng).unwrap();
            assert_ne!(d, 3);
            assert!(d < 8);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 7, "all other hosts should be hit");
    }

    #[test]
    fn fixed_sampler_follows_flows() {
        let flows = vec![Flow { src: 0, dst: 2 }, Flow { src: 1, dst: 0 }];
        let s = PacketDestinations::from_flows(4, &flows);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(s.sample(0, &mut rng), Some(2));
        assert_eq!(s.sample(1, &mut rng), Some(0));
        assert_eq!(s.sample(3, &mut rng), None);
    }

    #[test]
    #[should_panic(expected = "multiple destinations")]
    fn fixed_sampler_rejects_multi_dest() {
        let flows = vec![Flow { src: 0, dst: 1 }, Flow { src: 0, dst: 2 }];
        PacketDestinations::from_flows(4, &flows);
    }

    #[test]
    fn generators_deterministic_per_seed() {
        let a = random_permutation(64, &mut StdRng::seed_from_u64(9));
        let b = random_permutation(64, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = random_x(64, 3, &mut StdRng::seed_from_u64(9));
        let d = random_x(64, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(c, d);
    }
}
