//! Classic synthetic traffic patterns from the interconnection-network
//! literature (the standard Booksim suite).
//!
//! The paper's evaluation uses permutation / shift / Random(X) /
//! all-to-all / uniform; these additional deterministic permutations
//! (bit-complement, transpose, bit-reverse, tornado, neighbor, hotspot)
//! round out the library for ablations and for users bringing their own
//! workloads — they are the patterns any Booksim-replacement is expected
//! to speak.

use crate::pattern::Flow;

/// A deterministic synthetic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticPattern {
    /// `dst = N - 1 - src` (generalized bit-complement; equals the
    /// classic bit-complement when `N` is a power of two).
    BitComplement,
    /// View `src` as a 2-digit base-`m` number (`N = m^2`) and swap the
    /// digits: `dst = (src mod m) * m + src div m`.
    Transpose,
    /// Reverse the `b` address bits (`N = 2^b`).
    BitReverse,
    /// `dst = (src + ceil(N/2) - 1) mod N` — the adversarial tornado
    /// pattern.
    Tornado,
    /// `dst = (src + 1) mod N`.
    Neighbor,
    /// Every host sends to one hot node.
    Hotspot {
        /// The hot destination.
        target: u32,
    },
}

impl SyntheticPattern {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            SyntheticPattern::BitComplement => "bit-complement".into(),
            SyntheticPattern::Transpose => "transpose".into(),
            SyntheticPattern::BitReverse => "bit-reverse".into(),
            SyntheticPattern::Tornado => "tornado".into(),
            SyntheticPattern::Neighbor => "neighbor".into(),
            SyntheticPattern::Hotspot { target } => format!("hotspot({target})"),
        }
    }

    /// Whether the pattern is defined for `num_hosts`.
    pub fn supports(&self, num_hosts: usize) -> bool {
        match self {
            SyntheticPattern::Transpose => {
                let m = (num_hosts as f64).sqrt().round() as usize;
                m * m == num_hosts
            }
            SyntheticPattern::BitReverse => num_hosts >= 2 && num_hosts.is_power_of_two(),
            SyntheticPattern::Hotspot { target } => (*target as usize) < num_hosts,
            _ => num_hosts >= 2,
        }
    }

    /// Destination of `src` under this pattern.
    ///
    /// # Panics
    /// Panics if the pattern does not support `num_hosts` (check with
    /// [`SyntheticPattern::supports`]).
    pub fn destination(&self, src: u32, num_hosts: usize) -> u32 {
        assert!(self.supports(num_hosts), "{} undefined for {num_hosts} hosts", self.name());
        let n = num_hosts as u32;
        match self {
            SyntheticPattern::BitComplement => n - 1 - src,
            SyntheticPattern::Transpose => {
                let m = (num_hosts as f64).sqrt().round() as u32;
                (src % m) * m + src / m
            }
            SyntheticPattern::BitReverse => {
                let bits = num_hosts.trailing_zeros();
                src.reverse_bits() >> (32 - bits)
            }
            SyntheticPattern::Tornado => (src + n.div_ceil(2) - 1) % n,
            SyntheticPattern::Neighbor => (src + 1) % n,
            SyntheticPattern::Hotspot { target } => *target,
        }
    }

    /// The full flow list (self-flows dropped, as in the other
    /// generators).
    pub fn flows(&self, num_hosts: usize) -> Vec<Flow> {
        (0..num_hosts as u32)
            .map(|src| Flow { src, dst: self.destination(src, num_hosts) })
            .filter(|f| f.src != f.dst)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn bit_complement_is_an_involution() {
        let p = SyntheticPattern::BitComplement;
        for n in [8usize, 10, 64, 100] {
            for src in 0..n as u32 {
                let d = p.destination(src, n);
                assert_eq!(p.destination(d, n), src);
            }
        }
    }

    #[test]
    fn transpose_requires_square_and_transposes() {
        let p = SyntheticPattern::Transpose;
        assert!(p.supports(16));
        assert!(!p.supports(15));
        // 16 hosts = 4x4: host 1 = (0,1) -> (1,0) = 4.
        assert_eq!(p.destination(1, 16), 4);
        assert_eq!(p.destination(4, 16), 1);
        // Involution on the full set.
        for src in 0..16 {
            assert_eq!(p.destination(p.destination(src, 16), 16), src);
        }
    }

    #[test]
    fn bit_reverse_power_of_two_only() {
        let p = SyntheticPattern::BitReverse;
        assert!(p.supports(16));
        assert!(!p.supports(12));
        assert!(!p.supports(1), "degenerate size would shift-overflow");
        assert_eq!(p.destination(0b0001, 16), 0b1000);
        assert_eq!(p.destination(0b1010, 16), 0b0101);
        for src in 0..16 {
            assert_eq!(p.destination(p.destination(src, 16), 16), src);
        }
    }

    #[test]
    fn tornado_and_neighbor_are_shifts() {
        assert_eq!(SyntheticPattern::Tornado.destination(0, 10), 4);
        assert_eq!(SyntheticPattern::Neighbor.destination(9, 10), 0);
        // Both are permutations.
        for p in [SyntheticPattern::Tornado, SyntheticPattern::Neighbor] {
            let dsts: HashSet<u32> = (0..10).map(|s| p.destination(s, 10)).collect();
            assert_eq!(dsts.len(), 10);
        }
    }

    #[test]
    fn hotspot_concentrates() {
        let p = SyntheticPattern::Hotspot { target: 3 };
        let flows = p.flows(8);
        assert_eq!(flows.len(), 7); // host 3 does not send to itself
        assert!(flows.iter().all(|f| f.dst == 3));
        assert!(!SyntheticPattern::Hotspot { target: 9 }.supports(8));
    }

    #[test]
    fn permutation_patterns_have_no_collisions() {
        for p in [
            SyntheticPattern::BitComplement,
            SyntheticPattern::Transpose,
            SyntheticPattern::BitReverse,
            SyntheticPattern::Tornado,
        ] {
            let flows = p.flows(16);
            let dsts: HashSet<u32> = flows.iter().map(|f| f.dst).collect();
            assert_eq!(dsts.len(), flows.len(), "{} collides", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn unsupported_size_panics() {
        SyntheticPattern::BitReverse.destination(0, 12);
    }
}
