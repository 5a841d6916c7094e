//! MPI collective communication workloads.
//!
//! The paper's CODES study uses stencil exchanges; real HPC codes also
//! lean on collectives, whose communication is *phased*: every rank must
//! finish phase `p` before phase `p + 1` starts. A collective therefore
//! expands into a sequence of [`Trace`]s, simulated back to back (see
//! `jellyfish_appsim::simulate_phases`).
//!
//! Implemented algorithms (textbook forms):
//!
//! * **ring all-reduce** — `2(n-1)` phases of `m/n` bytes to the next
//!   rank (reduce-scatter followed by all-gather);
//! * **recursive-doubling all-reduce** — `log2(n)` phases of `m` bytes
//!   exchanged with partner `rank XOR 2^p` (`n` must be a power of two);
//! * **ring all-gather** — `n-1` phases of `m/n` bytes to the next rank.

use crate::mapping::Mapping;
use crate::trace::{FlowSpec, Trace};

/// Which collective to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Ring all-reduce: reduce-scatter + all-gather, `2(n-1)` phases.
    RingAllReduce,
    /// Recursive-doubling all-reduce: `log2(n)` full-size exchanges.
    RecursiveDoublingAllReduce,
    /// Ring all-gather: `n-1` phases.
    RingAllGather,
}

impl Collective {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Collective::RingAllReduce => "ring-allreduce",
            Collective::RecursiveDoublingAllReduce => "recdbl-allreduce",
            Collective::RingAllGather => "ring-allgather",
        }
    }

    /// Whether the algorithm is defined for `ranks` participants.
    pub fn supports(&self, ranks: usize) -> bool {
        match self {
            Collective::RecursiveDoublingAllReduce => ranks >= 2 && ranks.is_power_of_two(),
            _ => ranks >= 2,
        }
    }

    /// Number of phases for `ranks` participants.
    pub fn num_phases(&self, ranks: usize) -> usize {
        match self {
            Collective::RingAllReduce => 2 * (ranks - 1),
            Collective::RecursiveDoublingAllReduce => ranks.trailing_zeros() as usize,
            Collective::RingAllGather => ranks - 1,
        }
    }

    /// Rank-level flows of phase `p` for an `m`-byte payload.
    fn phase_flows(&self, ranks: usize, phase: usize, message_bytes: u64) -> Vec<FlowSpec> {
        let n = ranks as u32;
        match self {
            Collective::RingAllReduce | Collective::RingAllGather => {
                // Each phase: rank i sends a 1/n chunk to rank i+1.
                let chunk = message_bytes.div_ceil(ranks as u64);
                (0..n).map(|i| FlowSpec { src: i, dst: (i + 1) % n, bytes: chunk }).collect()
            }
            Collective::RecursiveDoublingAllReduce => {
                let stride = 1u32 << phase;
                (0..n).map(|i| FlowSpec { src: i, dst: i ^ stride, bytes: message_bytes }).collect()
            }
        }
    }

    /// Expands the collective into per-phase [`Trace`]s with ranks placed
    /// on hosts by `mapping`.
    ///
    /// # Panics
    /// Panics if the algorithm does not support `ranks` (see
    /// [`Collective::supports`]).
    pub fn phases(
        &self,
        ranks: usize,
        message_bytes: u64,
        mapping: Mapping,
        num_hosts: usize,
    ) -> Vec<Trace> {
        assert!(self.supports(ranks), "{} undefined for {ranks} ranks", self.name());
        let hosts = mapping.assign(ranks, num_hosts);
        (0..self.num_phases(ranks))
            .map(|p| Trace {
                flows: self
                    .phase_flows(ranks, p, message_bytes)
                    .into_iter()
                    .map(|f| FlowSpec {
                        src: hosts[f.src as usize],
                        dst: hosts[f.dst as usize],
                        bytes: f.bytes,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Total bytes a single rank sends across all phases.
    pub fn bytes_per_rank(&self, ranks: usize, message_bytes: u64) -> u64 {
        match self {
            Collective::RingAllReduce => {
                2 * (ranks as u64 - 1) * message_bytes.div_ceil(ranks as u64)
            }
            Collective::RecursiveDoublingAllReduce => self.num_phases(ranks) as u64 * message_bytes,
            Collective::RingAllGather => (ranks as u64 - 1) * message_bytes.div_ceil(ranks as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counts() {
        assert_eq!(Collective::RingAllReduce.num_phases(8), 14);
        assert_eq!(Collective::RecursiveDoublingAllReduce.num_phases(8), 3);
        assert_eq!(Collective::RingAllGather.num_phases(8), 7);
    }

    #[test]
    fn recursive_doubling_needs_power_of_two() {
        assert!(Collective::RecursiveDoublingAllReduce.supports(16));
        assert!(!Collective::RecursiveDoublingAllReduce.supports(12));
        assert!(Collective::RingAllReduce.supports(12));
    }

    #[test]
    fn ring_phases_send_to_successor() {
        let phases = Collective::RingAllGather.phases(6, 6000, Mapping::Linear, 6);
        assert_eq!(phases.len(), 5);
        for t in &phases {
            assert_eq!(t.flows.len(), 6);
            for f in &t.flows {
                assert_eq!(f.dst, (f.src + 1) % 6);
                assert_eq!(f.bytes, 1000);
            }
        }
    }

    #[test]
    fn recursive_doubling_partners_are_symmetric() {
        let phases = Collective::RecursiveDoublingAllReduce.phases(8, 4096, Mapping::Linear, 8);
        for (p, t) in phases.iter().enumerate() {
            for f in &t.flows {
                assert_eq!(f.src ^ f.dst, 1 << p, "phase {p}: {f:?}");
                assert_eq!(f.bytes, 4096);
                // Partner sends back in the same phase.
                assert!(t.flows.iter().any(|g| g.src == f.dst && g.dst == f.src));
            }
        }
    }

    #[test]
    fn mapping_is_applied() {
        let phases = Collective::RingAllGather.phases(4, 4000, Mapping::Random { seed: 1 }, 16);
        let lin = Collective::RingAllGather.phases(4, 4000, Mapping::Linear, 16);
        assert_ne!(phases[0].flows, lin[0].flows);
        // All hosts must be < 16 and distinct per phase endpoints.
        for f in &phases[0].flows {
            assert!(f.src < 16 && f.dst < 16);
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn bytes_per_rank_accounting() {
        // Ring all-reduce moves ~2m bytes per rank regardless of n.
        let m = 8000u64;
        let b = Collective::RingAllReduce.bytes_per_rank(8, m);
        assert_eq!(b, 14 * 1000);
        let b = Collective::RecursiveDoublingAllReduce.bytes_per_rank(8, m);
        assert_eq!(b, 3 * m);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn unsupported_rank_count_panics() {
        Collective::RecursiveDoublingAllReduce.phases(6, 100, Mapping::Linear, 6);
    }
}
