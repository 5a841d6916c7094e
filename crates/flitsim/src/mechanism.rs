//! Routing mechanisms (paper Section III-B).
//!
//! Given the `k` precomputed paths of a source/destination pair, the
//! mechanism picks the path for each packet at injection time:
//!
//! * `SinglePath` — always the first (shortest) path;
//! * `Random` — a uniformly random path;
//! * `RoundRobin` — the pair's paths in rotation;
//! * `VanillaUgal` — classic UGAL: compare the minimal path against a
//!   valiant path through a random intermediate switch (both legs are
//!   shortest paths) by estimated latency, no MIN/VLB bias;
//! * `KspUgal` — UGAL with the non-minimal candidates restricted to the
//!   KSP set: minimal = path 0, non-minimal = a random other table path;
//! * `KspAdaptive` — the paper's proposal: sample two random paths from
//!   the table and take the one with the smaller estimated latency.
//!
//! The latency estimate is the classic UGAL-L local form: occupancy of the
//! candidate's first-hop output (downstream buffer fill, derived from
//! credits) multiplied by the path hop count.

/// Which routing mechanism chooses a packet's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Always route on the first (shortest) path.
    SinglePath,
    /// Uniformly random path from the table.
    Random,
    /// The pair's paths in round-robin order.
    RoundRobin,
    /// Classic UGAL over minimal + valiant paths.
    VanillaUgal,
    /// UGAL restricted to the KSP path set.
    KspUgal,
    /// The paper's KSP-adaptive: best of two random table paths.
    KspAdaptive,
}

impl Mechanism {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::SinglePath => "SP",
            Mechanism::Random => "random",
            Mechanism::RoundRobin => "round-robin",
            Mechanism::VanillaUgal => "UGAL",
            Mechanism::KspUgal => "KSP-UGAL",
            Mechanism::KspAdaptive => "KSP-adaptive",
        }
    }

    /// Whether valiant (intermediate-switch) paths are used, requiring an
    /// all-pairs shortest-path table.
    pub fn needs_sp_table(&self) -> bool {
        matches!(self, Mechanism::VanillaUgal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_classes() {
        assert_eq!(Mechanism::KspAdaptive.name(), "KSP-adaptive");
        assert!(Mechanism::VanillaUgal.needs_sp_table());
        assert!(!Mechanism::KspUgal.needs_sp_table());
    }
}
