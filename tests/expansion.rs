//! Integration tests for incremental expansion: the Jellyfish grow
//! procedure on the topology side, the recable plan's replay and
//! serialization contract, and the routing table's grow-and-repair
//! path against a fresh rebuild.

use jellyfish_routing::{PairSet, PathSelection, PathTable};
use jellyfish_topology::{
    build_rrg, expand_rrg, read_recable_plan, write_recable_plan, ConstructionMethod, RecableOp,
    RrgParams,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Valid, quick-to-build RRG instances plus an expansion size.
fn expandable_rrg() -> impl Strategy<Value = (RrgParams, u64, usize)> {
    (6usize..20, 3usize..8, any::<u64>(), 1usize..6).prop_filter_map(
        "valid RRG parameters",
        |(n, y, seed, added)| {
            // Both the base and the grown fabric need an even port sum.
            if y >= n || (n * y) % 2 != 0 || ((n + added) * y) % 2 != 0 {
                return None;
            }
            Some((RrgParams::new(n, y + 2, y), seed, added))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grown fabric stays `y`-regular and connected, gains exactly
    /// the requested switches, and the recabling stays within the
    /// Jellyfish bound of `⌈y/2⌉` removed links per added switch.
    #[test]
    fn expansion_preserves_regularity_and_connectivity(
        (params, seed, added) in expandable_rrg(),
    ) {
        let base = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let (grown, grown_params, plan) =
            expand_rrg(&base, params, added, seed ^ 0xE0).unwrap();
        let y = params.network_ports;
        prop_assert_eq!(grown.num_nodes(), params.switches + added);
        prop_assert_eq!(grown_params.switches, params.switches + added);
        prop_assert!(grown.is_regular(y));
        prop_assert!(grown.is_connected());
        prop_assert!(
            plan.num_removed() <= added * y.div_ceil(2),
            "{} removals exceed the {} bound", plan.num_removed(), added * y.div_ceil(2),
        );
        // Every surviving base edge is untouched: expansion only removes
        // the edges named in the plan.
        let removed: HashSet<_> = plan.removed_edges().into_iter().collect();
        for (u, v) in base.edges() {
            prop_assert_eq!(grown.has_edge(u, v), !removed.contains(&(u, v)));
        }
    }

    /// Replaying the plan against the base graph reproduces the grown
    /// graph exactly, and the plan survives a serialization round trip
    /// — growth is reproducible from `(base, plan)` alone.
    #[test]
    fn recable_plan_replays_and_round_trips(
        (params, seed, added) in expandable_rrg(),
    ) {
        let base = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let (grown, _, plan) = expand_rrg(&base, params, added, seed ^ 0xE0).unwrap();
        prop_assert_eq!(plan.apply(&base).unwrap(), grown.clone());

        let mut text = Vec::new();
        write_recable_plan(&plan, &mut text).unwrap();
        let back = read_recable_plan(text.as_slice()).unwrap();
        prop_assert_eq!(back.clone(), plan);
        prop_assert_eq!(back.apply(&base).unwrap(), grown);
    }

    /// Grow-and-repair versus fresh rebuild: every repaired pair (routes
    /// that crossed a recabled link, plus all pairs touching the new
    /// switches) ends up byte-identical to a fresh all-pairs compute on
    /// the grown fabric, and every untouched route is still walkable.
    #[test]
    fn extended_table_matches_fresh_compute_on_repaired_pairs(
        (params, seed, added) in expandable_rrg(),
        k in 1usize..4,
    ) {
        let base = build_rrg(params, ConstructionMethod::Incremental, seed).unwrap();
        let table = PathTable::compute(&base, PathSelection::EdKsp(k), &PairSet::AllPairs, seed);
        let (grown, _, plan) = expand_rrg(&base, params, added, seed ^ 0xE0).unwrap();
        let removed: HashSet<_> = plan.removed_edges().into_iter().collect();

        let mut extended = table.clone();
        let report = extended.extend(&grown, &plan.removed_edges(), seed);
        let fresh = PathTable::compute(&grown, PathSelection::EdKsp(k), &PairSet::AllPairs, seed);

        let old_n = base.num_nodes() as u32;
        let new_n = grown.num_nodes() as u32;
        prop_assert_eq!(
            report.new_pairs as u32,
            new_n * (new_n - 1) - old_n * (old_n - 1),
        );
        for s in 0..new_n {
            for d in 0..new_n {
                if s == d {
                    continue;
                }
                let e = extended.get(s, d).unwrap();
                for i in 0..e.len() {
                    let path = e.path(i);
                    prop_assert_eq!(path.first(), Some(&s));
                    prop_assert_eq!(path.last(), Some(&d));
                    for w in path.windows(2) {
                        prop_assert!(grown.has_edge(w[0], w[1]), "stale edge survived repair");
                    }
                }
                let crossed_removed = (s < old_n && d < old_n)
                    && (0..table.get(s, d).unwrap().len()).any(|i| {
                        table.get(s, d).unwrap().path(i).windows(2).any(|w| {
                            removed.contains(&(w[0].min(w[1]), w[0].max(w[1])))
                        })
                    });
                if s >= old_n || d >= old_n || crossed_removed {
                    prop_assert_eq!(e, fresh.get(s, d).unwrap(), "repaired pair {s}->{d}");
                }
            }
        }
    }
}

/// A plan recorded against one fabric refuses to replay against another.
#[test]
fn recable_plan_rejects_wrong_base() {
    let params = RrgParams::new(12, 6, 4);
    let base = build_rrg(params, ConstructionMethod::Incremental, 3).unwrap();
    let (_, _, plan) = expand_rrg(&base, params, 2, 9).unwrap();
    let other = build_rrg(RrgParams::new(14, 6, 4), ConstructionMethod::Incremental, 3).unwrap();
    assert!(plan.apply(&other).is_err(), "plan must be pinned to its base switch count");
}

/// The plan's op stream is internally consistent step by step: every
/// removal names an edge that exists at that point (a later switch may
/// splice into a link an earlier addition created), every addition is
/// new and incident to a new switch, and the final edge set is exactly
/// the grown graph's.
#[test]
fn recable_plan_ops_replay_step_by_step() {
    let params = RrgParams::new(16, 8, 5);
    let base = build_rrg(params, ConstructionMethod::Incremental, 11).unwrap();
    let (grown, _, plan) = expand_rrg(&base, params, 4, 77).unwrap();
    let norm = |u: u32, v: u32| (u.min(v), u.max(v));
    let mut edges: HashSet<(u32, u32)> = base.edges().collect();
    for op in plan.ops() {
        match *op {
            RecableOp::Remove(u, v) => {
                assert!(edges.remove(&norm(u, v)), "removed edge {u}-{v} does not exist yet");
            }
            RecableOp::Add(u, v) => {
                assert!(
                    u.max(v) as usize >= base.num_nodes(),
                    "added edge {u}-{v} touches no new switch"
                );
                assert!(edges.insert(norm(u, v)), "added edge {u}-{v} already exists");
            }
        }
    }
    let grown_edges: HashSet<(u32, u32)> = grown.edges().collect();
    assert_eq!(edges, grown_edges, "op replay must land exactly on the grown edge set");
}
