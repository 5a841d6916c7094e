//! Tables V–VI: stencil-application communication times on
//! RRG(720,24,19) under linear and random process-to-node mappings.

use crate::scale::Scale;
use jellyfish::prelude::*;
use jellyfish::JellyfishNetwork;
use jellyfish_routing::PairSet;
use jellyfish_traffic::stencil_trace;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// The three path selections the paper's CODES tables compare.
pub fn stencil_selections() -> [PathSelection; 3] {
    [PathSelection::REdKsp(8), PathSelection::Ksp(8), PathSelection::RKsp(8)]
}

/// One stencil application row: communication time (seconds) per scheme.
#[derive(Debug, Clone)]
pub struct StencilRow {
    /// Stencil application name.
    pub app: &'static str,
    /// selection name -> makespan in seconds.
    pub times: BTreeMap<String, f64>,
}

impl StencilRow {
    /// Percentage improvement of rEDKSP(8) over `other`.
    pub fn improvement_over(&self, other: &str) -> f64 {
        let red = self.times["rEDKSP(8)"];
        let base = self.times[other];
        (base - red) / base * 100.0
    }
}

/// Result of Table V (linear) or Table VI (random mapping).
#[derive(Debug, Clone)]
pub struct StencilTable {
    /// Mapping label ("linear" / "random").
    pub mapping: &'static str,
    /// One row per stencil application.
    pub rows: Vec<StencilRow>,
}

/// Runs a stencil table on an arbitrary topology (the paper uses
/// RRG(720,24,19) with 3600 ranks).
pub fn stencil_table_on(
    params: RrgParams,
    mapping: Mapping,
    bytes_per_rank: u64,
    seed: u64,
) -> StencilTable {
    let net = JellyfishNetwork::build(params, seed).expect("topology builds");
    let ranks = params.num_hosts();
    let apps: Vec<(StencilKind, StencilApp)> = StencilKind::all()
        .into_iter()
        .map(|k| {
            (
                k,
                StencilApp::for_ranks(k, ranks)
                    .unwrap_or_else(|| panic!("{ranks} ranks not factorable for {}", k.name())),
            )
        })
        .collect();

    // app × selection tasks in parallel; each computes its own sparse
    // path table over the trace's switch pairs.
    let selections = stencil_selections();
    let tasks: Vec<(usize, usize)> =
        (0..apps.len()).flat_map(|a| (0..selections.len()).map(move |s| (a, s))).collect();
    let measured: Vec<((usize, usize), f64)> = tasks
        .par_iter()
        .map(|&(a, s)| {
            let trace = stencil_trace(&apps[a].1, mapping, bytes_per_rank, ranks);
            let pairs = PairSet::Pairs(switch_pairs(&trace.host_flows(), &params));
            let table = net.paths(selections[s], &pairs, seed ^ (a as u64) << 8 ^ s as u64);
            let mut cfg = AppSimConfig::paper();
            cfg.seed = seed ^ 0xCAFE ^ ((a as u64) << 4) ^ s as u64;
            let r = net.simulate_trace(&table, AppMechanism::KspAdaptive, &trace, cfg);
            assert_eq!(r.delivered_packets, r.total_packets);
            ((a, s), r.completion_time_s)
        })
        .collect();

    let mut rows: Vec<StencilRow> =
        apps.iter().map(|(k, _)| StencilRow { app: k.name(), times: BTreeMap::new() }).collect();
    for ((a, s), time) in measured {
        rows[a].times.insert(selections[s].name(), time);
    }
    StencilTable { mapping: mapping.name(), rows }
}

/// Runs Table V (`linear = true`) or Table VI on the paper's topology.
pub fn table(linear: bool, scale: Scale, seed: u64) -> StencilTable {
    let mapping = if linear { Mapping::Linear } else { Mapping::Random { seed: seed ^ 0xD1 } };
    stencil_table_on(RrgParams::medium(), mapping, scale.stencil_bytes_per_rank(), seed)
}

/// Paper reference improvements (rEDKSP over KSP, rEDKSP over rKSP) in %
/// for (linear, random) mapping tables.
pub fn paper_improvements(linear: bool) -> [(f64, f64); 4] {
    if linear {
        [(9.6, 6.0), (12.1, 7.5), (5.6, 3.3), (3.0, 1.0)]
    } else {
        [(7.6, 2.2), (7.0, -1.5), (8.0, 0.0), (13.2, 2.6)]
    }
}

/// Prints a stencil table with improvement columns like the paper's.
pub fn print_stencil_table(t: &StencilTable, linear: bool) {
    print!("{}", render_stencil_table(t, linear));
}

/// Renders a stencil table with improvement columns like the paper's.
/// Times print in microseconds: a quick-scale run takes tens of them,
/// which four decimals of a second would show as `0.0000`.
pub fn render_stencil_table(t: &StencilTable, linear: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let us = |row: &StencilRow, sel: &str| row.times[sel] * 1e6;
    writeln!(
        out,
        "Stencil communication time, {} mapping (microseconds; improvement of rEDKSP(8))",
        t.mapping
    )
    .expect("string write");
    writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>13} {:>11} {:>13}  (paper imp.)",
        "app", "rEDKSP(8)", "KSP(8)", "imp. vs KSP", "rKSP(8)", "imp. vs rKSP"
    )
    .expect("string write");
    let paper = paper_improvements(linear);
    let mut sum_ksp = 0.0;
    let mut sum_rksp = 0.0;
    for (row, (p_ksp, p_rksp)) in t.rows.iter().zip(paper) {
        let imp_ksp = row.improvement_over("KSP(8)");
        let imp_rksp = row.improvement_over("rKSP(8)");
        sum_ksp += imp_ksp;
        sum_rksp += imp_rksp;
        writeln!(
            out,
            "{:<10} {:>11.2} {:>11.2} {:>12.1}% {:>11.2} {:>12.1}%  ({p_ksp:.1}%, {p_rksp:.1}%)",
            row.app,
            us(row, "rEDKSP(8)"),
            us(row, "KSP(8)"),
            imp_ksp,
            us(row, "rKSP(8)"),
            imp_rksp
        )
        .expect("string write");
    }
    let n = t.rows.len() as f64;
    writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>12.1}% {:>11} {:>12.1}%",
        "average",
        "",
        "",
        sum_ksp / n,
        "",
        sum_rksp / n
    )
    .expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_times_render_in_readable_microseconds() {
        let times = |us: f64| {
            ["rEDKSP(8)", "KSP(8)", "rKSP(8)"]
                .iter()
                .enumerate()
                .map(|(i, s)| (s.to_string(), (us + i as f64) * 1e-6))
                .collect()
        };
        let t = StencilTable {
            mapping: "linear",
            rows: vec![StencilRow { app: "2d-5pt", times: times(37.0) }],
        };
        let text = render_stencil_table(&t, true);
        assert!(text.starts_with("Stencil communication time, linear mapping (microseconds;"));
        let row = text.lines().nth(2).expect("one row");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[..3], ["2d-5pt", "37.00", "38.00"], "{row}");
        assert_eq!(cells[4], "39.00", "{row}");
    }

    #[test]
    fn selections_match_paper_columns() {
        let names: Vec<String> = stencil_selections().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["rEDKSP(8)", "KSP(8)", "rKSP(8)"]);
    }

    #[test]
    fn mini_stencil_table_runs_and_orders() {
        // 36 ranks on a small RRG; volumes scaled down. All cells present
        // and positive; rEDKSP not worse than KSP beyond noise.
        let params = RrgParams::new(12, 6, 3); // 3 hosts/switch, 36 hosts
        let t = stencil_table_on(params, Mapping::Linear, 150_000, 7);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row.times.len(), 3);
            for &v in row.times.values() {
                assert!(v > 0.0);
            }
            let imp = row.improvement_over("KSP(8)");
            assert!(imp > -25.0, "{}: rEDKSP much worse than KSP ({imp}%)", row.app);
        }
    }

    #[test]
    fn improvement_math() {
        let mut times = BTreeMap::new();
        times.insert("rEDKSP(8)".to_string(), 0.9);
        times.insert("KSP(8)".to_string(), 1.0);
        times.insert("rKSP(8)".to_string(), 0.95);
        let row = StencilRow { app: "2DNN", times };
        assert!((row.improvement_over("KSP(8)") - 10.0).abs() < 1e-9);
    }
}
