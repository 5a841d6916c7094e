//! Property-based test: the `jellyfish-metrics v1` text format
//! round-trips losslessly (`read_metrics ∘ write_metrics = id`).

use jellyfish_obs::{read_metrics, write_metrics, LogHistogram, Registry};
use proptest::collection::vec;
use proptest::prelude::*;

/// Metric names: 1-8 chars over `[a-z0-9.]` (no whitespace — names are
/// space-delimited in the text format). The vendored proptest has no
/// string strategies, so map digits onto a charset by hand.
fn name() -> impl Strategy<Value = String> {
    vec(0u8..37, 1..8).prop_map(|digits| {
        digits
            .into_iter()
            .map(|d| match d {
                0..=25 => (b'a' + d) as char,
                26..=35 => (b'0' + d - 26) as char,
                _ => '.',
            })
            .collect()
    })
}

/// Finite floats that survive Rust's shortest `{}` formatting exactly.
fn finite_f64() -> impl Strategy<Value = f64> {
    -1.0e12f64..1.0e12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_text_round_trips(
        counters in vec((name(), any::<u64>()), 0..5),
        gauges in vec((name(), finite_f64()), 0..5),
        hists in vec((name(), vec(any::<u64>(), 1..40)), 0..4),
    ) {
        let mut reg = Registry::default();
        for (n, v) in &counters {
            reg.counter_add(n, *v);
        }
        for (n, v) in &gauges {
            reg.gauge_set(n, *v);
        }
        for (n, vals) in &hists {
            for v in vals {
                reg.hist_record(n, *v);
            }
        }

        let mut buf = Vec::new();
        write_metrics(&reg, &mut buf).unwrap();
        let back = read_metrics(&buf[..]).unwrap();
        prop_assert_eq!(&back, &reg);

        // Serializing the parsed registry reproduces the bytes, too.
        let mut buf2 = Vec::new();
        write_metrics(&back, &mut buf2).unwrap();
        prop_assert_eq!(buf2, buf);
    }

    #[test]
    fn hist_line_preserves_percentiles(values in vec(1u64..1_000_000, 1..200)) {
        let mut h = LogHistogram::new();
        for v in &values {
            h.record(*v);
        }
        let mut reg = Registry::default();
        reg.hist_merge("lat", &h);
        let mut buf = Vec::new();
        write_metrics(&reg, &mut buf).unwrap();
        let back = read_metrics(&buf[..]).unwrap();
        let rh = back.hists().next().unwrap().1;
        prop_assert_eq!(rh.percentiles(), h.percentiles());
        prop_assert_eq!(rh.extrema(), h.extrema());
    }
}
