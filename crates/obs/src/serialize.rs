//! Text persistence for a [`Registry`], and the JSON summary of one
//! histogram.
//!
//! The line-oriented `jellyfish-metrics v1` text format follows the
//! same idiom as the repo's other formats (`jellyfish-run`,
//! `jellyfish-faults`): a magic header, then one line per metric, floats
//! written with Rust's shortest round-tripping formatting (`NaN` legal):
//!
//! ```text
//! jellyfish-metrics v1
//! counter <name> <u64>
//! gauge <name> <f64>
//! hist <name> <min> <max> <sum> <bucket>:<count> ...
//! ```
//!
//! `hist` lines dump the non-zero buckets of the log histogram plus its
//! exact min/max/sum, so the text form round-trips losslessly
//! ([`read_metrics`]` ∘ `[`write_metrics`]` = id`). Duplicate names
//! within a kind and unknown line kinds (`series` among them) are
//! rejected, not last-wins-ignored. [`hist_to_json`] summarizes one
//! histogram to count/mean/extrema plus the p50/p90/p99/p999 block for
//! JSON reports.

use crate::hist::LogHistogram;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// Magic header line of the metrics text format.
pub const METRICS_HEADER: &str = "jellyfish-metrics v1";

/// Serializes a registry into the `jellyfish-metrics v1` text format.
pub fn write_metrics<W: Write>(r: &Registry, mut out: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "{METRICS_HEADER}").unwrap();
    for (name, v) in r.counters() {
        writeln!(buf, "counter {name} {v}").unwrap();
    }
    for (name, v) in r.gauges() {
        writeln!(buf, "gauge {name} {v}").unwrap();
    }
    for (name, h) in r.hists() {
        let (min, max, sum) = h.extrema();
        write!(buf, "hist {name} {min} {max} {sum}").unwrap();
        for (i, c) in h.nonzero_buckets() {
            write!(buf, " {i}:{c}").unwrap();
        }
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

/// Errors from [`read_metrics`].
#[derive(Debug)]
pub enum MetricsReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file.
    Parse(String),
}

impl std::fmt::Display for MetricsReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsReadError::Io(e) => write!(f, "i/o error: {e}"),
            MetricsReadError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for MetricsReadError {}

impl From<io::Error> for MetricsReadError {
    fn from(e: io::Error) -> Self {
        MetricsReadError::Io(e)
    }
}

/// Parses a `jellyfish-metrics v1` text file back into a [`Registry`].
pub fn read_metrics<R: BufRead>(input: R) -> Result<Registry, MetricsReadError> {
    let bad = |m: String| MetricsReadError::Parse(m);
    let mut lines = input.lines();
    let header = lines.next().ok_or_else(|| bad("missing header".into()))??;
    if header.trim() != METRICS_HEADER {
        return Err(bad(format!("bad header {header:?}")));
    }
    let mut out = Registry::new();
    for line in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let kind = tokens.next().expect("non-empty line has a first token");
        let name = tokens.next().ok_or_else(|| bad(format!("{kind} line without a name")))?;
        match kind {
            "counter" => {
                let v: u64 = one_value(&mut tokens, name).map_err(bad)?;
                if out.counter(name).is_some() {
                    return Err(bad(format!("duplicate counter {name:?}")));
                }
                out.counter_add(name, v);
            }
            "gauge" => {
                let v: f64 = one_value(&mut tokens, name).map_err(bad)?;
                if out.gauge(name).is_some() {
                    return Err(bad(format!("duplicate gauge {name:?}")));
                }
                out.gauge_set(name, v);
            }
            "hist" => {
                if out.hist(name).is_some() {
                    return Err(bad(format!("duplicate hist {name:?}")));
                }
                let parse = |t: Option<&str>, what: &str| -> Result<u64, MetricsReadError> {
                    t.and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad(format!("hist {name:?}: missing or bad {what}")))
                };
                let min = parse(tokens.next(), "min")?;
                let max = parse(tokens.next(), "max")?;
                let sum: u128 = tokens
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("hist {name:?}: missing or bad sum")))?;
                let buckets: Vec<(usize, u64)> = tokens
                    .map(|t| {
                        let (i, c) = t
                            .split_once(':')
                            .ok_or_else(|| bad(format!("hist {name:?}: bad bucket {t:?}")))?;
                        let i = i
                            .parse()
                            .map_err(|_| bad(format!("hist {name:?}: bad bucket index {i:?}")))?;
                        let c = c
                            .parse()
                            .map_err(|_| bad(format!("hist {name:?}: bad bucket count {c:?}")))?;
                        Ok((i, c))
                    })
                    .collect::<Result<_, MetricsReadError>>()?;
                let h = LogHistogram::from_buckets(buckets, min, max, sum)
                    .ok_or_else(|| bad(format!("hist {name:?}: inconsistent buckets")))?;
                out.hist_merge(name, &h);
            }
            other => return Err(bad(format!("unknown metric kind {other:?}"))),
        }
    }
    Ok(out)
}

fn one_value<T: std::str::FromStr>(
    tokens: &mut std::str::SplitWhitespace<'_>,
    name: &str,
) -> Result<T, String> {
    let v = tokens
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("missing or bad value for {name:?}"))?;
    match tokens.next() {
        None => Ok(v),
        Some(extra) => Err(format!("trailing token {extra:?} after {name:?}")),
    }
}

/// One JSON number token; JSON has no NaN/Inf literals, so those become
/// `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A histogram's JSON summary object: count, extrema, mean and the
/// standard percentile block.
pub fn hist_to_json(h: &LogHistogram) -> String {
    let (p50, p90, p99, p999) = h.percentiles();
    format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
         \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"p999\": {p999}}}",
        h.count(),
        h.min(),
        h.max(),
        json_num(h.mean()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add("runs.total", 12);
        r.counter_add("faults.applied", 3);
        r.gauge_set("offered.load", 0.42);
        r.gauge_set("weird", f64::NAN);
        for v in [1u64, 10, 100, 1000, 12345] {
            r.hist_record("latency.cycles", v);
        }
        r.hist_record("empty.companion", 7);
        r
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let r = sample_registry();
        let mut buf = Vec::new();
        write_metrics(&r, &mut buf).unwrap();
        let loaded = read_metrics(buf.as_slice()).unwrap();
        // NaN gauges break PartialEq; compare through re-serialization.
        let mut buf2 = Vec::new();
        write_metrics(&loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
        assert_eq!(loaded.counter("runs.total"), Some(12));
        assert_eq!(loaded.hist("latency.cycles").unwrap(), r.hist("latency.cycles").unwrap());
        assert!(loaded.gauge("weird").unwrap().is_nan());
    }

    #[test]
    fn rejects_garbage_and_duplicates() {
        assert!(read_metrics("bogus\n".as_bytes()).is_err());
        let dup = format!("{METRICS_HEADER}\ncounter a 1\ncounter a 2\n");
        assert!(read_metrics(dup.as_bytes()).is_err());
        let unknown = format!("{METRICS_HEADER}\nblorb x 1\n");
        assert!(read_metrics(unknown.as_bytes()).is_err());
        let trailing = format!("{METRICS_HEADER}\ncounter a 1 2\n");
        assert!(read_metrics(trailing.as_bytes()).is_err());
        let bad_bucket = format!("{METRICS_HEADER}\nhist h 1 1 1 nonsense\n");
        assert!(read_metrics(bad_bucket.as_bytes()).is_err());
        // An empty file (header only) is a valid empty registry.
        let empty = format!("{METRICS_HEADER}\n");
        assert!(read_metrics(empty.as_bytes()).unwrap().is_empty());
    }

    /// The `series` kind is gone from the format: an old file holding a
    /// series line fails to parse instead of panicking or loading it.
    #[test]
    fn series_lines_are_rejected() {
        let old = format!("{METRICS_HEADER}\ncounter c 1\nseries s 1 2\n");
        assert!(matches!(read_metrics(old.as_bytes()), Err(MetricsReadError::Parse(_))));
    }

    #[test]
    fn hist_json_summarizes() {
        let r = sample_registry();
        let json = hist_to_json(r.hist("latency.cycles").unwrap());
        assert!(json.starts_with("{\"count\": 5, \"min\": 1, \"max\": 12345"));
        assert!(json.contains("\"p999\""));
    }
}
