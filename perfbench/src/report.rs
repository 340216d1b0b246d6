//! Metric names and units, and the result line.
//!
//! The two lists below are the benchmark's contract with its runner and
//! must match `BENCHMARK.json` (a unit test checks it). Every workload
//! reports every metric of the list its mode selects.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("get_p50_ns", "ns"),
    ("get_p99_ns", "ns"),
    ("put_p99_ns", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.lease_ns", "ns"),
    ("core.locks_touched", "count"),
    ("core.read_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.pinned_read_ns", "ns"),
    ("core.cc_rmr_read", "rmr/op"),
    ("core.cc_rmr_write", "rmr/op"),
    ("swap.load_ns", "ns"),
    ("swap.update_ns", "ns"),
    ("swap.swaps", "count"),
    ("swap.peak_retired", "count"),
    ("bravo.fast_read_frac", "ratio"),
    ("bravo.revocations", "count"),
    ("bravo.write_ns", "ns"),
    ("obs.read_overhead_ns", "ns"),
    ("async.parks_per_op", "ratio"),
    ("async.wakeups_per_op", "ratio"),
    ("async.useful_wake_frac", "ratio"),
    ("async.read_ns", "ns"),
    ("async.write_grant_ns", "ns"),
    ("sim.states", "count"),
    ("sim.fig1_states", "count"),
    ("sim.fig2_states", "count"),
    ("sim.transitions", "count"),
    ("sim.ns_per_state", "ns"),
    ("data.ns", "ns"),
    ("ladder.raw_ns", "ns"),
    ("ladder.observed_ns", "ns"),
    ("ladder.rwlock_ns", "ns"),
    ("ladder.rwlock_4096_ns", "ns"),
    ("ladder.bravo_ns", "ns"),
    ("ladder.async_ns", "ns"),
    ("ladder.stats_ns", "ns"),
    ("gen_lag_p99_ns", "ns"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations attempted (requests, or explored states for `verify`).
    pub attempted: u64,
    /// Wrong values, lost updates, invariant violations, deadlocks and
    /// unexpected counts, counted against `attempted`.
    pub errors: u64,
    pub metrics: Metrics,
}

/// The result line: every metric of `declared`, in order, or an error
/// naming what is missing or extra.
pub fn result_line(out: &Outcome, declared: &[(&str, &str)]) -> Result<String, String> {
    let extra: Vec<_> =
        out.metrics.keys().filter(|k| !declared.iter().any(|(n, _)| n == *k)).collect();
    if !extra.is_empty() {
        return Err(format!("undeclared metrics {extra:?}"));
    }
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors == 0,
        out.attempted.max(1),
        out.errors.min(out.attempted.max(1))
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = *out.metrics.get(name).ok_or_else(|| format!("metric {name} missing"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    Ok(s)
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared lists are the ones in `BENCHMARK.json`, same order
    /// and units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let u = rest.find("\"unit\": \"").expect("unit") + 9;
                    let unit = rest[u..u + rest[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut out = Outcome { attempted: 3, errors: 0, metrics: Metrics::new() };
        out.metrics.insert("setup_s", 0.5);
        assert!(result_line(&out, &END_TO_END[..1]).unwrap().ends_with("}}"));
        assert!(result_line(&out, END_TO_END).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
