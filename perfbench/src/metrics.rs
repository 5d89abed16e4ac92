//! The metric tables and the one-line JSON result.
//!
//! The tables are the benchmark's contract with `BENCHMARK.json`: every
//! run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), by name and with its unit. A test checks the tables
//! against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Tally;

/// Metrics of an untraced run: what a user of `table1` or of the daemon
/// waits on or reads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("sim_makespan_ms", "ms"),
    ("sched_cost_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, named `<layer>.<metric>` after the crates.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.matrices", "count"),
    ("core.schedule_ms", "ms"),
    ("core.schedule_ms.AC", "ms"),
    ("core.schedule_ms.LP", "ms"),
    ("core.schedule_ms.RS_N", "ms"),
    ("core.schedule_ms.RS_NL", "ms"),
    ("core.schedule_ms.GREEDY", "ms"),
    ("core.phases", "count"),
    ("runtime.compile_ms", "ms"),
    ("runtime.grid_idle_ms", "ms"),
    ("simnet.des_ms", "ms"),
    ("simnet.des_ms.AC", "ms"),
    ("simnet.des_ms.LP", "ms"),
    ("simnet.des_ms.RS_N", "ms"),
    ("simnet.des_ms.RS_NL", "ms"),
    ("simnet.des_ms.GREEDY", "ms"),
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.transfers_blocked_ratio", "ratio"),
    ("simnet.analytic_ms", "ms"),
    ("commcache.fingerprint_us", "us"),
    ("commcache.hit_rate", "ratio"),
    ("commcache.patch_us", "us"),
    ("commcache.patch_rate", "ratio"),
    ("schedd.decode_us", "us"),
    ("schedd.encode_us", "us"),
    ("schedd.estimate_memo_hit_rate", "ratio"),
    ("schedd.process_us.repeat", "us"),
    ("schedd.process_us.fresh", "us"),
    ("schedd.process_us.drift", "us"),
    ("schedd.compiles", "1/req"),
    ("schedd.coalesced", "1/req"),
    ("schedd.transport_us", "us"),
    ("schedd.rejected", "count"),
    ("client.p99_us", "us"),
    ("client.p50_us.repeat", "us"),
    ("client.p50_us.fresh", "us"),
    ("client.p50_us.drift", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured: the operation tally, whether every check
/// passed, and metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// False when a check failed that no single operation owns (for
    /// example two grid rounds over the same inputs disagreeing).
    pub checks_ok: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            checks_ok: true,
            ..Report::default()
        }
    }

    /// Set a metric. `name` must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line. Traced runs print the per-layer table, where a
    /// metric the workload never set reads 0 (its layer did no work);
    /// untraced runs print the end-to-end table, which every workload
    /// must fill.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        let correct = self.checks_ok && self.tally.failed == 0 && self.tally.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted, self.tally.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = spec[start..]
                .find(&format!("\"{next}\""))
                .map_or(spec.len(), |e| start + e);
            spec[start..end].to_string()
        };
        for (table, key, next) in [
            (END_TO_END, "end_to_end", "per_layer"),
            (PER_LAYER, "per_layer", "\u{0}"),
        ] {
            let text = section(key, next);
            let named: Vec<&str> = text
                .split("{\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("closing quote")])
                .collect();
            let ours: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(named, ours, "{key} names");
            for (name, unit) in table {
                assert!(
                    text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{name} should have unit {unit} in BENCHMARK.json"
                );
            }
        }
    }

    #[test]
    fn json_line_has_every_metric_with_its_unit() {
        let mut r = Report::new();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.tally.record(true);
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // Unset per-layer metrics read 0; unset end-to-end ones are an error.
        let traced = r.json(true).unwrap();
        assert!(traced.contains("\"trace.coverage\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(Report::new().json(false).is_err());
        r.tally.record(false);
        assert!(r
            .json(false)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
