//! The metrics a run reports, and the one-line JSON result.
//!
//! The tables mirror `BENCHMARK.json`; the launcher checks that a run's
//! result names exactly the metrics listed there.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::stats::{median, tail, Tally};

/// End-to-end metrics, reported by every workload with tracing off. The
/// latency tail (`p99_ms`) and `error_rate` are printed by every run but
/// are not in this table: the tail is not steady enough on a shared
/// 2-core machine to bound, and the error rate must read 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("suggest_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer the workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.plan_s", "s"),
    ("corpus.generate_s", "s"),
    ("corpus.binaries", "count"),
    ("corpus.elf_mb", "MiB"),
    ("elf.parse_s", "s"),
    ("x86.decode_s", "s"),
    ("x86.insns", "count"),
    ("analysis.analyze_s", "s"),
    ("analysis.binaries_per_s", "1/s"),
    ("stream.shards_s", "s"),
    ("stream.fold_s", "s"),
    ("stream.parallel_speedup", "ratio"),
    ("store.append_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.resume_s", "s"),
    ("store.bytes_read", "bytes"),
    ("store.shards_replayed", "count"),
    ("metrics.index_s", "s"),
    ("planner.curve_s", "s"),
    ("metrics.importance_us", "us"),
    ("metrics.completeness_us", "us"),
    ("planner.suggest_ms", "ms"),
    ("engine.session_us", "us"),
    ("serve.seal_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.wire_us.ping", "us"),
    ("serve.wire_us.importance", "us"),
    ("serve.wire_us.completeness_hot", "us"),
    ("serve.wire_us.completeness_fresh", "us"),
    ("serve.wire_us.session", "us"),
    ("serve.wire_us.suggest", "us"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("serve.rejected_busy", "count"),
    ("serve.io_errors", "count"),
    ("serve.deadline_closed", "count"),
    ("seccomp.unique_filters", "count"),
    ("seccomp.dedup_ratio", "ratio"),
    ("seccomp.codegen_s", "s"),
    ("seccomp.verify_s", "s"),
    ("seccomp.interp_runs", "count"),
    ("trace.overhead_s", "s"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric and prints it as a human-readable line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| *u);
        println!("  {name:<34} {value:>16.6} {unit}");
        self.values.insert(name, value);
    }

    /// The end-to-end figures of a batch workload whose operation is one
    /// whole run over `packages` packages: run_s is the median run, qps
    /// counts packages, and with one operation kind the latency figures
    /// are taken over the same runs.
    pub fn batch(&mut self, setup_s: f64, times: &[f64], packages: usize) {
        let run_s = median(times).unwrap_or(f64::NAN);
        self.set("setup_s", setup_s);
        self.set("run_s", run_s);
        self.set("qps", packages as f64 / run_s);
        self.set("p50_ms", run_s * 1e3);
        self.set("suggest_p50_ms", run_s * 1e3);
        print_tail(&times.iter().map(|t| t * 1e3).collect::<Vec<_>>());
    }

    /// The result line: every metric of the requested table (per-layer
    /// metrics a workload does not touch read 0), correctness, and the
    /// operation counts.
    pub fn json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        let mut complete = true;
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => {
                    complete = false;
                    f64::NAN
                }
            };
            complete &= value.is_finite();
            let shown = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {shown:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = complete && self.tally.failed == 0 && self.tally.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
        )
    }
}

/// Prints the latency tail of `ms` by the tail rule, with its sample
/// count.
pub fn print_tail(ms: &[f64]) {
    if let Some(t) = tail(ms) {
        println!(
            "  {:<34} {:>16.6} ms (p{:.1} of {} samples, {} beyond; not gated)",
            "p99_ms", t.value, t.percentile, t.samples, t.beyond
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.record(true);
        r.batch(1.0, &[2.0, 3.0, 4.0], 30);
        r.set("peak_rss_mb", 12.5);
        assert!(r
            .json(false)
            .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(r
            .json(false)
            .contains("\"qps\": {\"value\": 10.0, \"unit\": \"1/s\"}"));

        let mut r = Report::default();
        r.tally.record(true);
        r.set("setup_s", 1.0);
        assert!(r.json(false).starts_with("{\"correct\": false"));
        // Per-layer metrics a workload does not touch read 0.
        assert!(r
            .json(true)
            .contains("\"seccomp.verify_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }

    #[test]
    fn tables_match_benchmark_json_and_the_layer_map() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let spec = std::fs::read_to_string(dir.join("../BENCHMARK.json")).unwrap();
        let map = std::fs::read_to_string(dir.join("layer_map.json")).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(
                spec.matches(&entry).count(),
                1,
                "{name} [{unit}] in BENCHMARK.json"
            );
        }
        let listed = spec.matches("{\"name\": ").count();
        let workloads = spec.matches("\"why\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, _) in PER_LAYER {
            assert!(
                map.contains(&format!("\"{name}\"")),
                "{name} missing from layer_map.json"
            );
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally.record(true);
        r.tally.record(false);
        r.batch(1.0, &[2.0], 30);
        r.set("peak_rss_mb", 12.5);
        assert!(r
            .json(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
