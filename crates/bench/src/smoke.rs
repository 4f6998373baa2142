//! What the smoke-gate binaries share: the `BENCH_pipeline.json` line
//! format, the median-of-reps timer, numeric gates, and the corpora the
//! gates measure.
//!
//! The JSON file is hand-maintained. The gates rewrite only the values of
//! keys it already holds, one `"key": value` per line, and leave every
//! other byte alone, so a renamed or deleted key is an error instead of a
//! silent insert.

use std::path::PathBuf;
use std::time::Instant;

use apistudy_core::Study;
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

/// The measurement file, relative to the workspace root the gates run in.
pub const BENCH_JSON: &str = "BENCH_pipeline.json";

/// Keys `resume_smoke` records.
pub const RESUME_KEYS: [&str; 4] = [
    "sweep_cold",
    "sweep_cached",
    "sweep_resume_half",
    "sweep_resume_replay",
];
/// Keys `greedy_smoke` records.
pub const GREEDY_KEYS: [&str; 2] =
    ["greedy_sweep_scratch", "greedy_sweep_incremental"];
/// Keys `seccomp_smoke` records.
pub const SECCOMP_KEYS: [&str; 11] = [
    "seccomp_batch_packages",
    "seccomp_batch_unique",
    "seccomp_batch_synth_ms",
    "seccomp_batch_packages_per_s",
    "seccomp_batch_unique_per_s",
    "seccomp_dedup_ratio_x100",
    "seccomp_prefix_shared_insns",
    "seccomp_tree_max_depth",
    "seccomp_linear_max_depth",
    "seccomp_depth_ratio_x100",
    "seccomp_attack_surface_pct_x10",
];
/// Keys `serve_smoke` records; `--check` gates against `serve_p99_us`
/// and `serve_qps`.
pub const SERVE_KEYS: [&str; 5] = [
    "serve_p50_us",
    "serve_p99_us",
    "serve_qps",
    "serve_batch_qps",
    "serve_c256_qps",
];
/// Keys `chaos_smoke` records.
pub const CHAOS_KEYS: [&str; 2] =
    ["chaos_serve_matrix", "chaos_storage_matrix"];

/// Returns `json` with the value of every key in `keys` replaced by the
/// matching entry of `values`, keeping each line's indent and trailing
/// comma. A key the text does not hold is an error, and nothing is
/// rewritten.
pub fn rewrite(
    json: &str,
    keys: &[&str],
    values: &[u128],
) -> Result<String, String> {
    assert_eq!(keys.len(), values.len(), "one value per key");
    if let Some(missing) = keys.iter().find(|k| recorded(json, k).is_none())
    {
        return Err(format!("no numeric key \"{missing}\" to rewrite"));
    }
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        let trimmed = line.trim_start();
        let hit = keys
            .iter()
            .zip(values)
            .find(|(k, _)| trimmed.starts_with(&format!("\"{k}\":")));
        match hit {
            Some((key, value)) => {
                let indent = &line[..line.len() - trimmed.len()];
                let comma =
                    if trimmed.trim_end().ends_with(',') { "," } else { "" };
                out.push_str(&format!("{indent}\"{key}\": {value}{comma}"));
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    Ok(out)
}

/// The integer value of `key` in `json`, in the line format [`rewrite`]
/// writes; `None` when the key is absent or its value is not an integer.
pub fn recorded(json: &str, key: &str) -> Option<u128> {
    let prefix = format!("\"{key}\":");
    json.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(&prefix)?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

/// Rewrites `keys` in [`BENCH_JSON`] in place. A failure is reported on
/// stderr and leaves the file as it was: the measurements have already
/// been printed, and the gates do not depend on them being stored.
pub fn record<const N: usize>(keys: &[&str; N], values: [u128; N]) {
    let result = std::fs::read_to_string(BENCH_JSON)
        .map_err(|e| e.to_string())
        .and_then(|json| rewrite(&json, keys, &values))
        .and_then(|json| {
            std::fs::write(BENCH_JSON, json).map_err(|e| e.to_string())
        });
    if let Err(e) = result {
        eprintln!("could not update {BENCH_JSON}: {e}");
    }
}

/// Parses the `[reps] [--no-json]` command line of the timing gates into
/// `(reps, write_json)`; exits with `usage` on anything else.
pub fn reps_and_json(default_reps: usize, usage: &str) -> (usize, bool) {
    let mut reps = default_reps;
    let mut write_json = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-json" => write_json = false,
            other => {
                reps = other.parse().unwrap_or_else(|_| {
                    eprintln!("usage: {usage}");
                    std::process::exit(2)
                })
            }
        }
    }
    (reps, write_json)
}

/// A fresh, empty `apistudy-{name}-{pid}` directory under the system
/// temp directory.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The median wall time of `reps` calls of `f`, in nanoseconds.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One numeric gate: `measured` must be at least, or at most, `bound`.
/// A NaN bound, which is what a baseline that cannot be read turns
/// into, fails either way.
pub struct Gate {
    name: String,
    measured: f64,
    bound: f64,
    at_most: bool,
}

impl Gate {
    /// `measured >= bound`.
    pub fn at_least(
        name: impl Into<String>,
        measured: f64,
        bound: f64,
    ) -> Self {
        Self { name: name.into(), measured, bound, at_most: false }
    }

    /// `measured <= bound`.
    pub fn at_most(
        name: impl Into<String>,
        measured: f64,
        bound: f64,
    ) -> Self {
        Self { name: name.into(), measured, bound, at_most: true }
    }

    /// The `--check` gate of a lower-is-better number: `measured` may be
    /// at most `slack` times the value `json` records under `key`.
    pub fn at_most_recorded(
        json: &str,
        key: &str,
        measured: f64,
        slack: f64,
    ) -> Self {
        let base = recorded(json, key).map_or(f64::NAN, |b| b as f64);
        let name = format!("{key} vs recorded x {slack}");
        Self::at_most(name, measured, base * slack)
    }

    /// The `--check` gate of a higher-is-better number: `measured` may be
    /// at most `slack` times below the value `json` records under `key`.
    pub fn at_least_recorded(
        json: &str,
        key: &str,
        measured: f64,
        slack: f64,
    ) -> Self {
        let base = recorded(json, key).map_or(f64::NAN, |b| b as f64);
        let name = format!("{key} vs recorded / {slack}");
        Self::at_least(name, measured, base / slack)
    }

    fn passed(&self) -> bool {
        if self.at_most {
            self.measured <= self.bound
        } else {
            self.measured >= self.bound
        }
    }

    fn line(&self) -> String {
        let op = if self.at_most { "<=" } else { ">=" };
        format!(
            "{}: measured {:.2}, bound {op} {:.2}",
            self.name, self.measured, self.bound
        )
    }
}

/// Prints every gate, then exits 1 listing each failed one, or prints
/// `PASS: {pass}` when all hold.
pub fn enforce(gates: &[Gate], pass: &str) {
    for gate in gates {
        let verdict = if gate.passed() { "ok" } else { "FAILED" };
        println!("gate {}  {verdict}", gate.line());
    }
    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.passed()).collect();
    if !failed.is_empty() {
        for gate in failed {
            eprintln!("FAIL: {}", gate.line());
        }
        std::process::exit(1);
    }
    println!("PASS: {pass}");
}

/// The corruption-sweep corpus: 150 packages, seed 5, the same corpus
/// as the `pipeline_150_packages` bench, so the recorded numbers compose.
pub fn sweep_repo() -> SynthRepo {
    SynthRepo::new(
        Scale { packages: 150, installations: 50_000 },
        CalibrationSpec::default(),
        5,
    )
}

/// The sweep's eleven rates, 0% → 10% in 1% steps: the CLI's `faults`
/// grid.
pub fn sweep_rates() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 100.0).collect()
}

/// The sweep's fault-plan seed.
pub const SWEEP_FAULT_SEED: u64 = 0x5EED;

/// The 150-package reference study: the corpus of the serve_chaos suite
/// and of `apistudy --scale 150 --seed 2016` (`--scale N` implies
/// `installations = 95·N`).
pub fn reference_study() -> Study {
    Study::run(Scale { packages: 150, installations: 14_250 }, 2016)
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = r#"{
  "results_ns": {
    "a": 1,
    "b": 22
  },
  "serve": {
    "note": "a b",
      "c": 3
  }
}
"#;

    #[test]
    fn rewriting_a_key_changes_only_its_value() {
        let out = rewrite(JSON, &["b", "c"], &[7, 40]).expect("known keys");
        let changed: Vec<(&str, &str)> = JSON
            .lines()
            .zip(out.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(
            changed,
            [
                (r#"    "b": 22"#, r#"    "b": 7"#),
                (r#"      "c": 3"#, r#"      "c": 40"#),
            ]
        );
        assert_eq!(JSON.lines().count(), out.lines().count());
    }

    #[test]
    fn an_unknown_key_is_an_error_and_nothing_is_rewritten() {
        let err = rewrite(JSON, &["a", "nope"], &[5, 6]).unwrap_err();
        assert!(err.contains("\"nope\""), "{err}");
        // A key that only appears inside a string value is not a key.
        assert!(rewrite(JSON, &["a b"], &[1]).is_err());
        assert!(rewrite(JSON, &["note"], &[1]).is_err());
    }

    #[test]
    fn the_reader_round_trips_the_writer() {
        let out = rewrite(JSON, &["a", "c"], &[u128::from(u64::MAX), 0])
            .expect("known keys");
        assert_eq!(recorded(&out, "a"), Some(u128::from(u64::MAX)));
        assert_eq!(recorded(&out, "b"), Some(22));
        assert_eq!(recorded(&out, "c"), Some(0));
        assert_eq!(recorded(&out, "note"), None);
    }

    #[test]
    fn a_missing_or_unreadable_baseline_fails_the_check() {
        let json = "  \"serve_p99_us\": 100,\n  \"serve_qps\": 1000\n";
        let p99 = |json: &str, us: f64| {
            Gate::at_most_recorded(json, "serve_p99_us", us, 2.0).passed()
        };
        let qps = |json: &str, qps: f64| {
            Gate::at_least_recorded(json, "serve_qps", qps, 2.0).passed()
        };
        assert!(p99(json, 150.0) && !p99(json, 250.0));
        assert!(qps(json, 600.0) && !qps(json, 400.0));

        let removed = json.replace("  \"serve_p99_us\": 100,\n", "");
        assert!(!p99(&removed, 1.0));
        let garbled = json.replace("1000", "\"fast\"");
        assert!(!qps(&garbled, 1e9));
    }

    #[test]
    fn every_key_a_smoke_gate_records_is_in_the_committed_file() {
        let json = include_str!("../../../BENCH_pipeline.json");
        let all = RESUME_KEYS
            .iter()
            .chain(&GREEDY_KEYS)
            .chain(&SECCOMP_KEYS)
            .chain(&SERVE_KEYS)
            .chain(&CHAOS_KEYS);
        for key in all {
            assert!(recorded(json, key).is_some(), "{key} not in the file");
        }
    }
}
