//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! apistudy-perfbench --workload <study_cold|study_replay|fleet_seccomp|serve_mix>
//!     [--seed N] [--corpus-seed N] [--mix-seed N] [--seconds S] [--trace 0|1]
//!     [--work-dir DIR]
//! ```
//!
//! `--seed` sets the corpus seed and derives the request-mix seed; the
//! other two seed flags override either. Without `--seed` the corpus seed
//! is 2016 and the mix seed is fixed. The program under test only ever
//! sees the generated inputs.
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end table, or with `--trace 1` the per-layer table of
//! `report`). Set-up that must not count towards the measuring
//! process's memory runs in a child process (`--phase store`).

mod fleet;
mod report;
mod serve;
mod stats;
mod study;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use report::Report;

/// Default corpus seed: the seed the repository's paper figures use.
const DEFAULT_CORPUS_SEED: u64 = 2016;
/// Default request-mix seed.
const DEFAULT_MIX_SEED: u64 = 0x5EED_2016;

/// Options of one run.
pub struct Opts {
    workload: String,
    /// Seed of the generated corpus.
    pub corpus_seed: u64,
    /// Seed of the `serve_mix` request mix.
    pub mix_seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run (removed at exit).
    pub dir: PathBuf,
    work_dir: PathBuf,
}

impl Opts {
    /// Where the traced run writes its spans (kept after the run).
    pub fn trace_file(&self) -> PathBuf {
        self.work_dir.join(format!(
            "trace-{}-seed{}.csv",
            self.workload, self.corpus_seed
        ))
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `op` back to back for about `seconds`: always once, then again
/// only while the next run is projected to end inside the budget.
/// Returns each run's wall time.
pub fn repeat_for(seconds: f64, mut op: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        op();
        let last = secs(t);
        times.push(last);
        if secs(start) + last > seconds {
            return times;
        }
    }
}

/// What a set-up process built.
pub struct Built {
    /// Median wall time of the builds.
    pub setup_s: f64,
    /// Study digest of the stored study.
    pub digest: u64,
}

/// Builds the footprint store of a cold `packages`-package study at
/// `store`, `repeat` times over, in a child process so the measuring
/// process's peak memory covers only its own workload. Every build must
/// produce the same digest.
pub fn setup_stores(
    opts: &Opts,
    packages: usize,
    store: &Path,
    repeat: usize,
) -> Result<Built, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--phase", "store", "--packages", &packages.to_string()])
        .args(["--corpus-seed", &opts.corpus_seed.to_string()])
        .args(["--repeat", &repeat.to_string()])
        .arg("--store")
        .arg(store)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let mut words = line.split_whitespace();
    let parsed = match (
        out.status.success(),
        words.next(),
        words.next(),
        words.next(),
    ) {
        (true, Some("built"), Some(s), Some(d)) => s
            .parse::<f64>()
            .ok()
            .zip(u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()),
        _ => None,
    };
    let (setup_s, digest) =
        parsed.ok_or_else(|| format!("set-up failed ({}): {line}", out.status))?;
    println!("set-up: {repeat} x {packages}-package store, median {setup_s:.3} s");
    Ok(Built { setup_s, digest })
}

/// The `--phase store` child: builds the store `repeat` times and prints
/// `built <median seconds> <digest>`.
fn store_phase(packages: usize, seed: u64, store: &Path, repeat: usize) -> Result<(), String> {
    let mut times = Vec::new();
    let mut digest = None;
    for _ in 0..repeat.max(1) {
        let t = Instant::now();
        let (_, d) = study::run_study(packages, seed, store, false)?;
        times.push(secs(t));
        if *digest.get_or_insert(d) != d {
            return Err("repeated set-up builds disagree on the study digest".into());
        }
    }
    let median = stats::median(&times).unwrap_or(0.0);
    println!("built {median} {:#018x}", digest.unwrap_or(0));
    Ok(())
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: apistudy-perfbench --workload <study_cold|study_replay|fleet_seccomp|serve_mix> \
         [--seed N] [--corpus-seed N] [--mix-seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]"
    );
    std::process::exit(2)
}

fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn main() {
    let mut workload = None;
    let mut seed: Option<u64> = None;
    let mut corpus_seed: Option<u64> = None;
    let mut mix_seed: Option<u64> = None;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut phase: Option<String> = None;
    let mut packages = 0usize;
    let mut repeat = 1usize;
    let mut store: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = Some(num(&a, args.next())),
            "--corpus-seed" => corpus_seed = Some(num(&a, args.next())),
            "--mix-seed" => mix_seed = Some(num(&a, args.next())),
            "--seconds" => seconds = num(&a, args.next()),
            "--trace" => traced = num::<u8>(&a, args.next()) != 0,
            "--work-dir" => {
                work_dir = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--work-dir needs a path"))
            }
            "--phase" => phase = args.next(),
            "--packages" => packages = num(&a, args.next()),
            "--repeat" => repeat = num(&a, args.next()),
            "--store" => store = args.next().map(PathBuf::from),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let corpus_seed = corpus_seed.or(seed).unwrap_or(DEFAULT_CORPUS_SEED);
    if phase.as_deref() == Some("store") {
        let store = store.unwrap_or_else(|| usage("--phase store needs --store"));
        if let Err(e) = store_phase(packages, corpus_seed, &store, repeat) {
            eprintln!("set-up: {e}");
            std::process::exit(1);
        }
        return;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let mix_seed = mix_seed.unwrap_or_else(|| match seed {
        Some(s) => {
            let mut st = s ^ DEFAULT_MIX_SEED;
            splitmix(&mut st)
        }
        None => DEFAULT_MIX_SEED,
    });
    if !seconds.is_finite() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let dir = work_dir.join(format!("{workload}-{}", std::process::id()));
    let opts = Opts {
        workload: workload.clone(),
        corpus_seed,
        mix_seed,
        seconds,
        trace: traced,
        dir,
        work_dir,
    };
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("creating {}: {e}", opts.dir.display());
        std::process::exit(1);
    }
    println!(
        "workload {workload}: corpus seed {corpus_seed}, mix seed {mix_seed:#x}, {seconds} s, trace {}, {} cpus",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut report = Report::default();
    let result = match workload.as_str() {
        "study_cold" => study::cold(&opts, &mut report),
        "study_replay" => study::replay(&opts, &mut report),
        "fleet_seccomp" => fleet::fleet(&opts, &mut report),
        "serve_mix" => serve::serve_mix(&opts, &mut report),
        other => usage(&format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    if let Err(e) = result {
        eprintln!("{workload}: {e}");
        std::process::exit(1);
    }
    // Peak memory of this process, which ran only this workload.
    report.set(
        "peak_rss_mb",
        apistudy_core::diagnostics::peak_rss_kb() as f64 / 1024.0,
    );
    println!(
        "error_rate {} ({} failed of {} attempted)",
        report.tally.error_rate(),
        report.tally.failed,
        report.tally.attempted
    );
    println!("{}", report.json(traced));
}
