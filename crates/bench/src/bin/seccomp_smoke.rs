//! CI smoke gate for fleet-scale seccomp synthesis.
//!
//! **Gate 1 — equivalence & depth** (150-package reference corpus):
//! synthesizes every package's filter in both layouts and requires
//!
//! - tree and linear verdicts equal to the reference allow-set for all
//!   2^32 syscall numbers (the fleet's boundary-point proof) and killing
//!   every i386 number, with depths exhaustive over `0..=4096`,
//! - every tree's executed depth within `2·⌈log₂ ranges⌉ + 8`,
//! - the widest (most fragmented) footprint's tree at least
//!   [`MIN_DEPTH_RATIO`]× shallower than its linear chain.
//!
//! **Gate 2 — batch scale & crash resume** (`--packages N`, default
//! 3000): a full batch synthesis must finish inside
//! [`MAX_BATCH_SECS_3000`] at up to 3000 packages, or [`MAX_BATCH_SECS`]
//! above that; then the gate re-execs itself as a child whose
//! journaled run is killed mid-batch by `APISTUDY_JOURNAL_CRASH_AFTER`
//! (a `std::process::abort` after half the appends), resumes the torn
//! journal in-process, and requires the resumed report **bit-identical**
//! to the uninterrupted control with every record either replayed or
//! appended exactly once.
//!
//! Measured numbers land in BENCH_pipeline.json's `seccomp` section
//! (suppress with `--no-json`).
//!
//! Usage: `seccomp_smoke [--packages N] [--no-json]`
//! (internal: `--child <journal>` runs the to-be-crashed batch).

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use apistudy_bench::smoke::{self, reference_study, Gate};
use apistudy_core::{
    synthesize_fleet, synthesize_fleet_journaled, FleetOptions, FleetReport,
    Study,
};
use apistudy_corpus::Scale;

/// The widest corpus footprint's linear max depth over its tree max
/// depth must clear this. Fragmented real footprints measure 6-8×; 4×
/// only trips when the tree degenerates.
const MIN_DEPTH_RATIO: f64 = 4.0;

/// Wall-clock budget for a batch synthesis of up to 3000 packages
/// (pipeline measurement excluded): about 3× the 0.88 s measured at
/// 3000 packages on a 2-vCPU Xeon VM.
const MAX_BATCH_SECS_3000: f64 = 3.0;

/// Wall-clock budget for a larger batch: tens of thousands of filters,
/// each probed 4097 times in two layouts and proven, parallelized over
/// the worker pool.
const MAX_BATCH_SECS: f64 = 120.0;

fn batch_study(packages: usize) -> Study {
    let scale = Scale { packages, installations: 95 * packages as u64 };
    if packages > 1024 {
        // Shard-bounded memory; bit-identical to the in-memory path.
        Study::run_streamed(scale, 2016, 512)
    } else {
        Study::run(scale, 2016)
    }
}

/// Journal stats and replay flags differ by construction between a
/// control run and a crash-resumed run; everything else must not.
fn strip(mut r: FleetReport) -> FleetReport {
    r.journal = None;
    for u in &mut r.unique {
        u.replayed = false;
    }
    r
}

/// Child mode: run the journaled batch; the parent's
/// `APISTUDY_JOURNAL_CRASH_AFTER` aborts this process mid-append.
fn run_child(journal: &Path, packages: usize) -> ! {
    let study = batch_study(packages);
    match synthesize_fleet_journaled(
        study.data(),
        study.repo(),
        FleetOptions::default(),
        journal,
        false,
    ) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("child batch failed: {e}");
            std::process::exit(1)
        }
    }
}

fn equivalence_gate() -> (u32, u32, f64) {
    let study = reference_study();
    let report = synthesize_fleet(study.data(), FleetOptions::default())
        .expect("reference fleet synthesis (includes the 2^32 proof)");
    assert!(report.verified);
    for u in &report.unique {
        let bound = if u.ranges <= 1 {
            8
        } else {
            2 * (32 - (u.ranges - 1).leading_zeros()) + 8
        };
        assert!(
            u.tree_max_depth <= bound,
            "filter {:#018x}: {} ranges, depth {} over bound {bound}",
            u.allow_hash,
            u.ranges,
            u.tree_max_depth
        );
    }
    let widest = report.widest().expect("non-empty corpus");
    assert!(
        widest.linear_len.is_some(),
        "reference corpus' widest footprint must still fit the chain"
    );
    let ratio =
        f64::from(widest.linear_max_depth) / f64::from(widest.tree_max_depth);
    println!(
        "equivalence: {} packages, {} unique filters proven for all 2^32 \
         numbers; widest footprint ({} ranges) tree depth {} vs linear {} \
         ({ratio:.1}x)",
        report.packages,
        report.unique.len(),
        widest.ranges,
        widest.tree_max_depth,
        widest.linear_max_depth,
    );
    (report.max_tree_depth(), report.max_linear_depth(), ratio)
}

fn crash_resume_gate(
    packages: usize,
    control: &FleetReport,
) -> apistudy_core::JournalStats {
    let dir = smoke::scratch_dir("seccomp-smoke");
    let journal = dir.join("fleet.apsj");

    // Kill the child halfway through its appends: the torn journal must
    // hold a clean prefix and nothing else.
    let crash_after = (control.unique.len() / 2).max(1);
    let exe = std::env::current_exe().expect("own path");
    let status = Command::new(&exe)
        .arg("--child")
        .arg(&journal)
        .args(["--packages", &packages.to_string()])
        .env("APISTUDY_JOURNAL_CRASH_AFTER", crash_after.to_string())
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "child was supposed to abort mid-batch, exited {status}"
    );

    let study = batch_study(packages);
    let resumed = synthesize_fleet_journaled(
        study.data(),
        study.repo(),
        FleetOptions::default(),
        &journal,
        true,
    )
    .expect("resume the torn journal");
    let stats = resumed.journal.expect("journaled run reports stats");
    assert!(stats.replayed > 0, "crash left no replayable prefix");
    assert!(stats.appended > 0, "nothing left to recompute after crash");
    assert_eq!(
        stats.replayed + stats.appended,
        control.unique.len() as u64,
        "every unique filter exactly once"
    );
    assert_eq!(
        strip(resumed),
        strip(control.clone()),
        "crash-resumed report must be bit-identical to the control"
    );
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

fn main() {
    let mut packages = 3000usize;
    let mut write_json = true;
    let mut child: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let parse = |v: Option<String>| -> usize {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!(
                "usage: seccomp_smoke [--packages N] [--no-json]"
            );
            std::process::exit(2)
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--packages" => packages = parse(args.next()),
            "--no-json" => write_json = false,
            "--child" => child = args.next(),
            _ => {
                parse(None);
            }
        }
    }
    if let Some(journal) = child {
        run_child(Path::new(&journal), packages);
    }

    let (tree_max, linear_max, ratio) = equivalence_gate();

    let study = batch_study(packages);
    let started = Instant::now();
    let control = synthesize_fleet(study.data(), FleetOptions::default())
        .expect("batch fleet synthesis");
    let elapsed = started.elapsed();
    let packages_per_s = f64::from(control.packages) / elapsed.as_secs_f64();
    let unique_per_s = control.unique.len() as f64 / elapsed.as_secs_f64();
    let budget = if packages <= 3000 {
        MAX_BATCH_SECS_3000
    } else {
        MAX_BATCH_SECS
    };
    println!(
        "batch: {} packages -> {} unique filters ({:.1}x dedup) \
         synthesized + verified in {:.2}s ({packages_per_s:.0} packages/s, \
         {unique_per_s:.0} unique filters/s), {} tree insns deduped + {} \
         prefix-shareable, attack surface -{:.1}%",
        control.packages,
        control.unique.len(),
        control.dedup_ratio(),
        elapsed.as_secs_f64(),
        control.total_tree_insns_deduped(),
        control.prefix_shared_insns(),
        100.0 * control.weighted_attack_surface_reduction(),
    );

    let stats = crash_resume_gate(packages, &control);
    println!(
        "crash resume: abort mid-batch -> {} replayed + {} appended, \
         bit-identical",
        stats.replayed, stats.appended
    );

    if write_json {
        smoke::record(
            &smoke::SECCOMP_KEYS,
            [
                u128::from(control.packages),
                control.unique.len() as u128,
                elapsed.as_millis(),
                packages_per_s as u128,
                unique_per_s as u128,
                (control.dedup_ratio() * 100.0) as u128,
                u128::from(control.prefix_shared_insns()),
                u128::from(tree_max),
                u128::from(linear_max),
                (ratio * 100.0) as u128,
                (control.weighted_attack_surface_reduction() * 1000.0) as u128,
            ],
        );
    }

    smoke::enforce(
        &[
            Gate::at_least(
                "widest footprint linear/tree depth (x)",
                ratio,
                MIN_DEPTH_RATIO,
            ),
            Gate::at_most(
                format!("{packages}-package batch (s)"),
                elapsed.as_secs_f64(),
                budget,
            ),
        ],
        "tree == linear == reference for all 2^32 numbers; depth \
         exhaustive over 0..=4096; depth ratio and batch time within \
         their gates; crash resume bit-identical",
    );
}
