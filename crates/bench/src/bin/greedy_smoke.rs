//! CI smoke gate for the incremental completeness engine.
//!
//! Runs the suggest sweep — the standalone completeness gain of every
//! unsupported syscall against a top-60 base — at 150 packages two ways:
//! from scratch (clone the support set and recompute weighted
//! completeness per candidate, the implementation the engine replaced)
//! and incrementally (one [`CompletenessEngine`], one `probe_gain` per
//! candidate). Takes the median of several repetitions, verifies the two
//! sweeps agree bit-for-bit, prints the medians, records them in
//! `BENCH_pipeline.json` (keys `greedy_sweep_scratch` /
//! `greedy_sweep_incremental`), and exits non-zero unless the
//! incremental sweep is at least [`MIN_SPEEDUP`]× faster, so a
//! regression that quietly reverts to from-scratch evaluation fails the
//! job instead of just slowing it.
//!
//! Usage: `greedy_smoke [reps] [--no-json]` (reps defaults to 5).

use std::collections::HashSet;

use apistudy_bench::smoke::{self, sweep_repo, time_reps, Gate};
use apistudy_catalog::{Api, ApiKind};
use apistudy_core::{CompletenessEngine, Metrics, StudyData};

/// The gate: the incremental sweep must beat the from-scratch sweep by
/// at least this factor at 150 packages. The measured ratio is far
/// higher (most probes touch a handful of counters and short-circuit);
/// 10× leaves headroom for noisy CI machines without letting a reverted
/// engine pass.
const MIN_SPEEDUP: f64 = 10.0;

fn main() {
    let (reps, write_json) =
        smoke::reps_and_json(5, "greedy_smoke [reps] [--no-json]");
    let repo = sweep_repo();
    let data = StudyData::from_synth(&repo);
    let metrics = Metrics::new(&data);

    let base: HashSet<u32> = metrics
        .importance_ranking(ApiKind::Syscall)
        .into_iter()
        .take(60)
        .filter_map(|(api, _)| match api {
            Api::Syscall(nr) => Some(nr),
            _ => None,
        })
        .collect();
    let candidates: Vec<u32> = data
        .catalog
        .syscalls
        .iter()
        .map(|d| d.number)
        .filter(|nr| !base.contains(nr))
        .collect();

    // Correctness first: the two sweeps must agree bit-for-bit before
    // their timings mean anything.
    let before = metrics.syscall_completeness(&base);
    let scratch_gains: Vec<f64> = candidates
        .iter()
        .map(|&nr| {
            let mut grown = base.clone();
            grown.insert(nr);
            metrics.syscall_completeness(&grown) - before
        })
        .collect();
    let mut engine = CompletenessEngine::for_syscalls(&metrics, &base);
    for (&nr, &scratch) in candidates.iter().zip(&scratch_gains) {
        let probed = engine.probe_gain(Api::Syscall(nr));
        if probed.to_bits() != scratch.to_bits() {
            eprintln!(
                "FAIL: gain mismatch for syscall {nr}: \
                 incremental {probed:e} vs scratch {scratch:e}"
            );
            std::process::exit(1);
        }
    }

    let scratch = time_reps(reps, || {
        let before = metrics.syscall_completeness(&base);
        let mut acc = 0.0;
        for &nr in &candidates {
            let mut grown = base.clone();
            grown.insert(nr);
            acc += metrics.syscall_completeness(&grown) - before;
        }
        std::hint::black_box(acc);
    });
    let incremental = time_reps(reps, || {
        let mut engine = CompletenessEngine::for_syscalls(&metrics, &base);
        let mut acc = 0.0;
        for &nr in &candidates {
            acc += engine.probe_gain(Api::Syscall(nr));
        }
        std::hint::black_box(acc);
    });

    let ms = |ns: u128| ns as f64 / 1e6;
    println!(
        "greedy_sweep_scratch     ({} candidates): {:>9.3} ms",
        candidates.len(),
        ms(scratch)
    );
    println!(
        "greedy_sweep_incremental ({} candidates): {:>9.3} ms",
        candidates.len(),
        ms(incremental)
    );

    if write_json {
        smoke::record(&smoke::GREEDY_KEYS, [scratch, incremental]);
    }

    smoke::enforce(
        &[Gate::at_least(
            "incremental vs scratch sweep (x)",
            scratch as f64 / incremental as f64,
            MIN_SPEEDUP,
        )],
        &format!("incremental sweep >= {MIN_SPEEDUP}x faster than scratch"),
    );
}
