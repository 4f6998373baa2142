//! CI smoke gate for the incremental analysis cache and crash-safe sweep
//! resume.
//!
//! Times the 11-point corruption sweep at 150 packages four ways, the
//! median of several repetitions each:
//!
//! - **cold**: the full sweep from nothing (no journal, cache off);
//! - **cached**: the same sweep over one shared in-memory cache;
//! - **resume**: the sweep resumed from the state a `faults --journal`
//!   run leaves when it dies halfway: a write-ahead journal holding the
//!   baseline support set plus the first six points, and a disk analysis
//!   cache warmed by exactly those points (replays 7 records, computes the
//!   5-point tail);
//! - **full replay**: resuming a complete journal (no corpus re-measured).
//!
//! The gate fails unless the cached sweep and the resume are each at
//! least [`MIN_SPEEDUP`]× faster than cold, the resumed stats are
//! ledger-exact (7 replayed, 5 appended), and every resumed point is
//! bit-identical (f64 bit patterns included) to the uninterrupted run,
//! so a regression that quietly disables the cache, recomputes on
//! resume, or drifts fails the job instead of just slowing it.
//!
//! Usage: `resume_smoke [reps] [--no-json]` (reps defaults to 3).

use std::path::Path;

use apistudy_analysis::AnalysisOptions;
use apistudy_bench::smoke::{
    self, sweep_rates, sweep_repo, time_reps, Gate, SWEEP_FAULT_SEED,
};
use apistudy_core::{
    cache::{AnalysisCache, CacheMode},
    corruption_sweep_journaled, corruption_sweep_with, DegradationPoint,
    FRAME_HEADER, LOG_HEADER,
};

/// Both gates: the cached sweep and the resumed half sweep must each
/// beat the cold sweep by at least this factor. Most of a cached sweep
/// point is byte-identical to the baseline, and resume skips the
/// baseline pipeline and six of eleven points outright while its tail
/// warm-starts from the disk cache, so the measured ratios are far
/// higher; 3× leaves headroom for noisy CI machines without letting a
/// disabled cache or a broken resume path pass.
const MIN_SPEEDUP: f64 = 3.0;

/// Truncates a copy of `full` after its first `keep` records, emulating
/// a crash between two appends (the torn-tail case is covered by the
/// journal proptests; here the cut lands exactly on a record boundary).
fn truncate_journal(full: &Path, half: &Path, keep: usize) {
    let bytes = std::fs::read(full).expect("read full journal");
    let mut at = LOG_HEADER;
    for _ in 0..keep {
        let len = u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("record length"),
        ) as usize;
        at += FRAME_HEADER + len;
    }
    assert!(at < bytes.len(), "journal shorter than {keep} records");
    std::fs::write(half, &bytes[..at]).expect("write half journal");
}

/// Copies the flat shard-file directory `src` over a fresh `dst`.
fn reset_dir_from(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create cache dir");
    for entry in std::fs::read_dir(src).expect("read cache snapshot") {
        let entry = entry.expect("snapshot entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name()))
            .expect("copy shard file");
    }
}

fn assert_bit_identical(resumed: &[DegradationPoint], cold: &[DegradationPoint]) {
    assert_eq!(resumed.len(), cold.len(), "point count diverged");
    for (r, c) in resumed.iter().zip(cold) {
        assert_eq!(
            r.rate.to_bits(),
            c.rate.to_bits(),
            "rate bits diverged at {}",
            c.rate
        );
        assert_eq!(
            r.completeness_top.to_bits(),
            c.completeness_top.to_bits(),
            "completeness bits diverged at rate {}",
            c.rate
        );
        assert_eq!(r, c, "point diverged at rate {}", c.rate);
    }
}

fn main() {
    let (reps, write_json) =
        smoke::reps_and_json(3, "resume_smoke [reps] [--no-json]");
    let repo = sweep_repo();
    let rates = sweep_rates();
    let options = AnalysisOptions::default();
    let root = smoke::scratch_dir("resume-smoke");

    // --- Prepare the crash state -------------------------------------
    // A full journaled run yields the reference points and the complete
    // journal; the half journal is its first 7 records (support set +
    // 6 points), byte-identical to what an interrupted run commits.
    let full_journal = root.join("full.journal");
    let (reference, full_stats) = corruption_sweep_journaled(
        &repo,
        options,
        SWEEP_FAULT_SEED,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        &full_journal,
        false,
    )
    .expect("prepare full journal");
    assert_eq!((full_stats.replayed, full_stats.appended), (0, 12));
    let half_journal = root.join("half.journal");
    truncate_journal(&full_journal, &half_journal, 7);

    // The disk cache an interrupted run leaves behind holds exactly the
    // analyses of the baseline and the first six points — warm it with a
    // sweep over that prefix, then snapshot it so every timed rep starts
    // from the same bytes.
    let cache_snapshot = root.join("cache-snapshot");
    std::fs::create_dir_all(&cache_snapshot).expect("create snapshot dir");
    let warm =
        AnalysisCache::with_dir(CacheMode::Disk, cache_snapshot.clone());
    corruption_sweep_with(
        &repo,
        options,
        SWEEP_FAULT_SEED,
        &rates[..7],
        &warm,
    );
    warm.persist().expect("persist warm cache");

    // --- Time the four runs ------------------------------------------
    let sweep = |cache: &AnalysisCache| {
        std::hint::black_box(corruption_sweep_with(
            &repo,
            options,
            SWEEP_FAULT_SEED,
            &rates,
            cache,
        ));
    };
    let cold = time_reps(reps, || sweep(&AnalysisCache::new(CacheMode::Off)));
    // One cache across the repetitions: the first rep warms it, the
    // median then measures the steady-state incremental sweep — the
    // state every run after the first sees in `mem` mode, and every run
    // including the first sees in `disk` mode after one prior process.
    let mem = AnalysisCache::new(CacheMode::Mem);
    let cached = time_reps(reps.max(2), || sweep(&mem));

    let work_journal = root.join("work.journal");
    let work_cache = root.join("cache-work");
    let mut resumed_points = Vec::new();
    let mut resumed_stats = None;
    let resume = time_reps(reps, || {
        // Fresh crash state every rep: resuming appends the tail to the
        // journal and persists new analyses, so reuse would quietly turn
        // later reps into full replays.
        std::fs::copy(&half_journal, &work_journal).expect("reset journal");
        reset_dir_from(&cache_snapshot, &work_cache);
        let cache =
            AnalysisCache::with_dir(CacheMode::Disk, work_cache.clone());
        let (points, stats) = corruption_sweep_journaled(
            &repo,
            options,
            SWEEP_FAULT_SEED,
            &rates,
            &cache,
            &work_journal,
            true,
        )
        .expect("resume half journal");
        resumed_stats = Some(stats);
        resumed_points = points;
    });

    let replay = time_reps(reps, || {
        let cache = AnalysisCache::new(CacheMode::Off);
        let (points, stats) = corruption_sweep_journaled(
            &repo,
            options,
            SWEEP_FAULT_SEED,
            &rates,
            &cache,
            &full_journal,
            true,
        )
        .expect("replay full journal");
        assert_eq!((stats.replayed, stats.appended), (12, 0));
        assert_bit_identical(&points, &reference);
    });

    // --- The ledger and the bits, not just the clock ------------------
    let stats = resumed_stats.expect("resume ran");
    assert_eq!(
        (stats.replayed, stats.appended),
        (7, 5),
        "resume must replay support set + 6 points and append 5"
    );
    assert_bit_identical(&resumed_points, &reference);
    assert_eq!(
        std::fs::read(&work_journal).expect("read resumed journal"),
        std::fs::read(&full_journal).expect("read full journal"),
        "resumed journal must be byte-identical to the uninterrupted one"
    );

    let ms = |ns: u128| ns as f64 / 1e6;
    println!("sweep_cold   (11 points + baseline, off): {:>9.1} ms", ms(cold));
    println!("sweep_cached (11 points + baseline, mem): {:>9.1} ms", ms(cached));
    println!("sweep_resume_half   (replay 7, compute 5):  {:>9.1} ms", ms(resume));
    println!("sweep_resume_replay (replay 12, compute 0): {:>9.1} ms", ms(replay));

    if write_json {
        smoke::record(&smoke::RESUME_KEYS, [cold, cached, resume, replay]);
    }
    let _ = std::fs::remove_dir_all(&root);

    smoke::enforce(
        &[
            Gate::at_least(
                "cached sweep vs cold (x)",
                cold as f64 / cached as f64,
                MIN_SPEEDUP,
            ),
            Gate::at_least(
                "resumed half sweep vs cold (x)",
                cold as f64 / resume as f64,
                MIN_SPEEDUP,
            ),
        ],
        &format!(
            "cached sweep and ledger-exact, bit-identical resumed \
             half-sweep each >= {MIN_SPEEDUP}x faster than cold"
        ),
    );
}
