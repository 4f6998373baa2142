//! `study_cold` and `study_replay`: the paper-scale study streamed into a
//! fresh footprint store, and the same study re-opened from that store,
//! each through the summary (metrics plus completeness curve).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use apistudy_analysis::{AnalysisOptions, BinaryAnalysis};
use apistudy_catalog::Api;
use apistudy_core::{
    fold_partials, shard_partials, sharded_fingerprint, CompletenessCurve, FootprintStore, Metrics,
    MetricsIndex, StoreStats, Study, DEFAULT_SHARD_SIZE,
};
use apistudy_corpus::{CalibrationSpec, PackageFile, Scale, SynthRepo};
use apistudy_elf::ElfFile;
use apistudy_x86::Decoder;

use crate::report::Report;
use crate::stats::{median, Digest};
use crate::trace::Trace;
use crate::{repeat_for, secs, Opts};

/// Packages in the paper-scale study.
pub const STUDY_PACKAGES: usize = 30_000;

/// The scale of a study over `packages` packages, with the installation
/// count the command line derives for a bare package count.
pub fn scale(packages: usize) -> Scale {
    Scale {
        packages,
        installations: packages as u64 * 95,
    }
}

fn shards(packages: usize) -> u64 {
    packages.div_ceil(DEFAULT_SHARD_SIZE) as u64
}

/// The study digest: package count, every catalog syscall's importance
/// bits, and the completeness curve (ranking and weighted-completeness
/// bits) of the summary.
pub fn summary_digest(metrics: &Metrics<'_>, curve: &CompletenessCurve) -> u64 {
    let data = metrics.data();
    let mut d = Digest::default();
    d.word(data.packages.len() as u64);
    for def in data.catalog.syscalls.iter() {
        d.word(u64::from(def.number));
        d.word(metrics.importance(Api::Syscall(def.number)).to_bits());
    }
    for &nr in &curve.ranking {
        d.word(u64::from(nr));
    }
    for p in &curve.points {
        d.word(p.to_bits());
    }
    d.value()
}

/// One study through the library facade. With `resume` every shard must
/// replay from the store; without it every shard must be computed and
/// stored.
pub fn open_study(packages: usize, seed: u64, store: &Path, resume: bool) -> Result<Study, String> {
    let (study, st) =
        Study::run_streamed_stored(scale(packages), seed, DEFAULT_SHARD_SIZE, store, resume)
            .map_err(|e| format!("store: {e}"))?;
    check_store_stats(&st, packages, resume)?;
    if study.data().packages.len() != packages {
        return Err(format!(
            "study measured {} packages, expected {packages}",
            study.data().packages.len()
        ));
    }
    Ok(study)
}

/// [`open_study`] through the summary, digested.
pub fn run_study(
    packages: usize,
    seed: u64,
    store: &Path,
    resume: bool,
) -> Result<(Study, u64), String> {
    let study = open_study(packages, seed, store, resume)?;
    let m = study.metrics();
    let digest = summary_digest(&m, &CompletenessCurve::compute(&m));
    drop(m);
    Ok((study, digest))
}

fn check_store_stats(st: &StoreStats, packages: usize, resume: bool) -> Result<(), String> {
    let n = shards(packages);
    let ok = if resume {
        st.replayed_shards == n && st.computed_shards == 0
    } else {
        st.computed_shards == n && st.stored_shards == n && st.replayed_shards == 0
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "unexpected store accounting for {n} shards: {st:?}"
        ))
    }
}

/// The study digest of a checked run, or the failure.
type Checked = Result<u64, String>;

/// Records one operation against the reference digest.
fn judge(report: &mut Report, what: &str, got: &Checked, want: u64) {
    let ok = matches!(got, Ok(d) if *d == want);
    if !ok {
        match got {
            Ok(d) => eprintln!("{what}: digest {d:#018x} != reference {want:#018x}"),
            Err(e) => eprintln!("{what}: {e}"),
        }
    }
    report.tally.record(ok);
}

/// `study_cold`: each operation is a complete cold study. Its output is
/// checked by re-opening the store it wrote (untimed): the replay's
/// digest must equal the cold digest, and every run in the process must
/// agree on it.
pub fn cold(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let store = opts.dir.join("cold.apsf");
    // Set-up: generate the run's input, the corpus plan for the seed, and
    // check its size (three times; the median is reported). The run then
    // plans it again inside the library call, as a user's run would.
    let mut plans = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let repo = SynthRepo::new(
            scale(STUDY_PACKAGES),
            CalibrationSpec::default(),
            opts.corpus_seed,
        );
        plans.push(secs(t));
        if repo.package_count() != STUDY_PACKAGES {
            return Err(format!("corpus plan has {} packages", repo.package_count()));
        }
    }
    let setup_s = median(&plans).unwrap_or(0.0);

    let mut reference: Option<u64> = None;
    let mut checks = Vec::new();
    let times = repeat_for(opts.seconds, || {
        checks.push(run_study(STUDY_PACKAGES, opts.corpus_seed, &store, false).map(|(_, d)| d));
    });
    for got in &checks {
        let want = *reference.get_or_insert_with(|| got.clone().unwrap_or(0));
        judge(report, "study_cold", got, want);
    }
    // The store the last run wrote must replay to the same summary.
    let replayed = run_study(STUDY_PACKAGES, opts.corpus_seed, &store, true).map(|(_, d)| d);
    judge(
        report,
        "study_cold replay check",
        &replayed,
        reference.unwrap_or(0),
    );
    println!("study digest {:#018x}", reference.unwrap_or(0));

    report.batch(setup_s, &times, STUDY_PACKAGES);
    if opts.trace {
        let untraced = *times.last().unwrap_or(&0.0);
        trace_cold(opts, report, &store, reference.unwrap_or(0), untraced)?;
    }
    Ok(())
}

/// `study_replay`: set-up (in its own process) builds the store with a
/// cold study; each operation re-opens it. Every replay's digest must
/// equal the cold digest set-up reported.
pub fn replay(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let store = opts.dir.join("replay.apsf");
    let built = crate::setup_stores(opts, STUDY_PACKAGES, &store, 1)?;
    let mut checks = Vec::new();
    let times = repeat_for(opts.seconds, || {
        checks.push(run_study(STUDY_PACKAGES, opts.corpus_seed, &store, true).map(|(_, d)| d));
    });
    for got in &checks {
        judge(report, "study_replay", got, built.digest);
    }
    println!("study digest {:#018x}", built.digest);
    report.batch(built.setup_s, &times, STUDY_PACKAGES);
    if opts.trace {
        let untraced = *times.last().unwrap_or(&0.0);
        trace_replay(opts, report, &store, built.digest, untraced)?;
    }
    Ok(())
}

/// The summary from public calls, each in its own span.
fn traced_summary(t: &mut Trace, data: &apistudy_core::StudyData) -> u64 {
    let index = Arc::new(t.span("metrics.index", |_| MetricsIndex::build(data)));
    let m = Metrics::with_index(data, index);
    let curve = t.span("planner.curve", |_| CompletenessCurve::compute(&m));
    summary_digest(&m, &curve)
}

fn layer_times(t: &Trace, report: &mut Report, names: &[(&'static str, &'static str)]) {
    for (metric, span) in names {
        report.set(metric, t.total(span).as_secs_f64());
    }
}

/// Prints each layer's self time and writes the spans out.
pub fn finish_trace(opts: &Opts, t: &Trace) -> Result<(), String> {
    for (layer, d) in t.self_time_by_layer() {
        println!("  self time {layer:<28} {:>12.6} s", d.as_secs_f64());
    }
    let path = opts.trace_file();
    t.write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  spans: {} written to {}", t.spans().len(), path.display());
    Ok(())
}

/// The cold study rebuilt from the streaming layer's public calls, plus a
/// single-threaded pass that times generation, parsing, decoding and
/// analysis of every binary apart.
fn trace_cold(
    opts: &Opts,
    report: &mut Report,
    store: &Path,
    want: u64,
    untraced_s: f64,
) -> Result<(), String> {
    println!("traced run");
    let options = AnalysisOptions::default();
    let mut t = Trace::default();
    let digest = t.span("study.cold", |t| -> Result<u64, String> {
        let repo = t.span("corpus.plan", |_| {
            SynthRepo::new(
                scale(STUDY_PACKAGES),
                CalibrationSpec::default(),
                opts.corpus_seed,
            )
        });
        let partials = t.span("stream.shards", |_| {
            shard_partials(&repo, options, DEFAULT_SHARD_SIZE, None)
        });
        t.span("store.append", |_| -> Result<(), String> {
            let fp = sharded_fingerprint(&repo, options, DEFAULT_SHARD_SIZE);
            let mut fs = FootprintStore::create(store, &fp).map_err(|e| e.to_string())?;
            for p in partials.iter().filter(|p| p.diagnostics.is_clean()) {
                fs.append_shard(p).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let data = t.span("stream.fold", |_| {
            fold_partials(repo.plan.popcon.total_installations, partials)
        });
        Ok(traced_summary(t, &data))
    });
    judge(report, "traced study_cold", &digest, want);
    let traced_s = t.total("study.cold").as_secs_f64();
    let written = std::fs::metadata(store).map_or(0, |m| m.len());

    // Single-threaded per-layer pass over every package, in plan order.
    let repo = SynthRepo::new(
        scale(STUDY_PACKAGES),
        CalibrationSpec::default(),
        opts.corpus_seed,
    );
    let (mut binaries, mut elf_bytes, mut insns, mut analyzed) = (0u64, 0u64, 0u64, 0u64);
    t.span("layers.pass", |t| {
        for i in 0..repo.package_count() {
            let pkg = t.span("corpus.generate", |_| repo.package(i));
            for file in &pkg.files {
                let PackageFile::Elf { bytes, .. } = file else {
                    continue;
                };
                binaries += 1;
                elf_bytes += bytes.len() as u64;
                let Ok(elf) = t.span("elf.parse", |_| ElfFile::parse(bytes)) else {
                    continue;
                };
                insns += t.span("x86.decode", |_| {
                    let text = elf.section_by_name(".text").cloned();
                    text.and_then(|s| elf.section_data(&s).ok().map(|b| (b, s.addr)))
                        .map_or(0, |(b, addr)| Decoder::new(b, addr).count() as u64)
                });
                if t.span("analysis.analyze", |_| {
                    BinaryAnalysis::analyze_with(&elf, options)
                })
                .is_ok()
                {
                    analyzed += 1;
                }
            }
        }
    });
    println!("  pass: {binaries} binaries, {analyzed} analyzed");

    layer_times(
        &t,
        report,
        &[
            ("corpus.plan_s", "corpus.plan"),
            ("stream.shards_s", "stream.shards"),
            ("store.append_s", "store.append"),
            ("stream.fold_s", "stream.fold"),
            ("metrics.index_s", "metrics.index"),
            ("planner.curve_s", "planner.curve"),
            ("corpus.generate_s", "corpus.generate"),
            ("elf.parse_s", "elf.parse"),
            ("x86.decode_s", "x86.decode"),
            ("analysis.analyze_s", "analysis.analyze"),
        ],
    );
    report.set("store.bytes_written", written as f64);
    report.set("corpus.binaries", binaries as f64);
    report.set("corpus.elf_mb", elf_bytes as f64 / (1024.0 * 1024.0));
    report.set("x86.insns", insns as f64);
    let analyze_s = t.total("analysis.analyze").as_secs_f64();
    report.set("analysis.binaries_per_s", analyzed as f64 / analyze_s);
    let busy = t.total("corpus.generate") + t.total("elf.parse") + t.total("analysis.analyze");
    report.set(
        "stream.parallel_speedup",
        busy.as_secs_f64() / t.total("stream.shards").as_secs_f64(),
    );
    report.set("trace.overhead_s", traced_s - untraced_s);
    finish_trace(opts, &t)
}

/// The replay rebuilt from public calls, each in its own span: corpus
/// plan, store resume, fold, and the summary. Returns the study digest
/// and the number of shards replayed.
fn traced_replay(t: &mut Trace, seed: u64, store: &Path) -> Result<(u64, usize), String> {
    let options = AnalysisOptions::default();
    let repo = t.span("corpus.plan", |_| {
        SynthRepo::new(scale(STUDY_PACKAGES), CalibrationSpec::default(), seed)
    });
    let fp = sharded_fingerprint(&repo, options, DEFAULT_SHARD_SIZE);
    let (_store, partials) = t
        .span("store.resume", |_| {
            FootprintStore::resume_or_create(store, &fp)
        })
        .map_err(|e| e.to_string())?;
    let replayed = partials.len();
    let data = t.span("stream.fold", |_| {
        fold_partials(
            repo.plan.popcon.total_installations,
            partials.into_values().collect(),
        )
    });
    Ok((traced_summary(t, &data), replayed))
}

/// Replays the store at `store` from public calls under a root span
/// `root`, checks the digest against `want`, and reports the read side's
/// layer metrics.
pub fn trace_store_read(
    opts: &Opts,
    t: &mut Trace,
    report: &mut Report,
    root: &'static str,
    store: &Path,
    want: u64,
) {
    let rebuilt = t.span(root, |t| traced_replay(t, opts.corpus_seed, store));
    judge(
        report,
        root,
        &rebuilt.as_ref().map(|r| r.0).map_err(String::clone),
        want,
    );
    layer_times(
        t,
        report,
        &[
            ("corpus.plan_s", "corpus.plan"),
            ("store.resume_s", "store.resume"),
            ("stream.fold_s", "stream.fold"),
            ("metrics.index_s", "metrics.index"),
        ],
    );
    let bytes = std::fs::metadata(store).map_or(0, |m| m.len());
    report.set("store.bytes_read", bytes as f64);
    report.set("store.shards_replayed", rebuilt.map_or(0, |r| r.1) as f64);
}

/// The traced `study_replay`: the store read rebuilt from public calls.
fn trace_replay(
    opts: &Opts,
    report: &mut Report,
    store: &Path,
    want: u64,
    untraced_s: f64,
) -> Result<(), String> {
    println!("traced run");
    let mut t = Trace::default();
    trace_store_read(opts, &mut t, report, "study.replay", store, want);
    layer_times(&t, report, &[("planner.curve_s", "planner.curve")]);
    report.set(
        "trace.overhead_s",
        t.total("study.replay").as_secs_f64() - untraced_s,
    );
    finish_trace(opts, &t)
}
