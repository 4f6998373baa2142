//! `fleet_seccomp`: fleet filter synthesis with default options (verify
//! on, probe range 0..=4096) over the 3,000-package study set-up builds.

use std::collections::HashMap;
use std::time::Instant;

use apistudy_core::{
    allow_set_hash, depth_profile, run_filter, synthesize_fleet, BpfProgram, FleetOptions,
    FleetReport, SeccompData, Study,
};

use crate::report::Report;
use crate::stats::Digest;
use crate::study::{finish_trace, run_study};
use crate::trace::Trace;
use crate::{repeat_for, secs, Opts};

/// Packages in the study the fleet is synthesized over.
pub const FLEET_PACKAGES: usize = 3_000;

/// `AUDIT_ARCH_X86_64`, the architecture every filter admits.
const ARCH: u32 = apistudy_core::seccomp_bpf::AUDIT_ARCH_X86_64;

/// Digest of everything a fleet report holds.
pub fn fleet_digest(r: &FleetReport) -> u64 {
    let mut d = Digest::default();
    for w in [
        r.packages,
        r.catalog_syscalls,
        r.probe_max_nr,
        u32::from(r.verified),
    ] {
        d.word(u64::from(w));
    }
    for &u in &r.package_unique {
        d.word(u64::from(u));
    }
    for u in &r.unique {
        for w in [
            u.allow_hash,
            u64::from(u.syscalls),
            u64::from(u.ranges),
            u64::from(u.packages),
            u.mass.to_bits(),
            u64::from(u.tree_len),
            u64::from(u.linear_len.unwrap_or(u32::MAX)),
            u64::from(u.tree_max_depth),
            u.tree_depth_total,
            u64::from(u.linear_max_depth),
            u.linear_depth_total,
            u64::from(u.prefix_shared_insns),
            u64::from(u.probe_evals),
        ] {
            d.word(w);
        }
    }
    d.value()
}

/// Each operation is one `synthesize_fleet` call. Every report in the
/// process must be verified, cover every package, and equal the first.
pub fn fleet(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let store = opts.dir.join("fleet.apsf");
    let built = crate::setup_stores(opts, FLEET_PACKAGES, &store, 3)?;
    // The measuring process loads the study set-up built; that load is
    // set-up too.
    let t = Instant::now();
    let (study, digest) = run_study(FLEET_PACKAGES, opts.corpus_seed, &store, true)?;
    let setup_s = built.setup_s + secs(t);
    if digest != built.digest {
        return Err(format!(
            "fleet study digest {digest:#018x} != set-up {:#018x}",
            built.digest
        ));
    }

    let fleet_opts = FleetOptions::default();
    let mut reports: Vec<Result<FleetReport, String>> = Vec::new();
    let times = repeat_for(opts.seconds, || {
        reports.push(synthesize_fleet(study.data(), fleet_opts).map_err(|e| e.to_string()));
    });
    let reference = reports.first().and_then(|r| r.as_ref().ok()).cloned();
    for r in &reports {
        let ok = match (r, &reference) {
            (Ok(r), Some(want)) => r == want && r.verified && r.packages as usize == FLEET_PACKAGES,
            _ => false,
        };
        if !ok {
            eprintln!(
                "fleet_seccomp: report differs from the first or failed: {:?}",
                r.as_ref().err()
            );
        }
        report.tally.record(ok);
    }
    let reference = reference.ok_or("fleet synthesis failed")?;
    println!(
        "fleet digest {:#018x}: {} packages, {} unique filters",
        fleet_digest(&reference),
        reference.packages,
        reference.unique.len()
    );
    report.batch(setup_s, &times, FLEET_PACKAGES);
    if opts.trace {
        let untraced = *times.last().unwrap_or(&0.0);
        trace_fleet(opts, report, &study, &reference, untraced)?;
    }
    Ok(())
}

/// The library call in a span, then its stages rebuilt single-threaded
/// from public calls (dedup, code generation, interpreter verification);
/// the rebuild must reproduce every unique filter the report holds.
fn trace_fleet(
    opts: &Opts,
    report: &mut Report,
    study: &Study,
    want: &FleetReport,
    untraced_s: f64,
) -> Result<(), String> {
    println!("traced run");
    let data = study.data();
    let fo = FleetOptions::default();
    let mut t = Trace::default();
    let again = t.span("seccomp.fleet", |_| synthesize_fleet(data, fo));
    report.tally.record(again.as_ref().is_ok_and(|r| r == want));

    let sets: Vec<Vec<u32>> = t.span("seccomp.dedup", |_| {
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut sets = Vec::new();
        for p in &data.packages {
            let numbers: Vec<u32> = p.footprint.syscalls().collect();
            seen.entry(allow_set_hash(&numbers)).or_insert_with(|| {
                sets.push(numbers);
                sets.len() - 1
            });
        }
        sets
    });
    let programs: Vec<(BpfProgram, Option<BpfProgram>)> = t.span("seccomp.codegen", |_| {
        sets.iter()
            .map(|s| {
                let tree = BpfProgram::try_allow_tree(s).map_err(|e| e.to_string())?;
                Ok((tree, BpfProgram::try_allow_list(s).ok()))
            })
            .collect::<Result<_, String>>()
    })?;
    let mut interp_runs = 0u64;
    let rebuilt_ok = t.span("seccomp.verify", |_| {
        let mut ok = sets.len() == want.unique.len();
        for ((set, (tree, linear)), u) in sets.iter().zip(&programs).zip(&want.unique) {
            let tp = depth_profile(tree, fo.probe_max_nr);
            let lp = linear.as_ref().map(|p| depth_profile(p, fo.probe_max_nr));
            interp_runs += u64::from(fo.probe_max_nr + 1) * (1 + u64::from(linear.is_some()));
            for nr in 0..=fo.probe_max_nr {
                let want_allow = set.binary_search(&nr).is_ok();
                let data = SeccompData { nr, arch: ARCH };
                let allow = |p: &BpfProgram| {
                    run_filter(p, data) == Some(apistudy_core::seccomp_bpf::RET_ALLOW)
                };
                ok &= allow(tree) == want_allow;
                ok &= linear.as_ref().is_none_or(|p| allow(p) == want_allow);
                interp_runs += 1 + u64::from(linear.is_some());
            }
            ok &= tp.is_some_and(|p| p.max == u.tree_max_depth && p.total == u.tree_depth_total)
                && tree.len() as u32 == u.tree_len
                && linear.as_ref().map(|p| p.len() as u32) == u.linear_len
                && match lp {
                    Some(Some(p)) => p.max == u.linear_max_depth && p.total == u.linear_depth_total,
                    Some(None) => false,
                    None => u.linear_max_depth == 0,
                };
        }
        ok
    });
    if !rebuilt_ok {
        eprintln!("traced fleet_seccomp: rebuilt filters differ from the report");
    }
    report.tally.record(rebuilt_ok);

    report.set("seccomp.unique_filters", sets.len() as f64);
    report.set(
        "seccomp.dedup_ratio",
        data.packages.len() as f64 / sets.len() as f64,
    );
    report.set(
        "seccomp.codegen_s",
        t.total("seccomp.codegen").as_secs_f64(),
    );
    report.set("seccomp.verify_s", t.total("seccomp.verify").as_secs_f64());
    report.set("seccomp.interp_runs", interp_runs as f64);
    report.set(
        "trace.overhead_s",
        t.total("seccomp.fleet").as_secs_f64() - untraced_s,
    );
    finish_trace(opts, &t)
}
