//! Deterministic syscall-fault injection: the errno-chaos shim behind
//! [`crate::sys`] and the journal/store append paths.
//!
//! The study measures which syscalls appear in a footprint; what no
//! static footprint can show is which **errno paths** the caller must
//! survive. This module closes that gap for our own daemon: every raw
//! syscall the reactor issues (`epoll_ctl`, `epoll_wait`, `accept4`,
//! `read`, `write`, eventfd traffic) and every durable append the
//! journal and footprint store make can be made to fail — with the
//! exact errno a real kernel would return — at a deterministic,
//! seeded position.
//!
//! Design, mirroring the corpus corruptor (`corpus::fault`):
//!
//! - a [`SysFaultPlan`] is a seed plus [`FaultTrigger`]s: *per-callsite
//!   tag × nth-call* (fire the 3rd `accept4`), *global position* (fire
//!   at the k-th intercepted syscall, whatever it is), or *periodic*
//!   (every n-th call) for sustained chaos;
//! - every injected fault is recorded to a ground-truth **ledger** of
//!   [`SysFaultRecord`]s, so harnesses can verify exactly what fired
//!   where — injected counts are asserted, never guessed;
//! - [`SysFaultKind::Auto`] resolves to a fault *plausible for the
//!   site* (an `accept4` can return `EMFILE`; an `epoll_wait` cannot),
//!   chosen by the plan seed, so an exhaustive "fault at every k" sweep
//!   stays realistic at every position;
//! - **disabled is a no-op**: the hot-path check is one relaxed atomic
//!   load behind `#[inline]`, so the reactor's steady-state perf gates
//!   (`serve_smoke --check`) hold with the shim compiled in.
//!
//! The shim is armed per process ([`install`]) — typically from the
//! `APISTUDY_SYS_FAULTS` environment variable or the `--sys-faults`
//! CLI flag — and torn down with [`clear`], which returns the ledger.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// An errno (or partial-I/O) fault the shim can inject at a callsite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysFaultKind {
    /// `EINTR`: the call was interrupted by a signal; the caller must
    /// retry.
    Eintr,
    /// `EAGAIN`/`EWOULDBLOCK`: the call would block; the caller must
    /// wait for readiness.
    Eagain,
    /// Partial I/O: the read or write transfers a single byte instead
    /// of the full buffer; the caller must continue from the short
    /// position.
    ShortIo,
    /// `EMFILE`: the process is out of file descriptors (`accept4`,
    /// descriptor-creating calls).
    Emfile,
    /// `ENFILE`: the system-wide file table is full (`open`).
    Enfile,
    /// `ENOMEM`: the kernel could not allocate (`epoll_ctl`).
    Enomem,
    /// `ENOSPC`: the device is full. On an append path this tears the
    /// write: a prefix of the buffer lands on disk before the error.
    Enospc,
    /// `EIO`: the device failed. On an fsync path this is "fsyncgate":
    /// the page-cache state is unknowable afterwards, so the consumer
    /// must fail stop.
    Eio,
    /// Resolve to a seeded pick from the callsite's plausible fault set
    /// at injection time (see [`plausible_faults`]).
    Auto,
}

impl SysFaultKind {
    /// Stable label, used by the spec grammar and ledger displays.
    pub fn label(self) -> &'static str {
        match self {
            SysFaultKind::Eintr => "eintr",
            SysFaultKind::Eagain => "eagain",
            SysFaultKind::ShortIo => "short",
            SysFaultKind::Emfile => "emfile",
            SysFaultKind::Enfile => "enfile",
            SysFaultKind::Enomem => "enomem",
            SysFaultKind::Enospc => "enospc",
            SysFaultKind::Eio => "eio",
            SysFaultKind::Auto => "auto",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "eintr" => SysFaultKind::Eintr,
            "eagain" => SysFaultKind::Eagain,
            "short" => SysFaultKind::ShortIo,
            "emfile" => SysFaultKind::Emfile,
            "enfile" => SysFaultKind::Enfile,
            "enomem" => SysFaultKind::Enomem,
            "enospc" => SysFaultKind::Enospc,
            "eio" => SysFaultKind::Eio,
            "auto" => SysFaultKind::Auto,
            _ => return None,
        })
    }

    /// The errno this fault surfaces as (`ShortIo` and `Auto` have no
    /// errno of their own; they resolve before reaching an error path).
    pub fn errno(self) -> i32 {
        match self {
            SysFaultKind::Eintr => 4,
            SysFaultKind::Eagain => 11,
            SysFaultKind::Emfile => 24,
            SysFaultKind::Enfile => 23,
            SysFaultKind::Enomem => 12,
            SysFaultKind::Enospc => 28,
            SysFaultKind::Eio => 5,
            SysFaultKind::ShortIo | SysFaultKind::Auto => 0,
        }
    }
}

impl std::fmt::Display for SysFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The fault kinds a real kernel could plausibly return at `site`. An
/// [`SysFaultKind::Auto`] trigger resolves through this table, so a
/// global "fault at position k" sweep never injects an impossible errno
/// (an `epoll_wait` returning `EMFILE` would test nothing real).
pub fn plausible_faults(site: &str) -> &'static [SysFaultKind] {
    match site {
        "accept4" => &[
            SysFaultKind::Eintr,
            SysFaultKind::Eagain,
            SysFaultKind::Emfile,
        ],
        "read" | "write" => &[
            SysFaultKind::Eintr,
            SysFaultKind::Eagain,
            SysFaultKind::ShortIo,
        ],
        "read(eventfd)" | "write(eventfd)" => {
            &[SysFaultKind::Eintr, SysFaultKind::Eagain]
        }
        "epoll_wait" => &[SysFaultKind::Eintr],
        "epoll_ctl(ADD)" | "epoll_ctl(MOD)" | "epoll_ctl(DEL)" => {
            &[SysFaultKind::Enomem]
        }
        "epoll_create1" | "eventfd" => &[SysFaultKind::Emfile],
        "open" => &[
            SysFaultKind::Eintr,
            SysFaultKind::Emfile,
            SysFaultKind::Enfile,
        ],
        "journal.write" | "store.write" => &[
            SysFaultKind::Eintr,
            SysFaultKind::ShortIo,
            SysFaultKind::Enospc,
            SysFaultKind::Eio,
        ],
        "journal.fsync" | "store.fsync" => {
            &[SysFaultKind::Eio, SysFaultKind::Enospc]
        }
        _ => &[SysFaultKind::Eintr],
    }
}

/// When a trigger fires, relative to its site filter's call counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireAt {
    /// Fire exactly once, on the `n`-th matching call (1-based).
    Nth(u64),
    /// Fire on every `n`-th matching call (n, 2n, 3n, ...).
    Every(u64),
}

/// One armed fault: where (site filter), what (kind), and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTrigger {
    /// Callsite tag to match, or `None` to match every intercepted
    /// call (the tag is the `SysError::call` name: `"read"`,
    /// `"accept4"`, `"epoll_ctl(ADD)"`, `"journal.write"`, ...).
    pub site: Option<String>,
    /// What to inject; [`SysFaultKind::Auto`] resolves per site.
    pub kind: SysFaultKind,
    /// When to fire, counted over the calls the site filter matches.
    pub at: FireAt,
}

/// A seeded, deterministic fault plan. Install with [`install`]; the
/// same plan against the same call sequence injects identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SysFaultPlan {
    /// Seed for [`SysFaultKind::Auto`] resolution.
    pub seed: u64,
    /// The armed triggers, checked in order (first match fires).
    pub triggers: Vec<FaultTrigger>,
}

impl SysFaultPlan {
    /// An empty plan: intercepts (and counts) every shimmed call but
    /// injects nothing — the harness uses it to measure how many
    /// syscalls a scenario issues before sweeping them.
    pub fn counting() -> Self {
        Self::default()
    }

    /// Adds a once-only trigger on the `nth` call at `site`.
    pub fn at_site(
        mut self,
        site: &str,
        kind: SysFaultKind,
        nth: u64,
    ) -> Self {
        self.triggers.push(FaultTrigger {
            site: Some(site.to_string()),
            kind,
            at: FireAt::Nth(nth.max(1)),
        });
        self
    }

    /// Adds a once-only trigger on the `k`-th intercepted call overall.
    pub fn at_global(mut self, kind: SysFaultKind, k: u64) -> Self {
        self.triggers.push(FaultTrigger {
            site: None,
            kind,
            at: FireAt::Nth(k.max(1)),
        });
        self
    }

    /// Adds a periodic trigger: every `n`-th call matching `site`
    /// (`"*"` for any site).
    pub fn every(mut self, site: &str, kind: SysFaultKind, n: u64) -> Self {
        self.triggers.push(FaultTrigger {
            site: (site != "*").then(|| site.to_string()),
            kind,
            at: FireAt::Every(n.max(1)),
        });
        self
    }

    /// Parses the `APISTUDY_SYS_FAULTS` / `--sys-faults` spec grammar:
    /// semicolon- or comma-separated entries of the form
    /// `site:kind@N` (fire once, on the N-th call at `site`) or
    /// `site:kind@everyN` (fire on every N-th call), where `site` may
    /// be `*` for any callsite and `kind` is one of `eintr`, `eagain`,
    /// `short`, `emfile`, `enfile`, `enomem`, `enospc`, `eio`, `auto`. A
    /// `seed=N` entry seeds `auto` resolution.
    ///
    /// Example: `*:auto@every11;seed=3` — every 11th syscall fails
    /// with a site-plausible errno chosen by seed 3.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = SysFaultPlan::default();
        for entry in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|e| !e.is_empty())
        {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed in {entry:?}"))?;
                continue;
            }
            let (site, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("missing ':' in {entry:?}"))?;
            let (kind, pos) = rest
                .split_once('@')
                .ok_or_else(|| format!("missing '@' in {entry:?}"))?;
            let kind = SysFaultKind::from_label(kind).ok_or_else(|| {
                format!("unknown fault kind {kind:?} in {entry:?}")
            })?;
            let at = match pos.strip_prefix("every") {
                Some(n) => FireAt::Every(
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad period in {entry:?}"))?,
                ),
                None => FireAt::Nth(
                    pos.parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad position in {entry:?}"))?,
                ),
            };
            plan.triggers.push(FaultTrigger {
                site: (site != "*").then(|| site.to_string()),
                kind,
                at,
            });
        }
        Ok(plan)
    }
}

/// Ground truth for one injected fault, appended to the ledger at the
/// moment of injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysFaultRecord {
    /// The callsite tag the fault fired at.
    pub site: &'static str,
    /// The fault actually injected ([`SysFaultKind::Auto`] already
    /// resolved; never `Auto` here).
    pub kind: SysFaultKind,
    /// 1-based index of this call among calls at this site.
    pub site_call: u64,
    /// 1-based index of this call among all intercepted calls.
    pub global_call: u64,
}

struct Injector {
    plan: SysFaultPlan,
    /// Calls seen per site tag (site tags are interned `&'static str`s
    /// at every callsite, so pointer-free keys are fine).
    site_counts: std::collections::HashMap<&'static str, u64>,
    global_count: u64,
    fired: Vec<bool>,
    ledger: Vec<SysFaultRecord>,
}

/// Hot-path gate: one relaxed load. False means the shim costs nothing
/// beyond an inlined branch — the "compiled to a no-op" contract.
static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTOR: Mutex<Option<Injector>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<Injector>> {
    match INJECTOR.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

/// Arms `plan` process-wide, resetting all counters and the ledger.
/// Every shimmed callsite starts consulting it immediately.
pub fn install(plan: SysFaultPlan) {
    let fired = vec![false; plan.triggers.len()];
    *lock() = Some(Injector {
        plan,
        site_counts: std::collections::HashMap::new(),
        global_count: 0,
        fired,
        ledger: Vec::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Arms a plan from the `APISTUDY_SYS_FAULTS` environment variable.
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset or empty, `Err` on a malformed spec.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("APISTUDY_SYS_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(SysFaultPlan::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarms the shim and returns the ground-truth ledger of everything
/// it injected since [`install`].
pub fn clear() -> Vec<SysFaultRecord> {
    ENABLED.store(false, Ordering::SeqCst);
    lock()
        .take()
        .map(|inj| inj.ledger)
        .unwrap_or_default()
}

/// A copy of the ledger so far, without disarming.
pub fn ledger() -> Vec<SysFaultRecord> {
    lock()
        .as_ref()
        .map(|inj| inj.ledger.clone())
        .unwrap_or_default()
}

/// How many injections have fired since [`install`].
pub fn injected_count() -> u64 {
    lock().as_ref().map(|inj| inj.ledger.len() as u64).unwrap_or(0)
}

/// How many shimmed calls have been intercepted since [`install`]
/// (fault-free calls included) — the `k` range an exhaustive sweep
/// iterates over.
pub fn intercepted_count() -> u64 {
    lock().as_ref().map(|inj| inj.global_count).unwrap_or(0)
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed, deterministic.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shim's single entry point, called by every instrumented
/// callsite with its tag. Returns the fault to inject now, or `None`
/// to let the real call proceed. `Auto` is resolved (seeded by plan
/// seed and global position) before returning, and the injection is
/// recorded to the ledger.
#[inline]
pub fn check(site: &'static str) -> Option<SysFaultKind> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    check_armed(site)
}

#[cold]
fn check_armed(site: &'static str) -> Option<SysFaultKind> {
    let mut guard = lock();
    let inj = guard.as_mut()?;
    inj.global_count += 1;
    let site_count = {
        let c = inj.site_counts.entry(site).or_insert(0);
        *c += 1;
        *c
    };
    let global_count = inj.global_count;
    let seed = inj.plan.seed;
    let mut hit: Option<SysFaultKind> = None;
    for (i, t) in inj.plan.triggers.iter().enumerate() {
        if let Some(want) = t.site.as_deref() {
            if want != site {
                continue;
            }
        }
        let count = if t.site.is_some() { site_count } else { global_count };
        let fires = match t.at {
            FireAt::Nth(n) => count == n && !inj.fired[i],
            FireAt::Every(n) => count % n == 0,
        };
        if !fires {
            continue;
        }
        if matches!(t.at, FireAt::Nth(_)) {
            inj.fired[i] = true;
        }
        let kind = match t.kind {
            SysFaultKind::Auto => {
                let set = plausible_faults(site);
                set[(mix(seed ^ global_count) % set.len() as u64) as usize]
            }
            k => k,
        };
        hit = Some(kind);
        break;
    }
    let kind = hit?;
    inj.ledger.push(SysFaultRecord {
        site,
        kind,
        site_call: site_count,
        global_call: global_count,
    });
    Some(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shim state is process-global; tests that arm it serialize here.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        match GATE.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    #[test]
    fn disabled_shim_is_inert_and_counts_nothing() {
        let _g = gate();
        clear();
        assert_eq!(check("read"), None);
        assert_eq!(intercepted_count(), 0);
        assert!(ledger().is_empty());
    }

    #[test]
    fn nth_trigger_fires_exactly_once_at_its_position() {
        let _g = gate();
        install(SysFaultPlan::default().at_site(
            "read",
            SysFaultKind::Eintr,
            3,
        ));
        assert_eq!(check("read"), None);
        assert_eq!(check("write"), None); // does not advance "read"
        assert_eq!(check("read"), None);
        assert_eq!(check("read"), Some(SysFaultKind::Eintr));
        assert_eq!(check("read"), None); // once only
        let records = clear();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].site, "read");
        assert_eq!(records[0].site_call, 3);
        assert_eq!(records[0].global_call, 4);
    }

    #[test]
    fn global_trigger_counts_across_sites() {
        let _g = gate();
        install(SysFaultPlan::default().at_global(SysFaultKind::Eagain, 2));
        assert_eq!(check("accept4"), None);
        assert_eq!(check("write"), Some(SysFaultKind::Eagain));
        assert_eq!(check("write"), None);
        clear();
    }

    #[test]
    fn periodic_trigger_fires_every_n() {
        let _g = gate();
        install(SysFaultPlan::default().every(
            "write",
            SysFaultKind::ShortIo,
            2,
        ));
        let hits: Vec<bool> =
            (0..6).map(|_| check("write").is_some()).collect();
        assert_eq!(hits, [false, true, false, true, false, true]);
        assert_eq!(clear().len(), 3);
    }

    #[test]
    fn auto_resolves_to_a_site_plausible_fault_deterministically() {
        let _g = gate();
        for _ in 0..2 {
            install(
                SysFaultPlan { seed: 7, ..SysFaultPlan::default() }
                    .every("*", SysFaultKind::Auto, 1),
            );
            for site in
                ["accept4", "epoll_wait", "epoll_ctl(ADD)", "journal.fsync"]
            {
                let got = check(site).expect("every-1 must fire");
                assert!(
                    plausible_faults(site).contains(&got),
                    "{got:?} implausible at {site}"
                );
                assert_ne!(got, SysFaultKind::Auto, "auto must resolve");
            }
        }
        // Same seed, same sequence: the two passes injected identically.
        let second = ledger();
        install(
            SysFaultPlan { seed: 7, ..SysFaultPlan::default() }
                .every("*", SysFaultKind::Auto, 1),
        );
        for site in
            ["accept4", "epoll_wait", "epoll_ctl(ADD)", "journal.fsync"]
        {
            let _ = check(site);
        }
        assert_eq!(ledger(), second);
        clear();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan =
            SysFaultPlan::parse("read:eintr@3; *:auto@every11; seed=42")
                .expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.triggers.len(), 2);
        assert_eq!(plan.triggers[0].site.as_deref(), Some("read"));
        assert_eq!(plan.triggers[0].kind, SysFaultKind::Eintr);
        assert_eq!(plan.triggers[0].at, FireAt::Nth(3));
        assert_eq!(plan.triggers[1].site, None);
        assert_eq!(plan.triggers[1].at, FireAt::Every(11));

        for bad in [
            "read@3",
            "read:bogus@3",
            "read:eintr@0",
            "read:eintr@every0",
            "seed=x",
            "read:eintr",
        ] {
            assert!(
                SysFaultPlan::parse(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // Empty spec: a valid counting plan.
        assert_eq!(
            SysFaultPlan::parse("").expect("empty"),
            SysFaultPlan::default()
        );
    }

    #[test]
    fn errnos_match_the_kernel_values() {
        assert_eq!(SysFaultKind::Eintr.errno(), 4);
        assert_eq!(SysFaultKind::Eagain.errno(), 11);
        assert_eq!(SysFaultKind::Emfile.errno(), 24);
        assert_eq!(SysFaultKind::Enfile.errno(), 23);
        assert_eq!(SysFaultKind::Enomem.errno(), 12);
        assert_eq!(SysFaultKind::Enospc.errno(), 28);
        assert_eq!(SysFaultKind::Eio.errno(), 5);
    }
}
