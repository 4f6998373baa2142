//! The incremental completeness engine.
//!
//! The paper's planning loop — "which API should a compat layer add
//! next?" (§3.2, Table 6) — evaluates weighted completeness once per
//! candidate API, and every evaluation used to rebuild the unsupported
//! mask and rerun the dependency fixed point from scratch.
//! [`CompletenessEngine`] instead maintains, per condensation component,
//! two counters that fully determine supportedness:
//!
//! - `own_unsupported`: how many distinct in-scope unsupported APIs the
//!   component's own footprint union contains;
//! - `bad_deps`: how many direct dependency components are currently
//!   unsupported.
//!
//! A component is supported iff both are zero. [`add_api`] /
//! [`remove_api`] touch only the components whose footprints contain the
//! API plus whatever the status flip cascades to along condensation
//! edges — O(edges touched), not O(V·E·iters). Completeness values are
//! re-read through the same canonical package-order mass sum the
//! from-scratch path uses, so every number the engine reports is
//! **bit-identical** (f64 bit pattern) to
//! [`Metrics::weighted_completeness_masked`] over the equivalent mask.
//!
//! [`add_api`]: CompletenessEngine::add_api
//! [`remove_api`]: CompletenessEngine::remove_api

use std::collections::HashSet;

use apistudy_catalog::{Api, ApiInterner, ApiSet};

use crate::metrics::Metrics;

/// Incremental weighted-completeness state over a fixed API scope.
///
/// Cheap to clone is a non-goal; cheap to *update* is the point. Create
/// one per planning session and drive it with
/// [`add_api`](Self::add_api) / [`remove_api`](Self::remove_api) /
/// [`probe_gain`](Self::probe_gain).
pub struct CompletenessEngine<'m, 'a> {
    metrics: &'m Metrics<'a>,
    /// The in-scope APIs (fixed for the engine's lifetime).
    scope: ApiSet,
    /// In-scope APIs currently unsupported.
    unsupported: ApiSet,
    /// Per component: distinct unsupported APIs in its own footprint
    /// union.
    own_unsupported: Vec<u32>,
    /// Per component: direct dependency components currently unsupported.
    bad_deps: Vec<u32>,
    /// Per component: supported iff `own_unsupported == 0 && bad_deps == 0`.
    comp_ok: Vec<bool>,
    /// Per package: its component's verdict, maintained incrementally so
    /// the canonical mass sum never walks the component table.
    pkg_ok: Vec<bool>,
    /// Current completeness (canonical package-order sum).
    current: f64,
    /// Components whose verdict flipped in the last `add_api`/`remove_api`.
    flipped: Vec<u32>,
}

impl<'m, 'a> CompletenessEngine<'m, 'a> {
    /// Builds an engine whose scope is `scope` with everything in
    /// `unsupported ∩ scope` initially unsupported.
    pub fn new(metrics: &'m Metrics<'a>, scope: ApiSet, unsupported: &ApiSet) -> Self {
        let cond = metrics.condensation();
        let ncomp = cond.len();
        let mut masked = ApiSet::new();
        for api in unsupported.iter() {
            if scope.contains(api) {
                masked.insert(api);
            }
        }
        let own_unsupported: Vec<u32> = (0..ncomp)
            .map(|c| metrics.comp_own[c].intersection_len(&masked) as u32)
            .collect();
        let mut bad_deps = vec![0u32; ncomp];
        let mut comp_ok = vec![false; ncomp];
        for c in 0..ncomp {
            let bad = cond
                .deps(c as u32)
                .iter()
                .filter(|&&d| !comp_ok[d as usize])
                .count() as u32;
            bad_deps[c] = bad;
            comp_ok[c] = own_unsupported[c] == 0 && bad == 0;
        }
        let pkg_ok: Vec<bool> = (0..metrics.data().packages.len())
            .map(|i| comp_ok[cond.comp_of(i) as usize])
            .collect();
        let mut engine = Self {
            metrics,
            scope,
            unsupported: masked,
            own_unsupported,
            bad_deps,
            comp_ok,
            pkg_ok,
            current: 0.0,
            flipped: Vec::new(),
        };
        engine.current = engine.canonical();
        engine
    }

    /// Engine over syscall scope, starting from a set of supported
    /// syscall numbers — the Table 6 / `apistudy suggest` configuration.
    pub fn for_syscalls(
        metrics: &'m Metrics<'a>,
        supported_numbers: &HashSet<u32>,
    ) -> Self {
        let scope = metrics.syscall_unsupported_mask(&HashSet::new());
        let unsupported = metrics.syscall_unsupported_mask(supported_numbers);
        Self::new(metrics, scope, &unsupported)
    }

    /// Engine over an arbitrary scope predicate and supported set — the
    /// mirror of [`Metrics::weighted_completeness`]'s signature.
    pub fn from_scope<F>(
        metrics: &'m Metrics<'a>,
        scope: F,
        supported: &HashSet<Api>,
    ) -> Self
    where
        F: Fn(Api) -> bool,
    {
        let interner = ApiInterner::global();
        let mut scope_mask = ApiSet::new();
        let mut unsupported = ApiSet::new();
        for id in 0..interner.universe() as u32 {
            let api = interner.resolve(id);
            if scope(api) {
                scope_mask.insert(api);
                if !supported.contains(&api) {
                    unsupported.insert(api);
                }
            }
        }
        Self::new(metrics, scope_mask, &unsupported)
    }

    /// The canonical completeness reduction: package-order mass sum over
    /// supported packages — term for term the one
    /// [`Metrics::weighted_completeness_masked`] computes.
    fn canonical(&self) -> f64 {
        if self.metrics.total_mass == 0.0 {
            return 0.0;
        }
        let supported_mass: f64 = self
            .metrics
            .data()
            .packages
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.pkg_ok[i])
            .map(|(_, p)| p.prob)
            .sum();
        supported_mass / self.metrics.total_mass
    }

    /// Current weighted completeness.
    pub fn completeness(&self) -> f64 {
        self.current
    }

    /// Whether an API is currently in the unsupported set.
    pub fn is_unsupported(&self, api: Api) -> bool {
        self.unsupported.contains(api)
    }

    /// The current unsupported mask (in scope).
    pub fn unsupported_mask(&self) -> &ApiSet {
        &self.unsupported
    }

    /// Whether a condensation component is currently supported.
    pub fn comp_ok(&self, comp: u32) -> bool {
        self.comp_ok[comp as usize]
    }

    /// Components whose verdict flipped during the last
    /// [`add_api`](Self::add_api) or [`remove_api`](Self::remove_api).
    pub fn last_flipped(&self) -> &[u32] {
        &self.flipped
    }

    /// Marks an API supported and returns the completeness delta.
    ///
    /// Touches only the components whose own footprint contains the API,
    /// plus the cascade of components the flips unblock. A no-op (API out
    /// of scope, or already supported) returns exactly `0.0`.
    pub fn add_api(&mut self, api: Api) -> f64 {
        self.flipped.clear();
        let Some(id) = ApiInterner::global().intern(api) else {
            return 0.0;
        };
        if !self.unsupported.remove(api) {
            return 0.0;
        }
        let before = self.current;
        let mut worklist: Vec<u32> = Vec::new();
        for &c in &self.metrics.comp_dependents[id as usize] {
            let ci = c as usize;
            self.own_unsupported[ci] -= 1;
            if self.own_unsupported[ci] == 0 && self.bad_deps[ci] == 0 {
                worklist.push(c);
            }
        }
        while let Some(c) = worklist.pop() {
            let ci = c as usize;
            if self.comp_ok[ci] {
                continue;
            }
            self.comp_ok[ci] = true;
            self.flipped.push(c);
            for &i in self.metrics.condensation().members(c) {
                self.pkg_ok[i] = true;
            }
            for &r in self.metrics.condensation().dependents(c) {
                let ri = r as usize;
                self.bad_deps[ri] -= 1;
                if self.bad_deps[ri] == 0 && self.own_unsupported[ri] == 0 {
                    worklist.push(r);
                }
            }
        }
        if !self.flipped.is_empty() {
            self.current = self.canonical();
        }
        self.current - before
    }

    /// Marks an API unsupported and returns the completeness delta
    /// (zero or negative). The exact inverse of
    /// [`add_api`](Self::add_api): an add/remove round trip restores
    /// every counter and the completeness bit pattern.
    pub fn remove_api(&mut self, api: Api) -> f64 {
        self.flipped.clear();
        let Some(id) = ApiInterner::global().intern(api) else {
            return 0.0;
        };
        if !self.scope.contains(api) || !self.unsupported.insert(api) {
            return 0.0;
        }
        let before = self.current;
        let mut worklist: Vec<u32> = Vec::new();
        for &c in &self.metrics.comp_dependents[id as usize] {
            let ci = c as usize;
            self.own_unsupported[ci] += 1;
            if self.own_unsupported[ci] == 1 && self.comp_ok[ci] {
                worklist.push(c);
            }
        }
        while let Some(c) = worklist.pop() {
            let ci = c as usize;
            if !self.comp_ok[ci] {
                continue;
            }
            self.comp_ok[ci] = false;
            self.flipped.push(c);
            for &i in self.metrics.condensation().members(c) {
                self.pkg_ok[i] = false;
            }
            for &r in self.metrics.condensation().dependents(c) {
                let ri = r as usize;
                self.bad_deps[ri] += 1;
                if self.bad_deps[ri] == 1 && self.comp_ok[ri] {
                    worklist.push(r);
                }
            }
        }
        if !self.flipped.is_empty() {
            self.current = self.canonical();
        }
        self.current - before
    }

    /// The marginal completeness gain of supporting `api`, leaving the
    /// engine's state exactly as it was (add, measure, remove).
    ///
    /// A read-only pre-check comes first: adding `api` can only flip a
    /// component for which `api` is the last missing API and whose
    /// dependencies are all supported. When no component qualifies the
    /// gain is exactly `0.0` and nothing is touched but `last_flipped`,
    /// which is cleared as the round trip would leave it. Most probes in
    /// a planning round end here.
    pub fn probe_gain(&mut self, api: Api) -> f64 {
        if !self.unsupported.contains(api) {
            return 0.0;
        }
        // In the unsupported mask, hence in scope and interned.
        let id = ApiInterner::global()
            .intern(api)
            .expect("unsupported api is interned");
        let can_flip = self.metrics.comp_dependents[id as usize]
            .iter()
            .any(|&c| {
                self.own_unsupported[c as usize] == 1
                    && self.bad_deps[c as usize] == 0
            });
        if !can_flip {
            self.flipped.clear();
            return 0.0;
        }
        let delta = self.add_api(api);
        self.remove_api(api);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::ApiFootprint;
    use crate::pipeline::{Attribution, PackageRecord, StudyData};
    use apistudy_catalog::Catalog;
    use apistudy_corpus::MixCensus;

    fn mk(name: &str, prob: f64, apis: &[Api], deps: &[&str]) -> PackageRecord {
        let mut fp = ApiFootprint::default();
        fp.apis.extend(apis.iter().copied());
        PackageRecord {
            name: name.into(),
            prob,
            install_count: (prob * 1000.0) as u64,
            depends: deps.iter().map(|s| s.to_string()).collect(),
            footprint: fp,
            script_interpreters: vec![],
            file_counts: (1, 0, 0),
            unresolved_syscall_sites: 0,
            skipped_binaries: 0,
            partial_footprint: false,
        }
    }

    fn dataset(packages: Vec<PackageRecord>) -> StudyData {
        let by_name = packages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        StudyData {
            catalog: Catalog::linux_3_19(),
            packages,
            by_name,
            total_installations: 1000,
            census: MixCensus::default(),
            attribution: Attribution::default(),
            unresolved_syscall_sites: 0,
            resolved_syscall_sites: 100,
            diagnostics: crate::diagnostics::RunDiagnostics::default(),
        }
    }

    /// Chain + cycle fixture: `leaf → (a ↔ b) → base`, plus a standalone.
    fn data() -> StudyData {
        dataset(vec![
            mk("base", 1.0, &[Api::Syscall(0)], &[]),
            mk("a", 0.6, &[Api::Syscall(1)], &["b", "base"]),
            mk("b", 0.4, &[Api::Syscall(2)], &["a"]),
            mk("leaf", 0.2, &[Api::Syscall(3)], &["a"]),
            mk("standalone", 0.5, &[Api::Syscall(4)], &[]),
        ])
    }

    fn scratch(m: &Metrics<'_>, supported: &HashSet<u32>) -> f64 {
        m.syscall_completeness(supported)
    }

    #[test]
    fn engine_tracks_from_scratch_bitwise_through_adds_and_removes() {
        let data = data();
        let m = Metrics::new(&data);
        let mut supported: HashSet<u32> = HashSet::new();
        let mut engine = CompletenessEngine::for_syscalls(&m, &supported);
        assert_eq!(
            engine.completeness().to_bits(),
            scratch(&m, &supported).to_bits()
        );
        // Grow one API at a time, checking bit-identity at every step.
        for nr in [0u32, 4, 1, 2, 3] {
            let before = engine.completeness();
            let delta = engine.add_api(Api::Syscall(nr));
            supported.insert(nr);
            let reference = scratch(&m, &supported);
            assert_eq!(
                engine.completeness().to_bits(),
                reference.to_bits(),
                "after adding {nr}"
            );
            assert_eq!((engine.completeness() - before).to_bits(), delta.to_bits());
        }
        assert!((engine.completeness() - 1.0).abs() < 1e-12);
        // Now shrink again.
        for nr in [1u32, 0] {
            engine.remove_api(Api::Syscall(nr));
            supported.remove(&nr);
            assert_eq!(
                engine.completeness().to_bits(),
                scratch(&m, &supported).to_bits(),
                "after removing {nr}"
            );
        }
    }

    #[test]
    fn cycle_becomes_supported_only_together() {
        let data = data();
        let m = Metrics::new(&data);
        let mut engine = CompletenessEngine::for_syscalls(&m, &HashSet::new());
        engine.add_api(Api::Syscall(0));
        // base works: mass 1.0 of 2.7.
        assert!((engine.completeness() - 1.0 / 2.7).abs() < 1e-12);
        // Supporting only syscall 1 (a's API) cannot flip the a↔b cycle.
        let d1 = engine.add_api(Api::Syscall(1));
        assert_eq!(d1, 0.0);
        // Syscall 2 completes the cycle: a and b flip together.
        let d2 = engine.add_api(Api::Syscall(2));
        assert!((d2 - 1.0 / 2.7).abs() < 1e-12, "a+b mass: {d2}");
        // And unlocks leaf for syscall 3.
        let d3 = engine.add_api(Api::Syscall(3));
        assert!((d3 - 0.2 / 2.7).abs() < 1e-12, "leaf mass: {d3}");
    }

    #[test]
    fn probe_round_trip_is_exact() {
        let data = data();
        let m = Metrics::new(&data);
        let supported: HashSet<u32> = [0u32].into_iter().collect();
        let mut engine = CompletenessEngine::for_syscalls(&m, &supported);
        let before = engine.completeness().to_bits();
        let own_before = engine.own_unsupported.clone();
        let bad_before = engine.bad_deps.clone();
        let ok_before = engine.comp_ok.clone();
        for nr in 0..6u32 {
            let gain = engine.probe_gain(Api::Syscall(nr));
            assert!(gain >= 0.0);
            assert_eq!(engine.completeness().to_bits(), before, "probe {nr}");
        }
        assert_eq!(engine.own_unsupported, own_before);
        assert_eq!(engine.bad_deps, bad_before);
        assert_eq!(engine.comp_ok, ok_before);
    }

    #[test]
    fn out_of_scope_and_duplicate_ops_are_no_ops() {
        let data = data();
        let m = Metrics::new(&data);
        let mut engine = CompletenessEngine::for_syscalls(&m, &HashSet::new());
        // Libc symbols are outside the syscall scope.
        assert_eq!(engine.remove_api(Api::LibcSymbol(3)), 0.0);
        assert_eq!(engine.add_api(Api::LibcSymbol(3)), 0.0);
        // Out-of-universe syscalls are inert.
        assert_eq!(engine.add_api(Api::Syscall(9999)), 0.0);
        // Double add: the second is a no-op.
        let first = engine.add_api(Api::Syscall(0));
        assert!(first > 0.0);
        assert_eq!(engine.add_api(Api::Syscall(0)), 0.0);
        // Double remove likewise.
        let back = engine.remove_api(Api::Syscall(0));
        assert_eq!(back.to_bits(), (-first).to_bits());
        assert_eq!(engine.remove_api(Api::Syscall(0)), 0.0);
    }

    #[test]
    fn from_scope_matches_weighted_completeness() {
        let data = data();
        let m = Metrics::new(&data);
        let supported: HashSet<Api> =
            [Api::Syscall(0), Api::Syscall(4)].into_iter().collect();
        let engine = CompletenessEngine::from_scope(
            &m,
            |a| a.kind() == apistudy_catalog::ApiKind::Syscall,
            &supported,
        );
        let reference =
            m.weighted_completeness(&supported, |a| {
                a.kind() == apistudy_catalog::ApiKind::Syscall
            });
        assert_eq!(engine.completeness().to_bits(), reference.to_bits());
    }
}
