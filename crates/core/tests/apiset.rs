//! Property tests pinning the word-packed [`ApiSet`] to `BTreeSet<Api>`
//! semantics, and the bitset-based [`Metrics`] to a reference
//! implementation computed over `BTreeSet` footprints.
//!
//! The interned bitset is a pure representation change: every observable
//! (membership, cardinality, iteration order, union growth, and each
//! derived metric value) must be exactly what the ordered-set code
//! produced — metrics bit-identical, not merely close.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use apistudy_catalog::{Api, ApiInterner, ApiSet, Catalog};
use apistudy_core::{ApiFootprint, Attribution, Metrics, PackageRecord, StudyData};
use apistudy_corpus::MixCensus;

fn universe() -> u32 {
    ApiInterner::global().universe() as u32
}

fn apis_of(ids: &[u32]) -> Vec<Api> {
    let interner = ApiInterner::global();
    ids.iter().map(|&id| interner.resolve(id)).collect()
}

/// A [`StudyData`] built from drawn `(footprint ids, prob ‰, dep mask)`
/// package specs. Package `i` depends on package `j < i` when bit `j` of
/// its mask is set, so the dependency graph is acyclic by construction.
fn study_data(specs: &[(Vec<u32>, u32, u32)]) -> StudyData {
    let packages: Vec<PackageRecord> = specs
        .iter()
        .enumerate()
        .map(|(i, (ids, prob, dep_mask))| {
            let mut fp = ApiFootprint::default();
            fp.apis.extend(apis_of(ids));
            PackageRecord {
                name: format!("pkg{i}"),
                prob: f64::from(*prob) / 1000.0,
                install_count: u64::from(*prob),
                depends: (0..i)
                    .filter(|j| dep_mask >> j & 1 == 1)
                    .map(|j| format!("pkg{j}"))
                    .collect(),
                footprint: fp,
                script_interpreters: vec![],
                file_counts: (1, 0, 0),
                unresolved_syscall_sites: 0,
                skipped_binaries: 0,
                partial_footprint: false,
            }
        })
        .collect();
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
        diagnostics: apistudy_core::diagnostics::RunDiagnostics::default(),
    }
}

/// Reference dependency-closed footprints over `BTreeSet<Api>`, using the
/// same resolved dependency edges and Gauss-Seidel sweep as `Metrics::new`.
fn reference_closed(data: &StudyData) -> Vec<BTreeSet<Api>> {
    let dep_indices: Vec<Vec<usize>> = data
        .packages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.depends
                .iter()
                .filter_map(|dep| data.by_name.get(dep).copied())
                .filter(|&d| d != i)
                .collect()
        })
        .collect();
    let mut closed: Vec<BTreeSet<Api>> = data
        .packages
        .iter()
        .map(|p| p.footprint.apis.iter().collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..closed.len() {
            for &d in &dep_indices[i] {
                if d == i {
                    continue;
                }
                let add: Vec<Api> = closed[d]
                    .iter()
                    .filter(|a| !closed[i].contains(*a))
                    .copied()
                    .collect();
                if !add.is_empty() {
                    closed[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    closed
}

/// Reference importance: `1 − ∏(1 − p)` over direct users in package
/// index order — the same factor order `Metrics::importance` multiplies in.
fn reference_importance(data: &StudyData, api: Api) -> f64 {
    let users: Vec<usize> = data
        .packages
        .iter()
        .enumerate()
        .filter(|(_, p)| p.footprint.apis.contains(api))
        .map(|(i, _)| i)
        .collect();
    if users.is_empty() {
        return 0.0;
    }
    let miss: f64 = users.iter().map(|&i| 1.0 - data.packages[i].prob).product();
    1.0 - miss
}

/// Reference weighted completeness over syscalls, mirroring
/// `Metrics::syscall_completeness` with `BTreeSet` footprints.
fn reference_syscall_completeness(data: &StudyData, supported: &HashSet<u32>) -> f64 {
    let total_mass: f64 = data.packages.iter().map(|p| p.prob).sum();
    if total_mass == 0.0 {
        return 0.0;
    }
    let dep_indices: Vec<Vec<usize>> = data
        .packages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.depends
                .iter()
                .filter_map(|dep| data.by_name.get(dep).copied())
                .filter(|&d| d != i)
                .collect()
        })
        .collect();
    let mut ok: Vec<bool> = data
        .packages
        .iter()
        .map(|p| {
            p.footprint.apis.iter().all(|a| match a {
                Api::Syscall(nr) => supported.contains(&nr),
                _ => true,
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..ok.len() {
            if ok[i] && dep_indices[i].iter().any(|&d| !ok[d]) {
                ok[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let supported_mass: f64 = data
        .packages
        .iter()
        .zip(&ok)
        .filter(|&(_, &s)| s)
        .map(|(p, _)| p.prob)
        .sum();
    supported_mass / total_mass
}

proptest! {
    #[test]
    fn apiset_matches_btreeset(
        ids in proptest::collection::vec(0u32..2460, 0..300),
    ) {
        let ids: Vec<u32> = ids.into_iter().filter(|&i| i < universe()).collect();
        let apis = apis_of(&ids);
        let bitset: ApiSet = apis.iter().copied().collect();
        let reference: BTreeSet<Api> = apis.iter().copied().collect();

        prop_assert_eq!(bitset.len(), reference.len());
        prop_assert_eq!(bitset.is_empty(), reference.is_empty());
        // Iteration yields the same APIs in the same (Ord) order.
        let from_bits: Vec<Api> = bitset.iter().collect();
        let from_tree: Vec<Api> = reference.iter().copied().collect();
        prop_assert_eq!(from_bits, from_tree);
        for api in &apis {
            prop_assert!(bitset.contains(*api));
        }
        // Membership agrees across the whole universe, not just inserts.
        let interner = ApiInterner::global();
        for probe in (0..universe()).step_by(97) {
            let api = interner.resolve(probe);
            prop_assert_eq!(bitset.contains(api), reference.contains(&api));
        }
    }

    #[test]
    fn union_and_intersection_match_btreeset(
        a in proptest::collection::vec(0u32..2460, 0..150),
        b in proptest::collection::vec(0u32..2460, 0..150),
    ) {
        let a: Vec<u32> = a.into_iter().filter(|&i| i < universe()).collect();
        let b: Vec<u32> = b.into_iter().filter(|&i| i < universe()).collect();
        let (apis_a, apis_b) = (apis_of(&a), apis_of(&b));
        let mut bits_a: ApiSet = apis_a.iter().copied().collect();
        let bits_b: ApiSet = apis_b.iter().copied().collect();
        let tree_a: BTreeSet<Api> = apis_a.iter().copied().collect();
        let tree_b: BTreeSet<Api> = apis_b.iter().copied().collect();

        prop_assert_eq!(
            bits_a.intersects(&bits_b),
            !tree_a.is_disjoint(&tree_b),
        );
        let grew = bits_a.union_with(&bits_b);
        let union: BTreeSet<Api> = tree_a.union(&tree_b).copied().collect();
        prop_assert_eq!(grew, union.len() > tree_a.len());
        let merged: Vec<Api> = bits_a.iter().collect();
        let expect: Vec<Api> = union.iter().copied().collect();
        prop_assert_eq!(merged, expect);
    }

    #[test]
    fn intersection_ids_match_btreeset(
        a in proptest::collection::vec(0u32..2460, 0..150),
        mask in proptest::collection::vec(0u32..2460, 0..40),
    ) {
        let a: Vec<u32> = a.into_iter().filter(|&i| i < universe()).collect();
        let mask: Vec<u32> = mask.into_iter().filter(|&i| i < universe()).collect();
        let (apis_a, apis_mask) = (apis_of(&a), apis_of(&mask));
        let bits_a: ApiSet = apis_a.iter().copied().collect();
        let bits_mask: ApiSet = apis_mask.iter().copied().collect();
        let tree_a: BTreeSet<Api> = apis_a.iter().copied().collect();
        let tree_mask: BTreeSet<Api> = apis_mask.iter().copied().collect();

        let interner = ApiInterner::global();
        let expect: Vec<u32> = tree_a
            .intersection(&tree_mask)
            .map(|&api| interner.intern(api).unwrap())
            .collect();
        let got: Vec<u32> = bits_a.intersection_ids(&bits_mask).collect();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(got.len(), bits_a.intersection_len(&bits_mask));
    }

    #[test]
    fn insert_reports_freshness_like_btreeset(
        ids in proptest::collection::vec(0u32..2460, 1..120),
    ) {
        let ids: Vec<u32> = ids.into_iter().filter(|&i| i < universe()).collect();
        let mut bitset = ApiSet::new();
        let mut reference = BTreeSet::new();
        for api in apis_of(&ids) {
            prop_assert_eq!(bitset.insert(api), reference.insert(api));
        }
        prop_assert_eq!(bitset.len(), reference.len());
    }

    #[test]
    fn metrics_are_bit_identical_to_btreeset_reference(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(0u32..2460, 0..40),
                0u32..1000,
                any::<u32>(),
            ),
            1..8,
        ),
        supported in proptest::collection::vec(0u32..400, 0..64),
    ) {
        let specs: Vec<(Vec<u32>, u32, u32)> = specs
            .into_iter()
            .map(|(ids, prob, mask)| {
                (ids.into_iter().filter(|&i| i < universe()).collect(), prob, mask)
            })
            .collect();
        let data = study_data(&specs);
        let metrics = Metrics::new(&data);

        // Every API any package touches, plus unused probes: importance and
        // closure importance must be the exact bits the reference computes.
        let mut apis: BTreeSet<Api> = data
            .packages
            .iter()
            .flat_map(|p| p.footprint.apis.iter())
            .collect();
        let interner = ApiInterner::global();
        for probe in (0..universe()).step_by(251) {
            apis.insert(interner.resolve(probe));
        }
        let closed = reference_closed(&data);
        let n = data.packages.len();
        for api in apis {
            let got = metrics.importance(api);
            let want = reference_importance(&data, api);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "importance({:?}): {} vs {}", api, got, want,
            );
            let users = closed.iter().filter(|c| c.contains(&api)).count();
            let want_closure = users as f64 / n as f64;
            let got_closure = metrics.closure_unweighted_importance(api);
            prop_assert_eq!(
                got_closure.to_bits(), want_closure.to_bits(),
                "closure_unweighted({:?}): {} vs {}", api, got_closure, want_closure,
            );
        }

        let supported: HashSet<u32> = supported.into_iter().collect();
        let got = metrics.syscall_completeness(&supported);
        let want = reference_syscall_completeness(&data, &supported);
        prop_assert_eq!(
            got.to_bits(), want.to_bits(),
            "completeness: {} vs {}", got, want,
        );
    }
}
