//! Backend equivalence: a platform over a segment store answers every
//! estimate, and every reach-oracle question, exactly as the same
//! platform over a resident universe does.
//!
//! Seeded random specs (OR groups, exclusions, gender and age
//! constraints, empty groups, unknown ids, unsupported objectives) run
//! against stores of one, two and three segments, the last one short.
//! The oracle contract — `and_reaches(attrs, min_len_for_estimate(m))`
//! holds exactly when the rounded estimate of `AND(attrs)` is at least
//! `m` — is checked on both backends for arities 1 to 3, and the batched
//! `and_reaches_batch` against per-candidate answers and exact counts
//! (every arity from 0 to 3, duplicates, an unknown id). The naive
//! per-user evaluators in `adcomp-targeting` stay the ground truth for
//! `evaluate` itself.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use adcomp_platform::{
    AdPlatform, Catalog, CategorySpec, EstimateKind, EstimateRequest, InterfaceKind, Objective,
    PlatformConfig, ReachOracle, RoundingRule, SegmentedPlatform, SkewProfile,
};
use adcomp_population::{
    AgeBucket, DemographicProfile, Gender, SegmentStore, Universe, UniverseConfig, SEGMENT_ALIGN,
};
use adcomp_targeting::{
    AttributeId, Capabilities, DemographicSpec, FeatureId, Location, OrGroup, TargetingSpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CASES: u32 = 256;
/// Catalog size; ids up to and including `N_ATTRS` are generated, so an
/// unknown id turns up now and then.
const N_ATTRS: u32 = 16;

/// Scoped temp dir, unique per call even when tests run in parallel.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("adcomp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> PlatformConfig {
    PlatformConfig {
        kind: InterfaceKind::FacebookNormal,
        capabilities: Capabilities::permissive(),
        rounding: RoundingRule::facebook(),
        estimate_kind: EstimateKind::Users,
        supported_objectives: vec![Objective::Reach, Objective::Traffic],
        default_objective: Objective::Reach,
    }
}

/// Common attributes in one feature, rare ones (often absent from a
/// short segment) in the other.
fn catalog() -> Catalog {
    let skew = |lean: f32, popularity: (f64, f64)| {
        let mut s = SkewProfile::neutral().lean_male(lean);
        s.popularity_range = popularity;
        s
    };
    Catalog::generate(
        13,
        &[
            CategorySpec {
                name: "Games",
                domain: "games",
                feature: FeatureId(0),
                count: N_ATTRS / 2,
                skew: skew(0.7, (0.02, 0.3)),
            },
            CategorySpec {
                name: "Topics",
                domain: "media",
                feature: FeatureId(1),
                count: N_ATTRS / 2,
                skew: skew(-0.4, (0.000_05, 0.002)),
            },
        ],
    )
}

/// A segmented and a resident platform over the same universe.
struct Pair {
    segmented: SegmentedPlatform,
    resident: AdPlatform,
    _dir: TempDir,
}

fn pair(n_users: u32) -> Pair {
    let universe = UniverseConfig {
        n_users,
        seed: 77,
        scale: 1_000.0,
        profile: DemographicProfile::balanced(),
    };
    let catalog = catalog();
    let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
    let dir = TempDir::new("backend-equivalence");
    let store = SegmentStore::create(&dir.0, &universe, SEGMENT_ALIGN, &models, 1 << 22).unwrap();
    Pair {
        segmented: SegmentedPlatform::new(config(), store, catalog.clone()),
        resident: AdPlatform::new(config(), Arc::new(Universe::generate(&universe)), catalog),
        _dir: dir,
    }
}

fn arb_gender() -> impl Strategy<Value = Gender> {
    prop_oneof![Just(Gender::Male), Just(Gender::Female)]
}

fn arb_age() -> impl Strategy<Value = AgeBucket> {
    prop_oneof![
        Just(AgeBucket::A18_24),
        Just(AgeBucket::A25_34),
        Just(AgeBucket::A35_54),
        Just(AgeBucket::A55Plus),
    ]
}

prop_compose! {
    fn arb_request()(
        genders in proptest::option::of(proptest::collection::vec(arb_gender(), 1..=2)),
        ages in proptest::option::of(proptest::collection::vec(arb_age(), 1..=4)),
        include in proptest::collection::vec(
            proptest::collection::vec(0..=N_ATTRS, 0..4), 0..4),
        exclude in proptest::collection::vec(0..=N_ATTRS, 0..3),
        objective in prop_oneof![
            Just(Objective::Reach),
            Just(Objective::Traffic),
            Just(Objective::Reach),
            Just(Objective::BrandAwareness),
        ],
    ) -> EstimateRequest<'static> {
        let spec = TargetingSpec {
            demographics: DemographicSpec {
                genders,
                ages,
                location: Location::UnitedStates,
            },
            include: include
                .into_iter()
                .map(|g| OrGroup { attributes: g.into_iter().map(AttributeId).collect() })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
        };
        EstimateRequest::new(spec, objective)
    }
}

fn arb_and() -> impl Strategy<Value = Vec<AttributeId>> {
    proptest::collection::vec((0..N_ATTRS).prop_map(AttributeId), 1..=3)
}

fn estimate(platform: &dyn adcomp_platform::PlatformApi, attrs: &[AttributeId]) -> u64 {
    let spec = TargetingSpec::and_of(attrs.iter().copied());
    platform
        .reach_estimate(&EstimateRequest::new(spec, Objective::Reach))
        .unwrap()
        .value
}

#[test]
fn segmented_platforms_answer_like_resident_ones() {
    // One, two and three segments, each with a short last segment.
    let pairs = [
        pair(40_000),
        pair(SEGMENT_ALIGN + 20_000),
        pair(2 * SEGMENT_ALIGN + 5_000),
    ];
    let strategy = (arb_request(), arb_and(), 0u64..200_000_000);
    for case in 0..CASES {
        let mut rng = TestRng::for_case("backend_equivalence", case);
        let (request, attrs, any_min) = strategy.gen_value(&mut rng);
        for p in &pairs {
            let segments = p.segmented.store().n_segments();
            assert_eq!(
                p.segmented.reach_estimate(&request),
                p.resident.reach_estimate(&request),
                "case {case}, {segments} segments: {} / {}",
                request.spec,
                request.objective
            );

            let est = estimate(&p.resident, &attrs);
            assert_eq!(
                estimate(&p.segmented, &attrs),
                est,
                "case {case}: {attrs:?}"
            );
            for &id in &attrs {
                assert_eq!(p.segmented.attribute_len(id), p.resident.attribute_len(id));
            }
            for min_estimate in [1, est.saturating_sub(1), est, est + 1, any_min] {
                for oracle in [&p.segmented as &dyn ReachOracle, &p.resident] {
                    let threshold = oracle.min_len_for_estimate(min_estimate);
                    assert_eq!(
                        oracle.and_reaches(&attrs, threshold),
                        est >= min_estimate,
                        "case {case}, {segments} segments: {attrs:?} (estimate {est}) \
                         against {min_estimate}"
                    );
                }
            }
        }
    }
}

/// Exact `|AND(attrs)|` from the resident platform's ground truth (the
/// empty AND is everyone).
fn exact_len(p: &AdPlatform, attrs: &[AttributeId]) -> u64 {
    p.exact_audience(&TargetingSpec::and_of(attrs.iter().copied()))
        .unwrap()
        .len()
}

fn undecidable_total() -> u64 {
    adcomp_obs::Registry::global()
        .snapshot()
        .counter("adcomp_platform_oracle_undecidable_total")
}

#[test]
fn batched_reach_answers_match_single_answers_and_exact_counts() {
    // In a ten-user tail segment a pair's count often equals its bound,
    // so a count plus the remaining bound lands exactly on a threshold
    // and the early exit is checked at its boundary.
    let pairs = [
        pair(40_000),
        pair(SEGMENT_ALIGN + 10),
        pair(2 * SEGMENT_ALIGN + 5_000),
    ];
    let candidate = proptest::collection::vec((0..N_ATTRS).prop_map(AttributeId), 0..=3);
    let strategy = proptest::collection::vec(candidate, 1..12);
    for case in 0..CASES / 4 {
        let mut rng = TestRng::for_case("batched_reach", case);
        let mut batch = strategy.gen_value(&mut rng);
        // The same candidate twice in one batch, in another order.
        let mut again = batch[0].clone();
        again.reverse();
        batch.push(again);
        let combos: Vec<&[AttributeId]> = batch.iter().map(Vec::as_slice).collect();
        for p in &pairs {
            let exact: Vec<u64> = combos.iter().map(|c| exact_len(&p.resident, c)).collect();
            let mut thresholds = vec![0, 1, u64::MAX];
            for &len in &exact {
                thresholds.extend([len.saturating_sub(1), len, len + 1]);
            }
            for threshold in thresholds {
                for oracle in [&p.segmented as &dyn ReachOracle, &p.resident] {
                    let batched = oracle.and_reaches_batch(&combos, threshold);
                    let single: Vec<bool> = combos
                        .iter()
                        .map(|c| oracle.and_reaches(c, threshold))
                        .collect();
                    let truth: Vec<bool> = exact.iter().map(|&len| len >= threshold).collect();
                    assert_eq!(batched, truth, "case {case}: {batch:?} against {threshold}");
                    assert_eq!(single, truth, "case {case}: {batch:?} against {threshold}");
                }
            }
        }
    }
    // An unknown id is undecidable: `true`, counted once for its one
    // candidate, and its batch neighbours are still answered exactly.
    let unknown = AttributeId(N_ATTRS + 5);
    let batch: [&[AttributeId]; 3] = [
        &[AttributeId(0), AttributeId(1)],
        &[AttributeId(0), unknown],
        &[AttributeId(2)],
    ];
    for p in &pairs {
        for oracle in [&p.segmented as &dyn ReachOracle, &p.resident] {
            let before = undecidable_total();
            assert_eq!(
                oracle.and_reaches_batch(&batch, u64::MAX),
                [false, true, false]
            );
            assert_eq!(undecidable_total(), before + 1);
        }
    }
}
