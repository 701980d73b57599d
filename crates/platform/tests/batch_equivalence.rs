//! Batch equivalence: `reach_estimates` answers a batch exactly as a
//! `reach_estimate` loop does on a twin built from the same seed — the
//! same values and errors per request, the same `stats()`, and the same
//! `adcomp_platform_*` metric deltas.
//!
//! The batch is shaped like the audit's (seven-class families,
//! complemented ages, inclusion–exclusion intersections, repeats) with an
//! unsupported objective, policy violations and unknown ids mixed in. It
//! runs against a resident platform, one classifying users through an
//! inferred demographic view, and a segment store whose cache holds a
//! fraction of what the batch touches.
//!
//! One test per file: the metric registry is process-global, and the
//! deltas are read around each call.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use adcomp_obs::metrics::Registry;
use adcomp_platform::{
    AdPlatform, Catalog, CategorySpec, EstimateKind, EstimateRequest, InterfaceKind, Objective,
    PlatformApi, PlatformConfig, RoundingRule, SegmentedPlatform, SkewProfile,
};
use adcomp_population::{
    AgeBucket, AttributeInference, DemographicProfile, Gender, SegmentStore, Universe,
    UniverseConfig, SEGMENT_ALIGN,
};
use adcomp_targeting::{AttributeId, Capabilities, FeatureId, OrGroup, TargetingSpec};

const N_ATTRS: u32 = 12;

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

/// Permissive, except that an OR group may hold at most three options.
fn config() -> PlatformConfig {
    PlatformConfig {
        kind: InterfaceKind::FacebookNormal,
        capabilities: Capabilities {
            max_group_size: 3,
            ..Capabilities::permissive()
        },
        rounding: RoundingRule::facebook(),
        estimate_kind: EstimateKind::Users,
        supported_objectives: vec![Objective::Reach, Objective::Traffic],
        default_objective: Objective::Reach,
    }
}

fn catalog() -> Catalog {
    Catalog::generate(
        21,
        &[
            CategorySpec {
                name: "Games",
                domain: "games",
                feature: FeatureId(0),
                count: N_ATTRS / 2,
                skew: SkewProfile::neutral().lean_male(0.6),
            },
            CategorySpec {
                name: "Topics",
                domain: "media",
                feature: FeatureId(1),
                count: N_ATTRS / 2,
                skew: SkewProfile::neutral(),
            },
        ],
    )
}

fn universe_config() -> UniverseConfig {
    UniverseConfig {
        n_users: 2 * SEGMENT_ALIGN + 9_000,
        seed: 33,
        scale: 100.0,
        profile: DemographicProfile::balanced(),
    }
}

fn resident() -> AdPlatform {
    AdPlatform::new(
        config(),
        Arc::new(Universe::generate(&universe_config())),
        catalog(),
    )
}

fn inferred() -> AdPlatform {
    resident().with_inference(AttributeInference::noisy(5, 0.1, 0.2).with_missingness(0.2, 0, 1.0))
}

/// A three-segment platform whose cache holds about two audiences.
fn segmented(dir: &TempDir) -> SegmentedPlatform {
    let catalog = catalog();
    let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
    let store =
        SegmentStore::create(&dir.0, &universe_config(), SEGMENT_ALIGN, &models, 16 << 10).unwrap();
    SegmentedPlatform::new(config(), store, catalog)
}

fn ids(ids: &[u32]) -> impl Iterator<Item = AttributeId> + '_ {
    ids.iter().copied().map(AttributeId)
}

/// The audit's batch shapes plus requests every interface must refuse.
fn batch() -> Vec<EstimateRequest<'static>> {
    let bases = [
        TargetingSpec::and_of(ids(&[0, 7])),
        TargetingSpec::and_of(ids(&[1, 8])),
        TargetingSpec::and_of(ids(&[0, 7, 9])),
        TargetingSpec::builder()
            .any_of(ids(&[2, 3]))
            .attribute(AttributeId(10))
            .exclude(ids(&[4]))
            .build(),
        TargetingSpec::builder()
            .attribute(AttributeId(5))
            .genders([Gender::Female])
            .build(),
    ];
    let mut specs = Vec::new();
    for base in &bases {
        specs.push(base.clone());
        for g in Gender::ALL {
            let mut spec = base.clone();
            spec.demographics.genders = Some(vec![g]);
            specs.push(spec);
        }
        for a in AgeBucket::ALL {
            let mut spec = base.clone();
            spec.demographics.ages = Some(vec![a]);
            specs.push(spec);
        }
        let mut not_young = base.clone();
        not_young.demographics.ages = Some(AgeBucket::ALL[1..].to_vec());
        specs.push(not_young);
    }
    for (i, a) in bases.iter().enumerate() {
        for b in &bases[i + 1..] {
            if let Some(ab) = a.intersect(b) {
                specs.push(ab);
            }
        }
    }
    if let Some(abc) = bases[0]
        .intersect(&bases[1])
        .and_then(|ab| ab.intersect(&bases[3]))
    {
        specs.push(abc);
    }
    specs.push(TargetingSpec::everyone());
    specs.push(TargetingSpec::builder().gender(Gender::Male).build());
    specs.push(specs[0].clone());
    specs.push(TargetingSpec {
        include: vec![OrGroup { attributes: vec![] }],
        exclude: vec![AttributeId(N_ATTRS)],
        ..Default::default()
    });
    // Policy violations: an OR group over the size limit, unknown ids.
    specs.push(TargetingSpec::builder().any_of(ids(&[0, 1, 2, 3])).build());
    specs.push(TargetingSpec::and_of(ids(&[1, N_ATTRS])));
    specs.push(
        TargetingSpec::builder()
            .attribute(AttributeId(2))
            .exclude(ids(&[N_ATTRS + 1]))
            .build(),
    );
    let mut requests: Vec<EstimateRequest<'static>> = specs
        .into_iter()
        .map(|spec| EstimateRequest::new(spec, Objective::Reach))
        .collect();
    requests[3].objective = Objective::Traffic;
    requests[5].objective = Objective::BrandAwareness;
    let unsupported = requests[0].clone();
    requests.insert(
        9,
        EstimateRequest {
            objective: Objective::Conversions,
            ..unsupported
        },
    );
    requests
}

/// Every `adcomp_platform_*` counter, and every such histogram's count
/// and sum.
fn platform_metrics() -> Vec<(String, u64)> {
    let snap = Registry::global().snapshot();
    let counters = snap
        .counters()
        .map(|(key, value)| (format!("{key:?}"), *value));
    let histograms = snap.histograms().flat_map(|(key, h)| {
        [
            (format!("{key:?} count"), h.count()),
            (format!("{key:?} sum"), h.sum),
        ]
    });
    counters
        .chain(histograms)
        .filter(|(key, _)| key.contains("adcomp_platform_"))
        .collect()
}

/// What running `f` moved each platform metric by.
fn deltas<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    let before = platform_metrics();
    let out = f();
    let after = platform_metrics();
    let moved = after
        .into_iter()
        .map(|(key, value)| {
            let was = before
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0, |(_, v)| *v);
            (key, value - was)
        })
        .collect();
    (out, moved)
}

fn assert_batch_equals_loop(what: &str, batched: &dyn PlatformApi, serial: &dyn PlatformApi) {
    let requests = batch();
    let (answers, batch_moved) = deltas(|| batched.reach_estimates(&requests));
    let (expected, loop_moved) = deltas(|| {
        requests
            .iter()
            .map(|r| serial.reach_estimate(r))
            .collect::<Vec<_>>()
    });
    assert_eq!(answers.len(), requests.len(), "{what}");
    for ((request, got), want) in requests.iter().zip(&answers).zip(&expected) {
        assert_eq!(
            got, want,
            "{what}: {} / {}",
            request.spec, request.objective
        );
    }
    assert!(
        expected.iter().filter(|a| a.is_err()).count() >= 4,
        "{what}: the batch exercises refusals"
    );
    assert_eq!(batched.stats(), serial.stats(), "{what}");
    assert!(batched.stats().validation_failures >= 3, "{what}");
    assert_eq!(batch_moved, loop_moved, "{what}");
    assert!(
        batch_moved.iter().any(|(_, moved)| *moved > 0),
        "{what}: metrics moved"
    );
}

#[test]
fn reach_estimates_equals_a_reach_estimate_loop() {
    assert_batch_equals_loop("resident", &resident(), &resident());
    assert_batch_equals_loop("inferred view", &inferred(), &inferred());
    let (a, b) = (TempDir::new("batch-eq"), TempDir::new("batch-eq"));
    let (batched, serial) = (segmented(&a), segmented(&b));
    assert_batch_equals_loop("segmented", &batched, &serial);
    assert!(batched.store().cache_stats().misses > 0);
}
