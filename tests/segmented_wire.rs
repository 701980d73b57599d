//! Wire-serving a disk-backed [`SegmentedPlatform`] (ROADMAP follow-on
//! to the 20M-user scaling PR): the wire protocol only sees
//! [`PlatformApi`], so the streamed segment store must be servable and
//! fleet-replicable exactly like the in-memory simulators — and answer
//! byte-identically over the wire.

use std::sync::Arc;

use discrimination_via_composition::audit::{
    measure_spec, rank_individuals, survey_individuals, top_compositions, AuditTarget, Direction,
    DiscoveryConfig, EstimateSource, SensitiveClass,
};
use discrimination_via_composition::platform::{
    Catalog, CategorySpec, EstimateKind, InterfaceKind, Objective, PlatformApi, PlatformConfig,
    RoundingRule, SegmentedPlatform, SkewProfile,
};
use discrimination_via_composition::population::{
    DemographicProfile, Gender, SegmentStore, UniverseConfig, SEGMENT_ALIGN,
};
use discrimination_via_composition::targeting::{
    AttributeId, Capabilities, FeatureId, TargetingSpec,
};
use discrimination_via_composition::wire::{serve, ClientConfig, ServerConfig};
use discrimination_via_composition::{Fleet, RemoteSource};

mod common;

/// A three-segment store behind the Facebook interface config.
fn segmented_platform(dir: &std::path::Path, seed: u64) -> Arc<SegmentedPlatform> {
    let skew = |lean: f32| {
        let mut s = SkewProfile::neutral().lean_male(lean);
        s.popularity_range = (0.02, 0.35);
        s
    };
    let catalog = Catalog::generate(
        seed ^ 0x5eed,
        &[
            CategorySpec {
                name: "Interests",
                domain: "interests",
                feature: FeatureId(0),
                count: 16,
                skew: skew(0.35),
            },
            CategorySpec {
                name: "Lifestyle",
                domain: "lifestyle",
                feature: FeatureId(1),
                count: 16,
                skew: skew(-0.2),
            },
        ],
    );
    let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
    let store = SegmentStore::create(
        dir,
        &UniverseConfig {
            n_users: 3 * SEGMENT_ALIGN,
            seed,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        },
        SEGMENT_ALIGN,
        &models,
        4 << 20,
    )
    .expect("create segment store");
    Arc::new(SegmentedPlatform::new(
        PlatformConfig {
            kind: InterfaceKind::FacebookNormal,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach],
            default_objective: Objective::Reach,
        },
        store,
        catalog,
    ))
}

#[test]
fn wire_served_segment_store_equals_in_process() {
    let dir = common::temp_dir("segwire");
    let platform = segmented_platform(&dir, 808);

    let handle = serve(
        platform.clone() as Arc<dyn PlatformApi>,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let remote = Arc::new(RemoteSource::connect(handle.addr()).unwrap());

    // Source-level equivalence.
    assert_eq!(remote.label(), platform.label());
    assert_eq!(remote.catalog_len() as usize, platform.catalog().len());
    assert!(remote.supports_demographics());

    let remote_target = AuditTarget::direct(remote);
    let local_target = AuditTarget::direct(platform.clone());

    // Measurement-level equivalence on a composed spec.
    let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(17)]);
    assert_eq!(
        measure_spec(&remote_target, &spec).unwrap(),
        measure_spec(&local_target, &spec).unwrap()
    );

    // Pipeline-level equivalence: the full discovery loop sees the same
    // platform through either transport.
    let male = SensitiveClass::Gender(Gender::Male);
    let cfg = DiscoveryConfig {
        top_k: 15,
        min_reach: 50,
        ..DiscoveryConfig::default()
    };
    let remote_survey = survey_individuals(&remote_target).unwrap();
    let local_survey = survey_individuals(&local_target).unwrap();
    assert_eq!(remote_survey.base, local_survey.base);
    let remote_rank = rank_individuals(&remote_survey, male, Direction::Toward, cfg.min_reach);
    let local_rank = rank_individuals(&local_survey, male, Direction::Toward, cfg.min_reach);
    assert_eq!(remote_rank, local_rank, "rankings must be identical");
    let remote_top = top_compositions(&remote_target, &remote_survey, &remote_rank, &cfg).unwrap();
    let local_top = top_compositions(&local_target, &local_survey, &local_rank, &cfg).unwrap();
    assert!(!local_top.is_empty());
    assert_eq!(remote_top.len(), local_top.len());
    for (r, l) in remote_top.iter().zip(&local_top) {
        assert_eq!(r.attrs, l.attrs);
        assert_eq!(r.measurement, l.measurement);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_replicates_a_segmented_platform() {
    let dir = common::temp_dir("segfleet");
    let platform = segmented_platform(&dir, 909);
    let baseline = AuditTarget::direct(platform.clone());
    let spec = TargetingSpec::and_of([AttributeId(2), AttributeId(20)]);
    let expected = measure_spec(&baseline, &spec).unwrap();

    // A fleet over an arbitrary PlatformApi roster: every replica wraps
    // the same store, so any replica answers any query identically.
    let fleet = Fleet::launch_apis(
        vec![(
            InterfaceKind::FacebookNormal,
            platform.clone() as Arc<dyn PlatformApi>,
        )],
        2,
        |_, _| ServerConfig::default(),
        |_, _| ClientConfig::fast(),
    )
    .unwrap();
    assert_eq!(fleet.replicas(), 2);

    let endpoints = fleet.endpoints(InterfaceKind::FacebookNormal);
    assert_eq!(endpoints.len(), 2);
    for replica in 0..2 {
        let source = fleet.source(InterfaceKind::FacebookNormal, replica);
        let via_replica = measure_spec(&AuditTarget::direct(source), &spec).unwrap();
        assert_eq!(
            via_replica, expected,
            "replica {replica} must answer like the in-process store"
        );
    }

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
