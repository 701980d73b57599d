//! A platform interface served from an on-disk segment store.
//!
//! [`AdPlatform`](crate::AdPlatform) materialises every catalog audience
//! in memory (on its first query), which caps universes at a few million
//! users. A [`SegmentedPlatform`] serves the identical advertiser surface
//! from a [`SegmentStore`]: audiences live on disk as per-segment bitsets, a
//! bounded cache keeps the hot ones resident, and every estimate is
//! computed segment-at-a-time — so resident memory stays flat no matter
//! how many users the universe holds.
//!
//! The store is just another [`AudienceBackend`]: each segment is a
//! resolver whose audiences load through the cache and whose sizes come
//! from the manifest without I/O, and the estimate pipeline and reach
//! oracle are the ones every [`Platform`] runs. Because segment
//! boundaries are aligned to bitset chunk boundaries (`SEGMENT_ALIGN`),
//! per-segment audiences occupy disjoint chunk ranges of the same global
//! id space, so summing per-segment counts reproduces a resident
//! platform's estimates bit for bit. `tests/backend_equivalence.rs` pins that against a
//! resident platform built from the same universe config and catalog.

use adcomp_population::{AgeBucket, Gender, SegmentAudience, SegmentError, SegmentStore};
use adcomp_targeting::{AttributeId, AttributeResolver, Audience, EvalError};

use crate::backend::AudienceBackend;
use crate::catalog::Catalog;
use crate::interface::{Platform, PlatformConfig, SegmentedPlatform};

impl SegmentedPlatform {
    /// Builds a platform over an existing segment store. The catalog must
    /// describe the same attributes the store was generated from, in the
    /// same order (entry `i` ↔ `SegmentAudience::Attribute(i)`).
    pub fn new(config: PlatformConfig, store: SegmentStore, catalog: Catalog) -> SegmentedPlatform {
        assert_eq!(
            catalog.len() as u32,
            store.n_attributes(),
            "one catalog entry per stored attribute audience"
        );
        Platform::with_backend(config, catalog, store, None)
    }

    /// The backing segment store (cache statistics, manifest access).
    pub fn store(&self) -> &SegmentStore {
        &self.backend
    }
}

impl AudienceBackend for SegmentStore {
    type Segment<'a> = SegmentView<'a>;

    fn n_users(&self) -> u64 {
        u64::from(self.config().n_users)
    }

    fn scale(&self) -> f64 {
        self.config().scale
    }

    fn n_segments(&self) -> u32 {
        SegmentStore::n_segments(self)
    }

    fn segment(&self, seg: u32) -> SegmentView<'_> {
        SegmentView { store: self, seg }
    }
}

/// One segment of a store as a resolver.
pub struct SegmentView<'a> {
    store: &'a SegmentStore,
    seg: u32,
}

/// Storage failures surface as transient platform errors (see
/// `PlatformError`'s `From<EvalError>`): the same contract remote
/// platforms give their clients.
fn store_err(e: SegmentError) -> EvalError {
    EvalError::Storage(format!("segment store: {e}"))
}

impl SegmentView<'_> {
    fn attribute(&self, id: AttributeId) -> Result<SegmentAudience, EvalError> {
        if id.0 < self.store.n_attributes() {
            Ok(SegmentAudience::Attribute(id.0))
        } else {
            Err(EvalError::UnknownAttribute(id))
        }
    }

    fn load(&self, audience: SegmentAudience) -> Result<Audience<'static>, EvalError> {
        let set = self.store.load(self.seg, audience).map_err(store_err)?;
        Ok(Audience::Shared(set))
    }
}

impl AttributeResolver for SegmentView<'_> {
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError> {
        self.load(self.attribute(id)?)
    }

    /// From the manifest: no I/O.
    fn attribute_len(&self, id: AttributeId) -> Result<u64, EvalError> {
        self.store
            .cardinality(self.seg, self.attribute(id)?)
            .map_err(store_err)
    }

    fn everyone(&self) -> Result<Audience<'_>, EvalError> {
        self.load(SegmentAudience::Everyone)
    }

    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError> {
        self.load(SegmentAudience::Gender(gender))
    }

    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError> {
        self.load(SegmentAudience::Age(age))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PlatformApi;
    use crate::backend::{Built, ResidentView};
    use crate::catalog::{CategorySpec, SkewProfile};
    use crate::estimate::{EstimateKind, RoundingRule};
    use crate::interface::{EstimateRequest, InterfaceKind, PlatformError};
    use crate::objective::Objective;
    use crate::oracle::ReachOracle;
    use adcomp_population::{
        AttributeInference, DemographicProfile, Universe, UniverseConfig, SEGMENT_ALIGN,
    };
    use adcomp_targeting::{Capabilities, FeatureId, TargetingSpec};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Scoped temp dir, unique per test even when tests run in parallel.
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A two-segment platform, and the directory its store lives in.
    fn platform() -> (SegmentedPlatform, TempDir) {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = TempDir(std::env::temp_dir().join(format!(
            "adcomp-segmented-platform-{}-{n}",
            std::process::id()
        )));
        let catalog = Catalog::generate(
            13,
            &[CategorySpec {
                name: "Games",
                domain: "games",
                feature: FeatureId(0),
                count: 10,
                skew: SkewProfile::neutral().lean_male(0.7),
            }],
        );
        let universe = UniverseConfig {
            n_users: SEGMENT_ALIGN * 2,
            seed: 77,
            scale: 1_000.0,
            profile: DemographicProfile::balanced(),
        };
        let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
        let store =
            SegmentStore::create(&dir.0, &universe, SEGMENT_ALIGN, &models, 1 << 22).unwrap();
        let config = PlatformConfig {
            kind: InterfaceKind::FacebookNormal,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach],
            default_objective: Objective::Reach,
        };
        (SegmentedPlatform::new(config, store, catalog), dir)
    }

    #[test]
    fn storage_failures_are_transient_and_undecidable() {
        let (segmented, dir) = platform();
        for seg in 0..segmented.store().n_segments() {
            std::fs::remove_file(dir.0.join(format!("seg-{seg:05}.bin"))).unwrap();
        }
        let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(1)]);
        let req = EstimateRequest::new(spec, Objective::Reach);
        assert!(matches!(
            segmented.reach_estimate(&req),
            Err(PlatformError::Transient(msg)) if msg.starts_with("segment store: ")
        ));
        assert_eq!(segmented.stats().estimates, 0);
        let before = segmented.metrics.oracle_undecidable.get();
        assert!(segmented.and_reaches(&[AttributeId(0), AttributeId(1)], 1));
        assert_eq!(segmented.metrics.oracle_undecidable.get(), before + 1);
    }

    /// Every demographic audience a resolver hands out lies within its
    /// `everyone()`: the evaluator ANDs `everyone` only when a spec has
    /// nothing else to include, which is sound only because of this.
    fn assert_demographics_within_everyone(view: impl AttributeResolver, what: &str) {
        let everyone = view.everyone().unwrap();
        for gender in Gender::ALL {
            let audience = view.gender_audience(gender).unwrap();
            assert!(audience.is_subset(&everyone), "{what}: {gender:?}");
        }
        for age in AgeBucket::ALL {
            let audience = view.age_audience(age).unwrap();
            assert!(audience.is_subset(&everyone), "{what}: {age:?}");
        }
    }

    #[test]
    fn demographic_audiences_are_subsets_of_everyone() {
        let (segmented, _dir) = platform();
        for seg in 0..segmented.store().n_segments() {
            assert_demographics_within_everyone(segmented.backend.segment(seg), "segment view");
        }
        let universe = Arc::new(Universe::generate(&UniverseConfig {
            n_users: 20_000,
            seed: 5,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        }));
        let inferred = AttributeInference::noisy(5, 0.1, 0.2)
            .with_missingness(0.2, 0, 1.0)
            .view(&universe);
        let mut built = Built {
            universe,
            audiences: Vec::new(),
            inferred: None,
        };
        let check = |built: &Built, what| {
            assert_demographics_within_everyone(ResidentView { built, ids: None }, what)
        };
        check(&built, "resident");
        built.inferred = Some(Arc::new(inferred));
        check(&built, "resident, inferred view");
    }

    #[test]
    fn serves_through_the_api_trait() {
        let (segmented, _dir) = platform();
        let api: Arc<dyn PlatformApi> = Arc::new(segmented);
        assert_eq!(api.label(), "Facebook");
        let req = EstimateRequest::new(TargetingSpec::everyone(), api.config().default_objective);
        assert!(api.reach_estimate(&req).unwrap().value > 0);
        assert_eq!(api.stats().estimates, 1);
        api.note_rate_limited();
        assert_eq!(api.stats().rate_limited, 1);
    }
}
