//! The advertiser-facing platform interface.
//!
//! A [`Platform`] bundles an audience backend (a resident universe with
//! materialised attribute audiences, or a segment store), a catalog, an
//! interface policy ([`Capabilities`]) and a size estimator
//! ([`RoundingRule`]). Its advertiser-visible surface is
//! deliberately narrow — browse the catalog, validate a spec, request a
//! rounded reach estimate — because that is all the paper's methodology
//! (and any real advertiser) gets to see. Ground-truth accessors exist for
//! tests and ablations and are clearly marked.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use adcomp_bitset::Bitset;
use adcomp_obs::lock;
use adcomp_obs::metrics::{size_buckets, Counter, Histogram, Registry};
use adcomp_population::{InferredView, SegmentStore, Universe};
use adcomp_targeting::{
    evaluate, evaluate_len_batch, validate, AttributeId, AttributeResolver, Capabilities,
    EvalError, TargetingSpec, ValidationError,
};

use crate::backend::{AudienceBackend, Resident};
use crate::catalog::Catalog;
use crate::estimate::{EstimateKind, RoundingRule, SizeEstimate};
use crate::objective::{FrequencyCap, Objective};
use crate::ratelimit::QueryStats;

/// Which real-world interface a platform simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterfaceKind {
    /// Facebook's normal ads interface.
    FacebookNormal,
    /// Facebook's restricted interface for special ad categories
    /// (housing, employment, credit).
    FacebookRestricted,
    /// Google Display campaigns.
    GoogleDisplay,
    /// LinkedIn campaign manager.
    LinkedIn,
}

impl InterfaceKind {
    /// Short label used in reports (matches the paper's figure captions).
    pub fn label(self) -> &'static str {
        match self {
            InterfaceKind::FacebookNormal => "Facebook",
            InterfaceKind::FacebookRestricted => "FB-restricted",
            InterfaceKind::GoogleDisplay => "Google",
            InterfaceKind::LinkedIn => "LinkedIn",
        }
    }
}

/// Static configuration of a platform interface.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Which interface this simulates.
    pub kind: InterfaceKind,
    /// What the interface permits.
    pub capabilities: Capabilities,
    /// Size-estimate rounding ladder.
    pub rounding: RoundingRule,
    /// Users or impressions.
    pub estimate_kind: EstimateKind,
    /// Objectives the interface offers.
    pub supported_objectives: Vec<Objective>,
    /// The broadest-reach objective (what the audit selects).
    pub default_objective: Objective,
}

/// A reach-estimate request, as assembled by the targeting UI.
///
/// The spec is a [`Cow`](std::borrow::Cow) so the audit's hot path can
/// issue a request without cloning the `TargetingSpec` it already holds
/// ([`EstimateRequest::borrowed`]); callers that own their spec use
/// [`EstimateRequest::new`] as before.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimateRequest<'a> {
    /// The targeting specification.
    pub spec: std::borrow::Cow<'a, TargetingSpec>,
    /// Campaign objective.
    pub objective: Objective,
    /// Frequency capping (only meaningful on impression platforms).
    pub frequency_cap: FrequencyCap,
}

impl EstimateRequest<'static> {
    /// Request owning the given spec, with the platform defaults the
    /// paper uses (broadest objective chosen by the caller, most
    /// restrictive frequency cap).
    pub fn new(spec: TargetingSpec, objective: Objective) -> Self {
        EstimateRequest {
            spec: std::borrow::Cow::Owned(spec),
            objective,
            frequency_cap: FrequencyCap::most_restrictive(),
        }
    }
}

impl<'a> EstimateRequest<'a> {
    /// Request borrowing the caller's spec — no clone per query, which
    /// matters when the audit issues hundreds of thousands of them.
    pub fn borrowed(spec: &'a TargetingSpec, objective: Objective) -> Self {
        EstimateRequest {
            spec: std::borrow::Cow::Borrowed(spec),
            objective,
            frequency_cap: FrequencyCap::most_restrictive(),
        }
    }
}

/// Advertiser-visible request failures.
#[derive(Clone, Debug, PartialEq)]
pub enum PlatformError {
    /// The spec violates the interface policy.
    Validation(ValidationError),
    /// The spec references unknown attributes (evaluation-time).
    Eval(EvalError),
    /// The objective is not offered by this interface.
    UnsupportedObjective(Objective),
    /// Too many requests; retry after the given duration.
    RateLimited {
        /// Suggested back-off.
        retry_after: Duration,
    },
    /// A transient server-side failure; safe to retry.
    Transient(String),
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Validation(e) => write!(f, "invalid targeting: {e}"),
            PlatformError::Eval(e) => write!(f, "evaluation failed: {e}"),
            PlatformError::UnsupportedObjective(o) => {
                write!(f, "objective '{o}' is not offered by this interface")
            }
            PlatformError::RateLimited { retry_after } => {
                write!(f, "rate limited; retry after {retry_after:?}")
            }
            PlatformError::Transient(msg) => write!(f, "transient failure: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<ValidationError> for PlatformError {
    fn from(e: ValidationError) -> Self {
        PlatformError::Validation(e)
    }
}

impl From<EvalError> for PlatformError {
    /// Storage failures are transient: the spec is well-formed, the
    /// backing store hiccuped, and a retry may succeed.
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Storage(msg) => PlatformError::Transient(msg),
            e => PlatformError::Eval(e),
        }
    }
}

/// Per-platform instrument handles, resolved once at construction so the
/// estimate hot path never touches the registry mutex. Every backend
/// instruments the same counters under its interface's `platform` label.
pub(crate) struct PlatformMetrics {
    pub(crate) estimates: Arc<Counter>,
    pub(crate) validation_failures: Arc<Counter>,
    pub(crate) rate_limited: Arc<Counter>,
    pub(crate) rounding_applied: Arc<Counter>,
    pub(crate) estimate_size: Arc<Histogram>,
    /// Reach-oracle questions answered "true" because they could not be
    /// decided (unknown attribute, storage failure).
    pub(crate) oracle_undecidable: Arc<Counter>,
}

impl PlatformMetrics {
    pub(crate) fn for_kind(kind: InterfaceKind) -> Self {
        let reg = Registry::global();
        let labels: &[(&str, &str)] = &[("platform", kind.label())];
        PlatformMetrics {
            estimates: reg.counter_with("adcomp_platform_estimates_total", labels),
            validation_failures: reg
                .counter_with("adcomp_platform_validation_failures_total", labels),
            rate_limited: reg.counter_with("adcomp_platform_rate_limited_total", labels),
            rounding_applied: reg.counter_with("adcomp_platform_rounding_applied_total", labels),
            estimate_size: reg.histogram_with(
                "adcomp_platform_estimate_size",
                labels,
                size_buckets(),
            ),
            oracle_undecidable: reg
                .counter_with("adcomp_platform_oracle_undecidable_total", labels),
        }
    }
}

/// One simulated advertising platform interface over an audience
/// backend: [`AdPlatform`] over a resident universe, [`SegmentedPlatform`]
/// over an on-disk segment store. Validation, the estimate pipeline and
/// the reach oracle are written once here, against [`AudienceBackend`].
pub struct Platform<B> {
    config: PlatformConfig,
    catalog: Catalog,
    pub(crate) backend: B,
    /// For derived (restricted) interfaces: each attribute's id on the
    /// parent interface.
    parent_ids: Option<Vec<AttributeId>>,
    stats: Mutex<QueryStats>,
    pub(crate) metrics: PlatformMetrics,
}

/// A platform whose audiences are materialised in memory.
pub type AdPlatform = Platform<Resident>;

/// A platform served from an on-disk segment store (see
/// [`SegmentStore`](adcomp_population::SegmentStore)).
pub type SegmentedPlatform = Platform<SegmentStore>;

impl<B: AudienceBackend> Platform<B> {
    pub(crate) fn with_backend(
        config: PlatformConfig,
        catalog: Catalog,
        backend: B,
        parent_ids: Option<Vec<AttributeId>>,
    ) -> Platform<B> {
        assert!(
            config
                .supported_objectives
                .contains(&config.default_objective),
            "default objective must be supported"
        );
        Platform {
            metrics: PlatformMetrics::for_kind(config.kind),
            config,
            catalog,
            backend,
            parent_ids,
            stats: Mutex::new(QueryStats::default()),
        }
    }

    /// The advertiser-visible reach estimate for a targeting request: the
    /// one-request case of [`reach_estimates`](Platform::reach_estimates).
    ///
    /// This is the paper's primary measurement endpoint: validate the spec
    /// against the interface policy, count the audience, scale to
    /// platform range (× frequency-cap multiplier on impression
    /// platforms), and round through the platform's ladder.
    pub fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        self.reach_estimates(std::slice::from_ref(request))
            .pop()
            .expect("one answer per request")
    }

    /// Reach estimates for a batch of requests, one answer per request in
    /// order, each exactly what [`reach_estimate`](Platform::reach_estimate)
    /// would answer alone.
    ///
    /// Every request gets its own objective check, validation (failures
    /// counted), scaling, rounding, query count and metrics, in request
    /// order. Only the counting is shared: segment by segment, the specs
    /// that can match there are counted together by
    /// [`evaluate_len_batch`], which resolves each operand once and
    /// reuses the AND prefixes neighbouring specs share. A spec that
    /// fails in one segment is not counted in later ones.
    pub fn reach_estimates(
        &self,
        requests: &[EstimateRequest],
    ) -> Vec<Result<SizeEstimate, PlatformError>> {
        let mut lens: Vec<Result<u64, PlatformError>> = Vec::with_capacity(requests.len());
        let mut counted: Vec<usize> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let admitted = self.admit(request);
            let spec = &request.spec;
            // "Everyone" is the population: nothing to evaluate or load.
            let everyone = spec.include.is_empty()
                && spec.exclude.is_empty()
                && spec.demographics.is_unconstrained();
            if admitted.is_ok() && !everyone {
                counted.push(i);
            }
            lens.push(admitted.map(|()| if everyone { self.backend.n_users() } else { 0 }));
        }
        let mut batch: Vec<usize> = Vec::with_capacity(counted.len());
        let mut specs: Vec<&TargetingSpec> = Vec::with_capacity(counted.len());
        for seg in 0..self.backend.n_segments() {
            let view = self.backend.segment(seg);
            batch.clear();
            specs.clear();
            for &i in &counted {
                if lens[i].is_err() {
                    continue;
                }
                match can_match(&view, &requests[i].spec) {
                    Ok(true) => {
                        batch.push(i);
                        specs.push(&requests[i].spec);
                    }
                    Ok(false) => {}
                    Err(e) => lens[i] = Err(e.into()),
                }
            }
            if batch.is_empty() {
                continue;
            }
            for (&i, len) in batch.iter().zip(evaluate_len_batch(&view, &specs)) {
                match len {
                    Ok(len) => *lens[i].as_mut().expect("failed specs are not counted") += len,
                    Err(e) => lens[i] = Err(e.into()),
                }
            }
        }
        let mut answered = 0u64;
        let answers = requests
            .iter()
            .zip(lens)
            .map(|(request, len)| {
                let (raw, rounded) = estimate_for_len(
                    &self.config,
                    self.backend.scale(),
                    len?,
                    request.frequency_cap,
                );
                answered += 1;
                self.metrics.estimate_size.observe(rounded);
                if rounded != raw {
                    self.metrics.rounding_applied.inc();
                }
                Ok(SizeEstimate {
                    value: rounded,
                    kind: self.config.estimate_kind,
                })
            })
            .collect();
        lock(&self.stats).estimates += answered;
        self.metrics.estimates.add(answered);
        answers
    }

    /// A request's admission: the objective must be offered and the spec
    /// must pass the interface policy (a failure is counted).
    fn admit(&self, request: &EstimateRequest) -> Result<(), PlatformError> {
        if !self
            .config
            .supported_objectives
            .contains(&request.objective)
        {
            return Err(PlatformError::UnsupportedObjective(request.objective));
        }
        if let Err(e) = validate(&request.spec, &self.config.capabilities, &self.catalog) {
            lock(&self.stats).validation_failures += 1;
            self.metrics.validation_failures.inc();
            return Err(e.into());
        }
        Ok(())
    }

    /// Validates a spec without estimating (the UI does this eagerly).
    pub fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        validate(spec, &self.config.capabilities, &self.catalog).map_err(Into::into)
    }

    /// The interface's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Interface configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Which interface this simulates.
    pub fn kind(&self) -> InterfaceKind {
        self.config.kind
    }

    /// Report label ("Facebook", "FB-restricted", …).
    pub fn label(&self) -> &'static str {
        self.config.kind.label()
    }

    /// For derived interfaces: the id of `id` on the parent interface.
    /// The audit uses this to re-express restricted-interface specs on the
    /// normal interface, which still offers age/gender targeting (paper
    /// §3: "we instead use the corresponding targeting option on
    /// Facebook's normal interface to measure the representation ratio").
    pub fn parent_id(&self, id: AttributeId) -> Option<AttributeId> {
        self.parent_ids
            .as_ref()
            .and_then(|ids| ids.get(id.0 as usize).copied())
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> QueryStats {
        *lock(&self.stats)
    }

    /// Record a rate-limited request (called by the serving layer).
    pub fn note_rate_limited(&self) {
        lock(&self.stats).rate_limited += 1;
        self.metrics.rate_limited.inc();
    }
}

/// Whether `spec` can match anyone in a segment, decided from audience
/// sizes alone (which a segment store keeps in its manifest) before
/// anything is loaded: a group with no member there empties the AND.
fn can_match<R: AttributeResolver>(view: &R, spec: &TargetingSpec) -> Result<bool, EvalError> {
    for group in &spec.include {
        let mut attainable = 0u64;
        for &id in &group.attributes {
            attainable += view.attribute_len(id)?;
        }
        if attainable == 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The estimate pipeline's scale-and-round step: an exact audience length
/// scaled to platform range (× the frequency-cap multiplier on impression
/// platforms), then rounded through the platform's ladder. Returns the
/// unrounded and the rounded estimate.
pub(crate) fn estimate_for_len(
    config: &PlatformConfig,
    scale: f64,
    len: u64,
    frequency_cap: FrequencyCap,
) -> (u64, u64) {
    let mut value = len as f64 * scale;
    if config.estimate_kind == EstimateKind::Impressions {
        value *= frequency_cap.impressions_multiplier();
    }
    let raw = value.round() as u64;
    (raw, config.rounding.apply(raw))
}

impl AdPlatform {
    /// Builds a platform, materialising every catalog audience.
    pub fn new(config: PlatformConfig, universe: Arc<Universe>, catalog: Catalog) -> AdPlatform {
        let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
        let audiences = universe
            .materialize_all(&models)
            .into_iter()
            .map(Arc::new)
            .collect();
        let backend = Resident {
            universe,
            audiences,
            inferred: None,
        };
        Platform::with_backend(config, catalog, backend, None)
    }

    /// Rebuilds this platform with an inferred demographic view: gender
    /// and age constraints will resolve against `view`'s (noisy, possibly
    /// missing) labels instead of the universe's ground truth. Totals and
    /// attribute audiences are unchanged — the platform still serves every
    /// user; it just *classifies* them differently.
    pub fn with_inferred_view(mut self, view: Arc<InferredView>) -> AdPlatform {
        self.backend.inferred = Some(view);
        self
    }

    /// The inferred demographic view, if one is attached.
    pub fn inferred_view(&self) -> Option<&Arc<InferredView>> {
        self.backend.inferred.as_ref()
    }

    /// Builds a *derived* interface over the same universe as `parent`,
    /// with a catalog whose entries are a subset of the parent's
    /// (`parent_ids[i]` = id of entry `i` on the parent). Audiences are
    /// shared with the parent, not re-materialised or copied.
    ///
    /// This models Facebook's restricted interface, which exposes a
    /// sanitized subset of the normal interface's options over the same
    /// user base.
    pub fn derived(
        config: PlatformConfig,
        parent: &AdPlatform,
        catalog: Catalog,
        parent_ids: Vec<AttributeId>,
    ) -> AdPlatform {
        assert_eq!(catalog.len(), parent_ids.len(), "one parent id per entry");
        let audiences = parent_ids
            .iter()
            .map(|pid| {
                parent
                    .backend
                    .audiences
                    .get(pid.0 as usize)
                    .unwrap_or_else(|| panic!("parent id #{} out of range", pid.0))
                    .clone()
            })
            .collect();
        let backend = Resident {
            universe: parent.backend.universe.clone(),
            audiences,
            inferred: parent.backend.inferred.clone(),
        };
        Platform::with_backend(config, catalog, backend, Some(parent_ids))
    }

    // ------------------------------------------------------------------
    // Ground-truth access — NOT part of the advertiser-visible surface.
    // Used by tests, calibration, and the rounding ablation; the audit
    // pipeline never calls these.
    // ------------------------------------------------------------------

    /// Ground truth: the exact audience of a spec, bypassing interface
    /// policy (but not attribute existence).
    pub fn exact_audience(&self, spec: &TargetingSpec) -> Result<Bitset, PlatformError> {
        evaluate(&self.backend.segment(0), spec).map_err(Into::into)
    }

    /// Ground truth: the materialised audience of catalog entry `idx`
    /// (index = attribute id). Used by the lookalike engine and tests.
    pub fn attribute_audience_raw(&self, idx: usize) -> Option<&Bitset> {
        self.backend.audiences.get(idx).map(|a| a.as_ref())
    }

    /// Ground truth: the universe behind the interface.
    pub fn universe(&self) -> &Universe {
        &self.backend.universe
    }

    /// Ground truth: the shared universe handle (for building derived
    /// interfaces or cross-interface audits).
    pub fn universe_arc(&self) -> Arc<Universe> {
        self.backend.universe.clone()
    }
}

impl<B: AudienceBackend> std::fmt::Debug for Platform<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("kind", &self.config.kind)
            .field("catalog", &self.catalog.len())
            .field("users", &self.backend.n_users())
            .field("segments", &self.backend.n_segments())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CategorySpec, SkewProfile};
    use adcomp_population::{DemographicProfile, Gender, UniverseConfig};
    use adcomp_targeting::FeatureId;

    fn test_platform(kind: InterfaceKind, caps: Capabilities) -> AdPlatform {
        let universe = Arc::new(Universe::generate(&UniverseConfig {
            n_users: 20_000,
            seed: 5,
            scale: 1_000.0,
            profile: DemographicProfile::balanced(),
        }));
        let catalog = Catalog::generate(
            5,
            &[
                CategorySpec {
                    name: "Games",
                    domain: "games",
                    feature: FeatureId(0),
                    count: 20,
                    skew: SkewProfile::neutral().lean_male(0.8),
                },
                CategorySpec {
                    name: "Topics",
                    domain: "media",
                    feature: FeatureId(1),
                    count: 20,
                    skew: SkewProfile::neutral(),
                },
            ],
        );
        let config = PlatformConfig {
            kind,
            capabilities: caps,
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach, Objective::Traffic],
            default_objective: Objective::Reach,
        };
        AdPlatform::new(config, universe, catalog)
    }

    #[test]
    fn estimate_scales_and_rounds() {
        let p = test_platform(InterfaceKind::FacebookNormal, Capabilities::permissive());
        let spec = TargetingSpec::and_of([AttributeId(0)]);
        let exact = p.exact_audience(&spec).unwrap().len();
        let est = p
            .reach_estimate(&EstimateRequest::new(spec, Objective::Reach))
            .unwrap();
        assert_eq!(est.kind, EstimateKind::Users);
        assert_eq!(est.value, RoundingRule::facebook().apply(exact * 1_000));
        assert_eq!(p.stats().estimates, 1);
    }

    #[test]
    fn estimates_are_consistent_across_repeats() {
        // Paper §3: 100 back-to-back repeated calls return consistent
        // estimates on all platforms.
        let p = test_platform(InterfaceKind::FacebookNormal, Capabilities::permissive());
        let spec = TargetingSpec::and_of([AttributeId(1), AttributeId(2)]);
        let first = p.reach_estimate(&EstimateRequest::new(spec.clone(), Objective::Reach));
        for _ in 0..99 {
            assert_eq!(
                p.reach_estimate(&EstimateRequest::new(spec.clone(), Objective::Reach)),
                first
            );
        }
    }

    #[test]
    fn unsupported_objective_rejected() {
        let p = test_platform(InterfaceKind::FacebookNormal, Capabilities::permissive());
        let req = EstimateRequest::new(TargetingSpec::everyone(), Objective::BrandAwareness);
        assert_eq!(
            p.reach_estimate(&req),
            Err(PlatformError::UnsupportedObjective(
                Objective::BrandAwareness
            ))
        );
    }

    #[test]
    fn policy_violations_rejected_and_counted() {
        let p = test_platform(
            InterfaceKind::FacebookRestricted,
            Capabilities::restricted(),
        );
        let req = EstimateRequest::new(
            TargetingSpec::builder().gender(Gender::Male).build(),
            Objective::Reach,
        );
        assert!(matches!(
            p.reach_estimate(&req),
            Err(PlatformError::Validation(_))
        ));
        assert_eq!(p.stats().validation_failures, 1);
        assert_eq!(p.stats().estimates, 0);
    }

    #[test]
    fn derived_interface_shares_audiences_and_maps_parents() {
        let parent = test_platform(InterfaceKind::FacebookNormal, Capabilities::permissive());
        let (sub, parents) = parent.catalog().sanitized(10);
        let config = PlatformConfig {
            kind: InterfaceKind::FacebookRestricted,
            capabilities: Capabilities::restricted(),
            ..parent.config().clone()
        };
        let restricted = AdPlatform::derived(config, &parent, sub, parents);
        assert_eq!(restricted.catalog().len(), 10);
        for id in restricted.catalog().ids() {
            let parent_id = restricted.parent_id(id).unwrap();
            assert!(
                std::ptr::eq(
                    restricted.attribute_audience_raw(id.0 as usize).unwrap(),
                    parent.attribute_audience_raw(parent_id.0 as usize).unwrap(),
                ),
                "audience must be shared by both interfaces"
            );
        }
        // Same spec on both interfaces gives the same estimate value when
        // expressed in each one's ids.
        let rid = AttributeId(3);
        let pid = restricted.parent_id(rid).unwrap();
        let on_restricted = restricted
            .reach_estimate(&EstimateRequest::new(
                TargetingSpec::and_of([rid]),
                Objective::Reach,
            ))
            .unwrap();
        let on_parent = parent
            .reach_estimate(&EstimateRequest::new(
                TargetingSpec::and_of([pid]),
                Objective::Reach,
            ))
            .unwrap();
        assert_eq!(on_restricted, on_parent);
    }

    #[test]
    fn impressions_scale_with_frequency_cap() {
        let universe = Arc::new(Universe::generate(&UniverseConfig {
            n_users: 10_000,
            seed: 6,
            scale: 100.0,
            profile: DemographicProfile::balanced(),
        }));
        let catalog = Catalog::generate(
            6,
            &[CategorySpec {
                name: "Topics",
                domain: "media",
                feature: FeatureId(0),
                count: 5,
                skew: SkewProfile::neutral(),
            }],
        );
        let p = AdPlatform::new(
            PlatformConfig {
                kind: InterfaceKind::GoogleDisplay,
                capabilities: Capabilities::cross_feature_only(),
                rounding: RoundingRule::Exact,
                estimate_kind: EstimateKind::Impressions,
                supported_objectives: vec![Objective::BrandAwarenessAndReach],
                default_objective: Objective::BrandAwarenessAndReach,
            },
            universe,
            catalog,
        );
        let spec = TargetingSpec::and_of([AttributeId(0)]);
        let capped = EstimateRequest::new(spec.clone(), Objective::BrandAwarenessAndReach);
        let mut uncapped = capped.clone();
        uncapped.frequency_cap = FrequencyCap { per_month: 12 };
        let low = p.reach_estimate(&capped).unwrap().value;
        let high = p.reach_estimate(&uncapped).unwrap().value;
        assert_eq!(high, low * 12, "impressions scale with the cap");
        assert_eq!(
            p.reach_estimate(&capped).unwrap().kind,
            EstimateKind::Impressions
        );
    }

    #[test]
    fn unknown_attribute_surfaces_as_validation_error() {
        let p = test_platform(InterfaceKind::FacebookNormal, Capabilities::permissive());
        let req = EstimateRequest::new(TargetingSpec::and_of([AttributeId(999)]), Objective::Reach);
        assert!(matches!(
            p.reach_estimate(&req),
            Err(PlatformError::Validation(
                ValidationError::UnknownAttribute(_)
            ))
        ));
    }
}
