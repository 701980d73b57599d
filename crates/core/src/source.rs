//! The audit's view of a platform: rounded size estimates only.
//!
//! [`EstimateSource`] is the narrow waist between the methodology and any
//! platform implementation — the in-process simulators here, or a remote
//! platform behind the `adcomp-wire` client. Everything the paper
//! computes is derived from `estimate()` calls, exactly as the authors
//! derived everything from the targeting UIs' size fields.
//!
//! [`AuditTarget`] pairs the interface being *audited* (where specs must
//! validate) with the interface used for *measurement* of demographics.
//! For Facebook's restricted interface — which forbids age and gender
//! targeting — the paper "instead uses the corresponding targeting
//! option on Facebook's normal interface to measure the representation
//! ratio" (§3); the target carries the id translation for that.

use std::sync::Arc;

use adcomp_platform::{
    AdPlatform, Catalog, EstimateRequest, PlatformApi, PlatformConfig, PlatformError, QueryStats,
    SizeEstimate,
};
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

/// A value of a sensitive attribute (the `s` of the representation
/// ratio).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SensitiveClass {
    /// A gender value.
    Gender(Gender),
    /// An age bucket.
    Age(AgeBucket),
}

impl SensitiveClass {
    /// The six classes the paper studies, in presentation order.
    pub const ALL: [SensitiveClass; 6] = [
        SensitiveClass::Gender(Gender::Male),
        SensitiveClass::Gender(Gender::Female),
        SensitiveClass::Age(AgeBucket::A18_24),
        SensitiveClass::Age(AgeBucket::A25_34),
        SensitiveClass::Age(AgeBucket::A35_54),
        SensitiveClass::Age(AgeBucket::A55Plus),
    ];

    /// Constrains a spec to this class (adds the gender/age targeting the
    /// paper layers on top of the audited targeting).
    pub fn constrain(&self, spec: &TargetingSpec) -> TargetingSpec {
        let mut spec = spec.clone();
        match self {
            SensitiveClass::Gender(g) => spec.demographics.genders = Some(vec![*g]),
            SensitiveClass::Age(a) => spec.demographics.ages = Some(vec![*a]),
        }
        spec
    }

    /// Display label matching the paper's axis labels.
    pub fn label(&self) -> String {
        match self {
            SensitiveClass::Gender(g) => g.to_string(),
            SensitiveClass::Age(a) => a.to_string(),
        }
    }
}

impl std::fmt::Display for SensitiveClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A (possibly complemented) sensitive population — the paper's Table 1
/// favours `Male`, `Female`, `Age not 18-24`, and `Age not 55+`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Selector {
    /// Users with the class value.
    Class(SensitiveClass),
    /// Users with any *other* value of the same sensitive attribute.
    Complement(SensitiveClass),
}

impl Selector {
    /// Constrains a spec to this population.
    pub fn constrain(&self, spec: &TargetingSpec) -> TargetingSpec {
        match self {
            Selector::Class(c) => c.constrain(spec),
            Selector::Complement(SensitiveClass::Gender(g)) => {
                SensitiveClass::Gender(g.other()).constrain(spec)
            }
            Selector::Complement(SensitiveClass::Age(a)) => {
                let mut spec = spec.clone();
                spec.demographics.ages =
                    Some(AgeBucket::ALL.iter().copied().filter(|b| b != a).collect());
                spec
            }
        }
    }

    /// Table-style label ("female", "not 18-24", …).
    pub fn label(&self) -> String {
        match self {
            Selector::Class(c) => c.label(),
            Selector::Complement(c) => format!("not {}", c.label()),
        }
    }
}

impl From<SensitiveClass> for Selector {
    fn from(c: SensitiveClass) -> Selector {
        Selector::Class(c)
    }
}

impl std::fmt::Display for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Errors surfaced to the audit.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceError {
    /// The platform rejected or failed the request.
    Platform(PlatformError),
    /// Transport failure (wire-backed sources).
    Transport(String),
    /// The platform definitively rejected the request (policy violation,
    /// unknown attribute, malformed query) — retrying cannot help.
    Rejected(String),
    /// The platform throttled the request; retry after the hint (when
    /// the server sent one).
    RateLimited {
        /// Server-advertised back-off.
        retry_after: Option<std::time::Duration>,
    },
    /// The transport's circuit breaker is open: the endpoint looks dead.
    CircuitOpen {
        /// Time until the breaker admits a probe.
        retry_in: std::time::Duration,
    },
    /// The query failed persistently and the resilience policy chose to
    /// skip it (degraded mode) rather than abort the audit.
    Skipped {
        /// The final error, rendered.
        reason: String,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Platform(e) => write!(f, "platform error: {e}"),
            SourceError::Transport(msg) => write!(f, "transport error: {msg}"),
            SourceError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            SourceError::RateLimited {
                retry_after: Some(d),
            } => {
                write!(f, "rate limited; retry after {d:?}")
            }
            SourceError::RateLimited { retry_after: None } => write!(f, "rate limited"),
            SourceError::CircuitOpen { retry_in } => {
                write!(f, "circuit open; endpoint unavailable for {retry_in:?}")
            }
            SourceError::Skipped { reason } => write!(f, "query skipped: {reason}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<PlatformError> for SourceError {
    fn from(e: PlatformError) -> Self {
        SourceError::Platform(e)
    }
}

/// Anything the audit can query for rounded audience-size estimates.
///
/// [`estimate_batch`](EstimateSource::estimate_batch) is the one
/// estimate method a source implements; a single
/// [`estimate`](EstimateSource::estimate) is a one-slot batch.
pub trait EstimateSource: Send + Sync {
    /// Report label ("Facebook", "FB-restricted", …).
    fn label(&self) -> String;

    /// Rounded audience-size estimates for a batch of specs, one result
    /// per spec **in order**, using the interface's broadest objective
    /// and the most restrictive frequency cap — the paper's settings.
    /// A source with a bulk path (a platform, which counts the batch in
    /// one pass; the pipelined wire client; the
    /// [`ScheduledSource`](crate::distributed::ScheduledSource) worker
    /// pool) takes it; a wrapper that acts per query forwards spec by
    /// spec.
    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>>;

    /// Rounded audience-size estimate for one spec: a one-slot
    /// [`estimate_batch`](EstimateSource::estimate_batch).
    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.estimate_batch(std::slice::from_ref(spec))
            .pop()
            .expect("one result per spec")
    }

    /// Preferred `estimate_batch` size (1 = no native batching). The
    /// scheduler cuts each unit into sub-batches of its endpoint's
    /// window, and the §3 probes submit one query at a time to a
    /// measurement interface whose window is 1.
    fn batch_window(&self) -> usize {
        1
    }

    /// Validates a spec without estimating.
    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError>;

    /// Number of catalog attributes.
    fn catalog_len(&self) -> u32;

    /// Human-readable attribute name.
    fn attribute_name(&self, id: AttributeId) -> Option<String>;

    /// Feature family of an attribute (for composition rules).
    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId>;

    /// Whether two attributes may be AND-composed on this interface.
    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool;

    /// Whether the interface itself supports gender/age constraint.
    fn supports_demographics(&self) -> bool;
}

/// Every platform is a source: estimates use the interface's default
/// objective, composition follows its capabilities. This is the one
/// adapter from the serving-side trait to the audit's.
impl<P: PlatformApi + ?Sized> EstimateSource for P {
    fn label(&self) -> String {
        PlatformApi::label(self).to_string()
    }

    /// One [`PlatformApi::reach_estimates`] call for the whole batch.
    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        let objective = self.config().default_objective;
        let requests: Vec<EstimateRequest> = specs
            .iter()
            .map(|spec| EstimateRequest::borrowed(spec, objective))
            .collect();
        self.reach_estimates(&requests)
            .into_iter()
            .map(|answer| Ok(answer?.value))
            .collect()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        PlatformApi::check(self, spec).map_err(Into::into)
    }

    fn catalog_len(&self) -> u32 {
        self.catalog().len() as u32
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.catalog().get(id).map(|e| e.name.clone())
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.catalog().get(id).map(|e| e.feature)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        if a == b {
            return false;
        }
        if self.config().capabilities.same_feature_and {
            true
        } else {
            match (self.attribute_feature(a), self.attribute_feature(b)) {
                (Some(fa), Some(fb)) => fa != fb,
                _ => false,
            }
        }
    }

    fn supports_demographics(&self) -> bool {
        self.config().capabilities.gender_targeting && self.config().capabilities.age_targeting
    }
}

/// An [`EstimateSource`] over a shared [`PlatformApi`] handle — the
/// in-process counterpart of the wire client's remote source. A
/// `Arc<dyn PlatformApi>` (say, a fault-injecting
/// [`FaultyPlatform`](adcomp_platform::FaultyPlatform) behind a probe)
/// cannot be re-typed as an `Arc<dyn EstimateSource>`; wrapping it in
/// one of these can. The continuous-audit daemon's simulated provider
/// wraps each epoch's fault-injected platform this way.
pub struct ApiSource(pub Arc<dyn PlatformApi>);

impl PlatformApi for ApiSource {
    fn config(&self) -> &PlatformConfig {
        self.0.config()
    }

    fn catalog(&self) -> &Catalog {
        self.0.catalog()
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        self.0.reach_estimate(request)
    }

    fn reach_estimates(
        &self,
        requests: &[EstimateRequest],
    ) -> Vec<Result<SizeEstimate, PlatformError>> {
        self.0.reach_estimates(requests)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        self.0.check(spec)
    }

    fn stats(&self) -> QueryStats {
        self.0.stats()
    }

    fn note_rate_limited(&self) {
        self.0.note_rate_limited()
    }
}

/// The pair of interfaces an audit runs against.
#[derive(Clone)]
pub struct AuditTarget {
    /// Interface whose *targeting options* are being audited.
    pub targeting: Arc<dyn EstimateSource>,
    /// Interface used to measure demographic splits (may be the same).
    pub measurement: Arc<dyn EstimateSource>,
    /// Translation of targeting-interface attribute ids onto the
    /// measurement interface, when they differ.
    id_map: Option<Arc<Vec<AttributeId>>>,
}

impl AuditTarget {
    /// A target that measures on the audited interface itself.
    pub fn direct(source: Arc<dyn EstimateSource>) -> AuditTarget {
        assert!(
            source.supports_demographics(),
            "direct targets need demographic targeting for measurement"
        );
        AuditTarget {
            targeting: source.clone(),
            measurement: source,
            id_map: None,
        }
    }

    /// A target measured through a companion interface (the restricted
    /// Facebook case). `id_map[i]` is attribute `i`'s id on `measurement`.
    pub fn via(
        targeting: Arc<dyn EstimateSource>,
        measurement: Arc<dyn EstimateSource>,
        id_map: Vec<AttributeId>,
    ) -> AuditTarget {
        assert_eq!(
            id_map.len() as u32,
            targeting.catalog_len(),
            "one mapping per attribute"
        );
        assert!(measurement.supports_demographics());
        AuditTarget {
            targeting,
            measurement,
            id_map: Some(Arc::new(id_map)),
        }
    }

    /// Builds the audit target for a simulated platform, wiring the
    /// restricted interface to its parent automatically.
    pub fn for_platform(
        platform: &Arc<AdPlatform>,
        simulation: &adcomp_platform::Simulation,
    ) -> AuditTarget {
        use adcomp_platform::InterfaceKind;
        match platform.kind() {
            InterfaceKind::FacebookRestricted => {
                let ids: Vec<AttributeId> = platform
                    .catalog()
                    .ids()
                    .map(|id| {
                        platform
                            .parent_id(id)
                            .expect("restricted entries map to parent")
                    })
                    .collect();
                AuditTarget::via(platform.clone(), simulation.facebook.clone(), ids)
            }
            _ => AuditTarget::direct(platform.clone()),
        }
    }

    /// Report label of the audited interface.
    pub fn label(&self) -> String {
        self.targeting.label()
    }

    /// Translates a spec from targeting-interface ids to
    /// measurement-interface ids. Direct targets (no id map — the common
    /// case) borrow the input instead of cloning it, which keeps the
    /// estimate hot path allocation-free up to the platform boundary.
    pub fn translate<'a>(&self, spec: &'a TargetingSpec) -> std::borrow::Cow<'a, TargetingSpec> {
        match &self.id_map {
            None => std::borrow::Cow::Borrowed(spec),
            Some(map) => {
                let mut out = spec.clone();
                for group in &mut out.include {
                    for id in &mut group.attributes {
                        *id = map[id.0 as usize];
                    }
                }
                for id in &mut out.exclude {
                    *id = map[id.0 as usize];
                }
                std::borrow::Cow::Owned(out)
            }
        }
    }

    /// Estimate of `spec ∧ selector` on the measurement interface
    /// (`spec` is expressed in targeting-interface ids).
    pub fn selector_estimate(
        &self,
        spec: &TargetingSpec,
        selector: Selector,
    ) -> Result<u64, SourceError> {
        let translated = self.translate(spec);
        self.measurement.estimate(&selector.constrain(&translated))
    }
}

impl std::fmt::Debug for AuditTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AuditTarget(targeting={}, measurement={})",
            self.targeting.label(),
            self.measurement.label()
        )
    }
}

/// Wraps a live interface so every successful estimate is persisted to
/// a [`RunStore`] as it is answered — and answered *from the store*
/// when already recorded.
///
/// The store lookup happens first, which is what generalizes
/// checkpoint-style resumability to every deterministic experiment
/// driver: re-running a killed experiment against the same store
/// replays all previously answered queries from disk with **zero**
/// re-issued platform queries, and only the unanswered tail reaches the
/// inner source. Recording should therefore wrap *outermost* — outside
/// resilience — so replay hits skip the retry machinery and recorded
/// values are the final post-resilience answers.
///
/// Under recording, a repeated spec returns the recorded value, so
/// consistency probes must run against the bare interface.
pub struct RecordingSource {
    inner: Arc<dyn EstimateSource>,
    store: Arc<adcomp_store::RunStore>,
    label: String,
    replay_hits: Arc<adcomp_obs::Counter>,
}

impl RecordingSource {
    /// Wraps `inner`, capturing and persisting its interface metadata so
    /// a later [`ReplaySource`] can stand in for it. No estimate queries
    /// are issued.
    pub fn new(
        inner: Arc<dyn EstimateSource>,
        store: Arc<adcomp_store::RunStore>,
    ) -> std::io::Result<RecordingSource> {
        let meta = crate::recording::InterfaceMeta::capture(inner.as_ref());
        crate::recording::record_meta(&store, &meta)?;
        Ok(RecordingSource {
            label: meta.label,
            inner,
            store,
            replay_hits: adcomp_obs::Registry::global().counter("adcomp_store_replay_hits_total"),
        })
    }

    /// The store this source records into.
    pub fn store(&self) -> &Arc<adcomp_store::RunStore> {
        &self.store
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        match self.store.get(key) {
            Some((crate::recording::KIND_ESTIMATE, payload)) => {
                crate::recording::decode_estimate(&payload)
                    .ok()
                    .map(|(_, v)| v)
            }
            _ => None,
        }
    }

    fn record(&self, normalized: &TargetingSpec, key: u64, value: u64) -> Result<(), SourceError> {
        self.store
            .append(
                crate::recording::KIND_ESTIMATE,
                key,
                &crate::recording::encode_estimate(normalized, value),
            )
            .map_err(|e| SourceError::Transport(format!("run store append: {e}")))
    }
}

impl EstimateSource for RecordingSource {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        use std::collections::HashMap;
        let normalized: Vec<TargetingSpec> = specs.iter().map(|s| s.normalized()).collect();
        let keys: Vec<u64> = normalized
            .iter()
            .map(|n| crate::recording::normalized_spec_key(&self.label, n))
            .collect();
        let mut results: Vec<Option<Result<u64, SourceError>>> = vec![None; specs.len()];
        let mut missing: Vec<usize> = Vec::new();
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        let mut follower_of: Vec<Option<usize>> = vec![None; specs.len()];
        for i in 0..specs.len() {
            if let Some(value) = self.lookup(keys[i]) {
                self.replay_hits.inc();
                results[i] = Some(Ok(value));
            } else if let Some(&leader) = first_seen.get(&keys[i]) {
                // Intra-batch duplicate: issue once, copy the answer.
                follower_of[i] = Some(leader);
            } else {
                first_seen.insert(keys[i], i);
                missing.push(i);
            }
        }
        if !missing.is_empty() {
            let queries: Vec<TargetingSpec> = missing.iter().map(|&i| specs[i].clone()).collect();
            let answers = self.inner.estimate_batch(&queries);
            for (&i, answer) in missing.iter().zip(answers) {
                results[i] = Some(match answer {
                    Ok(value) => self.record(&normalized[i], keys[i], value).map(|()| value),
                    Err(e) => Err(e),
                });
            }
        }
        for i in 0..specs.len() {
            if let Some(leader) = follower_of[i] {
                results[i] = results[leader].clone();
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot answered"))
            .collect()
    }

    fn batch_window(&self) -> usize {
        self.inner.batch_window()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        self.inner.check(spec)
    }

    fn catalog_len(&self) -> u32 {
        self.inner.catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.inner.attribute_name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.inner.attribute_feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.inner.can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.inner.supports_demographics()
    }
}

/// Replays a recorded run with the platform layer fully detached: every
/// trait method is answered from the store's snapshot and the recorded
/// [`InterfaceMeta`](crate::recording::InterfaceMeta) — no live source,
/// no network, no simulator.
///
/// An estimate the run never recorded is a *replay miss* and surfaces
/// as [`SourceError::Rejected`] (retrying an immutable recording cannot
/// help). A complete recorded run therefore reproduces the original
/// experiment bit-for-bit; an incomplete one fails loudly instead of
/// silently inventing numbers.
pub struct ReplaySource {
    index: Arc<adcomp_store::SnapshotIndex>,
    meta: crate::recording::InterfaceMeta,
    replay_hits: Arc<adcomp_obs::Counter>,
}

impl ReplaySource {
    /// Builds a replay of the interface `label` from a store's current
    /// snapshot. Fails if the run never recorded that interface's
    /// metadata.
    pub fn from_store(
        store: &adcomp_store::RunStore,
        label: &str,
    ) -> std::io::Result<ReplaySource> {
        ReplaySource::from_index(Arc::new(store.snapshot()), label)
    }

    /// Builds a replay from an already-materialized snapshot (shared by
    /// several replay sources of the same run).
    pub fn from_index(
        index: Arc<adcomp_store::SnapshotIndex>,
        label: &str,
    ) -> std::io::Result<ReplaySource> {
        let meta = crate::recording::meta_in(&index, label)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("run store has no interface metadata for {label:?}"),
            )
        })?;
        Ok(ReplaySource {
            index,
            meta,
            replay_hits: adcomp_obs::Registry::global().counter("adcomp_store_replay_hits_total"),
        })
    }

    /// The recorded interface metadata backing this replay.
    pub fn meta(&self) -> &crate::recording::InterfaceMeta {
        &self.meta
    }
}

impl EstimateSource for ReplaySource {
    fn label(&self) -> String {
        self.meta.label.clone()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs
            .iter()
            .map(|spec| {
                let key = crate::recording::spec_key(&self.meta.label, spec);
                match crate::recording::estimate_in(&self.index, key) {
                    Some(value) => {
                        self.replay_hits.inc();
                        Ok(value)
                    }
                    None => Err(SourceError::Rejected(format!(
                        "replay miss: no recorded estimate for `{spec}` on {}",
                        self.meta.label
                    ))),
                }
            })
            .collect()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        let n = self.meta.catalog_len();
        for id in spec.referenced_attributes() {
            if id.0 >= n {
                return Err(SourceError::Rejected(format!(
                    "unknown attribute #{} (catalog has {n})",
                    id.0
                )));
            }
        }
        let demographics = &spec.demographics;
        if (demographics.genders.is_some() || demographics.ages.is_some())
            && !self.meta.supports_demographics
        {
            return Err(SourceError::Rejected(
                "interface does not support demographic targeting".into(),
            ));
        }
        Ok(())
    }

    fn catalog_len(&self) -> u32 {
        self.meta.catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.meta.name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.meta.feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.meta.can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.meta.supports_demographics
    }
}

/// The scheduler layer of [`Layers`]: replicas of a target's
/// measurement interface and how to schedule across them.
pub struct Replicas {
    /// Replica endpoints, each typically a wire client fronting a
    /// platform replica; every one must report the measurement
    /// interface's label.
    pub endpoints: Vec<Arc<dyn EstimateSource>>,
    /// Scheduler tuning.
    pub config: crate::distributed::SchedulerConfig,
}

/// The live layers [`AuditTarget::layered`] can wrap a target in; each
/// is optional, and `Layers::default()` adds none.
#[derive(Default)]
pub struct Layers {
    /// Measure through a
    /// [`ScheduledSource`](crate::distributed::ScheduledSource) over
    /// these replicas.
    pub scheduler: Option<Replicas>,
    /// Retry and degrade
    /// ([`ResilientSource`](crate::resilience::ResilientSource)) with
    /// this config.
    pub resilience: Option<crate::resilience::ResilienceConfig>,
    /// Record every answer into this store ([`RecordingSource`]).
    pub recording: Option<Arc<adcomp_store::RunStore>>,
}

impl AuditTarget {
    /// The same target wrapped in `layers`, always in one order:
    ///
    /// 1. The scheduler replaces the measurement interface: every
    ///    estimate is sharded across the replicas and merged in
    ///    submission order, bit-identical to a serial run. The targeting
    ///    interface stays local — catalog metadata, spec checks and
    ///    composition rules don't need the fleet.
    /// 2. Resilience wraps both interfaces, above the scheduler.
    /// 3. Recording wraps last, so the store holds final answers, replay
    ///    hits bypass the whole live stack, and a killed run re-run
    ///    against the same store re-issues no answered query. It also
    ///    persists the target's layout (labels and id translation) so
    ///    [`AuditTarget::from_replay`] can reconstruct it.
    ///
    /// Fails only when the recording store cannot be written; panics
    /// when the replicas do not serve the measurement interface.
    pub fn layered(&self, layers: Layers) -> std::io::Result<AuditTarget> {
        let mut target = self.clone();
        if let Some(replicas) = layers.scheduler {
            let scheduled =
                crate::distributed::ScheduledSource::new(replicas.endpoints, replicas.config, None);
            assert_eq!(
                scheduled.label(),
                target.measurement.label(),
                "scheduler endpoints must replicate the measurement interface"
            );
            target.measurement = Arc::new(scheduled);
        }
        if let Some(config) = layers.resilience {
            use crate::resilience::ResilientSource;
            target = target.wrap_each(|inner| Ok(Arc::new(ResilientSource::new(inner, config))))?;
        }
        if let Some(store) = layers.recording {
            let layout = crate::recording::TargetLayout {
                targeting: target.targeting.label(),
                measurement: target.measurement.label(),
                id_map: target.id_map.as_deref().cloned(),
            };
            target = target
                .wrap_each(|inner| Ok(Arc::new(RecordingSource::new(inner, store.clone())?)))?;
            crate::recording::record_layout(&store, &layout)?;
        }
        Ok(target)
    }

    /// Wraps both interfaces with `wrap`. A direct target (measuring on
    /// the audited interface itself) gets one wrapper shared by both, so
    /// its retry statistics and recorded metadata stay unified.
    fn wrap_each(
        self,
        wrap: impl Fn(Arc<dyn EstimateSource>) -> std::io::Result<Arc<dyn EstimateSource>>,
    ) -> std::io::Result<AuditTarget> {
        let targeting = wrap(self.targeting.clone())?;
        let measurement = if Arc::ptr_eq(&self.targeting, &self.measurement) {
            targeting.clone()
        } else {
            wrap(self.measurement)?
        };
        Ok(AuditTarget {
            targeting,
            measurement,
            id_map: self.id_map,
        })
    }

    /// Reconstructs a recorded audit target as a pure replay: both
    /// interfaces become [`ReplaySource`]s over the store's snapshot,
    /// with the recorded id translation. `targeting_label` names the
    /// audited interface (as [`AuditTarget::label`] reported it when
    /// recording).
    pub fn from_replay(
        store: &adcomp_store::RunStore,
        targeting_label: &str,
    ) -> std::io::Result<AuditTarget> {
        let index = Arc::new(store.snapshot());
        let layout = crate::recording::layout_in(&index, targeting_label)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("run store has no audit target recorded under {targeting_label:?}"),
            )
        })?;
        let targeting: Arc<dyn EstimateSource> =
            Arc::new(ReplaySource::from_index(index.clone(), &layout.targeting)?);
        // `translate` indexes the map by targeting id: the invariant
        // `AuditTarget::via` asserts for live targets.
        if let Some(map) = &layout.id_map {
            if map.len() != targeting.catalog_len() as usize {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "recorded id map for {targeting_label:?} has {} entries for {} attributes",
                        map.len(),
                        targeting.catalog_len()
                    ),
                ));
            }
        }
        let measurement: Arc<dyn EstimateSource> = if layout.measurement == layout.targeting {
            targeting.clone()
        } else {
            Arc::new(ReplaySource::from_index(index, &layout.measurement)?)
        };
        Ok(AuditTarget {
            targeting,
            measurement,
            id_map: layout.id_map.map(Arc::new),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{SimScale, Simulation};

    fn sim() -> Simulation {
        Simulation::build(90, SimScale::Test)
    }

    /// A fresh directory unique to this test thread.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adcomp-source-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Resilience and recording into `store`: the two layers that wrap
    /// both interfaces.
    fn wrapping_both(store: &Arc<adcomp_store::RunStore>) -> Layers {
        Layers {
            resilience: Some(crate::resilience::ResilienceConfig::standard(7)),
            recording: Some(store.clone()),
            ..Layers::default()
        }
    }

    fn replicas_of(source: Arc<dyn EstimateSource>) -> Option<Replicas> {
        Some(Replicas {
            endpoints: vec![source],
            config: crate::distributed::SchedulerConfig::default(),
        })
    }

    #[test]
    fn direct_target_shares_one_wrapper_per_layer() {
        let s = sim();
        let dir = temp_dir("direct-layers");
        let store = Arc::new(adcomp_store::RunStore::open(&dir).unwrap());
        let direct = AuditTarget::for_platform(&s.linkedin, &s);
        let t = direct.layered(wrapping_both(&store)).unwrap();
        assert!(Arc::ptr_eq(&t.targeting, &t.measurement));
        // The scheduler replaces only the measurement interface, so the
        // targeting side is wrapped on its own from then on.
        let layers = Layers {
            scheduler: replicas_of(s.linkedin.clone()),
            ..wrapping_both(&store)
        };
        let scheduled = direct.layered(layers).unwrap();
        assert!(!Arc::ptr_eq(&scheduled.targeting, &scheduled.measurement));
        assert!(scheduled.measurement.batch_window() > 1);
        let spec = TargetingSpec::and_of([AttributeId(2)]);
        assert_eq!(
            scheduled.measurement.estimate(&spec).unwrap(),
            t.measurement.estimate(&spec).unwrap()
        );
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_target_gets_distinct_wrappers_and_records_its_layout() {
        let s = sim();
        let dir = temp_dir("via-layers");
        let store = Arc::new(adcomp_store::RunStore::open(&dir).unwrap());
        let live = AuditTarget::for_platform(&s.facebook_restricted, &s);
        let t = live.layered(wrapping_both(&store)).unwrap();
        assert!(!Arc::ptr_eq(&t.targeting, &t.measurement));
        assert_eq!(t.label(), "FB-restricted");
        assert_eq!(t.measurement.label(), "Facebook");
        let layout = crate::recording::layout_in(&store.snapshot(), "FB-restricted")
            .unwrap()
            .expect("layout recorded");
        assert_eq!(
            layout,
            crate::recording::TargetLayout {
                targeting: live.targeting.label(),
                measurement: live.measurement.label(),
                id_map: live.id_map.as_deref().cloned(),
            }
        );
        assert!(layout.id_map.is_some());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "scheduler endpoints must replicate the measurement interface")]
    fn scheduler_refuses_replicas_of_another_interface() {
        let s = sim();
        let _ = AuditTarget::for_platform(&s.linkedin, &s).layered(Layers {
            scheduler: replicas_of(s.facebook.clone()),
            ..Layers::default()
        });
    }

    #[test]
    fn replay_rejects_an_id_map_that_does_not_cover_the_catalog() {
        use crate::recording::{record_layout, record_meta, InterfaceMeta, TargetLayout};
        let dir = temp_dir("short-layout");
        let store = adcomp_store::RunStore::open(&dir).unwrap();
        for (label, n) in [("FB-restricted", 3), ("Facebook", 5)] {
            let meta = InterfaceMeta {
                label: label.into(),
                supports_demographics: label == "Facebook",
                same_feature_and: false,
                names: (0..n).map(|i| format!("attr {i}")).collect(),
                features: vec![0; n],
            };
            record_meta(&store, &meta).unwrap();
        }
        let layout = |ids: &[u32]| TargetLayout {
            targeting: "FB-restricted".into(),
            measurement: "Facebook".into(),
            id_map: Some(ids.iter().map(|&i| AttributeId(i)).collect()),
        };
        record_layout(&store, &layout(&[4, 2])).unwrap();
        let err = AuditTarget::from_replay(&store, "FB-restricted").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        record_layout(&store, &layout(&[4, 2, 0])).unwrap();
        assert!(AuditTarget::from_replay(&store, "FB-restricted").is_ok());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sensitive_class_constrains_spec() {
        let base = TargetingSpec::and_of([AttributeId(0)]);
        let male = SensitiveClass::Gender(Gender::Male).constrain(&base);
        assert_eq!(male.demographics.genders, Some(vec![Gender::Male]));
        assert_eq!(male.include, base.include);
        let young = SensitiveClass::Age(AgeBucket::A18_24).constrain(&base);
        assert_eq!(young.demographics.ages, Some(vec![AgeBucket::A18_24]));
        assert_eq!(SensitiveClass::ALL.len(), 6);
    }

    #[test]
    fn adplatform_source_estimates() {
        let s = sim();
        let src: Arc<dyn EstimateSource> = s.facebook.clone();
        assert_eq!(src.label(), "Facebook");
        assert!(src.estimate(&TargetingSpec::everyone()).unwrap() > 0);
        assert!(src.supports_demographics());
        assert_eq!(src.catalog_len() as usize, s.facebook.catalog().len());
        assert!(src.attribute_name(AttributeId(0)).unwrap().contains(" — "));
    }

    #[test]
    fn composition_rules_respect_features() {
        let s = sim();
        let google: Arc<dyn EstimateSource> = s.google.clone();
        // Find one attribute of each feature.
        let mut by_feature = std::collections::HashMap::new();
        for id in 0..google.catalog_len() {
            let id = AttributeId(id);
            by_feature
                .entry(google.attribute_feature(id).unwrap())
                .or_insert(id);
        }
        let feats: Vec<_> = by_feature.values().copied().collect();
        assert!(feats.len() >= 2, "google needs two features");
        assert!(google.can_compose(feats[0], feats[1]));
        assert!(!google.can_compose(feats[0], feats[0]), "self-composition");
        let fb: Arc<dyn EstimateSource> = s.facebook.clone();
        assert!(
            fb.can_compose(AttributeId(0), AttributeId(1)),
            "facebook allows same-feature"
        );
    }

    #[test]
    fn restricted_target_measures_via_parent() {
        let s = sim();
        let target = AuditTarget::for_platform(&s.facebook_restricted, &s);
        assert_eq!(target.label(), "FB-restricted");
        assert_eq!(target.measurement.label(), "Facebook");
        let spec = TargetingSpec::and_of([AttributeId(0)]);
        // Restricted interface rejects gender targeting…
        assert!(target
            .targeting
            .check(&SensitiveClass::Gender(Gender::Male).constrain(&spec))
            .is_err());
        // …but the target measures it through the parent.
        let male = target
            .selector_estimate(&spec, Selector::Class(SensitiveClass::Gender(Gender::Male)))
            .unwrap();
        let female = target
            .selector_estimate(
                &spec,
                Selector::Class(SensitiveClass::Gender(Gender::Female)),
            )
            .unwrap();
        let total = target
            .measurement
            .estimate(&target.translate(&spec))
            .unwrap();
        assert!(male > 0 && female > 0);
        assert!(total >= male.max(female));
    }

    #[test]
    fn translate_maps_ids() {
        let s = sim();
        let target = AuditTarget::for_platform(&s.facebook_restricted, &s);
        let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(1)]);
        let translated = target.translate(&spec);
        let expected: Vec<AttributeId> = [AttributeId(0), AttributeId(1)]
            .iter()
            .map(|id| s.facebook_restricted.parent_id(*id).unwrap())
            .collect();
        let got: Vec<AttributeId> = translated.referenced_attributes().collect();
        assert_eq!(got, expected);
        // Direct targets translate to themselves.
        let direct = AuditTarget::for_platform(&s.linkedin, &s);
        assert_eq!(*direct.translate(&spec), spec);
        assert!(
            matches!(direct.translate(&spec), std::borrow::Cow::Borrowed(_)),
            "direct targets must not clone on translate"
        );
    }

    #[test]
    fn estimates_match_between_target_paths_on_direct_interfaces() {
        let s = sim();
        let target = AuditTarget::for_platform(&s.linkedin, &s);
        let spec = TargetingSpec::and_of([AttributeId(2)]);
        assert_eq!(
            target.measurement.estimate(&spec).unwrap(),
            s.linkedin.clone().estimate(&spec).unwrap()
        );
    }
}
