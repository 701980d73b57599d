//! The benchmark's one door into the program: every constructor, driver
//! call and trait seam the other modules use lives here. When the
//! program changes how it assembles an audit stack, this is the file to
//! edit.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use adcomp_bitset::Bitset;
use adcomp_core::experiments::{table1, EndpointSetFactory};
use adcomp_core::recording::{encode_estimate, normalized_spec_key, KIND_ESTIMATE};
use adcomp_core::source::{ApiSource, AuditTarget, RecordingSource, ReplaySource};
use adcomp_core::{
    rank_individuals, survey_individuals, top_compositions, top_compositions_bounded, Direction,
    DiscoveryConfig, ResilienceConfig, ResilientSource, ScheduledSource, SchedulerConfig,
    SensitiveClass, SpecMeasurement, DEFAULT_MIN_REACH,
};
use adcomp_platform::{
    build_facebook, build_facebook_restricted, build_google, build_linkedin, Catalog, CategorySpec,
    EstimateKind, EstimateRequest, InterfaceKind, Objective, PlatformConfig, PlatformError,
    QueryStats, RoundingRule, SimScale, SizeEstimate, SkewProfile,
};
use adcomp_population::{
    DemographicProfile, Gender, SegmentStore, Universe, UniverseConfig, SEGMENT_ALIGN,
};
use adcomp_targeting::{AttributeId, Capabilities, FeatureId};
use adcomp_wire::{serve, Client, ClientConfig, ServerConfig, ServerHandle};
use discrimination_via_composition::RemoteSource;

pub use adcomp_core::experiments::ExperimentConfig;
use adcomp_core::experiments::ExperimentContext;
pub use adcomp_core::EstimateSource;
use adcomp_core::SourceError;
pub use adcomp_platform::{AdPlatform, PlatformApi, ReachOracle, SegmentedPlatform, Simulation};
pub use adcomp_store::RunStore;
pub use adcomp_targeting::TargetingSpec;
pub use discrimination_via_composition::Fleet;

use crate::trace::{Layer, Recorder};

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Discovery size of `table1-paper`. The paper discovers the top 1000
/// compositions; at that size one audit takes about 17 s on a 2-thread
/// host, too long to repeat within one run, so the workload keeps the
/// paper's universes and catalogs and discovers the top 100.
const PAPER_TOP_K: usize = 100;

/// The Table 1 configuration, at paper or test scale.
pub fn table1_config(seed: u64, paper: bool) -> ExperimentConfig {
    if paper {
        let mut config = ExperimentConfig::paper(seed);
        config.discovery.top_k = PAPER_TOP_K;
        config
    } else {
        ExperimentConfig::test(seed)
    }
}

/// The simulation Table 1 audits. At paper scale only the three Table 1
/// interfaces are paper-sized: Google, which Table 1 never queries and
/// which is most of `Simulation::build`'s time, is built at test scale.
/// Seeds follow `Simulation::build`.
pub fn table1_simulation(seed: u64, paper: bool) -> Simulation {
    if !paper {
        return Simulation::build(seed, SimScale::Test);
    }
    let facebook = Arc::new(build_facebook(seed, SimScale::Paper));
    Simulation {
        facebook_restricted: Arc::new(build_facebook_restricted(&facebook, SimScale::Paper)),
        facebook,
        google: Arc::new(build_google(seed ^ 0x6006, SimScale::Test)),
        linkedin: Arc::new(build_linkedin(seed ^ 0x11, SimScale::Paper)),
    }
}

/// A second handle on the same platforms.
pub fn shared(sim: &Simulation) -> Simulation {
    Simulation {
        facebook: sim.facebook.clone(),
        facebook_restricted: sim.facebook_restricted.clone(),
        google: sim.google.clone(),
        linkedin: sim.linkedin.clone(),
    }
}

/// Estimates the simulation's platforms have answered so far.
pub fn answered(sim: &Simulation) -> u64 {
    sim.interfaces().iter().map(|p| p.stats().estimates).sum()
}

fn platform_of(sim: &Simulation, kind: InterfaceKind) -> Arc<AdPlatform> {
    match kind {
        InterfaceKind::FacebookNormal => sim.facebook.clone(),
        InterfaceKind::FacebookRestricted => sim.facebook_restricted.clone(),
        InterfaceKind::GoogleDisplay => sim.google.clone(),
        InterfaceKind::LinkedIn => sim.linkedin.clone(),
    }
}

/// How an audit context reaches its measurement endpoints.
pub enum Stack {
    /// Straight into the in-process platforms.
    InProcess,
    /// In process, recording every answer into a run store.
    Recorded(Arc<RunStore>),
    /// Replaying a run store, the platforms detached.
    Replayed(Arc<RunStore>),
    /// Through the scheduler over the factory's endpoints.
    Distributed(EndpointSetFactory, SchedulerConfig),
    /// Recording over resilience over the scheduler over the factory's
    /// wire endpoints: the canonical remote audit.
    Fleet(Arc<RunStore>, EndpointSetFactory),
}

/// An audit context over `stack`. With `sim`, the context audits that
/// pre-built simulation: `ExperimentContext` always builds one from its
/// config, so the context is built at test scale (about 0.3 s) and the
/// simulation swapped in.
pub fn context(
    config: ExperimentConfig,
    stack: Stack,
    sim: Option<&Simulation>,
) -> ExperimentContext {
    let config = if matches!(stack, Stack::Fleet(..)) {
        config.with_resilience(ResilienceConfig::standard(config.seed))
    } else {
        config
    };
    let build = match sim {
        Some(_) => ExperimentConfig {
            scale: SimScale::Test,
            ..config
        },
        None => config,
    };
    let mut ctx = match stack {
        Stack::InProcess => ExperimentContext::new(build),
        Stack::Recorded(store) => ExperimentContext::recorded(build, store),
        Stack::Replayed(store) => ExperimentContext::replayed(build, store),
        Stack::Distributed(factory, sched) => ExperimentContext::distributed(build, factory, sched),
        Stack::Fleet(store, factory) => {
            ExperimentContext::distributed_recorded(build, store, factory, fleet_sched())
        }
    };
    if let Some(sim) = sim {
        ctx.simulation = shared(sim);
        ctx.config = config;
    }
    ctx
}

/// Runs the Table 1 driver and renders its TSV.
pub fn table1_tsv(ctx: &ExperimentContext) -> Result<String, SourceError> {
    Ok(table1::table1_tsv(&table1::table1(ctx)?))
}

/// Opens (or creates) a run store.
pub fn open_store(dir: &Path) -> io::Result<Arc<RunStore>> {
    RunStore::open(dir).map(Arc::new)
}

/// Forces a run store's appends to disk.
pub fn sync(store: &RunStore) -> io::Result<()> {
    store.sync()
}

/// A process-wide counter of the program's metrics registry, summed
/// over its labels.
pub fn counter(name: &str) -> u64 {
    adcomp_obs::Registry::global().snapshot().counter(name)
}

/// Estimates answered from a run store instead of a platform.
pub const REPLAY_HITS: &str = "adcomp_store_replay_hits_total";
/// Retries the resilience layer issued.
pub const RESILIENCE_RETRIES: &str = "adcomp_retries_total";
/// Wire-client retries, timeouts and reconnects: every way a wire call
/// went wrong before it succeeded.
pub const WIRE_ERRORS: [&str; 3] = [
    "adcomp_wire_retries_total",
    "adcomp_wire_timeouts_total",
    "adcomp_wire_reconnects_total",
];

// ---------------------------------------------------------------------
// Fleets and endpoint sets
// ---------------------------------------------------------------------

/// Wire replicas per measurement interface.
const FLEET_REPLICAS: usize = 2;

/// One claiming loop per endpoint: over two replicas, at most two client
/// threads and (with a pipeline window of 1) two requests in flight.
fn fleet_sched() -> SchedulerConfig {
    SchedulerConfig {
        workers_per_endpoint: 1,
        ..SchedulerConfig::default()
    }
}

/// The scheduler that carries a traced in-process audit to its one
/// probed endpoint per interface: one worker, and units large enough
/// that the shim costs little.
pub fn shim_sched() -> SchedulerConfig {
    SchedulerConfig {
        workers_per_endpoint: 1,
        unit_size: 1024,
        ..SchedulerConfig::default()
    }
}

fn client_config(pipeline_window: usize) -> ClientConfig {
    ClientConfig {
        pipeline_window,
        ..ClientConfig::default()
    }
}

/// `FLEET_REPLICAS` loopback wire servers for each interface Table 1
/// measures on (the restricted interface measures through Facebook's),
/// serving `sim`'s platforms through the server probe.
pub fn launch_fleet(sim: &Simulation, rec: Option<&Arc<Recorder>>) -> io::Result<Arc<Fleet>> {
    let apis = [InterfaceKind::FacebookNormal, InterfaceKind::LinkedIn]
        .into_iter()
        .map(|kind| (kind, probe_api(platform_of(sim, kind), rec)))
        .collect();
    Fleet::launch_apis(
        apis,
        FLEET_REPLICAS,
        |_, _| ServerConfig::default(),
        |_, _| client_config(1),
    )
    .map(Arc::new)
}

/// The fleet's replica clients, behind the endpoint probe.
pub fn fleet_endpoints(fleet: &Arc<Fleet>, rec: Option<&Arc<Recorder>>) -> EndpointSetFactory {
    let fleet = fleet.clone();
    let rec = rec.cloned();
    Arc::new(move |kind| {
        fleet
            .endpoints(kind)
            .into_iter()
            .map(|e| probe_source(e, rec.as_ref()))
            .collect()
    })
}

/// One in-process endpoint per interface behind both probes: how a
/// traced run reaches an in-process platform through a seam.
pub fn local_endpoints(sim: &Simulation, rec: &Arc<Recorder>) -> EndpointSetFactory {
    let sim = shared(sim);
    let rec = rec.clone();
    Arc::new(move |kind| {
        let api = probe_api(platform_of(&sim, kind), Some(&rec));
        vec![probe_source(Arc::new(ApiSource(api)), Some(&rec))]
    })
}

/// One replay endpoint per interface over a recorded store, behind the
/// endpoint probe.
pub fn replay_endpoints(store: &Arc<RunStore>, rec: &Arc<Recorder>) -> EndpointSetFactory {
    let store = store.clone();
    let rec = rec.clone();
    Arc::new(move |kind| {
        let replay = ReplaySource::from_store(&store, kind.label())
            .expect("the recorded run measured on this interface");
        vec![probe_source(Arc::new(replay), Some(&rec))]
    })
}

// ---------------------------------------------------------------------
// Segmented discovery
// ---------------------------------------------------------------------

/// Users per on-disk segment of `discovery-segmented`.
const SEGMENT_USERS: u32 = 4 * SEGMENT_ALIGN;
/// Segments of `discovery-segmented`: 1 Mi users in all.
const SEGMENTS: u32 = 4;
/// Each simulated user stands for this many, so estimates land in the
/// range of a 21M-user platform and the paper's 10k reach floor prunes
/// as it does at that size.
const SEGMENT_WEIGHT: f64 = 20.0;
/// Audience cache budget of every segment store here: about 40% of the
/// 2.4 MB a `discovery-segmented` round touches, so its audiences keep
/// streaming from disk.
const SEGMENT_CACHE_BYTES: usize = 1 << 20;

/// The segmented universe for `seed`.
fn segment_universe(seed: u64) -> UniverseConfig {
    UniverseConfig {
        n_users: SEGMENTS * SEGMENT_USERS,
        seed,
        scale: SEGMENT_WEIGHT,
        profile: DemographicProfile::balanced(),
    }
}

/// 56 attributes in two features, with `population_scale`'s popularity
/// range. The catalog does not depend on the seed: how many compositions
/// survive the reach floor, and so how much work a round is, moves with
/// the attribute popularities far more than with the users.
fn segment_catalog() -> Catalog {
    let skew = |lean: f32| {
        let mut s = SkewProfile::neutral().lean_male(lean);
        s.popularity_range = (0.0008, 0.045);
        s
    };
    Catalog::generate(
        0x5eed,
        &[
            CategorySpec {
                name: "Interests",
                domain: "interests",
                feature: FeatureId(0),
                count: 28,
                skew: skew(0.35),
            },
            CategorySpec {
                name: "Lifestyle",
                domain: "lifestyle",
                feature: FeatureId(1),
                count: 28,
                skew: skew(-0.2),
            },
        ],
    )
}

fn segment_platform_config() -> PlatformConfig {
    PlatformConfig {
        kind: InterfaceKind::FacebookNormal,
        capabilities: Capabilities::permissive(),
        rounding: RoundingRule::facebook(),
        estimate_kind: EstimateKind::Users,
        supported_objectives: vec![Objective::Reach],
        default_objective: Objective::Reach,
    }
}

fn segmented(
    dir: &Path,
    universe: &UniverseConfig,
    segment_users: u32,
    config: PlatformConfig,
    catalog: Catalog,
) -> io::Result<SegmentedPlatform> {
    let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();
    let store = SegmentStore::create(dir, universe, segment_users, &models, SEGMENT_CACHE_BYTES)
        .map_err(|e| io::Error::other(format!("segment store: {e}")))?;
    Ok(SegmentedPlatform::new(config, store, catalog))
}

/// Generates `discovery-segmented`'s store under `dir`.
pub fn build_segmented(dir: &Path, seed: u64) -> io::Result<SegmentedPlatform> {
    segmented(
        dir,
        &segment_universe(seed),
        SEGMENT_USERS,
        segment_platform_config(),
        segment_catalog(),
    )
}

/// The segment-store copy of a resident platform, in `SEGMENT_ALIGN`
/// segments.
pub fn segmented_twin(p: &AdPlatform, dir: &Path) -> io::Result<SegmentedPlatform> {
    segmented(
        dir,
        p.universe().config(),
        SEGMENT_ALIGN,
        p.config().clone(),
        p.catalog().clone(),
    )
}

/// The resident copy of a segmented platform.
pub fn resident_twin(p: &SegmentedPlatform) -> AdPlatform {
    let universe = Arc::new(Universe::generate(p.store().config()));
    AdPlatform::new(p.config().clone(), universe, p.catalog().clone())
}

/// Users in a segmented platform's universe.
pub fn segmented_users(p: &SegmentedPlatform) -> u64 {
    u64::from(p.store().config().n_users)
}

/// Estimates a segmented platform has answered so far.
pub fn segmented_answered(p: &SegmentedPlatform) -> u64 {
    p.stats().estimates
}

/// (hits, misses, resident bytes) of a segmented platform's cache.
pub fn cache_stats(p: &SegmentedPlatform) -> (u64, u64, usize) {
    let s = p.store().cache_stats();
    (s.hits, s.misses, s.resident_bytes)
}

/// A direct audit target over a segmented platform, behind the endpoint
/// and server probes when traced.
pub fn segmented_target(p: &Arc<SegmentedPlatform>, rec: Option<&Arc<Recorder>>) -> AuditTarget {
    let api = probe_api(p.clone(), rec);
    AuditTarget::direct(probe_source(Arc::new(ApiSource(api)), rec))
}

/// Survey plus top-1000 discovery of the compositions most skewed toward
/// men; bounded by `oracle` when given, the greedy scan otherwise.
/// Returns the output as text, one measured targeting per line.
pub fn discover(
    target: &AuditTarget,
    oracle: Option<&dyn ReachOracle>,
    seed: u64,
) -> Result<String, SourceError> {
    let survey = survey_individuals(target)?;
    let cfg = DiscoveryConfig {
        top_k: 1000,
        min_reach: DEFAULT_MIN_REACH,
        arity: 2,
        seed,
    };
    let male = SensitiveClass::Gender(Gender::Male);
    let ranked = rank_individuals(&survey, male, Direction::Toward, cfg.min_reach);
    let found = match oracle {
        Some(oracle) => top_compositions_bounded(target, &survey, &ranked, &cfg, oracle)?,
        None => top_compositions(target, &survey, &ranked, &cfg)?,
    };
    let line = |attrs: &[AttributeId], m: &SpecMeasurement| {
        let ids: Vec<String> = attrs.iter().map(|a| a.0.to_string()).collect();
        format!(
            "{}\t{}\t{:?}\t{:?}\n",
            ids.join(","),
            m.total,
            m.by_gender,
            m.by_age
        )
    };
    let mut out = line(&[], &survey.base);
    for t in survey.entries.iter().chain(&found) {
        out.push_str(&line(&t.attrs, &t.measurement));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Probes: the benchmark's spans at the program's trait seams
// ---------------------------------------------------------------------

/// An `EstimateSource` that records an endpoint span around every call
/// and captures the queries.
struct ProbeSource {
    inner: Arc<dyn EstimateSource>,
    label: String,
    rec: Arc<Recorder>,
}

/// `inner` behind the endpoint probe, when tracing.
fn probe_source(
    inner: Arc<dyn EstimateSource>,
    rec: Option<&Arc<Recorder>>,
) -> Arc<dyn EstimateSource> {
    match rec {
        Some(rec) => Arc::new(ProbeSource {
            label: inner.label(),
            inner,
            rec: rec.clone(),
        }),
        None => inner,
    }
}

impl EstimateSource for ProbeSource {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.rec.capture(&self.label, std::slice::from_ref(spec));
        let start = self.rec.start();
        let out = self.inner.estimate(spec);
        self.rec.finish(Layer::Endpoint, start);
        out
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        self.rec.capture(&self.label, specs);
        let start = self.rec.start();
        let out = self.inner.estimate_batch(specs);
        self.rec.finish(Layer::Endpoint, start);
        out
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

/// A `PlatformApi` that records a server span around every estimate and
/// check.
struct ProbeApi {
    inner: Arc<dyn PlatformApi>,
    rec: Arc<Recorder>,
}

/// `inner` behind the server probe, when tracing.
pub fn probe_api(inner: Arc<dyn PlatformApi>, rec: Option<&Arc<Recorder>>) -> Arc<dyn PlatformApi> {
    match rec {
        Some(rec) => Arc::new(ProbeApi {
            inner,
            rec: rec.clone(),
        }),
        None => inner,
    }
}

impl PlatformApi for ProbeApi {
    fn config(&self) -> &PlatformConfig {
        self.inner.config()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        let start = self.rec.start();
        let out = self.inner.reach_estimate(request);
        self.rec.finish(Layer::Server, start);
        out
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        let start = self.rec.start();
        let out = self.inner.check(spec);
        self.rec.finish(Layer::Server, start);
        out
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn note_rate_limited(&self) {
        self.inner.note_rate_limited()
    }
}

/// A `ReachOracle` that records an oracle span around every thresholded
/// intersection (the bound lookups are manifest reads and stay untraced).
pub struct ProbeOracle {
    inner: Arc<dyn ReachOracle>,
    rec: Arc<Recorder>,
}

impl ProbeOracle {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ReachOracle>, rec: &Arc<Recorder>) -> ProbeOracle {
        ProbeOracle {
            inner,
            rec: rec.clone(),
        }
    }
}

impl ReachOracle for ProbeOracle {
    fn attribute_len(&self, id: AttributeId) -> Option<u64> {
        self.inner.attribute_len(id)
    }

    fn min_len_for_estimate(&self, min_estimate: u64) -> u64 {
        self.inner.min_len_for_estimate(min_estimate)
    }

    fn and_reaches(&self, attrs: &[AttributeId], threshold_len: u64) -> bool {
        let start = self.rec.start();
        let out = self.inner.and_reaches(attrs, threshold_len);
        self.rec.finish(Layer::Oracle, start);
        out
    }
}

// ---------------------------------------------------------------------
// Ledger layers: one call per rung
// ---------------------------------------------------------------------

/// `AdPlatform::exact_audience`, counted.
pub fn exact_len(p: &AdPlatform, spec: &TargetingSpec) -> u64 {
    p.exact_audience(spec).map_or(0, |a| a.len())
}

/// `PlatformApi::reach_estimate` with the interface's default request.
pub fn reach(p: &dyn PlatformApi, spec: &TargetingSpec) -> u64 {
    let request = EstimateRequest::borrowed(spec, p.config().default_objective);
    p.reach_estimate(&request).map_or(0, |e| e.value)
}

/// `AdPlatform::check`.
pub fn check(p: &AdPlatform, spec: &TargetingSpec) -> bool {
    p.check(spec).is_ok()
}

/// The resident platform as the audit's `EstimateSource`.
pub fn source_of(p: &Arc<AdPlatform>) -> Arc<dyn EstimateSource> {
    p.clone()
}

/// `inner` behind the retry layer, with the audit-run defaults.
pub fn resilient(inner: Arc<dyn EstimateSource>) -> Arc<dyn EstimateSource> {
    Arc::new(ResilientSource::new(inner, ResilienceConfig::standard(0)))
}

/// `inner` recording into `store`.
pub fn recording(
    inner: Arc<dyn EstimateSource>,
    store: Arc<RunStore>,
) -> io::Result<Arc<dyn EstimateSource>> {
    Ok(Arc::new(RecordingSource::new(inner, store)?))
}

/// A replay of the interface `label` recorded in `store`.
pub fn replay(store: &RunStore, label: &str) -> io::Result<Arc<dyn EstimateSource>> {
    Ok(Arc::new(ReplaySource::from_store(store, label)?))
}

/// A loopback wire server over `api`.
pub fn serve_api(api: Arc<dyn PlatformApi>) -> io::Result<ServerHandle> {
    serve(api, "127.0.0.1:0", ServerConfig::default())
}

/// A wire client of `server` keeping up to `window` requests in flight.
pub fn remote(server: &ServerHandle, window: usize) -> io::Result<Arc<dyn EstimateSource>> {
    let client = Client::connect_with(server.addr(), client_config(window))?;
    Ok(Arc::new(
        RemoteSource::new(client).map_err(io::Error::other)?,
    ))
}

/// The scheduler over replica endpoints, configured as in the fleet.
pub fn scheduled(endpoints: Vec<Arc<dyn EstimateSource>>) -> Arc<dyn EstimateSource> {
    Arc::new(ScheduledSource::new(endpoints, fleet_sched(), None))
}

/// The run-store record the recording layer writes for an estimate.
pub fn estimate_record(label: &str, spec: &TargetingSpec, value: u64) -> (u64, Vec<u8>) {
    let normalized = spec.normalized();
    (
        normalized_spec_key(label, &normalized),
        encode_estimate(&normalized, value),
    )
}

/// Appends one estimate record.
pub fn append(store: &RunStore, (key, payload): &(u64, Vec<u8>)) -> io::Result<()> {
    store.append(KIND_ESTIMATE, *key, payload)
}

/// The exact audience length below which an AND cannot reach the
/// paper's 10k floor.
pub fn reach_threshold(oracle: &dyn ReachOracle) -> u64 {
    oracle.min_len_for_estimate(DEFAULT_MIN_REACH)
}

/// `ReachOracle::and_reaches`.
pub fn and_reaches(oracle: &dyn ReachOracle, attrs: &[AttributeId], threshold_len: u64) -> bool {
    oracle.and_reaches(attrs, threshold_len)
}

/// The attributes of a spec that is a plain AND of two or more
/// attributes: what bounded discovery asks the oracle about.
pub fn conjunction(spec: &TargetingSpec) -> Option<Vec<AttributeId>> {
    let single = spec.include.iter().all(|g| g.attributes.len() == 1);
    (single && spec.include.len() >= 2 && spec.exclude.is_empty())
        .then(|| spec.include.iter().map(|g| g.attributes[0]).collect())
}

/// One resolved operand: a catalog audience, or a set the resolver
/// built once (an OR group, a demographic constraint).
#[derive(Clone, Copy)]
enum Operand {
    Attribute(u32),
    Built(usize),
}

/// A spec's audiences resolved for counting.
pub struct Resolved {
    and: Vec<Operand>,
    not: Vec<Operand>,
}

/// Resolves specs to the audiences whose intersection is their reach,
/// so the ledger's floor rung times only the counting.
pub struct Resolver<'a> {
    platform: &'a AdPlatform,
    built: Vec<Bitset>,
    index: HashMap<String, usize>,
}

impl<'a> Resolver<'a> {
    /// A resolver over `platform`'s audiences.
    pub fn new(platform: &'a AdPlatform) -> Resolver<'a> {
        Resolver {
            platform,
            built: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn build(&mut self, key: String, make: impl FnOnce(&AdPlatform) -> Bitset) -> Operand {
        let next = self.built.len();
        let idx = *self.index.entry(key).or_insert(next);
        if idx == next {
            self.built.push(make(self.platform));
        }
        Operand::Built(idx)
    }

    /// Resolves one spec.
    pub fn resolve(&mut self, spec: &TargetingSpec) -> Resolved {
        let mut and = Vec::with_capacity(spec.include.len() + 2);
        for group in &spec.include {
            and.push(match group.attributes.as_slice() {
                [one] => Operand::Attribute(one.0),
                many => self.build(format!("or{many:?}"), |p| {
                    many.iter()
                        .filter_map(|id| p.attribute_audience_raw(id.0 as usize))
                        .fold(Bitset::new(), |acc, a| acc.or(a))
                }),
            });
        }
        if let Some(genders) = &spec.demographics.genders {
            and.push(self.build(format!("g{genders:?}"), |p| {
                genders.iter().fold(Bitset::new(), |acc, g| {
                    acc.or(p.universe().gender_audience(*g))
                })
            }));
        }
        if let Some(ages) = &spec.demographics.ages {
            and.push(self.build(format!("a{ages:?}"), |p| {
                ages.iter().fold(Bitset::new(), |acc, a| {
                    acc.or(p.universe().age_audience(*a))
                })
            }));
        }
        let not = spec
            .exclude
            .iter()
            .map(|id| Operand::Attribute(id.0))
            .collect();
        Resolved { and, not }
    }

    fn set(&self, op: Operand) -> Option<&Bitset> {
        match op {
            Operand::Attribute(id) => self.platform.attribute_audience_raw(id as usize),
            Operand::Built(i) => Some(&self.built[i]),
        }
    }

    /// The reach of a resolved spec by intersection counting alone:
    /// `intersection_len` for the last (largest) pair, materialising only
    /// the ANDs before it. An unknown attribute counts nobody.
    pub fn count(&self, r: &Resolved) -> u64 {
        let Some(mut sets) = r
            .and
            .iter()
            .map(|&op| self.set(op))
            .collect::<Option<Vec<&Bitset>>>()
        else {
            return 0;
        };
        sets.sort_by_key(|s| s.len());
        let everyone = self.platform.universe().everyone();
        if !r.not.is_empty() {
            let mut acc = sets.iter().fold(everyone.clone(), |acc, s| acc.and(s));
            for &op in &r.not {
                if let Some(excluded) = self.set(op) {
                    acc = acc.and_not(excluded);
                }
            }
            return acc.len();
        }
        match sets.as_slice() {
            [] => everyone.len(),
            [one] => one.len(),
            [first, middle @ .., last] => match middle {
                [] => first.intersection_len(last),
                _ => middle
                    .iter()
                    .fold((*first).clone(), |acc, s| acc.and(s))
                    .intersection_len(last),
            },
        }
    }
}
