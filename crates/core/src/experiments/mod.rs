//! Experiment drivers: one module per paper artifact.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`distributions`] | Figures 1, 2, 4 — representation-ratio box plots per targeting set |
//! | [`recall_exp`] | Figure 5 — recall distributions of skewed targetings |
//! | [`removal_exp`] | Figures 3, 6 — removal of skewed individual targetings |
//! | [`table1`] | Table 1 — overlaps and top-1/top-10 union recalls |
//! | [`examples`] | Tables 2, 3 — illustrative skewed compositions |
//! | [`methodology`] | §3 — estimate consistency and granularity probes |
//! | [`report`] | Markdown rendering of a full reproduction run |
//! | [`lookalike_exp`] | Extension: lookalike / Special-Ad-Audience skew |
//! | [`delivery_exp`] | Extension: paired-ad delivery-skew audit (Imana et al.) |
//! | [`uncertainty_exp`] | Extension: uncertainty-aware audits under inferred/missing demographics |
//!
//! All drivers share an [`ExperimentContext`] that owns the simulated
//! platforms and caches the per-interface individual surveys (the audit's
//! most expensive step, shared by every experiment exactly as the paper's
//! crawl data was).

pub mod delivery_exp;
pub mod distributions;
pub mod examples;
pub mod lookalike_exp;
pub mod methodology;
pub mod recall_exp;
pub mod removal_exp;
pub mod report;
pub mod table1;
pub mod uncertainty_exp;

use std::sync::{Arc, OnceLock};

use adcomp_platform::{InterfaceKind, SimScale, Simulation};
use adcomp_population::AttributeInference;
use adcomp_store::RunStore;

use crate::discovery::{survey_individuals, DiscoveryConfig, IndividualSurvey};
use crate::distributed::SchedulerConfig;
use crate::resilience::ResilienceConfig;
use crate::source::{AuditTarget, EstimateSource, Layers, Replicas, SourceError};

/// Experiment-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Simulation size.
    pub scale: SimScale,
    /// Discovery parameters (top-k, reach floor, sampling seed).
    pub discovery: DiscoveryConfig,
    /// Optional retry/degradation layer wrapped around every audit
    /// target. `None` (the default) talks to the sources directly —
    /// the right choice for in-process simulators, which cannot fail
    /// transiently. Set it when the target sits behind a wire client
    /// or a fault-injecting harness.
    pub resilience: Option<ResilienceConfig>,
    /// Optional demographic-inference model. `None` (the default) is the
    /// oracle scenario: platforms resolve demographic constraints against
    /// ground truth. `Some` attaches an
    /// [`InferredView`](adcomp_population::InferredView) to every
    /// platform, so the same experiments run against noisy or missing
    /// demographic labels (see [`uncertainty_exp`]).
    pub inference: Option<AttributeInference>,
}

impl ExperimentConfig {
    /// Paper-scale configuration (full catalogs, top-1000 discovery).
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            scale: SimScale::Paper,
            discovery: DiscoveryConfig::default(),
            resilience: None,
            inference: None,
        }
    }

    /// Fast configuration for tests and examples.
    pub fn test(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            scale: SimScale::Test,
            discovery: DiscoveryConfig {
                top_k: 60,
                ..DiscoveryConfig::default()
            },
            resilience: None,
            inference: None,
        }
    }

    /// Wraps every audit target in a [`ResilientSource`] with `config`.
    ///
    /// [`ResilientSource`]: crate::resilience::ResilientSource
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = Some(config);
        self
    }

    /// Runs the experiments against demographics *inferred* through
    /// `model` instead of ground truth.
    pub fn with_inference(mut self, model: AttributeInference) -> Self {
        self.inference = Some(model);
        self
    }
}

/// How an [`ExperimentContext`] interacts with a [`RunStore`].
enum StoreMode {
    /// Live sources, nothing persisted.
    None,
    /// Live sources with every answered estimate recorded; re-runs
    /// against the same store replay answered queries from disk.
    Record(Arc<RunStore>),
    /// Pure replay: targets are reconstructed from the store and the
    /// platform layer is never queried.
    Replay(Arc<RunStore>),
}

/// Builds the replica endpoint set a distributed context schedules a
/// *measurement* interface's queries across. Called once per
/// [`target`](ExperimentContext::target) with the measurement-side
/// interface (the restricted Facebook interface measures via its
/// parent, so it asks for `FacebookNormal` replicas); every returned
/// source must report that interface's label.
pub type EndpointSetFactory =
    Arc<dyn Fn(InterfaceKind) -> Vec<Arc<dyn EstimateSource>> + Send + Sync>;

/// Owns the simulation and caches per-interface surveys.
pub struct ExperimentContext {
    /// The simulated platforms.
    pub simulation: Simulation,
    /// Global configuration.
    pub config: ExperimentConfig,
    surveys: [OnceLock<IndividualSurvey>; 4],
    store: StoreMode,
    sched: Option<(EndpointSetFactory, SchedulerConfig)>,
}

/// The paper's presentation order of interfaces.
pub const INTERFACE_ORDER: [InterfaceKind; 4] = [
    InterfaceKind::FacebookRestricted,
    InterfaceKind::FacebookNormal,
    InterfaceKind::GoogleDisplay,
    InterfaceKind::LinkedIn,
];

fn interface_index(kind: InterfaceKind) -> usize {
    INTERFACE_ORDER
        .iter()
        .position(|k| *k == kind)
        .expect("known interface")
}

impl ExperimentContext {
    /// A context over the simulation for `config`. Its platforms are
    /// built on first use (see
    /// [`Simulation::build`](adcomp_platform::Simulation::build)): an
    /// interface no experiment queries costs only its catalog.
    pub fn new(config: ExperimentConfig) -> ExperimentContext {
        ExperimentContext {
            simulation: Simulation::build_inferred(
                config.seed,
                config.scale,
                config.inference.as_ref(),
            ),
            config,
            surveys: Default::default(),
            store: StoreMode::None,
            sched: None,
        }
    }

    /// Like [`new`](ExperimentContext::new), but every target measures
    /// through a distributed scheduler ([`Layers::scheduler`]) over the
    /// replica endpoints `factory` builds for its measurement interface.
    /// Every experiment driver then runs distributed without changes —
    /// results stay bit-identical to the single-endpoint serial run.
    pub fn distributed(
        config: ExperimentConfig,
        factory: EndpointSetFactory,
        sched: SchedulerConfig,
    ) -> ExperimentContext {
        let mut ctx = ExperimentContext::new(config);
        ctx.sched = Some((factory, sched));
        ctx
    }

    /// [`distributed`](ExperimentContext::distributed) +
    /// [`recorded`](ExperimentContext::recorded): scheduled queries are
    /// recorded into `store` (outermost, so answered queries replay
    /// from disk on resume and are never re-issued to any endpoint).
    pub fn distributed_recorded(
        config: ExperimentConfig,
        store: Arc<RunStore>,
        factory: EndpointSetFactory,
        sched: SchedulerConfig,
    ) -> ExperimentContext {
        let mut ctx = ExperimentContext::distributed(config, factory, sched);
        ctx.store = StoreMode::Record(store);
        ctx
    }

    /// Like [`new`](ExperimentContext::new), but every audit target
    /// records into `store` ([`Layers::recording`]).
    /// [`AuditTarget::layered`] puts recording outermost, so the store
    /// holds final post-resilience answers — and because recorded
    /// answers are replayed from the store before any live query,
    /// killing and re-running an experiment against the same store
    /// resumes it with zero re-issued platform queries.
    pub fn recorded(config: ExperimentConfig, store: Arc<RunStore>) -> ExperimentContext {
        let mut ctx = ExperimentContext::new(config);
        ctx.store = StoreMode::Record(store);
        ctx
    }

    /// A context whose targets replay `store` with the platform layer
    /// fully detached: [`target`](ExperimentContext::target) returns
    /// [`AuditTarget::from_replay`] targets, and any estimate the
    /// recorded run never answered fails loudly as a replay miss. No
    /// platform of its simulation is ever built.
    /// `config` must match the recorded run for the drivers to ask the
    /// same questions (spec schedules are derived from its seeds).
    pub fn replayed(config: ExperimentConfig, store: Arc<RunStore>) -> ExperimentContext {
        let mut ctx = ExperimentContext::new(config);
        ctx.store = StoreMode::Replay(store);
        ctx
    }

    /// The audit target for an interface (restricted measures via its
    /// parent automatically), wrapped in this context's layers by one
    /// [`AuditTarget::layered`] call.
    pub fn target(&self, kind: InterfaceKind) -> AuditTarget {
        if let StoreMode::Replay(store) = &self.store {
            return AuditTarget::from_replay(store, kind.label())
                .expect("interface was recorded in the replayed run store");
        }
        let base = AuditTarget::for_platform(self.simulation.platform(kind), &self.simulation);
        let recording = match &self.store {
            StoreMode::Record(store) => Some(store.clone()),
            _ => None,
        };
        let scheduler = self.sched.as_ref().map(|(factory, config)| {
            // The fleet replicates the interface the base target measures
            // on (the restricted interface measures via its parent).
            let measurement = base.measurement.label();
            let measurement_kind = INTERFACE_ORDER
                .into_iter()
                .find(|k| k.label() == measurement)
                .expect("measurement interface is simulated");
            Replicas {
                endpoints: factory(measurement_kind),
                config: config.clone(),
            }
        });
        base.layered(Layers {
            scheduler,
            resilience: self.config.resilience,
            recording,
        })
        .expect("run store accepts interface metadata")
    }

    /// The run store this context records into or replays from, if any.
    pub fn store(&self) -> Option<&Arc<RunStore>> {
        match &self.store {
            StoreMode::None => None,
            StoreMode::Record(store) | StoreMode::Replay(store) => Some(store),
        }
    }

    /// The cached individual survey of an interface (computed on first
    /// use; every experiment shares it).
    pub fn survey(&self, kind: InterfaceKind) -> Result<&IndividualSurvey, SourceError> {
        let slot = &self.surveys[interface_index(kind)];
        if let Some(s) = slot.get() {
            return Ok(s);
        }
        let _span = adcomp_obs::trace::Tracer::global().span_with(
            "discovery:survey",
            &[("platform", kind.label().to_string())],
        );
        let survey = survey_individuals(&self.target(kind))?;
        let _ = slot.set(survey);
        Ok(slot.get().expect("just set"))
    }
}

/// Formats a count the way the paper does ("6.1M", "570K", "46K").
pub fn fmt_count(value: u64) -> String {
    if value >= 1_000_000_000 {
        format!("{:.1}B", value as f64 / 1e9)
    } else if value >= 1_000_000 {
        format!("{:.1}M", value as f64 / 1e6)
    } else if value >= 1_000 {
        format!("{:.0}K", value as f64 / 1e3)
    } else {
        value.to_string()
    }
}

/// Formats a recall with its percentage of the population ("6.1M (5.1%)").
pub fn fmt_recall(recall: u64, population: u64) -> String {
    if population == 0 {
        return fmt_count(recall);
    }
    format!(
        "{} ({:.1}%)",
        fmt_count(recall),
        100.0 * recall as f64 / population as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_units() {
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(46_000), "46K");
        assert_eq!(fmt_count(1_100_000), "1.1M");
        assert_eq!(fmt_count(2_400_000_000), "2.4B");
    }

    #[test]
    fn fmt_recall_with_population() {
        assert_eq!(fmt_recall(6_100_000, 120_000_000), "6.1M (5.1%)");
        assert_eq!(fmt_recall(10, 0), "10");
    }

    #[test]
    fn context_builds_and_caches_surveys() {
        let ctx = ExperimentContext::new(ExperimentConfig::test(50));
        let s1 = ctx.survey(InterfaceKind::LinkedIn).unwrap();
        let n1 = s1.entries.len();
        // Second call must be the cached instance (same address).
        let s2 = ctx.survey(InterfaceKind::LinkedIn).unwrap();
        assert!(std::ptr::eq(s1, s2));
        assert_eq!(n1, s2.entries.len());
    }

    #[test]
    fn interface_order_matches_paper() {
        assert_eq!(INTERFACE_ORDER[0].label(), "FB-restricted");
        assert_eq!(INTERFACE_ORDER[1].label(), "Facebook");
        assert_eq!(INTERFACE_ORDER[2].label(), "Google");
        assert_eq!(INTERFACE_ORDER[3].label(), "LinkedIn");
    }
}
