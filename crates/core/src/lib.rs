//! The composition-audit methodology of *On the Potential for
//! Discrimination via Composition* (Venkatadri & Mislove, IMC 2020).
//!
//! This crate is the paper's primary contribution as a library. Given any
//! advertising platform exposing the usual targeting surface — attribute
//! catalogs, AND-of-OR composition, and **rounded** audience-size
//! estimates (abstracted as [`EstimateSource`]) — it measures the
//! potential for discriminatory ad targeting:
//!
//! * [`metrics`] — the representation ratio (Equation 1), recall, the
//!   four-fifths rule, and rounding-robustness interval analysis;
//! * [`discovery`] — the greedy search for the most skewed k-way
//!   targeting compositions, plus random-composition baselines;
//! * [`distributed`] — the estimate worker pool: a scheduler sharding
//!   batches across replica endpoints (wire clients or in-process
//!   platforms) and merging results in submission order;
//! * [`union_estimate`] — audience overlap measurement and
//!   inclusion–exclusion union-recall estimation (platforms cannot
//!   express OR-of-ANDs directly);
//! * [`removal`] — the mitigation study: does removing the most skewed
//!   individual attributes fix compositions? (No.);
//! * [`probe`] — black-box characterisation of the platforms' size
//!   estimates (consistency, significant-digit ladders);
//! * [`mitigation`] — the paper's §5 proposal implemented: an
//!   outcome-based pre-flight gate and a streaming advertiser anomaly
//!   monitor;
//! * [`budget`] — client-side query caps and throttling (the ethics
//!   section's discipline);
//! * [`resilience`] — retry, error classification, and graceful
//!   degradation, so multi-day audits survive flaky platforms;
//! * [`experiments`] — drivers reproducing every figure and table of the
//!   paper's evaluation.
//!
//! The pipeline sees only what a real advertiser sees: rounded size
//! estimates from the targeting interface. Ground truth exists in the
//! simulators for validation, but no metric here touches it.
//!
//! # Quickstart
//!
//! ```
//! use adcomp_core::experiments::{ExperimentConfig, ExperimentContext};
//! use adcomp_core::experiments::distributions::distributions_for;
//! use adcomp_core::source::SensitiveClass;
//! use adcomp_platform::InterfaceKind;
//! use adcomp_population::Gender;
//!
//! let ctx = ExperimentContext::new(ExperimentConfig::test(1));
//! let male = SensitiveClass::Gender(Gender::Male);
//! let rows =
//!     distributions_for(&ctx, InterfaceKind::LinkedIn, &[male], &[2]).unwrap();
//! // Top 2-way compositions out-skew individual attributes.
//! assert!(!rows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod discovery;
pub mod distributed;
pub mod drift;
pub mod epoch;
pub mod experiments;
pub mod metrics;
pub mod mitigation;
pub mod probe;
pub mod recording;
pub mod removal;
pub mod resilience;
pub mod source;
pub mod stats;
pub mod union_estimate;

pub use budget::{BudgetedSource, QueryBudget};
pub use discovery::{
    compose_and_measure, random_compositions, rank_individuals, survey_individuals,
    top_compositions, top_compositions_bounded, Direction, DiscoveryConfig, IndividualSurvey,
    MeasuredTargeting, DEFAULT_MIN_REACH,
};
pub use distributed::{sched_events_in, ScheduledSource, SchedulerConfig, StoreJournal};
pub use drift::{
    drift_between, drift_between_with, DriftFinding, DriftOptions, DriftReport, RatioMove,
};
pub use epoch::{epoch_digest, run_epoch, EpochOutcome, EpochPlan};
pub use experiments::uncertainty_exp::{
    bootstrap_ratios, confident_rep_ratio, scenario_family, uncertainty_cells, uncertainty_table,
    uncertainty_table_with, uncertainty_tsv, ClassChannel, MeasuredPair, Scenario, Stage,
    UncertaintyCell, UncertaintyConfig, UNCERTAINTY_INTERFACES,
};
pub use metrics::{
    four_fifths_band, measure_spec, measure_spec_batch, ratio_bounds, recall_of, rep_ratio,
    rep_ratio_of, RatioBounds, SkewBand, SpecMeasurement, FOUR_FIFTHS_HIGH, FOUR_FIFTHS_LOW,
    FOUR_FIFTHS_THRESHOLD, QUERIES_PER_SPEC,
};
pub use mitigation::{
    AdvertiserMonitor, AdvertiserReport, PreflightConfig, PreflightGate, PreflightVerdict,
};
pub use probe::{
    consistency_probe, granularity_from_observations, granularity_probe, significant_digits,
    ConsistencyReport, GranularityProbe, GranularityReport, ProbeCheckpoint,
};
pub use recording::{EpochEvent, InterfaceMeta, SchedEvent, TargetLayout};
pub use removal::{removal_sweep, RemovalPoint, RemovalSweep};
pub use resilience::{
    classify, DegradationPolicy, ErrorClass, ResilienceConfig, ResilienceStats, ResilientSource,
};
pub use source::{
    ApiSource, AuditTarget, EstimateSource, Layers, RecordingSource, ReplaySource, Replicas,
    Selector, SensitiveClass, SourceError,
};
pub use stats::{fraction_outside, median, percentile, BoxStats};
pub use union_estimate::{median_pairwise_overlap, pairwise_overlap, union_recall, UnionEstimate};
