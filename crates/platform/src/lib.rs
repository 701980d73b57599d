//! Simulated advertising platforms.
//!
//! The paper audits the advertiser-visible side of Facebook (normal and
//! restricted interfaces), Google Display, and LinkedIn. Live access to
//! the 2020-era interfaces is gated, so this crate rebuilds that surface
//! over the synthetic universes of `adcomp-population`:
//!
//! * [`Catalog`] — browsable attribute catalogs of the paper's exact
//!   sizes (393/667 Facebook restricted/normal, 873 attributes + 2 424
//!   topics on Google, 552 on LinkedIn), each entry backed by a
//!   generative audience model;
//! * [`AdPlatform`] — validate a [`TargetingSpec`](adcomp_targeting::TargetingSpec)
//!   against the interface policy and return a **rounded**
//!   [`SizeEstimate`] exactly as the targeting UIs did (two significant
//!   digits with a 1 000 floor on Facebook; one-then-two digits with a 40
//!   floor on Google; two digits with a 300 floor on LinkedIn);
//!   [`SegmentedPlatform`] serves the same surface from an on-disk
//!   segment store — both are a [`Platform`] over an [`AudienceBackend`],
//!   with one estimate pipeline and one [`ReachOracle`];
//! * [`Simulation`] — the calibrated four-interface bundle experiments
//!   run against;
//! * [`TokenBucket`]/[`QueryStats`] — the query-budget machinery the
//!   paper's ethics section describes.
//!
//! The audit pipeline in `adcomp-core` sees only this advertiser surface;
//! ground-truth accessors ([`AdPlatform::exact_audience`] and friends)
//! exist solely for tests and ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod backend;
mod catalog;
mod custom_audience;
mod estimate;
mod faults;
mod interface;
mod lookalike;
mod names;
mod objective;
mod oracle;
mod presets;
mod ratelimit;
mod retry;
mod segmented;

pub use api::PlatformApi;
pub use backend::{AudienceBackend, Resident};
pub use catalog::{Catalog, CatalogEntry, CategorySpec, SkewProfile};
pub use custom_audience::{ContactHash, MatchedAudience};
pub use estimate::{round_significant, EstimateKind, RoundingRule, SizeEstimate};
pub use faults::{FaultKind, FaultPlan, FaultRule, FaultStats, FaultyPlatform, Schedule};
pub use interface::{
    AdPlatform, EstimateRequest, InterfaceKind, Platform, PlatformConfig, PlatformError,
    SegmentedPlatform,
};
pub use lookalike::{LookalikeConfig, LookalikeError, MIN_SEED};
pub use objective::{FrequencyCap, Objective};
pub use oracle::ReachOracle;
pub use presets::{
    build_facebook, build_facebook_restricted, build_google, build_linkedin, SimScale, Simulation,
};
pub use ratelimit::{QueryStats, TokenBucket};
pub use retry::{CircuitBreaker, CircuitState, RetryPolicy};
