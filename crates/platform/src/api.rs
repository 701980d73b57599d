//! The serving-side abstraction over a platform.
//!
//! [`PlatformApi`] is exactly the surface a serving layer (the wire
//! server, or any other transport) needs from a platform: describe,
//! browse, validate, estimate (one request or a batch), count. Every
//! [`Platform`] implements it directly, whatever its audience backend,
//! and answers a batch by counting it in one pass;
//! [`FaultyPlatform`](crate::FaultyPlatform) implements it by delegating
//! through a fault plan — so a server can expose any of them without
//! knowing which it holds.

use adcomp_targeting::TargetingSpec;

use crate::backend::AudienceBackend;
use crate::catalog::Catalog;
use crate::estimate::SizeEstimate;
use crate::interface::{EstimateRequest, Platform, PlatformConfig, PlatformError};
use crate::ratelimit::QueryStats;

/// What a serving layer may ask of a platform.
pub trait PlatformApi: Send + Sync {
    /// Interface configuration (capabilities, rounding, objectives).
    fn config(&self) -> &PlatformConfig;

    /// The browsable attribute catalog.
    fn catalog(&self) -> &Catalog;

    /// The advertiser-visible reach estimate.
    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError>;

    /// Reach estimates for a batch, one answer per request in order, each
    /// what [`reach_estimate`](PlatformApi::reach_estimate) answers alone.
    /// The default asks one request at a time (so a fault-injecting
    /// platform keeps its per-request faults); a [`Platform`] counts the
    /// batch in one pass.
    fn reach_estimates(
        &self,
        requests: &[EstimateRequest],
    ) -> Vec<Result<SizeEstimate, PlatformError>> {
        requests.iter().map(|r| self.reach_estimate(r)).collect()
    }

    /// Validates a spec without estimating.
    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError>;

    /// Snapshot of the query counters.
    fn stats(&self) -> QueryStats;

    /// Records a rate-limited request (called by the serving layer).
    fn note_rate_limited(&self);

    /// Report label ("Facebook", "FB-restricted", …).
    fn label(&self) -> &'static str {
        self.config().kind.label()
    }
}

impl<B: AudienceBackend> PlatformApi for Platform<B> {
    fn config(&self) -> &PlatformConfig {
        Platform::config(self)
    }

    fn catalog(&self) -> &Catalog {
        Platform::catalog(self)
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        Platform::reach_estimate(self, request)
    }

    fn reach_estimates(
        &self,
        requests: &[EstimateRequest],
    ) -> Vec<Result<SizeEstimate, PlatformError>> {
        Platform::reach_estimates(self, requests)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        Platform::check(self, spec)
    }

    fn stats(&self) -> QueryStats {
        Platform::stats(self)
    }

    fn note_rate_limited(&self) {
        Platform::note_rate_limited(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimScale, Simulation};
    use std::sync::Arc;

    #[test]
    fn adplatform_serves_through_the_trait() {
        let sim = Simulation::build(91, SimScale::Test);
        let api: Arc<dyn PlatformApi> = sim.linkedin.clone();
        assert_eq!(api.label(), "LinkedIn");
        assert!(!api.catalog().is_empty());
        let req = EstimateRequest::new(TargetingSpec::everyone(), api.config().default_objective);
        assert!(api.reach_estimate(&req).unwrap().value > 0);
        assert_eq!(api.stats().estimates, 1);
    }
}
