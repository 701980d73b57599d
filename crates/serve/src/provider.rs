//! Where each epoch's endpoints come from.
//!
//! The daemon does not construct platforms itself; it asks a
//! [`SourceProvider`] for the epoch's endpoint set. This keeps one
//! invariant that the whole chaos story depends on explicit: **the
//! provider outlives daemon incarnations.** Per-epoch fault plans keep
//! their call indices, and platform-side query counters keep counting,
//! across a `kill -9` and restart — exactly like a real remote platform
//! would. A provider constructed fresh per incarnation would silently
//! reset both and fake the recovery guarantees.
//!
//! [`SimProvider`] is the in-process implementation over the paper's
//! [`Simulation`]; the integration tests add a fleet-backed one over
//! wire clients.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use adcomp_core::source::{ApiSource, EstimateSource};
use adcomp_platform::{
    FaultPlan, FaultyPlatform, InterfaceKind, PlatformApi, RoundingRule, SimScale, Simulation,
};

use crate::config::ServeConfig;

/// Supplies the endpoint set for each epoch.
pub trait SourceProvider: Send + Sync {
    /// Interface label (for reports and the status line).
    fn label(&self) -> String;

    /// Endpoints to audit in `epoch`, in a stable order. All must
    /// answer for the same interface.
    fn endpoints(&self, epoch: u64) -> Vec<Arc<dyn EstimateSource>>;

    /// Estimate queries the *platform side* has answered so far, when
    /// the provider can see it. The chaos harness compares this across
    /// a killed-and-resumed run and a clean run to prove answered
    /// queries are never re-issued; providers without platform
    /// visibility return `None` and opt out of that check.
    fn answered(&self) -> Option<u64> {
        None
    }

    /// Rounding ladders of the audited interfaces, keyed by interface
    /// label. The drift stage uses these to put confidence intervals
    /// on representation ratios and tag crossings whose rounding slack
    /// straddles a four-fifths edge as low-confidence. Providers
    /// without ladder knowledge return an empty map and every crossing
    /// is reported at full confidence — the pre-interval behaviour.
    fn rounding_rules(&self) -> BTreeMap<String, RoundingRule> {
        BTreeMap::new()
    }
}

/// In-process provider over the paper's deterministic [`Simulation`].
///
/// Epochs normally share the one simulated platform. An epoch with a
/// registered [`FaultPlan`] is served through a [`FaultyPlatform`]
/// wrapper instead — constructed once and cached, so its fault indices
/// survive daemon restarts within the provider's lifetime.
pub struct SimProvider {
    sim: Simulation,
    kind: InterfaceKind,
    replicas: usize,
    plans: HashMap<u64, FaultPlan>,
    faulty: Mutex<HashMap<u64, Arc<FaultyPlatform>>>,
}

impl SimProvider {
    /// Builds the simulated world for `config`.
    pub fn from_config(config: &ServeConfig) -> SimProvider {
        SimProvider::new(config.seed, config.scale, config.interface, config.replicas)
    }

    /// Builds the simulated world directly.
    pub fn new(seed: u64, scale: SimScale, kind: InterfaceKind, replicas: usize) -> SimProvider {
        SimProvider {
            sim: Simulation::build(seed, scale),
            kind,
            replicas: replicas.max(1),
            plans: HashMap::new(),
            faulty: Mutex::new(HashMap::new()),
        }
    }

    /// Serves `epoch` through `plan`'s injected faults.
    pub fn with_fault(mut self, epoch: u64, plan: FaultPlan) -> SimProvider {
        self.plans.insert(epoch, plan);
        self
    }

    fn platform(&self) -> &Arc<adcomp_platform::AdPlatform> {
        self.sim.platform(self.kind)
    }

    fn api_for(&self, epoch: u64) -> Arc<dyn PlatformApi> {
        match self.plans.get(&epoch) {
            None => self.platform().clone(),
            Some(plan) => adcomp_obs::lock(&self.faulty)
                .entry(epoch)
                .or_insert_with(|| {
                    Arc::new(FaultyPlatform::new(self.platform().clone(), plan.clone()))
                })
                .clone(),
        }
    }
}

impl SourceProvider for SimProvider {
    fn label(&self) -> String {
        self.kind.label().to_string()
    }

    fn endpoints(&self, epoch: u64) -> Vec<Arc<dyn EstimateSource>> {
        let api = self.api_for(epoch);
        (0..self.replicas)
            .map(|_| Arc::new(ApiSource(api.clone())) as Arc<dyn EstimateSource>)
            .collect()
    }

    fn answered(&self) -> Option<u64> {
        // FaultyPlatform delegates stats() to its inner platform, so
        // the base counter covers faulty epochs too.
        Some(self.platform().stats().estimates)
    }

    fn rounding_rules(&self) -> BTreeMap<String, RoundingRule> {
        let mut rules = BTreeMap::new();
        rules.insert(self.label(), self.platform().config().rounding);
        rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{FaultKind, Schedule};

    #[test]
    fn faulty_epoch_platform_is_cached_across_calls() {
        let plan = FaultPlan::new(3).with(
            FaultKind::Noise { amplitude: 0.5 },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let provider =
            SimProvider::new(5, SimScale::Test, InterfaceKind::LinkedIn, 2).with_fault(1, plan);

        // Two replicas, both present, same interface label.
        let eps = provider.endpoints(1);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].label(), "LinkedIn");

        // The faulty wrapper persists: a query through the first set
        // advances fault indices that a later set continues from.
        let spec = adcomp_targeting::TargetingSpec::everyone();
        let v1 = eps[0].estimate(&spec).unwrap();
        let again = provider.endpoints(1);
        let v2 = again[0].estimate(&spec).unwrap();
        // Noise on every call: the two draws come from consecutive
        // indices of one cached plan, while a clean epoch is untouched.
        let clean = provider.endpoints(0)[0].estimate(&spec).unwrap();
        assert!(v1 != clean || v2 != clean, "fault plan never fired");
        assert!(provider.answered().unwrap() >= 3);
    }
}
