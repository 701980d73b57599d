//! One audit epoch, as the continuous-audit daemon runs it.
//!
//! An epoch is the recurring unit of a longitudinal audit: one full
//! [individual survey](crate::survey_individuals) of an interface,
//! recorded into its own crash-safe [`RunStore`] so that a killed
//! process resumes mid-epoch with answered queries replayed from disk
//! (the [`RecordingSource`](crate::RecordingSource) sits outermost) and
//! so consecutive epochs can be diffed entirely offline by
//! [`drift_between`](crate::drift_between).
//!
//! [`run_epoch`] picks the epoch's layers — the scheduler only for
//! several live replicas, resilience if configured, recording always —
//! and [`AuditTarget::layered`] stacks them in its one order. It also
//! probes endpoint health: an unreachable replica is dropped for the
//! epoch and the run continues *degraded* on the survivors, reported in
//! the [`EpochOutcome`] rather than silently absorbed.

use std::sync::Arc;

use adcomp_store::RunStore;

use crate::discovery::survey_individuals;
use crate::distributed::SchedulerConfig;
use crate::recording::{fnv1a, KIND_ESTIMATE};
use crate::resilience::ResilienceConfig;
use crate::source::{AuditTarget, EstimateSource, Layers, Replicas, SourceError};

/// Everything [`run_epoch`] needs for one epoch.
pub struct EpochPlan {
    /// Replicated endpoints for the audited interface, in a stable
    /// order. One endpoint runs serially; several are sharded through
    /// the distributed scheduler.
    pub endpoints: Vec<Arc<dyn EstimateSource>>,
    /// The epoch's own recording store (one directory per epoch).
    pub store: Arc<RunStore>,
    /// Scheduler tuning for the multi-endpoint path.
    pub scheduler: SchedulerConfig,
    /// Optional resilience layer between scheduler and recorder.
    pub resilience: Option<ResilienceConfig>,
}

/// What one epoch produced.
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Attributes surveyed.
    pub entries: usize,
    /// Base audience total — a quick cross-epoch sanity anchor.
    pub base_total: u64,
    /// FNV-1a digest over the epoch's key-ordered estimate records;
    /// byte-identity of two runs is checked on this.
    pub digest: u64,
    /// Estimate records in the epoch store.
    pub estimates: u64,
    /// Labels of endpoints that failed their health probe and were
    /// excluded; non-empty means the epoch ran degraded.
    pub degraded: Vec<String>,
}

/// Digest of every [`KIND_ESTIMATE`] record in `store`, folded in
/// ascending key order — stable across processes and platforms, so two
/// epoch stores with identical estimates always agree.
pub fn epoch_digest(store: &RunStore) -> u64 {
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    store.for_each_kind(KIND_ESTIMATE, |key, payload| {
        acc ^= fnv1a(&key.to_be_bytes());
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        acc ^= fnv1a(payload);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    });
    acc
}

/// Probes `endpoints` with a cheap validation query (no estimate is
/// issued, so platform-side query counters stay untouched) and splits
/// them into survivors and the labels of the dead.
fn probe_endpoints(
    endpoints: &[Arc<dyn EstimateSource>],
) -> (Vec<Arc<dyn EstimateSource>>, Vec<String>) {
    let everyone = adcomp_targeting::TargetingSpec::everyone();
    let mut alive = Vec::with_capacity(endpoints.len());
    let mut dead = Vec::new();
    for (i, ep) in endpoints.iter().enumerate() {
        match ep.check(&everyone) {
            // Transport-class failures mean the endpoint is unreachable;
            // any *answer* (including a policy rejection) means alive.
            Err(SourceError::Transport(_)) | Err(SourceError::CircuitOpen { .. }) => {
                dead.push(format!("replica-{i} ({})", ep.label()));
            }
            _ => alive.push(ep.clone()),
        }
    }
    (alive, dead)
}

/// Runs one epoch: probe endpoints, survey through the recorded target,
/// persist the snapshot, and digest the result.
///
/// Fails with the probe's verdict when *no* endpoint survives; with one
/// or more survivors the epoch completes and reports the dead replicas
/// in [`EpochOutcome::degraded`].
pub fn run_epoch(plan: &EpochPlan) -> Result<EpochOutcome, SourceError> {
    assert!(!plan.endpoints.is_empty(), "an epoch needs endpoints");
    let (alive, degraded) = probe_endpoints(&plan.endpoints);
    if alive.is_empty() {
        return Err(SourceError::Transport(format!(
            "no healthy endpoint for this epoch (probed {}, all down)",
            plan.endpoints.len()
        )));
    }

    let scheduler = (alive.len() > 1).then(|| Replicas {
        endpoints: alive.clone(),
        config: plan.scheduler.clone(),
        journal: None,
    });
    // Recording sits outermost: everything answered below it is on disk
    // before the caller sees the value, which is the whole crash-safety
    // story — a killed epoch resumes by replaying this store.
    let target = AuditTarget::direct(alive[0].clone())
        .layered(Layers {
            scheduler,
            resilience: plan.resilience,
            recording: Some(plan.store.clone()),
        })
        .map_err(|e| SourceError::Transport(format!("epoch store: {e}")))?;

    let survey = survey_individuals(&target)?;
    plan.store
        .save_snapshot()
        .and_then(|()| plan.store.sync())
        .map_err(|e| SourceError::Transport(format!("epoch store: {e}")))?;

    Ok(EpochOutcome {
        entries: survey.entries.len(),
        base_total: survey.base.total,
        digest: epoch_digest(&plan.store),
        estimates: plan.store.count_kind(KIND_ESTIMATE) as u64,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{SimScale, Simulation};

    /// A fresh, empty directory unique to this call (`name`, the pid and
    /// a per-process counter), so parallel tests never share one.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("adcomp-epoch-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan_for(sim: &Simulation, store: Arc<RunStore>) -> EpochPlan {
        EpochPlan {
            endpoints: vec![sim.linkedin.clone() as Arc<dyn EstimateSource>],
            store,
            scheduler: SchedulerConfig::fast(),
            resilience: None,
        }
    }

    #[test]
    fn epoch_is_deterministic_and_resumable() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");

        let sim_a = Simulation::build(11, SimScale::Test);
        let store_a = Arc::new(RunStore::open(&dir_a).unwrap());
        let out_a = run_epoch(&plan_for(&sim_a, store_a.clone())).unwrap();
        assert!(out_a.entries > 0);
        assert!(out_a.degraded.is_empty());
        assert!(out_a.estimates > 0);

        // Same seed, fresh store: identical digest.
        let sim_b = Simulation::build(11, SimScale::Test);
        let store_b = Arc::new(RunStore::open(&dir_b).unwrap());
        let out_b = run_epoch(&plan_for(&sim_b, store_b)).unwrap();
        assert_eq!(out_b.digest, out_a.digest);
        assert_eq!(out_b.estimates, out_a.estimates);

        // Re-running over the complete store replays from disk: zero new
        // platform queries, same digest.
        let before = sim_a.linkedin.stats().estimates;
        let out_c = run_epoch(&plan_for(&sim_a, store_a)).unwrap();
        assert_eq!(out_c.digest, out_a.digest);
        assert_eq!(sim_a.linkedin.stats().estimates, before);

        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn all_endpoints_down_is_an_error_not_a_hang() {
        struct Dead;
        impl EstimateSource for Dead {
            fn label(&self) -> String {
                "LinkedIn".into()
            }
            fn estimate_batch(
                &self,
                specs: &[adcomp_targeting::TargetingSpec],
            ) -> Vec<Result<u64, SourceError>> {
                specs
                    .iter()
                    .map(|_| Err(SourceError::Transport("down".into())))
                    .collect()
            }
            fn check(&self, _: &adcomp_targeting::TargetingSpec) -> Result<(), SourceError> {
                Err(SourceError::Transport("down".into()))
            }
            fn catalog_len(&self) -> u32 {
                0
            }
            fn attribute_name(&self, _: adcomp_targeting::AttributeId) -> Option<String> {
                None
            }
            fn attribute_feature(
                &self,
                _: adcomp_targeting::AttributeId,
            ) -> Option<adcomp_targeting::FeatureId> {
                None
            }
            fn can_compose(
                &self,
                _: adcomp_targeting::AttributeId,
                _: adcomp_targeting::AttributeId,
            ) -> bool {
                false
            }
            fn supports_demographics(&self) -> bool {
                true
            }
        }
        let dir = temp_dir("all-down");
        let plan = EpochPlan {
            endpoints: vec![Arc::new(Dead) as Arc<dyn EstimateSource>],
            store: Arc::new(RunStore::open(&dir).unwrap()),
            scheduler: SchedulerConfig::fast(),
            resilience: None,
        };
        let err = run_epoch(&plan).unwrap_err();
        assert!(matches!(err, SourceError::Transport(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
