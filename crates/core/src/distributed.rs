//! Distributed execution of the audit workload.
//!
//! [`ScheduledSource`] is an [`EstimateSource`] whose `estimate_batch`
//! shards the batch across N replica endpoints through `adcomp-sched`'s
//! lease queue and merges results **by slot index** — so the output
//! vector is bit-identical to running the same batch serially against
//! one endpoint, no matter which endpoint served which unit, in what
//! order, or how many leases expired along the way. (Estimates are pure
//! functions of the normalized spec; the queue guarantees each slot is
//! answered exactly once in the merged output.)
//!
//! It is the audit's one estimate worker pool: endpoints may be wire
//! clients fronting remote replicas or in-process platforms, the latter
//! giving parallelism inside one process.
//!
//! Per-slot outcome classification uses the same taxonomy as the retry
//! layer ([`classify`](crate::resilience::classify)): an `Ok` or a
//! *fatal* error is a deterministic answer and completes the slot; a
//! *retryable* error (transport failure, open circuit, rate limit)
//! leaves the slot unanswered so the queue requeues it onto a healthier
//! endpoint. That split is what makes a killed endpoint a routing event
//! rather than a result change.
//!
//! [`StoreJournal`] persists the queue's grant/completion trail into an
//! `adcomp-store` [`RunStore`] (record kind
//! [`KIND_SCHED_UNIT`](crate::recording::KIND_SCHED_UNIT)), giving a
//! crashed coordinator an auditable job history. Answered-query dedup on
//! resume rides the existing [`RecordingSource`](crate::source) keys:
//! wrap the scheduled target `with_recording` and a restarted run
//! re-issues zero answered queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adcomp_sched::{
    into_inner_recovering, lock_recovering, run_pool, Grant, LeaseConfig, PoolConfig, PoolEndpoint,
    UnitJournal, UnitQueue, UnitReport, UnitRunner,
};
use adcomp_store::RunStore;
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

use crate::recording::{sched_event_key, SchedEvent, KIND_SCHED_UNIT};
use crate::resilience::{classify, ErrorClass};
use crate::source::{EstimateSource, SourceError};

/// Tuning for a [`ScheduledSource`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Slots per work unit (the sharding grain).
    pub unit_size: usize,
    /// Lease TTL; must comfortably exceed one sub-batch round-trip —
    /// the runner heartbeats between sub-batches.
    pub lease_ttl: Duration,
    /// Grants per unit before its slots are declared failed
    /// (0 = unlimited; keep a bound so a poisoned unit cannot loop).
    pub max_attempts: u32,
    /// Global cap on simultaneously leased units (0 = unlimited).
    pub inflight_cap: usize,
    /// Claiming loops per endpoint — bounds outstanding units per
    /// endpoint.
    pub workers_per_endpoint: usize,
    /// Consecutive failed units before an endpoint cools down.
    pub failure_threshold: u32,
    /// Cooldown length for an unhealthy endpoint.
    pub cooldown: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            unit_size: 16,
            lease_ttl: Duration::from_secs(10),
            max_attempts: 0,
            inflight_cap: 0,
            workers_per_endpoint: 2,
            failure_threshold: 3,
            cooldown: Duration::from_millis(200),
        }
    }
}

impl SchedulerConfig {
    /// Aggressive settings for tests and demos: tiny units, a short
    /// lease so expiry/requeue paths actually fire, quick cooldowns.
    pub fn fast() -> SchedulerConfig {
        SchedulerConfig {
            unit_size: 4,
            lease_ttl: Duration::from_millis(250),
            max_attempts: 0,
            inflight_cap: 0,
            workers_per_endpoint: 2,
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        }
    }

    fn lease(&self) -> LeaseConfig {
        LeaseConfig {
            ttl: self.lease_ttl,
            max_attempts: self.max_attempts,
            inflight_cap: self.inflight_cap,
        }
    }

    fn pool(&self) -> PoolConfig {
        PoolConfig {
            workers_per_endpoint: self.workers_per_endpoint,
            failure_threshold: self.failure_threshold,
            cooldown: self.cooldown,
        }
    }
}

/// Journals scheduler unit events into a [`RunStore`] under
/// [`KIND_SCHED_UNIT`], one uniquely-keyed record per event so the full
/// trail survives the store's latest-wins keyed view.
pub struct StoreJournal {
    store: Arc<RunStore>,
    scope: String,
    seq: AtomicU64,
}

impl StoreJournal {
    /// Journal into `store` under `scope` (one scope per audited
    /// interface is the convention). Event sequencing resumes past any
    /// events already recorded, so a restarted coordinator appends to
    /// the trail instead of overwriting it.
    pub fn new(store: Arc<RunStore>, scope: &str) -> StoreJournal {
        let seq = store.count_kind(KIND_SCHED_UNIT) as u64;
        StoreJournal {
            store,
            scope: scope.to_string(),
            seq: AtomicU64::new(seq),
        }
    }

    fn record(&self, event: SchedEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Journal writes are advisory (the trail, not the dedup
        // mechanism); a full disk must not take down the audit.
        let _ = self.store.append(
            KIND_SCHED_UNIT,
            sched_event_key(&self.scope, seq),
            &event.encode(),
        );
    }
}

impl UnitJournal for StoreJournal {
    fn unit_granted(&self, unit: u64, attempt: u32, worker: &str) {
        self.record(SchedEvent::Granted {
            unit,
            attempt,
            worker: worker.to_string(),
        });
    }

    fn unit_completed(&self, unit: u64, worker: &str, slots: usize) {
        self.record(SchedEvent::Completed {
            unit,
            worker: worker.to_string(),
            slots: slots as u32,
        });
    }

    fn unit_requeued(&self, unit: u64, worker: &str, reason: &str) {
        self.record(SchedEvent::Requeued {
            unit,
            worker: worker.to_string(),
            reason: reason.to_string(),
        });
    }

    fn unit_failed(&self, unit: u64, worker: &str, slots: usize) {
        self.record(SchedEvent::Failed {
            unit,
            worker: worker.to_string(),
            slots: slots as u32,
        });
    }
}

/// All [`SchedEvent`]s recorded in `store`, in key order.
pub fn sched_events_in(store: &RunStore) -> Vec<SchedEvent> {
    let mut events = Vec::new();
    store.for_each_kind(KIND_SCHED_UNIT, |_, payload| {
        if let Ok(e) = SchedEvent::decode(payload) {
            events.push(e);
        }
    });
    events
}

/// An [`EstimateSource`] that shards every batch across replica
/// endpoints via a lease-based work queue. See the module docs for the
/// determinism and failover story.
pub struct ScheduledSource {
    endpoints: Vec<Arc<dyn EstimateSource>>,
    cfg: SchedulerConfig,
    journal: Option<Arc<dyn UnitJournal>>,
    label: String,
}

impl ScheduledSource {
    /// Schedules over `endpoints`, which must all serve the same
    /// interface (same label — they are replicas, not a mix).
    pub fn new(
        endpoints: Vec<Arc<dyn EstimateSource>>,
        cfg: SchedulerConfig,
        journal: Option<Arc<dyn UnitJournal>>,
    ) -> ScheduledSource {
        assert!(
            !endpoints.is_empty(),
            "scheduler needs at least one endpoint"
        );
        let label = endpoints[0].label();
        for ep in &endpoints[1..] {
            assert_eq!(
                ep.label(),
                label,
                "scheduler endpoints must be replicas of one interface"
            );
        }
        ScheduledSource {
            endpoints,
            cfg,
            journal,
            label,
        }
    }

    /// The replica endpoints, for metadata delegation and diagnostics.
    pub fn endpoints(&self) -> &[Arc<dyn EstimateSource>] {
        &self.endpoints
    }

    fn reference(&self) -> &dyn EstimateSource {
        self.endpoints[0].as_ref()
    }
}

/// Buffered `(slot, value)` results for one live lease.
type LeaseBuffer = Vec<(usize, Result<u64, SourceError>)>;

struct BatchRunner<'a> {
    specs: &'a [TargetingSpec],
    endpoints: &'a [Arc<dyn EstimateSource>],
    /// Buffers per live lease; moved into `merged` only when the queue
    /// accepts the completion.
    buffers: Mutex<std::collections::HashMap<u64, LeaseBuffer>>,
    merged: Mutex<Vec<Option<Result<u64, SourceError>>>>,
    /// The caller's ambient trace context, captured on the coordinating
    /// thread so worker threads continue the same span tree (`None`
    /// when tracing is disabled — workers then add zero overhead).
    trace: Option<adcomp_obs::TraceContext>,
    /// When the batch entered the queue; workers report their
    /// queue-wait as a point event relative to this instant.
    batch_start: std::time::Instant,
}

impl BatchRunner<'_> {
    /// Maps the pool's endpoint label (`replica-<idx>`) back to the
    /// endpoint source.
    fn resolve(&self, endpoint: &str) -> &dyn EstimateSource {
        let idx = endpoint
            .rsplit('-')
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(0);
        self.endpoints[idx.min(self.endpoints.len() - 1)].as_ref()
    }
}

impl UnitRunner for BatchRunner<'_> {
    fn run(&self, endpoint: &str, grant: &Grant, heartbeat: &dyn Fn() -> bool) -> UnitReport {
        // Adopt the coordinator's trace on this worker thread, so wire
        // client spans opened below nest under the caller's span tree.
        let _ctx = self.trace.map(|c| c.enter());
        let _lease_span = self.trace.map(|_| {
            let tracer = adcomp_obs::Tracer::global();
            tracer.event(
                "sched:queue_wait",
                &[(
                    "duration_us",
                    self.batch_start.elapsed().as_micros().to_string(),
                )],
            );
            tracer.span_with(
                "sched:lease",
                &[
                    ("endpoint", endpoint.to_string()),
                    ("unit", grant.unit.to_string()),
                    ("attempt", grant.attempt.to_string()),
                ],
            )
        });
        let source = self.resolve(endpoint);
        let mut answered = Vec::with_capacity(grant.slots.len());
        let mut buffered = Vec::with_capacity(grant.slots.len());
        let mut endpoint_failed = false;
        // Execute in sub-batches of the endpoint's native window,
        // heartbeating between them so long units keep their lease and
        // a lost lease aborts early.
        let window = source.batch_window().max(1);
        for chunk in grant.slots.chunks(window) {
            if !heartbeat() {
                // Lease lost mid-unit: everything buffered so far will be
                // discarded by the pool; stop burning queries.
                return UnitReport {
                    answered: Vec::new(),
                    endpoint_failed,
                };
            }
            let specs: Vec<TargetingSpec> = chunk.iter().map(|&s| self.specs[s].clone()).collect();
            let results = source.estimate_batch(&specs);
            for (&slot, result) in chunk.iter().zip(results) {
                let is_answer = match &result {
                    Ok(_) => true,
                    Err(e) => match classify(e) {
                        // A fatal error is a deterministic answer (the
                        // same spec fails the same way everywhere).
                        ErrorClass::Fatal => true,
                        ErrorClass::Retryable { .. } => {
                            endpoint_failed |= matches!(
                                e,
                                SourceError::Transport(_) | SourceError::CircuitOpen { .. }
                            );
                            false
                        }
                    },
                };
                if is_answer {
                    answered.push(slot);
                    buffered.push((slot, result));
                }
            }
        }
        // Poison-recovering: a contained worker panic must not cascade
        // into every other replica's worker (the lease ledger makes the
        // buffered state requeue-safe).
        lock_recovering(&self.buffers).insert(grant.lease, buffered);
        UnitReport {
            answered,
            endpoint_failed,
        }
    }

    fn commit(&self, _endpoint: &str, grant: &Grant) {
        if let Some(vals) = lock_recovering(&self.buffers).remove(&grant.lease) {
            let mut merged = lock_recovering(&self.merged);
            for (slot, result) in vals {
                debug_assert!(merged[slot].is_none(), "slot {slot} merged twice");
                merged[slot] = Some(result);
            }
        }
    }

    fn discard(&self, _endpoint: &str, grant: &Grant) {
        lock_recovering(&self.buffers).remove(&grant.lease);
    }
}

impl EstimateSource for ScheduledSource {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.estimate_batch(std::slice::from_ref(spec))
            .pop()
            .expect("one result per spec")
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        if specs.is_empty() {
            return Vec::new();
        }
        let clock: Arc<dyn adcomp_obs::clock::Clock> =
            Arc::new(adcomp_obs::clock::MonotonicClock::new());
        let queue = UnitQueue::new(self.cfg.lease(), Arc::clone(&clock), self.journal.clone());
        queue.seed_slots(specs.len(), self.cfg.unit_size);
        let pool_cfg = self.cfg.pool();
        let pool_endpoints: Vec<PoolEndpoint> = (0..self.endpoints.len())
            .map(|i| PoolEndpoint::new(format!("replica-{i}"), &pool_cfg))
            .collect();
        let runner = BatchRunner {
            specs,
            endpoints: &self.endpoints,
            buffers: Mutex::new(std::collections::HashMap::new()),
            merged: Mutex::new(vec![None; specs.len()]),
            trace: adcomp_obs::current_context(),
            batch_start: std::time::Instant::now(),
        };
        run_pool(&queue, &pool_endpoints, &runner, &pool_cfg, &clock);
        let merged = into_inner_recovering(runner.merged);
        merged
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // Attempts exhausted on every replica: degrade to a
                    // skip, mirroring the resilience layer's vocabulary.
                    Err(SourceError::Skipped {
                        reason: "scheduler: unit attempts exhausted on all endpoints".to_string(),
                    })
                })
            })
            .collect()
    }

    fn batch_window(&self) -> usize {
        // Big enough that callers hand over whole workloads; the queue
        // re-shards internally.
        (self.cfg.unit_size * self.endpoints.len()).max(2)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        self.reference().check(spec)
    }

    fn catalog_len(&self) -> u32 {
        self.reference().catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.reference().attribute_name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.reference().attribute_feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.reference().can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.reference().supports_demographics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{SimScale, Simulation};
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(52, SimScale::Test))
    }

    /// The scheduler over four in-process replicas of one platform.
    fn scheduled() -> ScheduledSource {
        let replica: Arc<dyn EstimateSource> = sim().linkedin.clone();
        ScheduledSource::new(vec![replica; 4], SchedulerConfig::default(), None)
    }

    fn specs(n: u32) -> Vec<TargetingSpec> {
        let attrs = sim().linkedin.catalog().len() as u32;
        (0..n)
            .map(|i| TargetingSpec::and_of([AttributeId(i % attrs)]))
            .collect()
    }

    fn serial(specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs.iter().map(|s| sim().linkedin.estimate(s)).collect()
    }

    #[test]
    fn scheduled_batch_matches_serial_in_submission_order() {
        let source = scheduled();
        let batch = specs(5 * source.batch_window() as u32 + 3);
        let expected = serial(&batch);
        assert_eq!(source.estimate_batch(&batch), expected);
        // Repeat runs are stable (no order sensitivity).
        assert_eq!(source.estimate_batch(&batch), expected);
    }

    #[test]
    fn scheduled_source_handles_empty_and_single_batches() {
        let source = scheduled();
        assert!(source.estimate_batch(&[]).is_empty());
        let one = specs(1);
        let answer = source.estimate_batch(&one);
        assert_eq!(answer.len(), 1);
        assert!(answer[0].is_ok());
        assert_eq!(answer, serial(&one));
    }

    #[test]
    fn scheduled_source_is_shareable_across_threads() {
        let source = scheduled();
        let batch = specs(40);
        let expected = serial(&batch);
        // All four threads submit at once, so their batches overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (source, batch, expected, start) = (&source, &batch, &expected, &start);
                s.spawn(move || {
                    start.wait();
                    assert_eq!(&source.estimate_batch(batch), expected);
                });
            }
        });
    }
}
