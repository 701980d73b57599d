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
//! rather than a result change. When every endpoint keeps failing, the
//! pool stops and the unanswered slots come back as retryable
//! [`SourceError::Transport`] errors, for a resilience layer above to
//! retry or degrade.
//!
//! The scheduler keeps no job history of its own. Answered-query dedup
//! on resume rides the [`RecordingSource`](crate::source) keys: give
//! [`AuditTarget::layered`](crate::source::AuditTarget::layered) a
//! recording store as well as the scheduler, and a restarted run
//! re-issues zero answered queries.

use std::convert::Infallible;
use std::sync::Arc;

pub use adcomp_sched::SchedulerConfig;
use adcomp_sched::{run_pool, Grant, PoolEndpoint, UnitQueue, UnitReport};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

use crate::resilience::{classify, ErrorClass};
use crate::source::{EstimateSource, SourceError};

/// An [`EstimateSource`] that shards every batch across replica
/// endpoints via a lease-based work queue. See the module docs for the
/// determinism and failover story.
pub struct ScheduledSource {
    endpoints: Vec<Arc<dyn EstimateSource>>,
    cfg: SchedulerConfig,
    label: String,
}

impl ScheduledSource {
    /// Schedules over `endpoints`, which must all serve the same
    /// interface (same label — they are replicas, not a mix).
    ///
    /// The third argument can only be `None`: it keeps the call shape of
    /// callers written when the queue took a job journal (`auditbench`),
    /// and goes once `auditbench` builds its stacks with
    /// [`AuditTarget::layered`](crate::source::AuditTarget::layered)
    /// (ROADMAP item 1).
    pub fn new(
        endpoints: Vec<Arc<dyn EstimateSource>>,
        cfg: SchedulerConfig,
        _vestigial: Option<Infallible>,
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
            label,
        }
    }

    fn reference(&self) -> &dyn EstimateSource {
        self.endpoints[0].as_ref()
    }
}

/// Runs one granted unit on `source` in sub-batches of its native
/// window. An `Ok` or a fatal error answers its slot; a retryable error
/// leaves it for the queue to requeue.
fn run_unit(
    source: &dyn EstimateSource,
    specs: &[TargetingSpec],
    grant: &Grant,
    heartbeat: &dyn Fn() -> bool,
) -> UnitReport<Result<u64, SourceError>> {
    let mut answered = Vec::with_capacity(grant.slots.len());
    let mut endpoint_failed = false;
    // Execute in sub-batches of the endpoint's native window,
    // heartbeating between them so long units keep their lease and
    // a lost lease aborts early.
    let window = source.batch_window().max(1);
    for chunk in grant.slots.chunks(window) {
        if !heartbeat() {
            // Lease lost mid-unit: the pool will drop whatever this unit
            // answered; stop burning queries.
            return UnitReport {
                answered: Vec::new(),
                endpoint_failed,
            };
        }
        let chunk_specs: Vec<TargetingSpec> = chunk.iter().map(|&s| specs[s].clone()).collect();
        let results = source.estimate_batch(&chunk_specs);
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
                answered.push((slot, result));
            }
        }
    }
    UnitReport {
        answered,
        endpoint_failed,
    }
}

impl EstimateSource for ScheduledSource {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        if specs.is_empty() {
            return Vec::new();
        }
        let clock: Arc<dyn adcomp_obs::clock::Clock> =
            Arc::new(adcomp_obs::clock::MonotonicClock::new());
        let queue = UnitQueue::new(&self.cfg, Arc::clone(&clock));
        queue.seed_slots(specs.len());
        let pool_endpoints: Vec<PoolEndpoint> = (0..self.endpoints.len())
            .map(|i| PoolEndpoint::new(format!("replica-{i}"), &self.cfg))
            .collect();
        // The caller's ambient trace context, captured on the coordinating
        // thread so worker threads continue the same span tree (`None`
        // when tracing is disabled — workers then add zero overhead).
        let trace = adcomp_obs::current_context();
        // When the batch entered the queue; workers report their
        // queue-wait as a point event relative to this instant.
        let batch_start = std::time::Instant::now();
        let merged = run_pool(
            &queue,
            &pool_endpoints,
            clock.as_ref(),
            |idx, grant, heartbeat| {
                // Adopt the coordinator's trace on this worker thread, so
                // wire client spans opened below nest under the caller's
                // span tree.
                let _ctx = trace.map(|c| c.enter());
                let _lease_span = trace.map(|_| {
                    let tracer = adcomp_obs::Tracer::global();
                    tracer.event(
                        "sched:queue_wait",
                        &[("duration_us", batch_start.elapsed().as_micros().to_string())],
                    );
                    tracer.span_with(
                        "sched:lease",
                        &[
                            ("endpoint", pool_endpoints[idx].label.clone()),
                            ("unit", grant.unit.to_string()),
                            ("attempt", grant.attempt.to_string()),
                        ],
                    )
                });
                run_unit(self.endpoints[idx].as_ref(), specs, grant, heartbeat)
            },
        );
        merged
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // Every replica kept failing and the pool stopped:
                    // retryable, so a resilience layer above can retry
                    // or degrade the slot.
                    Err(SourceError::Transport(
                        "scheduler: every endpoint failed before answering".to_string(),
                    ))
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
    use std::time::Duration;

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

    /// A replica whose every query fails in transport.
    struct DeadReplica;

    impl EstimateSource for DeadReplica {
        fn label(&self) -> String {
            "dead".to_string()
        }

        fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
            specs
                .iter()
                .map(|_| Err(SourceError::Transport("connection refused".to_string())))
                .collect()
        }

        fn check(&self, _spec: &TargetingSpec) -> Result<(), SourceError> {
            Ok(())
        }

        fn catalog_len(&self) -> u32 {
            64
        }

        fn attribute_name(&self, _id: AttributeId) -> Option<String> {
            None
        }

        fn attribute_feature(&self, _id: AttributeId) -> Option<FeatureId> {
            None
        }

        fn can_compose(&self, _a: AttributeId, _b: AttributeId) -> bool {
            true
        }

        fn supports_demographics(&self) -> bool {
            false
        }
    }

    #[test]
    fn batch_over_failing_replicas_returns_transport_errors() {
        let dead: Arc<dyn EstimateSource> = Arc::new(DeadReplica);
        let source = ScheduledSource::new(vec![dead; 2], SchedulerConfig::fast(), None);
        let batch: Vec<TargetingSpec> = (0..40)
            .map(|i| TargetingSpec::and_of([AttributeId(i)]))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(source.estimate_batch(&batch));
        });
        let answers = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a batch whose every replica fails must still return");
        assert_eq!(answers.len(), 40);
        for answer in &answers {
            assert!(
                matches!(answer, Err(SourceError::Transport(_))),
                "{answer:?}"
            );
        }
    }
}
