//! Endpoint worker pool.
//!
//! [`run_pool`] spawns `workers_per_endpoint` claiming loops per
//! endpoint over one shared [`UnitQueue`] and drives a caller-supplied
//! [`UnitRunner`] for each grant. The commit protocol keeps the queue
//! authoritative: the runner buffers results per lease while executing,
//! the pool calls [`UnitQueue::complete`], and only an `Accepted`
//! verdict commits the buffer — a `Stale` verdict (the lease expired
//! and another endpoint re-ran the unit) discards it. That ordering is
//! what makes a killed or hung endpoint unable to double-write a slot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::clock::Clock;
use adcomp_obs::metrics::Registry;

use crate::health::{EndpointHealth, PoolConfig};
use crate::queue::{Completion, Grant, UnitQueue};

/// What a runner did with one granted unit.
#[derive(Clone, Debug, Default)]
pub struct UnitReport {
    /// Slots that now have a deterministic answer buffered under this
    /// lease (a successful value, or an error the caller treats as
    /// final). Unlisted slots are requeued as a remnant.
    pub answered: Vec<usize>,
    /// Whether the endpoint itself misbehaved (transport failure,
    /// circuit open) — feeds health scoring; per-query rejections that
    /// are deterministic answers should leave this false.
    pub endpoint_failed: bool,
}

/// Executes granted units against one endpoint.
///
/// Implementations buffer results keyed by `grant.lease` inside
/// [`run`](UnitRunner::run) and flush or drop them when the pool calls
/// [`commit`](UnitRunner::commit) / [`discard`](UnitRunner::discard)
/// after the queue rules on the completion.
pub trait UnitRunner: Sync {
    /// Runs the unit. `heartbeat` extends the lease and returns `false`
    /// once the lease is lost, at which point the runner should stop
    /// early (its results will be discarded anyway).
    fn run(&self, endpoint: &str, grant: &Grant, heartbeat: &dyn Fn() -> bool) -> UnitReport;
    /// The queue accepted the completion: flush buffered results for
    /// this lease into the merged output.
    fn commit(&self, endpoint: &str, grant: &Grant);
    /// The lease went stale: drop buffered results for this lease.
    fn discard(&self, endpoint: &str, grant: &Grant);
}

/// One endpoint the pool schedules onto.
pub struct PoolEndpoint {
    /// Name used in grants, journal entries, and metric labels.
    pub label: String,
    health: EndpointHealth,
}

impl PoolEndpoint {
    /// An endpoint named `label`, with health scoring per `cfg`.
    pub fn new(label: impl Into<String>, cfg: &PoolConfig) -> PoolEndpoint {
        let label = label.into();
        let health = EndpointHealth::new(&label, cfg);
        PoolEndpoint { label, health }
    }

    /// This endpoint's health tracker (units ok/failed, cooldown).
    pub fn health(&self) -> &EndpointHealth {
        &self.health
    }
}

/// Runs the pool to completion: returns once every seeded slot is done
/// or failed. Workers claim units whenever their endpoint is out of
/// cooldown; the queue's in-flight cap and `workers_per_endpoint`
/// provide backpressure.
pub fn run_pool(
    queue: &UnitQueue,
    endpoints: &[PoolEndpoint],
    runner: &dyn UnitRunner,
    cfg: &PoolConfig,
    clock: &Arc<dyn Clock>,
) {
    std::thread::scope(|scope| {
        for ep in endpoints {
            for w in 0..cfg.workers_per_endpoint.max(1) {
                let worker = format!("{}#{w}", ep.label);
                let clock = Arc::clone(clock);
                scope.spawn(move || worker_loop(queue, ep, runner, &worker, &clock));
            }
        }
    });
}

fn worker_loop(
    queue: &UnitQueue,
    ep: &PoolEndpoint,
    runner: &dyn UnitRunner,
    worker: &str,
    clock: &Arc<dyn Clock>,
) {
    loop {
        let wait = ep.health.cooldown_remaining(clock.as_ref());
        if !wait.is_zero() {
            // Cooled down: don't hold units we won't serve well. Sleep in
            // short slices so a drained queue still lets us exit promptly.
            std::thread::sleep(wait.min(Duration::from_millis(20)));
            if queue.is_drained() {
                return;
            }
            continue;
        }
        let Some(grant) = queue.claim(worker) else {
            return;
        };
        let _inflight = ep.health.track_inflight();
        // A panicking runner must not unwind through the scoped pool and
        // abort the whole audit: contain it, requeue the unit (empty
        // `answered` returns every slot as a remnant), and charge the
        // endpoint. Runner state stays consistent because buffered
        // results are keyed by lease and discarded below.
        let run = catch_unwind(AssertUnwindSafe(|| {
            runner.run(&ep.label, &grant, &|| queue.heartbeat(grant.lease).is_ok())
        }));
        let report = match run {
            Ok(report) => report,
            Err(_) => {
                Registry::global()
                    .counter("adcomp_sched_worker_panics_total")
                    .inc();
                adcomp_obs::warn!(
                    "worker {worker} panicked running unit {}; requeueing its slots",
                    grant.unit
                );
                UnitReport {
                    answered: Vec::new(),
                    endpoint_failed: true,
                }
            }
        };
        match queue.complete(grant.lease, &report.answered) {
            Completion::Accepted { .. } => {
                runner.commit(&ep.label, &grant);
                if report.endpoint_failed {
                    ep.health.record_failure(clock.as_ref());
                } else {
                    ep.health.record_success();
                }
            }
            Completion::Stale => {
                runner.discard(&ep.label, &grant);
                // The unit was re-granted elsewhere; count it against
                // this endpoint only if the runner blamed the endpoint.
                if report.endpoint_failed {
                    ep.health.record_failure(clock.as_ref());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::lock_recovering;
    use crate::queue::LeaseConfig;
    use adcomp_obs::clock::MonotonicClock;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Runner that squares slot indices, buffering per lease and
    /// committing into a shared output map.
    struct SquareRunner {
        buffers: Mutex<HashMap<u64, Vec<(usize, u64)>>>,
        out: Mutex<HashMap<usize, u64>>,
        flaky_endpoint: Option<String>,
        flaky_budget: AtomicUsize,
    }

    impl SquareRunner {
        fn new() -> SquareRunner {
            SquareRunner {
                buffers: Mutex::new(HashMap::new()),
                out: Mutex::new(HashMap::new()),
                flaky_endpoint: None,
                flaky_budget: AtomicUsize::new(0),
            }
        }

        fn flaky(endpoint: &str, failures: usize) -> SquareRunner {
            let mut r = SquareRunner::new();
            r.flaky_endpoint = Some(endpoint.to_string());
            r.flaky_budget = AtomicUsize::new(failures);
            r
        }
    }

    impl UnitRunner for SquareRunner {
        fn run(&self, endpoint: &str, grant: &Grant, heartbeat: &dyn Fn() -> bool) -> UnitReport {
            assert!(heartbeat());
            if Some(endpoint) == self.flaky_endpoint.as_deref() {
                let left = self
                    .flaky_budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
                if left {
                    return UnitReport {
                        answered: Vec::new(),
                        endpoint_failed: true,
                    };
                }
            }
            let vals: Vec<(usize, u64)> = grant
                .slots
                .iter()
                .map(|&s| (s, (s as u64) * (s as u64)))
                .collect();
            lock_recovering(&self.buffers).insert(grant.lease, vals);
            UnitReport {
                answered: grant.slots.clone(),
                endpoint_failed: false,
            }
        }

        fn commit(&self, _endpoint: &str, grant: &Grant) {
            if let Some(vals) = lock_recovering(&self.buffers).remove(&grant.lease) {
                let mut out = lock_recovering(&self.out);
                for (slot, v) in vals {
                    let prev = out.insert(slot, v);
                    assert!(prev.is_none(), "slot {slot} committed twice");
                }
            }
        }

        fn discard(&self, _endpoint: &str, grant: &Grant) {
            lock_recovering(&self.buffers).remove(&grant.lease);
        }
    }

    fn pool_cfg() -> PoolConfig {
        PoolConfig {
            workers_per_endpoint: 2,
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
        }
    }

    #[test]
    fn pool_drains_all_slots_across_endpoints() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = UnitQueue::new(LeaseConfig::default(), Arc::clone(&clock), None);
        q.seed_slots(100, 7);
        let eps = vec![
            PoolEndpoint::new("ep-a", &pool_cfg()),
            PoolEndpoint::new("ep-b", &pool_cfg()),
            PoolEndpoint::new("ep-c", &pool_cfg()),
        ];
        let runner = SquareRunner::new();
        run_pool(&q, &eps, &runner, &pool_cfg(), &clock);
        assert!(q.is_drained());
        assert_eq!(q.census().done, 100);
        let out = lock_recovering(&runner.out);
        assert_eq!(out.len(), 100);
        for s in 0..100usize {
            assert_eq!(out[&s], (s as u64) * (s as u64));
        }
    }

    #[test]
    fn flaky_endpoint_cools_down_but_run_completes() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = UnitQueue::new(LeaseConfig::default(), Arc::clone(&clock), None);
        q.seed_slots(40, 4);
        // Single endpoint that fails its first 6 units: every failure is
        // charged to it deterministically and cooldowns must engage
        // without wedging the run.
        let eps = vec![PoolEndpoint::new("ep-flaky", &pool_cfg())];
        let runner = SquareRunner::flaky("ep-flaky", 6);
        run_pool(&q, &eps, &runner, &pool_cfg(), &clock);
        assert_eq!(q.census().done, 40);
        assert_eq!(lock_recovering(&runner.out).len(), 40);
        let (ok, failed) = eps[0].health().totals();
        assert_eq!(failed, 6, "every budgeted failure recorded");
        assert_eq!(ok, 10, "all ten units eventually completed");
    }

    /// Runner that panics *while holding its buffer lock* for its first
    /// `budget` units — the worst case the poison-recovery path exists
    /// for: the panic is contained, the lock recovered, the unit
    /// requeued, and the run still completes with every slot correct.
    struct PanickingRunner {
        inner: SquareRunner,
        budget: AtomicUsize,
    }

    impl UnitRunner for PanickingRunner {
        fn run(&self, endpoint: &str, grant: &Grant, heartbeat: &dyn Fn() -> bool) -> UnitReport {
            let panic_now = self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if panic_now {
                let _guard = adcomp_obs::lock(&self.inner.buffers);
                panic!("simulated worker crash mid-update");
            }
            self.inner.run(endpoint, grant, heartbeat)
        }

        fn commit(&self, endpoint: &str, grant: &Grant) {
            self.inner.commit(endpoint, grant);
        }

        fn discard(&self, endpoint: &str, grant: &Grant) {
            self.inner.discard(endpoint, grant);
        }
    }

    #[test]
    fn panicking_worker_is_contained_and_counted() {
        let reg = adcomp_obs::metrics::Registry::global();
        let panics = reg.counter("adcomp_sched_worker_panics_total");
        let poisoned = reg.counter("adcomp_sched_lock_poisoned");
        let (panics_before, poisoned_before) = (panics.get(), poisoned.get());

        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = UnitQueue::new(LeaseConfig::default(), Arc::clone(&clock), None);
        q.seed_slots(60, 5);
        let eps = vec![
            PoolEndpoint::new("ep-a", &pool_cfg()),
            PoolEndpoint::new("ep-b", &pool_cfg()),
        ];
        let runner = PanickingRunner {
            inner: SquareRunner::new(),
            budget: AtomicUsize::new(3),
        };
        run_pool(&q, &eps, &runner, &pool_cfg(), &clock);

        assert_eq!(q.census().done, 60, "panicked units must be re-run");
        let out = lock_recovering(&runner.inner.out);
        assert_eq!(out.len(), 60);
        for s in 0..60usize {
            assert_eq!(out[&s], (s as u64) * (s as u64));
        }
        assert_eq!(
            panics.get(),
            panics_before + 3,
            "every contained panic is counted"
        );
        assert!(
            poisoned.get() > poisoned_before,
            "the poisoned buffer lock must be recovered through the counting path"
        );
    }
}
