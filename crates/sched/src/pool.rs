//! Endpoint worker pool.
//!
//! [`run_pool`] spawns `workers_per_endpoint` claiming loops per
//! endpoint over one shared [`UnitQueue`] and calls a caller-supplied
//! runner for each grant. The pool owns the commit rule, which keeps
//! the queue authoritative: a worker keeps a unit's answers only when
//! [`UnitQueue::complete`] returns `Accepted`, and drops them on
//! `Stale` (the lease expired and another endpoint re-ran the unit).
//! Workers hold their own accepted answers, merged by slot once all
//! have joined, so a killed or hung endpoint cannot double-write a slot.
//!
//! A batch ends even when every endpoint keeps failing: once every
//! endpoint's failure streak has reached `failure_threshold`, nothing
//! is leased, and no answer has been accepted for one `lease_ttl`, the
//! pool stops and leaves the unanswered slots `None`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use adcomp_obs::clock::Clock;
use adcomp_obs::metrics::Registry;

use crate::health::EndpointHealth;
use crate::queue::{Completion, Grant, UnitQueue};
use crate::SchedulerConfig;

/// What a runner did with one granted unit.
#[derive(Clone, Debug)]
pub struct UnitReport<T> {
    /// `(slot, answer)` for every slot with a deterministic answer (a
    /// successful value, or an error the caller treats as final).
    /// Unlisted slots are requeued as a remnant.
    pub answered: Vec<(usize, T)>,
    /// Whether the endpoint itself misbehaved (transport failure,
    /// circuit open) — feeds health scoring; per-query rejections that
    /// are deterministic answers should leave this false.
    pub endpoint_failed: bool,
}

/// One endpoint the pool schedules onto.
pub struct PoolEndpoint {
    /// Name used in worker names, metric labels, and trace spans.
    pub label: String,
    health: EndpointHealth,
}

impl PoolEndpoint {
    /// An endpoint named `label`, with health scoring per `cfg`.
    pub fn new(label: impl Into<String>, cfg: &SchedulerConfig) -> PoolEndpoint {
        let label = label.into();
        let health = EndpointHealth::new(&label, cfg);
        PoolEndpoint { label, health }
    }

    /// This endpoint's health tracker (units ok/failed, cooldown).
    pub fn health(&self) -> &EndpointHealth {
        &self.health
    }
}

/// Runs the pool until every seeded slot is done or the batch stalls,
/// and returns the accepted answers indexed by slot. The queue's config
/// sets `workers_per_endpoint` and the stall window (`lease_ttl`).
/// `runner(endpoint, grant, heartbeat)` runs one unit on
/// `endpoints[endpoint]`; `heartbeat` extends the lease and returns
/// `false` once it is lost, when the runner should stop early (its
/// answers will be dropped anyway).
pub fn run_pool<T, F>(
    queue: &UnitQueue,
    endpoints: &[PoolEndpoint],
    clock: &dyn Clock,
    runner: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, &Grant, &dyn Fn() -> bool) -> UnitReport<T> + Sync,
{
    let cfg = queue.config();
    let micros = || clock.now().as_micros() as u64;
    // When an answer was last accepted, and whether the batch stalled;
    // neither publishes other data, so `Relaxed` suffices.
    let last_accept_us = AtomicU64::new(micros());
    let stalled = AtomicBool::new(false);
    let check_stalled = || {
        // Saturating: another worker may have moved the stamp past `now`.
        let idle = micros().saturating_sub(last_accept_us.load(Ordering::Relaxed));
        let stop = Duration::from_micros(idle) >= cfg.lease_ttl
            && endpoints.iter().all(|ep| ep.health.failing())
            && queue.census().leased == 0;
        if stop && !stalled.swap(true, Ordering::Relaxed) {
            adcomp_obs::warn!(
                "every endpoint failing and no answer accepted for {:?}; stopping the batch",
                cfg.lease_ttl
            );
        }
        stop
    };
    let worker_loop = |idx: usize, worker: String| {
        let ep = &endpoints[idx];
        let mut kept = Vec::new();
        while !stalled.load(Ordering::Relaxed) {
            let wait = ep.health.cooldown_remaining(clock);
            if !wait.is_zero() {
                // Cooled down: don't hold units we won't serve well. Sleep
                // in short slices so a drained or stalled batch still lets
                // us exit promptly.
                std::thread::sleep(wait.min(Duration::from_millis(20)));
                if queue.is_drained() || check_stalled() {
                    break;
                }
                continue;
            }
            let Some(grant) = queue.claim() else {
                break;
            };
            let _inflight = ep.health.track_inflight();
            // A panicking runner must not unwind through the scoped pool
            // and abort the whole audit: contain it, requeue the unit
            // (empty `answered` returns every slot as a remnant), and
            // charge the endpoint.
            let run = catch_unwind(AssertUnwindSafe(|| {
                runner(idx, &grant, &|| queue.heartbeat(grant.lease).is_ok())
            }));
            let report = run.unwrap_or_else(|_| {
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
            });
            let slots: Vec<usize> = report.answered.iter().map(|&(slot, _)| slot).collect();
            let accepted = queue.complete(grant.lease, &slots) == Completion::Accepted;
            if accepted {
                if !slots.is_empty() {
                    last_accept_us.fetch_max(micros(), Ordering::Relaxed);
                }
                kept.extend(report.answered);
            }
            // A stale unit was re-granted elsewhere; it counts against
            // this endpoint only if the runner blamed the endpoint.
            if report.endpoint_failed {
                ep.health.record_failure(clock);
            } else if accepted {
                ep.health.record_success();
            }
        }
        kept
    };
    let accepted: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let worker_loop = &worker_loop;
        let workers: Vec<_> = endpoints
            .iter()
            .enumerate()
            .flat_map(|(idx, ep)| {
                (0..cfg.workers_per_endpoint.max(1))
                    .map(move |w| (idx, format!("{}#{w}", ep.label)))
            })
            .map(|(idx, worker)| scope.spawn(move || worker_loop(idx, worker)))
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(queue.total_slots())
        .collect();
    for (slot, answer) in accepted.into_iter().flatten() {
        assert!(
            out[slot].replace(answer).is_none(),
            "slot {slot} accepted twice"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::clock::{ManualClock, MonotonicClock};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig {
            workers_per_endpoint: 2,
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
            ..SchedulerConfig::default()
        }
    }

    /// A queue over `total` slots in units of `unit_size`.
    fn seeded(
        cfg: &SchedulerConfig,
        clock: &Arc<dyn Clock>,
        total: usize,
        unit_size: usize,
    ) -> UnitQueue {
        let q = UnitQueue::new(
            &SchedulerConfig {
                unit_size,
                ..cfg.clone()
            },
            Arc::clone(clock),
        );
        q.seed_slots(total);
        q
    }

    fn endpoints(labels: &[&str]) -> Vec<PoolEndpoint> {
        labels
            .iter()
            .map(|l| PoolEndpoint::new(*l, &cfg()))
            .collect()
    }

    /// Answers every slot of the unit with the slot's square.
    fn squares(grant: &Grant) -> UnitReport<u64> {
        UnitReport {
            answered: grant
                .slots
                .iter()
                .map(|&s| (s, (s as u64) * (s as u64)))
                .collect(),
            endpoint_failed: false,
        }
    }

    fn assert_squares(out: &[Option<u64>], total: usize) {
        assert_eq!(out.len(), total);
        for (s, answer) in out.iter().enumerate() {
            assert_eq!(*answer, Some((s as u64) * (s as u64)), "slot {s}");
        }
    }

    /// Takes one from `budget`; false once it is spent.
    fn take(budget: &AtomicUsize) -> bool {
        budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    #[test]
    fn pool_drains_all_slots_across_endpoints() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = seeded(&cfg(), &clock, 100, 7);
        let eps = endpoints(&["ep-a", "ep-b", "ep-c"]);
        let out = run_pool(&q, &eps, clock.as_ref(), |_, grant, heartbeat| {
            assert!(heartbeat());
            squares(grant)
        });
        assert!(q.is_drained());
        assert_eq!(q.census().done, 100);
        assert_squares(&out, 100);
    }

    #[test]
    fn flaky_endpoint_cools_down_but_run_completes() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = seeded(&cfg(), &clock, 40, 4);
        // Single endpoint that fails its first 6 units: every failure is
        // charged to it deterministically and cooldowns must engage
        // without wedging the run.
        let eps = endpoints(&["ep-flaky"]);
        let failures = AtomicUsize::new(6);
        let out = run_pool(&q, &eps, clock.as_ref(), |_, grant, _| {
            if take(&failures) {
                return UnitReport {
                    answered: Vec::new(),
                    endpoint_failed: true,
                };
            }
            squares(grant)
        });
        assert_eq!(q.census().done, 40);
        assert_squares(&out, 40);
        let (ok, failed) = eps[0].health().totals();
        assert_eq!(failed, 6, "every budgeted failure recorded");
        assert_eq!(ok, 10, "all ten units eventually completed");
    }

    #[test]
    fn panicking_worker_is_contained_and_counted() {
        let panics = Registry::global().counter("adcomp_sched_worker_panics_total");
        let panics_before = panics.get();

        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let q = seeded(&cfg(), &clock, 60, 5);
        let eps = endpoints(&["ep-a", "ep-b"]);
        let crashes = AtomicUsize::new(3);
        let out = run_pool(&q, &eps, clock.as_ref(), |_, grant, _| {
            if take(&crashes) {
                panic!("simulated worker crash mid-unit");
            }
            squares(grant)
        });

        assert_eq!(q.census().done, 60, "panicked units must be re-run");
        assert_squares(&out, 60);
        assert_eq!(
            panics.get(),
            panics_before + 3,
            "every contained panic is counted"
        );
    }

    #[test]
    fn stale_answers_are_dropped_and_the_regrant_kept() {
        let expired = Registry::global().counter("adcomp_sched_lease_expired_total");
        let expired_before = expired.get();

        let manual = Arc::new(ManualClock::new());
        let clock: Arc<dyn Clock> = manual.clone();
        let cfg = SchedulerConfig {
            workers_per_endpoint: 1,
            ..cfg()
        };
        let q = seeded(&cfg, &clock, 20, 4);
        let eps = vec![PoolEndpoint::new("ep-stale", &cfg)];
        let out = run_pool(&q, &eps, clock.as_ref(), |_, grant, _| {
            if grant.attempt > 1 {
                return squares(grant);
            }
            // The first attempt outlives its lease, then answers wrongly.
            manual.advance(cfg.lease_ttl + Duration::from_millis(1));
            UnitReport {
                answered: grant.slots.iter().map(|&s| (s, u64::MAX)).collect(),
                endpoint_failed: false,
            }
        });

        assert_eq!(q.census().done, 20);
        assert_squares(&out, 20);
        assert!(
            expired.get() >= expired_before + 5,
            "each unit's first lease expired"
        );
    }
}
