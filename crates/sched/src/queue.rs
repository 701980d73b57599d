//! The lease-based work queue: the scheduler's source of truth.
//!
//! A batch of query *slots* (indices into the caller's spec vector) is
//! carved into fixed-size **work units**. Workers claim units under a
//! TTL lease, heartbeat while executing, and complete with the subset of
//! slots they actually answered; unanswered slots become a *remnant*
//! unit that goes back on the queue. An expired lease requeues its unit
//! wholesale, and any late completion under the expired lease is
//! rejected as stale — so a killed or hung worker never loses a slot and
//! never double-counts one.
//!
//! The invariant the property tests pin down: at every instant each slot
//! is in **exactly one** of three places — done, in a pending unit, or
//! in a leased unit. All transitions happen under one mutex, keyed by a
//! monotonically unique lease id, which is what makes the invariant
//! easy to audit.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use adcomp_obs::clock::Clock;
use adcomp_obs::lock;
use adcomp_obs::metrics::{duration_us_buckets, Counter, Histogram, Registry};

use crate::SchedulerConfig;

/// A granted lease on one work unit.
#[derive(Clone, Debug)]
pub struct Grant {
    /// Unique lease id; completions and heartbeats key on it.
    pub lease: u64,
    /// The unit this lease covers (stable across regrants).
    pub unit: u64,
    /// Slot indices to execute.
    pub slots: Vec<usize>,
    /// 1-based grant count for this unit.
    pub attempt: u32,
}

/// Outcome of [`UnitQueue::complete`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The lease was live; answered slots are now done and any
    /// unanswered ones went back on the queue.
    Accepted,
    /// The lease had already expired (its unit was requeued) or was
    /// never granted: nothing changed, the caller must discard its
    /// buffered results.
    Stale,
}

/// Where every slot currently lives — the queue's audit view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotCensus {
    /// Slots answered under an accepted completion.
    pub done: usize,
    /// Slots in units waiting to be claimed.
    pub pending: usize,
    /// Slots in currently leased units.
    pub leased: usize,
}

impl SlotCensus {
    /// Sum over all three states — must always equal the seeded total.
    pub fn total(&self) -> usize {
        self.done + self.pending + self.leased
    }
}

struct Unit {
    id: u64,
    slots: Vec<usize>,
    attempt: u32,
}

struct Leased {
    unit: Unit,
    deadline: Duration,
    started: Duration,
}

struct State {
    pending: VecDeque<Unit>,
    leased: HashMap<u64, Leased>,
    done: Vec<bool>,
    done_count: usize,
    next_lease: u64,
}

struct Metrics {
    queued: Arc<Counter>,
    leased: Arc<Counter>,
    completed: Arc<Counter>,
    requeued: Arc<Counter>,
    expired: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        let reg = Registry::global();
        Metrics {
            queued: reg.counter("adcomp_sched_units_queued"),
            leased: reg.counter("adcomp_sched_units_leased"),
            completed: reg.counter("adcomp_sched_units_completed"),
            requeued: reg.counter("adcomp_sched_units_requeued"),
            expired: reg.counter("adcomp_sched_lease_expired_total"),
            latency: reg.histogram("adcomp_sched_unit_latency_us", duration_us_buckets()),
        }
    }
}

/// Lease-based work queue over a batch of slots. See the module docs for
/// the state machine; all methods are safe to call from any thread.
pub struct UnitQueue {
    state: Mutex<State>,
    cv: Condvar,
    cfg: SchedulerConfig,
    clock: Arc<dyn Clock>,
    metrics: Metrics,
}

impl UnitQueue {
    /// An empty queue leasing units of `cfg.unit_size` slots for
    /// `cfg.lease_ttl`; seed it with
    /// [`seed_slots`](UnitQueue::seed_slots) before claiming.
    pub fn new(cfg: &SchedulerConfig, clock: Arc<dyn Clock>) -> UnitQueue {
        UnitQueue {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                leased: HashMap::new(),
                done: Vec::new(),
                done_count: 0,
                next_lease: 1,
            }),
            cv: Condvar::new(),
            cfg: cfg.clone(),
            clock,
            metrics: Metrics::new(),
        }
    }

    /// Seeds slots `0..total`, carved into units of `cfg.unit_size`. A
    /// queue is seeded once, so its slots are exactly `0..total_slots()`.
    pub fn seed_slots(&self, total: usize) {
        let mut s = lock(&self.state);
        assert!(s.done.is_empty(), "a queue is seeded once");
        s.done = vec![false; total];
        let unit_size = self.cfg.unit_size.max(1);
        for (id, start) in (0..total).step_by(unit_size).enumerate() {
            s.pending.push_back(Unit {
                id: id as u64,
                slots: (start..(start + unit_size).min(total)).collect(),
                attempt: 0,
            });
            self.metrics.queued.inc();
        }
        self.cv.notify_all();
    }

    /// Claims the next unit, blocking until one is available, and
    /// returning `None` once the queue is drained (no pending and no
    /// leased units remain). Expired leases are swept on every wake-up.
    pub fn claim(&self) -> Option<Grant> {
        let mut s = lock(&self.state);
        loop {
            self.sweep_expired(&mut s);
            if let Some(grant) = self.try_grant(&mut s) {
                return Some(grant);
            }
            if s.pending.is_empty() && s.leased.is_empty() {
                return None;
            }
            // Wake on state changes, or on a tick to sweep expirations.
            let tick = (self.cfg.lease_ttl / 4).max(Duration::from_millis(5));
            let (guard, _) = self
                .cv
                .wait_timeout(s, tick)
                .unwrap_or_else(|e| panic!("queue lock poisoned: {e}"));
            s = guard;
        }
    }

    /// Non-blocking [`claim`](UnitQueue::claim): grants a unit if one is
    /// pending.
    pub fn try_claim(&self) -> Option<Grant> {
        let mut s = lock(&self.state);
        self.sweep_expired(&mut s);
        self.try_grant(&mut s)
    }

    /// Extends a live lease's deadline by one TTL. Returns `Err(())` if
    /// the lease expired (its unit was requeued) — the worker should
    /// abandon the execution and discard its buffered results.
    #[allow(clippy::result_unit_err)]
    pub fn heartbeat(&self, lease: u64) -> Result<(), ()> {
        let mut s = lock(&self.state);
        self.sweep_expired(&mut s);
        let now = self.clock.now();
        match s.leased.get_mut(&lease) {
            Some(l) => {
                l.deadline = now + self.cfg.lease_ttl;
                Ok(())
            }
            None => Err(()),
        }
    }

    /// Completes a lease with the slots the worker actually answered.
    /// Unanswered slots are requeued as a remnant unit under the same
    /// unit id. A stale lease changes nothing.
    pub fn complete(&self, lease: u64, answered: &[usize]) -> Completion {
        let mut s = lock(&self.state);
        self.sweep_expired(&mut s);
        let Some(mut l) = s.leased.remove(&lease) else {
            return Completion::Stale;
        };
        let now = self.clock.now();
        let answered_set: std::collections::HashSet<usize> = answered.iter().copied().collect();
        let mut remnant = Vec::new();
        let mut newly_done = 0usize;
        for slot in l.unit.slots.drain(..) {
            if answered_set.contains(&slot) {
                debug_assert!(!s.done[slot], "slot {slot} answered twice");
                if !s.done[slot] {
                    s.done[slot] = true;
                    newly_done += 1;
                }
            } else {
                remnant.push(slot);
            }
        }
        s.done_count += newly_done;
        if remnant.is_empty() {
            self.metrics.completed.inc();
            self.metrics
                .latency
                .observe_duration(now.saturating_sub(l.started));
        } else {
            let unit = Unit {
                id: l.unit.id,
                slots: remnant,
                attempt: l.unit.attempt,
            };
            self.requeue(&mut s, unit);
        }
        self.cv.notify_all();
        Completion::Accepted
    }

    /// Gives a lease back without answering anything — shorthand for
    /// [`complete`](UnitQueue::complete) with an empty answer set.
    pub fn abandon(&self, lease: u64) -> Completion {
        self.complete(lease, &[])
    }

    /// Sweeps expired leases now (also done implicitly by every other
    /// call); returns how many leases expired.
    pub fn expire_overdue(&self) -> usize {
        let mut s = lock(&self.state);
        self.sweep_expired(&mut s)
    }

    /// Whether every slot is done (no unit is pending or leased).
    pub fn is_drained(&self) -> bool {
        let s = lock(&self.state);
        s.pending.is_empty() && s.leased.is_empty()
    }

    /// Where every slot currently lives (see [`SlotCensus`]).
    pub fn census(&self) -> SlotCensus {
        let s = lock(&self.state);
        SlotCensus {
            done: s.done_count,
            pending: s.pending.iter().map(|u| u.slots.len()).sum(),
            leased: s.leased.values().map(|l| l.unit.slots.len()).sum(),
        }
    }

    /// Total slots seeded.
    pub fn total_slots(&self) -> usize {
        lock(&self.state).done.len()
    }

    fn try_grant(&self, s: &mut State) -> Option<Grant> {
        let mut unit = s.pending.pop_front()?;
        unit.attempt += 1;
        let lease = s.next_lease;
        s.next_lease += 1;
        let now = self.clock.now();
        let grant = Grant {
            lease,
            unit: unit.id,
            slots: unit.slots.clone(),
            attempt: unit.attempt,
        };
        s.leased.insert(
            lease,
            Leased {
                unit,
                deadline: now + self.cfg.lease_ttl,
                started: now,
            },
        );
        self.metrics.leased.inc();
        Some(grant)
    }

    fn sweep_expired(&self, s: &mut State) -> usize {
        let now = self.clock.now();
        let overdue: Vec<u64> = s
            .leased
            .iter()
            .filter(|(_, l)| l.deadline < now)
            .map(|(&id, _)| id)
            .collect();
        let n = overdue.len();
        for lease in overdue {
            let l = s.leased.remove(&lease).expect("lease present");
            self.metrics.expired.inc();
            self.requeue(s, l.unit);
        }
        if n > 0 {
            self.cv.notify_all();
        }
        n
    }

    /// Puts a unit back on the queue; its next grant counts one more
    /// attempt.
    fn requeue(&self, s: &mut State, unit: Unit) {
        self.metrics.requeued.inc();
        self.metrics.queued.inc();
        s.pending.push_back(unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::clock::ManualClock;

    fn queue(ttl_ms: u64, unit_size: usize) -> (UnitQueue, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let q = UnitQueue::new(
            &SchedulerConfig {
                lease_ttl: Duration::from_millis(ttl_ms),
                unit_size,
                ..SchedulerConfig::default()
            },
            clock.clone(),
        );
        (q, clock)
    }

    #[test]
    fn grant_complete_drains() {
        let (q, _) = queue(100, 4);
        q.seed_slots(10);
        let mut done = 0;
        while let Some(g) = q.try_claim() {
            assert_eq!(q.complete(g.lease, &g.slots), Completion::Accepted);
            assert_eq!(q.census().pending, 10 - done - g.slots.len());
            done += g.slots.len();
        }
        assert_eq!(done, 10);
        assert!(q.is_drained());
        assert_eq!(q.census().done, 10);
    }

    #[test]
    fn expired_lease_requeues_and_late_complete_is_stale() {
        let (q, clock) = queue(50, 4);
        q.seed_slots(4);
        let g = q.try_claim().unwrap();
        clock.advance(Duration::from_millis(60));
        assert_eq!(q.expire_overdue(), 1);
        // The unit is claimable again by another worker …
        let g2 = q.try_claim().unwrap();
        assert_eq!(g2.unit, g.unit);
        assert_eq!(g2.attempt, 2);
        // … and the original worker's late completion is rejected.
        assert_eq!(q.complete(g.lease, &g.slots), Completion::Stale);
        assert_eq!(q.complete(g2.lease, &g2.slots), Completion::Accepted);
        assert_eq!(q.census().done, 4);
    }

    #[test]
    fn heartbeat_keeps_lease_alive() {
        let (q, clock) = queue(50, 2);
        q.seed_slots(2);
        let g = q.try_claim().unwrap();
        for _ in 0..5 {
            clock.advance(Duration::from_millis(40));
            assert!(q.heartbeat(g.lease).is_ok());
        }
        assert_eq!(q.expire_overdue(), 0);
        assert_eq!(q.complete(g.lease, &g.slots), Completion::Accepted);
        // Heartbeat on a finished lease reports staleness.
        assert!(q.heartbeat(g.lease).is_err());
    }

    #[test]
    fn partial_completion_requeues_remnant() {
        let (q, _) = queue(100, 6);
        q.seed_slots(6);
        let g = q.try_claim().unwrap();
        assert_eq!(q.complete(g.lease, &[0, 2, 4]), Completion::Accepted);
        assert_eq!(
            q.census(),
            SlotCensus {
                done: 3,
                pending: 3,
                leased: 0
            },
            "the unanswered remnant is pending again"
        );
        let g2 = q.try_claim().unwrap();
        assert_eq!(g2.slots, vec![1, 3, 5]);
        assert_eq!(g2.unit, g.unit, "remnant keeps the unit id");
        q.complete(g2.lease, &g2.slots);
        assert_eq!(q.census().done, 6);
    }

    #[test]
    fn census_partitions_slots_at_every_step() {
        let (q, clock) = queue(30, 3);
        q.seed_slots(20);
        let total = q.total_slots();
        let mut grants = Vec::new();
        for step in 0..50 {
            assert_eq!(q.census().total(), total, "step {step}: {:?}", q.census());
            match step % 4 {
                0 => {
                    if let Some(g) = q.try_claim() {
                        grants.push(g);
                    }
                }
                1 => {
                    if let Some(g) = grants.pop() {
                        let half: Vec<usize> = g.slots.iter().copied().step_by(2).collect();
                        q.complete(g.lease, &half);
                    }
                }
                2 => clock.advance(Duration::from_millis(20)),
                _ => {
                    q.expire_overdue();
                }
            }
        }
        assert_eq!(q.census().total(), total);
    }

    #[test]
    fn blocking_claim_returns_none_when_drained() {
        let (q, _) = queue(100, 2);
        q.seed_slots(2);
        let g = q.try_claim().unwrap();
        let handle = std::thread::spawn({
            let slots = g.slots.clone();
            move || slots
        });
        q.complete(g.lease, &handle.join().unwrap());
        assert!(q.claim().is_none());
    }
}
