//! Property tests for lease semantics: under *arbitrary* interleavings
//! of claims, partial completions, abandons, heartbeats and clock
//! jumps, the queue never double-completes a slot, never drops one, and
//! its census always partitions the seeded total.
//!
//! This is the invariant the distributed scheduler's determinism
//! guarantee rests on — a slot answered twice could merge conflicting
//! results, a dropped slot would hole the merged batch.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Clock, ManualClock};
use adcomp_sched::{Completion, Grant, SchedulerConfig, UnitQueue};
use proptest::prelude::*;
use proptest::sample::Index;

/// One step of an adversarial schedule. Grant references index into the
/// list of all grants ever issued, so ops routinely target leases that
/// have since expired or completed — exactly the stale-lease races the
/// queue must shrug off.
#[derive(Clone, Debug)]
enum Op {
    Claim,
    /// Complete grant `grant`, answering only a prefix of its slots.
    Complete {
        grant: Index,
        keep: u8,
    },
    Abandon {
        grant: Index,
    },
    Heartbeat {
        grant: Index,
    },
    /// Advance the manual clock and sweep expired leases.
    Advance {
        ms: u16,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Claim),
        (any::<Index>(), any::<u8>()).prop_map(|(grant, keep)| Op::Complete { grant, keep }),
        any::<Index>().prop_map(|grant| Op::Abandon { grant }),
        any::<Index>().prop_map(|grant| Op::Heartbeat { grant }),
        (0u16..400).prop_map(|ms| Op::Advance { ms }),
    ]
}

struct Harness {
    queue: UnitQueue,
    clock: Arc<ManualClock>,
    /// Every grant the queue ever issued, live or stale.
    grants: Vec<Grant>,
    /// Mirror of slots accepted as done — the double-complete oracle.
    done: HashSet<usize>,
    total: usize,
}

impl Harness {
    fn new(total: usize, unit_size: usize) -> Harness {
        let clock = Arc::new(ManualClock::new());
        let cfg = SchedulerConfig {
            lease_ttl: Duration::from_millis(100),
            unit_size,
            ..SchedulerConfig::default()
        };
        let queue = UnitQueue::new(&cfg, clock.clone() as Arc<dyn Clock>);
        queue.seed_slots(total);
        Harness {
            queue,
            clock,
            grants: Vec::new(),
            done: HashSet::new(),
            total,
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Claim => {
                if let Some(grant) = self.queue.try_claim() {
                    for slot in &grant.slots {
                        prop_assert!(
                            !self.done.contains(slot),
                            "queue granted already-done slot {slot}"
                        );
                    }
                    self.grants.push(grant);
                }
            }
            Op::Complete { grant, keep } => {
                if self.grants.is_empty() {
                    return;
                }
                let g = self.grants[grant.index(self.grants.len())].clone();
                let cut = *keep as usize % (g.slots.len() + 1);
                let answered = &g.slots[..cut];
                match self.queue.complete(g.lease, answered) {
                    Completion::Accepted => {
                        for slot in answered {
                            prop_assert!(
                                self.done.insert(*slot),
                                "slot {slot} accepted as done twice"
                            );
                        }
                    }
                    Completion::Stale => {} // buffered results discarded
                }
            }
            Op::Abandon { grant } => {
                if let Some(lease) = pick(&self.grants, grant) {
                    self.queue.abandon(lease);
                }
            }
            Op::Heartbeat { grant } => {
                if let Some(lease) = pick(&self.grants, grant) {
                    let _ = self.queue.heartbeat(lease);
                }
            }
            Op::Advance { ms } => {
                self.clock.advance(Duration::from_millis(*ms as u64));
                self.queue.expire_overdue();
            }
        }
        self.check_census();
    }

    fn check_census(&self) {
        let census = self.queue.census();
        prop_assert_eq!(
            census.total(),
            self.total,
            "census stopped partitioning the seeded slots: {:?}",
            census
        );
        prop_assert_eq!(census.done, self.done.len());
    }

    /// Run the queue dry: keep claiming and fully completing until
    /// nothing is pending or leased.
    fn drain(&mut self) {
        loop {
            while let Some(grant) = self.queue.try_claim() {
                let slots = grant.slots.clone();
                let lease = grant.lease;
                self.grants.push(grant);
                match self.queue.complete(lease, &slots) {
                    Completion::Accepted => {
                        for slot in &slots {
                            prop_assert!(
                                self.done.insert(*slot),
                                "slot {slot} done twice in drain"
                            );
                        }
                    }
                    Completion::Stale => {}
                }
            }
            if self.queue.is_drained() {
                return;
            }
            // Only expiry can unstick leases abandoned by the schedule.
            self.clock.advance(Duration::from_millis(150));
            self.queue.expire_overdue();
        }
    }
}

fn pick(grants: &[Grant], index: &Index) -> Option<u64> {
    if grants.is_empty() {
        None
    } else {
        Some(grants[index.index(grants.len())].lease)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No interleaving double-completes a slot, drops one, or breaks
    /// the census partition; after draining, every slot is done exactly
    /// once.
    #[test]
    fn lease_interleavings_never_double_complete_or_drop(
        total in 1usize..60,
        unit_size in 1usize..9,
        ops in proptest::collection::vec(arb_op(), 0..80),
    ) {
        let mut h = Harness::new(total, unit_size);
        h.check_census();
        for op in &ops {
            h.apply(op);
        }
        h.drain();

        let census = h.queue.census();
        prop_assert_eq!(census.pending, 0);
        prop_assert_eq!(census.leased, 0);
        prop_assert_eq!(census.done, total, "a slot was dropped");
        for slot in 0..total {
            prop_assert!(h.done.contains(&slot), "slot {} never finished", slot);
        }
    }

    /// Late completions on expired leases are always reported `Stale`
    /// and never mutate slot state.
    #[test]
    fn expired_lease_completion_is_always_stale(
        total in 1usize..40,
        unit_size in 1usize..6,
    ) {
        let clock = Arc::new(ManualClock::new());
        let cfg = SchedulerConfig {
            lease_ttl: Duration::from_millis(50),
            unit_size,
            ..SchedulerConfig::default()
        };
        let queue = UnitQueue::new(&cfg, clock.clone() as Arc<dyn Clock>);
        queue.seed_slots(total);

        let mut expired = Vec::new();
        while let Some(grant) = queue.try_claim() {
            expired.push(grant);
        }
        clock.advance(Duration::from_millis(60));
        prop_assert!(queue.expire_overdue() > 0);
        let before = queue.census();
        for grant in &expired {
            prop_assert_eq!(queue.complete(grant.lease, &grant.slots), Completion::Stale);
        }
        prop_assert_eq!(queue.census(), before, "stale completion mutated the census");
    }
}
