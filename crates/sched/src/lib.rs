//! # adcomp-sched — distributed audit scheduler
//!
//! Shards an audit workload (a batch of query *slots*) across N
//! endpoints and merges results deterministically in submission order,
//! bit-identical to a single-endpoint serial run.
//!
//! The design is two small, separately testable layers, all tuned by
//! one [`SchedulerConfig`]:
//!
//! * [`queue::UnitQueue`] — a lease-based work queue. Slots are carved
//!   into fixed-size units; workers claim units under a TTL lease with
//!   heartbeats; an expired lease requeues the unit and rejects late
//!   completions as stale, so a killed or hung endpoint never loses or
//!   double-counts a slot.
//! * [`pool`] — claiming loops per endpoint with consecutive-failure
//!   health scoring and cooldowns. The pull model is the routing
//!   policy: fast endpoints claim more (weighted work stealing), cooled
//!   endpoints probe cheaply, and `workers_per_endpoint` provides
//!   backpressure (a worker holds one lease at a time). The pool owns
//!   the commit rule: a worker keeps a unit's answers only when the
//!   queue accepts its lease, and [`run_pool`] returns them by slot.
//!
//! The queue keeps no job history: a resumed run skips answered
//! queries through `adcomp-core`'s recording keys, not through any
//! scheduler state.
//!
//! This crate is deliberately generic — units are slot-index ranges and
//! the runner is a closure — so it depends only on `adcomp-obs` (for
//! the clock and `adcomp_sched_*` metrics). `adcomp-core` supplies the
//! query-aware runner and wires it in via `AuditTarget::layered`.

use std::time::Duration;

pub mod health;
pub mod pool;
pub mod queue;

pub use health::EndpointHealth;
pub use pool::{run_pool, PoolEndpoint, UnitReport};
pub use queue::{Completion, Grant, SlotCensus, UnitQueue};

/// Tuning for the queue and the pool of one scheduled batch.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Slots per work unit (the sharding grain).
    pub unit_size: usize,
    /// Lease TTL; must comfortably exceed one sub-batch round-trip —
    /// the runner heartbeats between sub-batches. It also bounds how
    /// long the pool waits for an answer once every endpoint is failing.
    pub lease_ttl: Duration,
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
            workers_per_endpoint: 2,
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        }
    }
}
