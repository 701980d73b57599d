//! # adcomp-sched — distributed audit scheduler
//!
//! Shards an audit workload (a batch of query *slots*) across N
//! endpoints and merges results deterministically in submission order,
//! bit-identical to a single-endpoint serial run.
//!
//! The design is three small, separately testable layers:
//!
//! * [`queue::UnitQueue`] — a lease-based work queue. Slots are carved
//!   into fixed-size units; workers claim units under a TTL lease with
//!   heartbeats; an expired lease requeues the unit and rejects late
//!   completions as stale, so a killed or hung endpoint never loses or
//!   double-counts a slot.
//! * [`pool`] — claiming loops per endpoint with consecutive-failure
//!   health scoring and cooldowns. The pull model is the routing
//!   policy: fast endpoints claim more (weighted work stealing), cooled
//!   endpoints probe cheaply, and `workers_per_endpoint` plus the
//!   queue's global in-flight cap provide backpressure.
//! * [`journal::UnitJournal`] — durable job-state hook; grants,
//!   completions, requeues, and failures stream to the coordinator's
//!   store so a crash leaves an auditable trail.
//!
//! This crate is deliberately generic — units are slot-index ranges and
//!   runners are a trait — so it depends only on `adcomp-obs` (for the
//! clock and `adcomp_sched_*` metrics). `adcomp-core` supplies the
//! query-aware runner and wires it in via `AuditTarget::with_scheduler_cfg`.

pub mod health;
pub mod journal;
pub mod lock;
pub mod pool;
pub mod queue;

pub use health::{EndpointHealth, PoolConfig};
pub use journal::{NullJournal, UnitJournal};
pub use lock::{into_inner_recovering, lock_recovering};
pub use pool::{run_pool, PoolEndpoint, UnitReport, UnitRunner};
pub use queue::{Completion, Grant, LeaseConfig, SlotCensus, UnitQueue};
