//! Durable job-state hook.
//!
//! The queue calls a [`UnitJournal`] at every unit transition so a
//! coordinator can persist grants/completions (in this workspace:
//! `adcomp-core`'s `StoreJournal` appends them to an `adcomp-store`
//! `RunStore`). The journal is an audit trail, not the dedup mechanism —
//! answered-query dedup on resume goes through `RecordingSource` keys,
//! which is what guarantees zero re-issued answered queries.

/// Receives unit lifecycle events from a [`UnitQueue`](crate::UnitQueue).
///
/// Calls are made under the queue lock, so implementations should be
/// quick (an in-memory append or a buffered store write); they must not
/// call back into the queue.
pub trait UnitJournal: Send + Sync {
    /// A unit was granted to `worker` (attempt is 1-based).
    fn unit_granted(&self, unit: u64, attempt: u32, worker: &str);
    /// A unit fully completed; `slots` answered under this grant.
    fn unit_completed(&self, unit: u64, worker: &str, slots: usize);
    /// A unit went back on the queue (`reason`: "partial" or
    /// "lease expired").
    fn unit_requeued(&self, unit: u64, worker: &str, reason: &str);
    /// A unit exhausted its attempts with `slots` still unanswered.
    fn unit_failed(&self, unit: u64, worker: &str, slots: usize);
}
