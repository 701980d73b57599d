//! Observability for the audit pipeline: metrics, tracing, logging.
//!
//! A >80 000-query measurement campaign (the paper's §3–§4 workload) is
//! only as trustworthy as the visibility into how its queries were
//! actually issued: retries and rate-limit waits bias latency, skipped
//! specs bias the sample, reconnects mark the flaky stretches. This
//! crate makes all of that observable with **zero external
//! dependencies** (consistent with the workspace's shims policy):
//!
//! * [`metrics`] — lock-cheap counters, gauges, and fixed-bucket
//!   histograms behind a [`Registry`](metrics::Registry); Prometheus
//!   text exposition and a human-readable summary;
//! * [`trace`] — span-based structured tracing into a bounded ring plus
//!   an optional JSONL sink for post-hoc campaign analysis; spans carry
//!   a [`TraceContext`] that propagates across threads and (via
//!   adcomp-wire) processes;
//! * [`attribution`] — folds a trace's span tree into a
//!   [`LatencyAttribution`] report: which layer (queue, lease, wire,
//!   platform) the end-to-end latency went to;
//! * [`log`] — a levelled facade replacing scattered
//!   `println!`/`eprintln!`, so `--quiet` means quiet;
//! * [`progress`] — an every-N-queries heartbeat with injected clock
//!   (no wall-clock reads on the hot path);
//! * [`report`] — the end-of-run report stitching the above together;
//! * [`clock`] — the injected-time trait shared by all of it;
//! * [`lock`] — the workspace's one poison-recovering mutex lock.
//!
//! Every layer of the workspace reports into the global registry and
//! tracer; `adcomp-bench` binaries snapshot them next to their TSVs.
//!
//! # Overhead
//!
//! Hot-path updates are one relaxed atomic load (the
//! [`enabled`]/[`set_enabled`] kill switch) plus one relaxed RMW. The
//! `obs_overhead` binary in `adcomp-bench` measures the end-to-end cost
//! on the estimate path and records it in `BENCH_obs_overhead.json`;
//! the budget is <5 %.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod clock;
pub mod log;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use attribution::{latency_attribution, LatencyAttribution};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{
    duration_us_buckets, size_buckets, Counter, Exposition, Gauge, Histogram, HistogramData,
    MetricKey, MetricValue, Registry, Snapshot,
};
pub use progress::ProgressReporter;
pub use report::RunReport;
pub use trace::{
    current_context, ContextGuard, EventKind, SpanGuard, TraceContext, TraceEvent, Tracer,
};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is recording (true by default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Pauses or resumes all recording. Used by the overhead baseline; a
/// paused run skips every counter add, histogram observe, and trace
/// emit, leaving only the relaxed load + branch you cannot avoid.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Locks `m`, taking the guard even if another thread panicked while
/// holding it.
///
/// Recovery is sound for the workspace's mutexes because none of them
/// guards an invariant that a panicking critical section could leave half
/// applied and that a later reader would trust: they hold registries,
/// rings, sinks, sockets, caches and queues whose worst case after a
/// mid-section panic is a lost or partial update the caller already
/// treats as a failed query. Propagating the poison instead would turn
/// one crashed worker into a panic in every thread that shares the lock.
/// It is the workspace's one poison-recovering helper.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises tests that toggle or depend on the global kill switch.
#[cfg(test)]
pub(crate) fn test_enabled_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_pauses_recording() {
        let _guard = test_enabled_lock();
        let c = Counter::new();
        c.inc();
        set_enabled(false);
        c.inc();
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 2, "the paused increment was dropped");
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let held = std::sync::Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            let mut guard = held.lock().unwrap();
            *guard = 8;
            panic!("poison the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.is_poisoned());
        let mut guard = lock(&m);
        assert_eq!(*guard, 8, "the panicking thread's write is kept");
        *guard += 1;
        drop(guard);
        assert_eq!(*lock(&m), 9);
    }
}
