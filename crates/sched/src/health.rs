//! Per-endpoint health scoring.
//!
//! The pool runs one claiming loop per endpoint worker (a pull model:
//! fast endpoints naturally claim more units — weighted work stealing
//! without a central router). Health scoring is the damper on that
//! loop: consecutive unit failures put the endpoint into a cooldown so
//! a dead or rate-limited replica probes cheaply instead of churning
//! grants through the lease TTL.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::clock::Clock;
use adcomp_obs::metrics::{Gauge, Registry};

use crate::SchedulerConfig;

/// Failure-count health state for one endpoint, shared by its workers.
pub struct EndpointHealth {
    consecutive_failures: AtomicU32,
    cooldown_until_us: AtomicU64,
    units_ok: AtomicU64,
    units_failed: AtomicU64,
    inflight: Arc<Gauge>,
    threshold: u32,
    cooldown: Duration,
}

impl EndpointHealth {
    /// Health tracker for the endpoint named `label` (also the
    /// `endpoint` tag on the in-flight gauge).
    pub fn new(label: &str, cfg: &SchedulerConfig) -> EndpointHealth {
        EndpointHealth {
            consecutive_failures: AtomicU32::new(0),
            cooldown_until_us: AtomicU64::new(0),
            units_ok: AtomicU64::new(0),
            units_failed: AtomicU64::new(0),
            inflight: Registry::global()
                .gauge_with("adcomp_sched_endpoint_inflight", &[("endpoint", label)]),
            threshold: cfg.failure_threshold.max(1),
            cooldown: cfg.cooldown,
        }
    }

    /// Time left before this endpoint may claim again (zero = healthy).
    pub fn cooldown_remaining(&self, clock: &dyn Clock) -> Duration {
        let until = self.cooldown_until_us.load(Ordering::Acquire);
        let now = clock.now().as_micros() as u64;
        Duration::from_micros(until.saturating_sub(now))
    }

    /// A unit finished cleanly: failure streak resets.
    pub fn record_success(&self) {
        self.units_ok.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.store(0, Ordering::Release);
    }

    /// A unit failed on this endpoint (transport error, circuit open…).
    /// Crossing the threshold starts a cooldown.
    pub fn record_failure(&self, clock: &dyn Clock) {
        self.units_failed.fetch_add(1, Ordering::Relaxed);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        if streak >= self.threshold {
            let until = (clock.now() + self.cooldown).as_micros() as u64;
            self.cooldown_until_us.fetch_max(until, Ordering::AcqRel);
        }
    }

    /// Whether the failure streak has reached the threshold (no unit
    /// has succeeded here since).
    pub(crate) fn failing(&self) -> bool {
        self.consecutive_failures.load(Ordering::Acquire) >= self.threshold
    }

    /// Units completed cleanly / failed on this endpoint so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.units_ok.load(Ordering::Relaxed),
            self.units_failed.load(Ordering::Relaxed),
        )
    }

    /// RAII in-flight accounting for the per-endpoint gauge.
    pub fn track_inflight(&self) -> InflightToken<'_> {
        self.inflight.add(1);
        InflightToken {
            gauge: &self.inflight,
        }
    }
}

/// Decrements the endpoint's in-flight gauge on drop.
pub struct InflightToken<'a> {
    gauge: &'a Gauge,
}

impl Drop for InflightToken<'_> {
    fn drop(&mut self) {
        self.gauge.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::clock::ManualClock;

    #[test]
    fn cooldown_starts_at_threshold_and_clears_after_success() {
        let clock = ManualClock::new();
        let h = EndpointHealth::new(
            "ep-test-health",
            &SchedulerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
                ..SchedulerConfig::default()
            },
        );
        h.record_failure(&clock);
        assert_eq!(h.cooldown_remaining(&clock), Duration::ZERO);
        h.record_failure(&clock);
        assert!(h.cooldown_remaining(&clock) > Duration::ZERO);
        clock.advance(Duration::from_millis(120));
        assert_eq!(h.cooldown_remaining(&clock), Duration::ZERO);
        h.record_success();
        h.record_failure(&clock);
        assert_eq!(
            h.cooldown_remaining(&clock),
            Duration::ZERO,
            "streak reset by success"
        );
        assert_eq!(h.totals(), (1, 3));
    }

    #[test]
    fn inflight_token_balances() {
        let h = EndpointHealth::new("ep-test-inflight", &SchedulerConfig::default());
        {
            let _t1 = h.track_inflight();
            let _t2 = h.track_inflight();
        }
        let reg = Registry::global();
        let g = reg.gauge_with(
            "adcomp_sched_endpoint_inflight",
            &[("endpoint", "ep-test-inflight")],
        );
        assert_eq!(g.get(), 0);
    }
}
