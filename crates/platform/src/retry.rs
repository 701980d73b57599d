//! Retry and circuit-breaking primitives for unreliable platforms.
//!
//! Real measurement campaigns run for days against APIs that throttle,
//! hiccup, and drop connections. The paper's scripts survived by being
//! polite and persistent; this module packages that discipline:
//!
//! * [`RetryPolicy`] — bounded exponential backoff with *deterministic*
//!   jitter, honouring a server-provided `retry_after` hint;
//! * [`CircuitBreaker`] — stops hammering an endpoint after consecutive
//!   failures, admitting a probe request once a cooldown elapses.
//!
//! Both follow the [`TokenBucket`](crate::TokenBucket) idiom of explicit
//! time injection: callers pass monotonic [`Duration`]s relative to an
//! arbitrary epoch, so every schedule is reproducible in tests without a
//! clock.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use adcomp_infer::rng::splitmix64;
use adcomp_obs::metrics::{Counter, Registry};

/// `adcomp_circuit_transitions_total{to}` — every breaker in the process
/// reports into the same three counters (breakers are plentiful and
/// short-lived; what matters operationally is how often the fleet trips).
fn transitions_to(state: &'static str) -> &'static Counter {
    static OPEN: OnceLock<Arc<Counter>> = OnceLock::new();
    static HALF_OPEN: OnceLock<Arc<Counter>> = OnceLock::new();
    static CLOSED: OnceLock<Arc<Counter>> = OnceLock::new();
    let cell = match state {
        "open" => &OPEN,
        "half_open" => &HALF_OPEN,
        _ => &CLOSED,
    };
    cell.get_or_init(|| {
        Registry::global().counter_with("adcomp_circuit_transitions_total", &[("to", state)])
    })
}

/// Bounded exponential backoff with deterministic jitter.
///
/// The delay before retry `attempt` (0-based) is
/// `base · 2^attempt`, capped at `max_backoff`, then jittered down by up
/// to `jitter` (a fraction in `[0, 1]`) using a hash of `seed` and the
/// attempt number — deterministic, so tests can assert exact schedules,
/// but distinct across seeds so a fleet of clients does not thunder in
/// lockstep. A server-provided `retry_after` hint acts as a floor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt.
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub max_backoff: Duration,
    /// Fraction of the delay randomised away (`0.0` = none).
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A sensible audit-client default: 5 retries, 50 ms → 1.6 s
    /// exponential, 20 % jitter.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
            seed,
        }
    }

    /// No retries at all (fail on first error).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Fast schedule for tests: tiny delays, no jitter.
    pub fn fast(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Whether another retry is allowed after `attempt` failures.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// The delay before retry `attempt` (0-based), honouring an optional
    /// server `retry_after` hint as a floor.
    pub fn backoff(&self, attempt: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let jittered = if self.jitter > 0.0 {
            // Deterministic fraction in [0, 1) from (seed, attempt).
            let frac =
                (splitmix64(self.seed ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
            exp.mul_f64(1.0 - self.jitter * frac)
        } else {
            exp
        };
        match retry_after {
            Some(hint) => jittered.max(hint),
            None => jittered,
        }
    }
}

/// Circuit-breaker states, reported by [`CircuitBreaker::state`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe request is admitted.
    HalfOpen,
}

/// Trips after `threshold` *consecutive* failures and rejects requests
/// for `cooldown`; then admits a single probe whose outcome closes or
/// re-opens the circuit. Time is injected explicitly ([`TokenBucket`]
/// style), so the breaker is deterministic under test.
///
/// [`TokenBucket`]: crate::TokenBucket
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    consecutive_failures: u32,
    /// When open: the instant the cooldown ends.
    open_until: Option<Duration>,
    /// A half-open probe is in flight.
    probing: bool,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures, backing
    /// off for `cooldown` each time it opens.
    ///
    /// # Panics
    /// Panics when `threshold` is zero.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        assert!(threshold > 0, "threshold must admit at least one failure");
        CircuitBreaker {
            threshold,
            cooldown,
            consecutive_failures: 0,
            open_until: None,
            probing: false,
        }
    }

    /// The state at time `now`.
    pub fn state(&self, now: Duration) -> CircuitState {
        match self.open_until {
            None => CircuitState::Closed,
            Some(until) if now >= until => CircuitState::HalfOpen,
            Some(_) => CircuitState::Open,
        }
    }

    /// Asks permission to issue a request at time `now`. `Err` carries
    /// the time remaining until the next probe is admitted. In the
    /// half-open state only one probe is admitted per cooldown window.
    pub fn check(&mut self, now: Duration) -> Result<(), Duration> {
        match self.open_until {
            None => Ok(()),
            Some(until) if now >= until => {
                if self.probing {
                    Err(self.cooldown)
                } else {
                    self.probing = true;
                    transitions_to("half_open").inc();
                    Ok(())
                }
            }
            Some(until) => Err(until - now),
        }
    }

    /// Records a successful request: closes the circuit.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.open_until.take().is_some() {
            transitions_to("closed").inc();
        }
        self.probing = false;
    }

    /// Records a failed request at time `now`; trips the circuit once
    /// the consecutive-failure threshold is reached (a failed half-open
    /// probe re-opens immediately).
    pub fn record_failure(&mut self, now: Duration) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.probing || self.consecutive_failures >= self.threshold {
            self.open_until = Some(now + self.cooldown);
            self.probing = false;
            transitions_to("open").inc();
        }
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base: at(10),
            max_backoff: at(100),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(p.backoff(0, None), at(10));
        assert_eq!(p.backoff(1, None), at(20));
        assert_eq!(p.backoff(2, None), at(40));
        assert_eq!(p.backoff(3, None), at(80));
        assert_eq!(p.backoff(4, None), at(100), "capped");
        assert_eq!(p.backoff(9, None), at(100));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_dependent() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::standard(1)
        };
        let q = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::standard(2)
        };
        for attempt in 0..5 {
            let a = p.backoff(attempt, None);
            let b = p.backoff(attempt, None);
            assert_eq!(a, b, "same policy, same schedule");
            let nominal = p.base.saturating_mul(1 << attempt).min(p.max_backoff);
            assert!(
                a <= nominal && a >= nominal.mul_f64(0.5),
                "{a:?} vs {nominal:?}"
            );
        }
        assert!(
            (0..5).any(|i| p.backoff(i, None) != q.backoff(i, None)),
            "different seeds must not share the whole schedule"
        );
    }

    #[test]
    fn retry_after_hint_is_a_floor() {
        let p = RetryPolicy::fast(3);
        assert_eq!(p.backoff(0, Some(at(500))), at(500));
        assert!(p.backoff(0, Some(Duration::ZERO)) <= at(1));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let p = RetryPolicy::fast(2);
        assert!(p.should_retry(0));
        assert!(p.should_retry(1));
        assert!(!p.should_retry(2));
        assert!(!RetryPolicy::none().should_retry(0));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let mut b = CircuitBreaker::new(3, at(100));
        assert_eq!(b.state(at(0)), CircuitState::Closed);
        b.record_failure(at(0));
        b.record_failure(at(1));
        assert!(b.check(at(2)).is_ok(), "below threshold stays closed");
        b.record_failure(at(2));
        // Open: rejected with the remaining cooldown.
        assert_eq!(b.state(at(3)), CircuitState::Open);
        assert_eq!(b.check(at(52)), Err(at(50)));
        // Cooldown elapsed: exactly one probe admitted.
        assert_eq!(b.state(at(102)), CircuitState::HalfOpen);
        assert!(b.check(at(102)).is_ok());
        assert!(b.check(at(103)).is_err(), "second probe rejected");
        // Probe succeeds: closed again.
        b.record_success();
        assert_eq!(b.state(at(104)), CircuitState::Closed);
        assert!(b.check(at(104)).is_ok());
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(1, at(100));
        b.record_failure(at(0));
        assert!(b.check(at(100)).is_ok(), "probe after cooldown");
        b.record_failure(at(100));
        assert_eq!(b.state(at(150)), CircuitState::Open);
        assert_eq!(b.check(at(150)), Err(at(50)));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, at(100));
        b.record_failure(at(0));
        b.record_success();
        b.record_failure(at(1));
        assert_eq!(b.state(at(2)), CircuitState::Closed, "streak was broken");
        assert_eq!(b.consecutive_failures(), 1);
    }
}
