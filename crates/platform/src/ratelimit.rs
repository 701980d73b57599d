//! Query accounting and rate limiting.
//!
//! The paper's ethics section notes the authors "minimized the load placed
//! on the ad platforms by limiting both the count and rate of API queries".
//! The simulated platforms expose the same machinery: a token-bucket rate
//! limiter (enforced by the wire service) and per-endpoint query counters
//! that experiments report alongside their results.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use adcomp_obs::metrics::{duration_us_buckets, Counter, Histogram, Registry};

/// Queries denied by the token bucket, process-wide.
fn denied_total() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("adcomp_ratelimit_denied_total"))
}

/// Advertised back-off on denial (what a well-behaved client waits).
fn wait_us() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        Registry::global().histogram("adcomp_ratelimit_wait_us", duration_us_buckets())
    })
}

/// Token bucket with explicit time injection (deterministic in tests).
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Tokens added per second.
    rate: f64,
    /// Maximum tokens held.
    burst: f64,
    /// Current tokens.
    tokens: f64,
    /// Timestamp of the last refill.
    last: Duration,
}

impl TokenBucket {
    /// A bucket allowing `rate` requests per second with bursts of up to
    /// `burst`.
    ///
    /// # Panics
    /// Panics when `rate <= 0` or `burst < 1`.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must allow at least one request");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Duration::ZERO,
        }
    }

    /// Attempts to take one token at time `now` (monotonic, relative to an
    /// arbitrary epoch). Returns `true` when the request is admitted.
    ///
    /// # Panics
    /// Panics when `now` moves backwards.
    pub fn try_acquire(&mut self, now: Duration) -> bool {
        assert!(now >= self.last, "time went backwards");
        let elapsed = (now - self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            denied_total().inc();
            wait_us().observe_duration(self.retry_after(now));
            false
        }
    }

    /// Time until the next token becomes available, from `now`.
    pub fn retry_after(&self, now: Duration) -> Duration {
        let elapsed = (now.saturating_sub(self.last)).as_secs_f64();
        let tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if tokens >= 1.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64((1.0 - tokens) / self.rate)
        }
    }
}

/// Counters of advertiser-visible API activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Successful reach-estimate queries.
    pub estimates: u64,
    /// Queries rejected by validation.
    pub validation_failures: u64,
    /// Queries rejected by rate limiting.
    pub rate_limited: u64,
}

impl QueryStats {
    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.estimates + self.validation_failures + self.rate_limited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn burst_then_deny() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.try_acquire(at(0)));
        assert!(b.try_acquire(at(0)));
        assert!(b.try_acquire(at(0)));
        assert!(!b.try_acquire(at(0)), "burst exhausted");
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(10.0, 1.0); // 1 token / 100 ms
        assert!(b.try_acquire(at(0)));
        assert!(!b.try_acquire(at(50)));
        assert!(b.try_acquire(at(150)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_acquire(at(0)));
        // A long pause must not accumulate more than `burst` tokens.
        for _ in 0..2 {
            assert!(b.try_acquire(at(10_000)));
        }
        assert!(!b.try_acquire(at(10_000)));
    }

    #[test]
    fn retry_after_is_consistent() {
        let mut b = TokenBucket::new(10.0, 1.0);
        assert!(b.try_acquire(at(0)));
        let wait = b.retry_after(at(0));
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100));
        // Waiting the advertised time admits the next request.
        assert!(b.try_acquire(at(0) + wait + Duration::from_millis(1)));
        assert_eq!(b.retry_after(at(100_000)), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn non_monotonic_time_panics() {
        let mut b = TokenBucket::new(1.0, 1.0);
        let _ = b.try_acquire(at(100));
        let _ = b.try_acquire(at(50));
    }

    #[test]
    fn denials_are_counted() {
        let denied_before = denied_total().get();
        let waits_before = wait_us().count();
        let mut b = TokenBucket::new(10.0, 1.0);
        assert!(b.try_acquire(at(0)));
        assert!(!b.try_acquire(at(0)));
        assert!(denied_total().get() > denied_before);
        assert!(wait_us().count() > waits_before);
    }

    #[test]
    fn stats_total() {
        let s = QueryStats {
            estimates: 5,
            validation_failures: 2,
            rate_limited: 1,
        };
        assert_eq!(s.total(), 8);
    }
}
