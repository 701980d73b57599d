//! Edge-case coverage for the resilience primitives under an injected
//! clock: the circuit breaker's half-open transitions (probe success →
//! closed, probe failure → open) including their
//! `adcomp_circuit_transitions_total` reporting, and the retry policy's
//! backoff bounds across its whole schedule.
//!
//! The transition counters live in the *global* registry shared by every
//! test in the process, so all assertions are deltas around the
//! operation under test, never absolute values.

use std::time::Duration;

use adcomp_obs::metrics::Registry;
use adcomp_platform::{CircuitBreaker, CircuitState, RetryPolicy};

fn at(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// Current value of `adcomp_circuit_transitions_total{to=<state>}`.
fn transitions(to: &str) -> u64 {
    Registry::global()
        .snapshot()
        .counters()
        .filter(|(k, _)| {
            k.name == "adcomp_circuit_transitions_total"
                && k.labels.iter().any(|(lk, lv)| lk == "to" && lv == to)
        })
        .map(|(_, v)| *v)
        .sum()
}

#[test]
fn half_open_probe_success_closes_and_reports() {
    let mut b = CircuitBreaker::new(2, at(100));
    b.record_failure(at(0));

    let open_before = transitions("open");
    b.record_failure(at(1)); // second consecutive failure trips it
    assert_eq!(b.state(at(2)), CircuitState::Open);
    assert!(transitions("open") > open_before, "trip was counted");

    // Cooldown elapsed: exactly one probe is admitted (half-open).
    let half_before = transitions("half_open");
    assert_eq!(b.state(at(101)), CircuitState::HalfOpen);
    assert!(b.check(at(101)).is_ok());
    assert!(transitions("half_open") > half_before);
    assert!(b.check(at(102)).is_err(), "only one probe per window");

    // The probe succeeds: half-open → closed, streak reset.
    let closed_before = transitions("closed");
    b.record_success();
    assert_eq!(b.state(at(103)), CircuitState::Closed);
    assert_eq!(b.consecutive_failures(), 0);
    assert!(transitions("closed") > closed_before);
    assert!(b.check(at(103)).is_ok(), "requests flow again");
}

#[test]
fn half_open_probe_failure_reopens_and_reports() {
    let mut b = CircuitBreaker::new(1, at(50));
    b.record_failure(at(0));
    assert_eq!(b.state(at(10)), CircuitState::Open);

    assert!(b.check(at(50)).is_ok(), "probe admitted after cooldown");
    let open_before = transitions("open");
    let closed_before = transitions("closed");
    b.record_failure(at(50)); // failed probe: half-open → open, full cooldown
    assert_eq!(b.state(at(60)), CircuitState::Open);
    assert_eq!(
        b.check(at(60)),
        Err(at(40)),
        "fresh cooldown from the probe"
    );
    assert!(transitions("open") > open_before, "re-open was counted");
    assert_eq!(
        transitions("closed"),
        closed_before,
        "a failed probe never counts as a close"
    );

    // The next window's probe can still recover the circuit.
    assert!(b.check(at(100)).is_ok());
    b.record_success();
    assert_eq!(b.state(at(101)), CircuitState::Closed);
}

#[test]
fn backoff_stays_within_jitter_bounds_over_the_whole_schedule() {
    let p = RetryPolicy {
        max_retries: 12,
        base: at(10),
        max_backoff: at(640),
        jitter: 0.3,
        seed: 42,
    };
    for attempt in 0..p.max_retries {
        let nominal = p
            .base
            .saturating_mul(1 << attempt.min(16))
            .min(p.max_backoff);
        let d = p.backoff(attempt, None);
        assert!(
            d <= nominal,
            "attempt {attempt}: {d:?} above nominal {nominal:?}"
        );
        assert!(
            d >= nominal.mul_f64(1.0 - p.jitter),
            "attempt {attempt}: {d:?} jittered below the floor"
        );
        assert_eq!(d, p.backoff(attempt, None), "schedule is deterministic");
    }
    // Far past the cap the exponent saturates instead of overflowing.
    assert!(p.backoff(40, None) <= p.max_backoff);
}

#[test]
fn retry_after_hint_floors_but_never_shrinks_backoff() {
    let p = RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::standard(7)
    };
    let unhinted = p.backoff(3, None);
    // A hint below the computed backoff changes nothing.
    assert_eq!(p.backoff(3, Some(at(1))), unhinted);
    // A hint above it wins, even past max_backoff (the server knows best).
    let big = p.max_backoff + at(500);
    assert_eq!(p.backoff(3, Some(big)), big);
}
