//! Retry and degradation over any [`EstimateSource`].
//!
//! Transport resilience (timeouts, reconnects, circuit breaking) lives
//! in the wire client; *application* resilience lives here, where the
//! audit methodology can decide what a persistent failure means:
//!
//! * [`classify`] — split [`SourceError`]s into retryable weather
//!   (transient platform errors, throttling, torn connections) and
//!   fatal conditions (validation failures, policy rejections);
//! * [`ResilientSource`] — wrap a source with a
//!   [`RetryPolicy`](adcomp_platform::RetryPolicy) and, when retries
//!   exhaust, apply a [`DegradationPolicy`]: abort the audit, or skip
//!   the query, record it, and move on — the paper's multi-day
//!   measurement runs did the latter for the rare specs that never
//!   answered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adcomp_obs::lock;
use adcomp_obs::metrics::{Counter, Registry};
use adcomp_platform::{PlatformError, RetryPolicy};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

use crate::source::{EstimateSource, SourceError};

/// Metric label for the error that caused a retry.
fn class_label(error: &SourceError) -> &'static str {
    match error {
        SourceError::Platform(PlatformError::Transient(_)) => "transient",
        SourceError::Platform(PlatformError::RateLimited { .. })
        | SourceError::RateLimited { .. } => "rate_limited",
        SourceError::Transport(_) => "transport",
        SourceError::CircuitOpen { .. } => "circuit_open",
        _ => "other",
    }
}

/// How a [`SourceError`] should be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying, optionally no sooner than the server's hint.
    Retryable {
        /// Server-advertised back-off, when present.
        retry_after: Option<Duration>,
    },
    /// Retrying cannot help (bad spec, policy rejection).
    Fatal,
}

/// Classifies an error as retryable weather or a fatal condition.
pub fn classify(error: &SourceError) -> ErrorClass {
    match error {
        SourceError::Platform(PlatformError::Transient(_)) => {
            ErrorClass::Retryable { retry_after: None }
        }
        SourceError::Platform(PlatformError::RateLimited { retry_after }) => {
            ErrorClass::Retryable {
                retry_after: Some(*retry_after),
            }
        }
        SourceError::Platform(_) => ErrorClass::Fatal,
        SourceError::Transport(_) => ErrorClass::Retryable { retry_after: None },
        SourceError::Rejected(_) => ErrorClass::Fatal,
        SourceError::RateLimited { retry_after } => ErrorClass::Retryable {
            retry_after: *retry_after,
        },
        SourceError::CircuitOpen { retry_in } => ErrorClass::Retryable {
            retry_after: Some(*retry_in),
        },
        SourceError::Skipped { .. } => ErrorClass::Fatal,
    }
}

/// What to do when a query keeps failing after every retry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Surface the final error: the audit stops.
    #[default]
    Abort,
    /// Record the spec as skipped and return
    /// [`SourceError::Skipped`], letting resumable probes note the gap
    /// and continue.
    SkipAndRecord,
}

/// Retry and degradation settings for [`ResilientSource`].
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Backoff schedule for retryable errors.
    pub retry: RetryPolicy,
    /// What happens when retries exhaust.
    pub degradation: DegradationPolicy,
}

impl ResilienceConfig {
    /// Audit-run defaults: standard backoff, skip-and-record (a multi-day
    /// run should not die on one stubborn spec).
    pub fn standard(seed: u64) -> Self {
        ResilienceConfig {
            retry: RetryPolicy::standard(seed),
            degradation: DegradationPolicy::SkipAndRecord,
        }
    }

    /// Test defaults: tiny backoffs, abort on exhaustion.
    pub fn test() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::fast(5),
            degradation: DegradationPolicy::Abort,
        }
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::standard(0)
    }
}

/// Counters of what the resilience layer absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retries issued (beyond first attempts).
    pub retries: u64,
    /// Queries that succeeded only after at least one retry.
    pub recovered: u64,
    /// Queries abandoned under [`DegradationPolicy::SkipAndRecord`].
    pub skipped: u64,
}

/// An [`EstimateSource`] wrapper that retries transient failures and
/// degrades gracefully when they persist.
///
/// Fatal errors ([`ErrorClass::Fatal`]) pass through untouched on the
/// first attempt — the degradation policy only governs queries that
/// *stayed* retryable until the retry budget ran out.
pub struct ResilientSource {
    inner: Arc<dyn EstimateSource>,
    config: ResilienceConfig,
    retries: AtomicU64,
    recovered: AtomicU64,
    skipped: AtomicU64,
    skipped_specs: Mutex<Vec<(TargetingSpec, String)>>,
    recovered_total: Arc<Counter>,
    skipped_total: Arc<Counter>,
}

impl ResilientSource {
    /// Wraps `inner` with the given policy.
    pub fn new(inner: Arc<dyn EstimateSource>, config: ResilienceConfig) -> Self {
        let reg = Registry::global();
        ResilientSource {
            inner,
            config,
            retries: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            skipped_specs: Mutex::new(Vec::new()),
            recovered_total: reg.counter("adcomp_recovered_total"),
            skipped_total: reg.counter("adcomp_skipped_total"),
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Counters of retries, recoveries, and skips so far.
    pub fn stats(&self) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
        }
    }

    /// The specs abandoned so far, with the final error that doomed each.
    pub fn skipped_specs(&self) -> Vec<(TargetingSpec, String)> {
        lock(&self.skipped_specs).clone()
    }

    /// Drives one query to its final outcome, starting from an already
    /// observed first attempt: each retry is a one-slot inner
    /// [`estimate`](EstimateSource::estimate), so a query's
    /// retry/degradation story does not depend on the batch it came in.
    fn resolve(
        &self,
        spec: &TargetingSpec,
        first: Result<u64, SourceError>,
    ) -> Result<u64, SourceError> {
        let mut attempt: u32 = 0;
        let mut outcome = first;
        loop {
            match outcome {
                Ok(value) => {
                    if attempt > 0 {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                        self.recovered_total.inc();
                    }
                    return Ok(value);
                }
                Err(error) => match classify(&error) {
                    ErrorClass::Fatal => return Err(error),
                    ErrorClass::Retryable { retry_after } => {
                        if self.config.retry.should_retry(attempt) {
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            Registry::global()
                                .counter_with(
                                    "adcomp_retries_total",
                                    &[("class", class_label(&error))],
                                )
                                .inc();
                            std::thread::sleep(self.config.retry.backoff(attempt, retry_after));
                            attempt += 1;
                            outcome = self.inner.estimate(spec);
                        } else {
                            return Err(self.give_up(spec, error));
                        }
                    }
                },
            }
        }
    }

    fn give_up(&self, spec: &TargetingSpec, error: SourceError) -> SourceError {
        match self.config.degradation {
            DegradationPolicy::Abort => error,
            DegradationPolicy::SkipAndRecord => {
                let reason = error.to_string();
                self.skipped.fetch_add(1, Ordering::Relaxed);
                self.skipped_total.inc();
                adcomp_obs::warn!("skipping spec after exhausted retries: {reason}");
                lock(&self.skipped_specs).push((spec.clone(), reason.clone()));
                SourceError::Skipped { reason }
            }
        }
    }
}

impl EstimateSource for ResilientSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        // One inner batch first (the fast path when nothing fails), then
        // each failed slot walks its own retry/degradation path.
        let first = self.inner.estimate_batch(specs);
        specs
            .iter()
            .zip(first)
            .map(|(spec, outcome)| self.resolve(spec, outcome))
            .collect()
    }

    fn batch_window(&self) -> usize {
        self.inner.batch_window()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        // Validation answers come from policy, not from the flaky
        // estimate endpoint; a transport error here still surfaces.
        self.inner.check(spec)
    }

    fn catalog_len(&self) -> u32 {
        self.inner.catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.inner.attribute_name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.inner.attribute_feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.inner.can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.inner.supports_demographics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{FaultKind, FaultPlan, FaultyPlatform, Schedule, SimScale, Simulation};
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(48, SimScale::Test))
    }

    fn faulty(plan: FaultPlan) -> Arc<dyn EstimateSource> {
        Arc::new(FaultyPlatform::new(sim().linkedin.clone(), plan))
    }

    #[test]
    fn classification_is_sound() {
        use ErrorClass::*;
        assert_eq!(
            classify(&SourceError::Platform(PlatformError::Transient("x".into()))),
            Retryable { retry_after: None }
        );
        assert_eq!(
            classify(&SourceError::RateLimited {
                retry_after: Some(Duration::from_millis(5))
            }),
            Retryable {
                retry_after: Some(Duration::from_millis(5))
            }
        );
        assert_eq!(
            classify(&SourceError::Transport("torn".into())),
            Retryable { retry_after: None }
        );
        assert_eq!(
            classify(&SourceError::CircuitOpen {
                retry_in: Duration::from_secs(1)
            }),
            Retryable {
                retry_after: Some(Duration::from_secs(1))
            }
        );
        assert_eq!(
            classify(&SourceError::Platform(PlatformError::UnsupportedObjective(
                adcomp_platform::Objective::Reach
            ))),
            Fatal
        );
        assert_eq!(classify(&SourceError::Rejected("policy".into())), Fatal);
        assert_eq!(
            classify(&SourceError::Skipped { reason: "x".into() }),
            Fatal
        );
    }

    #[test]
    fn transient_faults_are_absorbed() {
        // Two transient failures in every three calls: each query needs
        // up to two retries, and all succeed.
        let plan = FaultPlan::new(1)
            .with(
                FaultKind::Transient,
                Schedule::EveryNth {
                    period: 3,
                    offset: 0,
                },
            )
            .with(
                FaultKind::Transient,
                Schedule::EveryNth {
                    period: 3,
                    offset: 1,
                },
            );
        let src = ResilientSource::new(faulty(plan), ResilienceConfig::test());
        let clean: u64 = {
            let direct: Arc<dyn EstimateSource> = sim().linkedin.clone();
            direct.estimate(&TargetingSpec::everyone()).unwrap()
        };
        for _ in 0..5 {
            assert_eq!(src.estimate(&TargetingSpec::everyone()).unwrap(), clean);
        }
        let stats = src.stats();
        assert_eq!(stats.retries, 10, "two retries per query");
        assert_eq!(stats.recovered, 5);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn rate_limits_are_waited_out() {
        let plan = FaultPlan::new(2).with(
            FaultKind::RateLimit {
                retry_after: Duration::from_millis(1),
            },
            Schedule::EveryNth {
                period: 2,
                offset: 0,
            },
        );
        let src = ResilientSource::new(faulty(plan), ResilienceConfig::test());
        for _ in 0..4 {
            assert!(src.estimate(&TargetingSpec::everyone()).is_ok());
        }
        assert_eq!(src.stats().recovered, 4);
    }

    #[test]
    fn abort_policy_surfaces_the_final_error() {
        let plan = FaultPlan::new(3).with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let src = ResilientSource::new(faulty(plan), ResilienceConfig::test());
        match src.estimate(&TargetingSpec::everyone()) {
            Err(SourceError::Platform(PlatformError::Transient(_))) => {}
            other => panic!("expected the transient error, got {other:?}"),
        }
        assert_eq!(src.stats().retries, 5, "the whole retry budget was spent");
    }

    #[test]
    fn skip_policy_records_and_continues() {
        let plan = FaultPlan::new(4).with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let config = ResilienceConfig {
            retry: RetryPolicy::fast(2),
            degradation: DegradationPolicy::SkipAndRecord,
        };
        let src = ResilientSource::new(faulty(plan), config);
        let spec = TargetingSpec::and_of([AttributeId(1)]);
        match src.estimate(&spec) {
            Err(SourceError::Skipped { reason }) => assert!(reason.contains("transient")),
            other => panic!("expected Skipped, got {other:?}"),
        }
        assert_eq!(src.stats().skipped, 1);
        let skipped = src.skipped_specs();
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, spec);
    }

    #[test]
    fn fatal_errors_bypass_retry_and_degradation() {
        let config = ResilienceConfig {
            retry: RetryPolicy::fast(5),
            degradation: DegradationPolicy::SkipAndRecord,
        };
        let src = ResilientSource::new(sim().facebook_restricted.clone(), config);
        // Gender targeting is a policy violation on the restricted
        // interface: fatal, not skipped, and never retried.
        let spec = crate::source::SensitiveClass::Gender(adcomp_population::Gender::Male)
            .constrain(&TargetingSpec::everyone());
        match src.estimate(&spec) {
            Err(SourceError::Platform(PlatformError::Validation(_))) => {}
            other => panic!("expected a validation error, got {other:?}"),
        }
        assert_eq!(src.stats(), ResilienceStats::default());
    }
}
