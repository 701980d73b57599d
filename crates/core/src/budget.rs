//! Client-side query budgeting — the paper's ethics-section discipline.
//!
//! > "We also minimized the load placed on the ad platforms by limiting
//! > both the count and rate of API queries we make."
//!
//! [`BudgetedSource`] wraps any [`EstimateSource`] and enforces exactly
//! that: a hard cap on total estimate queries and a minimum spacing
//! between consecutive queries. Experiments wrap their sources in it so
//! the query accounting reported alongside results is enforced, not just
//! observed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adcomp_obs::metrics::{Counter, Gauge, Registry};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

use crate::source::{EstimateSource, SourceError};

/// Budget parameters.
#[derive(Clone, Copy, Debug)]
pub struct QueryBudget {
    /// Maximum estimate queries allowed (`u64::MAX` = unlimited).
    pub max_queries: u64,
    /// Minimum spacing between consecutive queries (throttling).
    pub min_interval: Duration,
}

impl QueryBudget {
    /// Unlimited budget (accounting only).
    pub fn unlimited() -> Self {
        QueryBudget {
            max_queries: u64::MAX,
            min_interval: Duration::ZERO,
        }
    }

    /// A capped budget with no throttling.
    pub fn capped(max_queries: u64) -> Self {
        QueryBudget {
            max_queries,
            min_interval: Duration::ZERO,
        }
    }
}

/// An [`EstimateSource`] wrapper enforcing a [`QueryBudget`].
///
/// Exceeding the cap yields [`SourceError::BudgetExhausted`] — a *fatal*
/// error the resilience layer never retries — so pipelines fail loudly
/// instead of silently hammering the platform. Throttling sleeps the
/// calling thread.
pub struct BudgetedSource {
    inner: Arc<dyn EstimateSource>,
    budget: QueryBudget,
    used: AtomicU64,
    /// Pacing epoch; `next_slot` is nanoseconds past this instant.
    epoch: Instant,
    /// Next free issue slot, reserved by CAS so concurrent callers each
    /// get a distinct slot `min_interval` apart and sleep without holding
    /// any lock.
    next_slot: AtomicU64,
    /// The low-budget warning fired (once per source).
    warned: AtomicBool,
    /// `adcomp_budget_remaining` — queries left before the cap (finite
    /// caps only; the most recently active source wins the gauge).
    remaining_gauge: Arc<Gauge>,
    low_warnings: Arc<Counter>,
}

impl BudgetedSource {
    /// Wraps `inner` with `budget`.
    pub fn new(inner: Arc<dyn EstimateSource>, budget: QueryBudget) -> Self {
        let reg = Registry::global();
        BudgetedSource {
            inner,
            budget,
            used: AtomicU64::new(0),
            epoch: Instant::now(),
            next_slot: AtomicU64::new(0),
            warned: AtomicBool::new(false),
            remaining_gauge: reg.gauge("adcomp_budget_remaining"),
            low_warnings: reg.counter("adcomp_budget_low_warnings_total"),
        }
    }

    /// Estimate queries spent so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Queries remaining before the cap.
    pub fn remaining(&self) -> u64 {
        self.budget.max_queries.saturating_sub(self.used())
    }

    /// Whether the low-budget warning has fired for this source.
    pub fn low_budget_warned(&self) -> bool {
        self.warned.load(Ordering::Relaxed)
    }

    fn admit(&self) -> Result<(), SourceError> {
        // Reserve a slot; undoing on failure is unnecessary because a
        // rejected query was still *attempted* load-wise.
        let spent = self.used.fetch_add(1, Ordering::Relaxed);
        if spent >= self.budget.max_queries {
            self.remaining_gauge.set(0);
            return Err(SourceError::BudgetExhausted {
                used: spent + 1,
                cap: self.budget.max_queries,
            });
        }
        let cap = self.budget.max_queries;
        if cap != u64::MAX {
            let remaining = cap - (spent + 1).min(cap);
            self.remaining_gauge
                .set(remaining.min(i64::MAX as u64) as i64);
            // Warn once when less than 10 % of a finite budget remains.
            if remaining.saturating_mul(10) < cap && !self.warned.swap(true, Ordering::Relaxed) {
                self.low_warnings.inc();
                adcomp_obs::warn!(
                    "query budget low: {remaining} of {cap} queries remain for {}",
                    self.inner.label()
                );
            }
        }
        self.pace();
        Ok(())
    }

    /// Reserves the next issue slot and sleeps until it arrives. Slots are
    /// claimed with a CAS, so no lock is held while sleeping and
    /// concurrent callers are paced `min_interval` apart rather than
    /// serialised behind one another's naps.
    fn pace(&self) {
        let interval = self.budget.min_interval.as_nanos() as u64;
        if interval == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut cur = self.next_slot.load(Ordering::Relaxed);
        let slot = loop {
            // Idle time is not banked: a burst after a quiet stretch still
            // spaces out from "now", matching the serial throttle.
            let slot = cur.max(now);
            match self.next_slot.compare_exchange_weak(
                cur,
                slot + interval,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break slot,
                Err(actual) => cur = actual,
            }
        };
        if slot > now {
            std::thread::sleep(Duration::from_nanos(slot - now));
        }
    }
}

impl EstimateSource for BudgetedSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.admit()?;
        self.inner.estimate(spec)
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        if !self.budget.min_interval.is_zero() {
            // Throttled budgets stay serial — spacing the queries out is
            // the whole point, so there is nothing to batch.
            return specs.iter().map(|s| self.estimate(s)).collect();
        }
        // Reserve every slot up front (one atomic reservation per query),
        // so concurrent batches can never over-issue past the cap, then
        // forward the admitted queries as one inner batch: each logical
        // query is charged exactly once regardless of how the layers
        // below fan it out.
        let admitted: Vec<Result<(), SourceError>> = specs.iter().map(|_| self.admit()).collect();
        if admitted.iter().all(|a| a.is_ok()) {
            return self.inner.estimate_batch(specs);
        }
        let subset: Vec<TargetingSpec> = specs
            .iter()
            .zip(&admitted)
            .filter(|(_, a)| a.is_ok())
            .map(|(s, _)| s.clone())
            .collect();
        let mut answers = self.inner.estimate_batch(&subset).into_iter();
        admitted
            .into_iter()
            .map(|a| match a {
                Ok(()) => answers.next().expect("one answer per admitted query"),
                Err(e) => Err(e),
            })
            .collect()
    }

    fn batch_window(&self) -> usize {
        self.inner.batch_window()
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        // Validation is free: it does not hit the estimate endpoint.
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
    use crate::source::AuditTarget;
    use adcomp_platform::{SimScale, Simulation};
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(47, SimScale::Test))
    }

    #[test]
    fn passes_through_until_cap_then_fails_loudly() {
        let src = BudgetedSource::new(sim().linkedin.clone(), QueryBudget::capped(3));
        let spec = TargetingSpec::everyone();
        for _ in 0..3 {
            assert!(src.estimate(&spec).is_ok());
        }
        let err = src.estimate(&spec).unwrap_err();
        assert!(err.to_string().contains("budget exhausted"), "{err}");
        assert_eq!(src.used(), 4, "rejected attempts are counted");
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn metadata_and_validation_are_free() {
        let src = BudgetedSource::new(sim().linkedin.clone(), QueryBudget::capped(0));
        assert!(src.catalog_len() > 0);
        assert!(src.attribute_name(AttributeId(0)).is_some());
        assert!(src.check(&TargetingSpec::and_of([AttributeId(0)])).is_ok());
        assert!(src.supports_demographics());
        // But estimates are blocked.
        assert!(src.estimate(&TargetingSpec::everyone()).is_err());
    }

    #[test]
    fn throttling_spaces_queries() {
        let budget = QueryBudget {
            max_queries: u64::MAX,
            min_interval: Duration::from_millis(20),
        };
        let src = BudgetedSource::new(sim().linkedin.clone(), budget);
        let spec = TargetingSpec::everyone();
        let start = Instant::now();
        for _ in 0..4 {
            src.estimate(&spec).unwrap();
        }
        // 4 queries with 20 ms spacing → at least 60 ms total.
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn budgeted_source_drives_full_pipeline() {
        // A whole survey fits in a generous budget and the count matches
        // the expected 7·(catalog+1) queries.
        let catalog = sim().linkedin.catalog().len() as u64;
        let expected = 7 * (catalog + 1);
        let src = Arc::new(BudgetedSource::new(
            sim().linkedin.clone(),
            QueryBudget::capped(expected),
        ));
        let target = AuditTarget::direct(src.clone());
        let survey = crate::discovery::survey_individuals(&target).unwrap();
        assert_eq!(survey.entries.len() as u64, catalog);
        assert_eq!(
            src.used(),
            expected,
            "the survey's query count is predictable"
        );
    }

    #[test]
    fn low_budget_warns_exactly_once() {
        let counter = Registry::global().counter("adcomp_budget_low_warnings_total");
        let before = counter.get();
        let src = BudgetedSource::new(sim().linkedin.clone(), QueryBudget::capped(10));
        let spec = TargetingSpec::everyone();
        for _ in 0..9 {
            src.estimate(&spec).unwrap();
        }
        assert!(
            !src.low_budget_warned(),
            "1 of 10 remaining is exactly 10 %, not below it"
        );
        src.estimate(&spec).unwrap();
        assert!(src.low_budget_warned(), "0 of 10 remaining is low");
        assert!(counter.get() > before, "the warning reached the registry");
        // Draining the rest must not warn again (the flag is sticky).
        let _ = src.estimate(&spec);
        assert!(src.low_budget_warned());
        // And the warning left a trace event behind.
        let ring = adcomp_obs::trace::Tracer::global().ring_events();
        assert!(ring.iter().any(|e| {
            e.name == "log:warn"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "message" && v.contains("query budget low"))
        }));
    }

    #[test]
    fn cap_is_exact_under_concurrency() {
        // 8 threads race 200 queries against a cap of 100: exactly 100
        // are admitted — the atomic reservation can never over-issue.
        let src = Arc::new(BudgetedSource::new(
            sim().linkedin.clone(),
            QueryBudget::capped(100),
        ));
        let ok = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let src = src.clone();
                let ok = ok.clone();
                s.spawn(move || {
                    let spec = TargetingSpec::everyone();
                    for _ in 0..25 {
                        if src.estimate(&spec).is_ok() {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 100);
        assert_eq!(src.used(), 200, "every attempt is counted");
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn batches_charge_once_per_query_and_split_at_the_cap() {
        let src = BudgetedSource::new(sim().linkedin.clone(), QueryBudget::capped(3));
        let specs = vec![TargetingSpec::everyone(); 5];
        let results = src.estimate_batch(&specs);
        assert_eq!(results.len(), 5);
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
        assert!(matches!(
            results[3],
            Err(SourceError::BudgetExhausted { .. })
        ));
        assert_eq!(src.used(), 5, "rejected batch entries still count");
    }

    #[test]
    fn concurrent_throttled_queries_are_spaced() {
        // 4 threads each issue one query with a 10 ms interval: the slot
        // reservation spaces them out, so the whole burst takes ≥ 30 ms.
        let budget = QueryBudget {
            max_queries: u64::MAX,
            min_interval: Duration::from_millis(10),
        };
        let src = Arc::new(BudgetedSource::new(sim().linkedin.clone(), budget));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let src = src.clone();
                s.spawn(move || {
                    src.estimate(&TargetingSpec::everyone()).unwrap();
                });
            }
        });
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn unlimited_budget_never_blocks() {
        let src = BudgetedSource::new(sim().linkedin.clone(), QueryBudget::unlimited());
        for _ in 0..50 {
            src.estimate(&TargetingSpec::everyone()).unwrap();
        }
        assert!(src.remaining() > 1_000_000);
    }
}
