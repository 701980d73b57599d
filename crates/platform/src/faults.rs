//! Deterministic fault injection for resilience testing.
//!
//! Live audits face throttling, transient API failures, dropped
//! connections, and even drifting estimates. To test the audit
//! pipeline's resilience *deterministically*, this module models all of
//! them as data:
//!
//! * [`FaultPlan`] — a seedable schedule mapping a call index to an
//!   optional [`FaultKind`]; identical plans replay identical fault
//!   sequences, so a "flaky" run is exactly reproducible;
//! * [`FaultyPlatform`] — wraps an [`AdPlatform`] and applies the
//!   plan's *platform-level* faults (transient errors, rate-limit
//!   rejections, latency, estimate noise/drift) to each estimate call,
//!   while implementing the same [`PlatformApi`] surface;
//! * [`FaultKind::Drop`] — *transport-level* faults the platform cannot
//!   express; the wire server consults the plan for them (indexed by
//!   request count) and kills connections, optionally mid-frame.
//!
//! Platform-level schedules are evaluated against the **estimate-call
//! index**; drop schedules against the **transport request index**.
//! Keeping the two channels separate keeps both deterministic even when
//! retries change how many transport requests one estimate needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adcomp_infer::rng::splitmix64;
use adcomp_obs::lock;
use adcomp_obs::metrics::{Counter, Registry};
use adcomp_targeting::TargetingSpec;

use crate::api::PlatformApi;
use crate::catalog::Catalog;
use crate::estimate::SizeEstimate;
use crate::interface::{AdPlatform, EstimateRequest, PlatformConfig, PlatformError};
use crate::ratelimit::QueryStats;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Fail the call with a transient (retryable) platform error.
    Transient,
    /// Reject the call as rate-limited, advertising a retry delay.
    RateLimit {
        /// The advertised back-off.
        retry_after: Duration,
    },
    /// Delay the call, then serve it normally.
    Latency(Duration),
    /// Serve a perturbed estimate: the true value scaled by a
    /// deterministic factor in `[1 - amplitude, 1 + amplitude]`, then
    /// re-rounded through the platform ladder. Models obfuscated or
    /// noisy estimate endpoints (what the consistency probe exists to
    /// catch).
    Noise {
        /// Maximum relative perturbation (e.g. `0.2` = ±20 %).
        amplitude: f64,
    },
    /// Serve an estimate inflated by `1 + rate · call_index` — a slow
    /// monotone drift, as when a platform's audience grows mid-audit.
    Drift {
        /// Relative growth per call.
        rate: f64,
    },
    /// Kill the connection instead of answering. Ignored by
    /// [`FaultyPlatform`] (a platform cannot drop a socket); honoured by
    /// the wire server's fault hook.
    Drop {
        /// Send a torn partial frame before killing, instead of closing
        /// at a frame boundary.
        mid_frame: bool,
    },
}

/// When a fault fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Schedule {
    /// Fires on every index with `index % period == offset`.
    EveryNth {
        /// Cycle length (must be non-zero).
        period: u64,
        /// Position within the cycle.
        offset: u64,
    },
    /// Fires exactly once, at the given index.
    Once {
        /// The index.
        at: u64,
    },
    /// Fires pseudo-randomly with the given probability, derived from a
    /// hash of the plan seed and the index — deterministic per plan.
    Random {
        /// Fire probability in `[0, 1]`.
        probability: f64,
    },
}

/// A scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// What happens.
    pub kind: FaultKind,
    /// When it happens.
    pub schedule: Schedule,
}

/// A deterministic, seedable fault schedule.
///
/// The plan is pure data: [`FaultPlan::action_at`] is a function of
/// `(seed, rules, index)` only, so two components holding clones of one
/// plan (a [`FaultyPlatform`] and a wire-server drop hook) see identical
/// schedules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style). Earlier rules win when several match
    /// one index.
    pub fn with(mut self, kind: FaultKind, schedule: Schedule) -> Self {
        if let Schedule::EveryNth { period, .. } = schedule {
            assert!(period > 0, "period must be non-zero");
        }
        if let Schedule::Random { probability } = schedule {
            assert!(
                (0.0..=1.0).contains(&probability),
                "probability out of [0,1]"
            );
        }
        self.rules.push(FaultRule { kind, schedule });
        self
    }

    /// The fault (if any) scheduled for call `index`.
    pub fn action_at(&self, index: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| self.fires(r.schedule, index))
            .map(|r| r.kind)
    }

    /// True when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn fires(&self, schedule: Schedule, index: u64) -> bool {
        match schedule {
            Schedule::EveryNth { period, offset } => index % period == offset % period,
            Schedule::Once { at } => index == at,
            Schedule::Random { probability } => {
                let unit = (splitmix64(self.seed ^ index.rotate_left(32)) >> 11) as f64
                    / (1u64 << 53) as f64;
                unit < probability
            }
        }
    }

    /// Deterministic perturbation factor in `[1 - amplitude,
    /// 1 + amplitude]` for call `index`.
    pub fn noise_factor(&self, index: u64, amplitude: f64) -> f64 {
        let unit = (splitmix64(self.seed ^ 0x4E01 ^ index.rotate_left(32)) >> 11) as f64
            / (1u64 << 53) as f64;
        1.0 + amplitude * (2.0 * unit - 1.0)
    }
}

/// Counters of faults actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls failed with a transient error.
    pub transient: u64,
    /// Calls rejected as rate-limited.
    pub rate_limited: u64,
    /// Calls delayed.
    pub delayed: u64,
    /// Calls served with a perturbed (noise or drift) estimate.
    pub perturbed: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.transient + self.rate_limited + self.delayed + self.perturbed
    }
}

/// An [`AdPlatform`] behind a deterministic fault injector.
///
/// Every estimate call consumes one index of the plan; validation,
/// catalog browsing, and stats pass through unfaulted (matching real
/// platforms, where the cheap metadata endpoints are far more reliable
/// than the estimate endpoint).
pub struct FaultyPlatform {
    inner: Arc<AdPlatform>,
    plan: FaultPlan,
    calls: AtomicU64,
    injected: Mutex<FaultStats>,
    /// `adcomp_faults_injected_total{kind}` handles, one per platform-level
    /// fault kind, resolved at construction.
    injected_total: [Arc<Counter>; 5],
}

/// Index into [`FaultyPlatform::injected_total`] per fault kind.
const FAULT_KINDS: [&str; 5] = ["transient", "rate_limit", "latency", "noise", "drift"];

impl FaultyPlatform {
    /// Wraps `inner` behind `plan`.
    pub fn new(inner: Arc<AdPlatform>, plan: FaultPlan) -> Self {
        let injected_total = FAULT_KINDS.map(|kind| {
            Registry::global().counter_with("adcomp_faults_injected_total", &[("kind", kind)])
        });
        FaultyPlatform {
            inner,
            plan,
            calls: AtomicU64::new(0),
            injected: Mutex::new(FaultStats::default()),
            injected_total,
        }
    }

    /// Estimate calls seen so far (= the next call's plan index).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Counters of faults injected so far.
    pub fn injected(&self) -> FaultStats {
        *lock(&self.injected)
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &Arc<AdPlatform> {
        &self.inner
    }

    /// The plan (e.g. to build a matching wire-server drop hook).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl PlatformApi for FaultyPlatform {
    fn config(&self) -> &PlatformConfig {
        self.inner.config()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn reach_estimate(&self, request: &EstimateRequest) -> Result<SizeEstimate, PlatformError> {
        let index = self.calls.fetch_add(1, Ordering::SeqCst);
        match self.plan.action_at(index) {
            Some(FaultKind::Transient) => {
                lock(&self.injected).transient += 1;
                self.injected_total[0].inc();
                Err(PlatformError::Transient(format!(
                    "injected transient fault at call #{index}"
                )))
            }
            Some(FaultKind::RateLimit { retry_after }) => {
                lock(&self.injected).rate_limited += 1;
                self.injected_total[1].inc();
                self.inner.note_rate_limited();
                Err(PlatformError::RateLimited { retry_after })
            }
            Some(FaultKind::Latency(delay)) => {
                lock(&self.injected).delayed += 1;
                self.injected_total[2].inc();
                std::thread::sleep(delay);
                self.inner.reach_estimate(request)
            }
            Some(FaultKind::Noise { amplitude }) => {
                let est = self.inner.reach_estimate(request)?;
                lock(&self.injected).perturbed += 1;
                self.injected_total[3].inc();
                let perturbed = est.value as f64 * self.plan.noise_factor(index, amplitude);
                Ok(SizeEstimate {
                    value: self
                        .config()
                        .rounding
                        .apply(perturbed.round().max(0.0) as u64),
                    kind: est.kind,
                })
            }
            Some(FaultKind::Drift { rate }) => {
                let est = self.inner.reach_estimate(request)?;
                lock(&self.injected).perturbed += 1;
                self.injected_total[4].inc();
                let drifted = est.value as f64 * (1.0 + rate * index as f64);
                Ok(SizeEstimate {
                    value: self
                        .config()
                        .rounding
                        .apply(drifted.round().max(0.0) as u64),
                    kind: est.kind,
                })
            }
            // Transport faults are the serving layer's business.
            Some(FaultKind::Drop { .. }) | None => self.inner.reach_estimate(request),
        }
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), PlatformError> {
        self.inner.check(spec)
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn note_rate_limited(&self) {
        self.inner.note_rate_limited()
    }

    fn materialize(&self) {
        PlatformApi::materialize(self.inner.as_ref())
    }
}

impl std::fmt::Debug for FaultyPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyPlatform")
            .field("inner", &self.inner)
            .field("rules", &self.plan.rules.len())
            .field("calls", &self.calls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimScale, Simulation};
    use adcomp_targeting::TargetingSpec;
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(92, SimScale::Test))
    }

    fn request() -> EstimateRequest<'static> {
        EstimateRequest::new(
            TargetingSpec::everyone(),
            sim().linkedin.config().default_objective,
        )
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::new(9)
            .with(
                FaultKind::Transient,
                Schedule::EveryNth {
                    period: 3,
                    offset: 1,
                },
            )
            .with(FaultKind::Transient, Schedule::Random { probability: 0.25 });
        let b = a.clone();
        for i in 0..200 {
            assert_eq!(a.action_at(i), b.action_at(i));
        }
        // Different seeds give different random schedules.
        let c =
            FaultPlan::new(10).with(FaultKind::Transient, Schedule::Random { probability: 0.25 });
        let a_only_random =
            FaultPlan::new(9).with(FaultKind::Transient, Schedule::Random { probability: 0.25 });
        assert!(
            (0..200).any(|i| a_only_random.action_at(i) != c.action_at(i)),
            "seeds must matter"
        );
    }

    #[test]
    fn schedules_fire_where_declared() {
        let once = FaultKind::Latency(Duration::from_millis(1));
        let plan = FaultPlan::new(0).with(once, Schedule::Once { at: 5 }).with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 4,
                offset: 2,
            },
        );
        assert_eq!(plan.action_at(5), Some(once));
        assert_eq!(plan.action_at(2), Some(FaultKind::Transient));
        assert_eq!(plan.action_at(6), Some(FaultKind::Transient));
        assert_eq!(plan.action_at(0), None);
        assert_eq!(plan.action_at(1), None);
    }

    #[test]
    fn transient_and_rate_limit_faults_fail_calls() {
        let plan = FaultPlan::new(1)
            .with(FaultKind::Transient, Schedule::Once { at: 0 })
            .with(
                FaultKind::RateLimit {
                    retry_after: Duration::from_millis(10),
                },
                Schedule::Once { at: 1 },
            );
        let p = FaultyPlatform::new(sim().linkedin.clone(), plan);
        assert!(matches!(
            p.reach_estimate(&request()),
            Err(PlatformError::Transient(_))
        ));
        assert!(matches!(
            p.reach_estimate(&request()),
            Err(PlatformError::RateLimited { retry_after }) if retry_after == Duration::from_millis(10)
        ));
        // Index 2 has no fault: identical to the unwrapped platform.
        let clean = sim().linkedin.reach_estimate(&request()).unwrap();
        assert_eq!(p.reach_estimate(&request()).unwrap(), clean);
        assert_eq!(
            p.injected(),
            FaultStats {
                transient: 1,
                rate_limited: 1,
                ..Default::default()
            }
        );
        assert_eq!(p.calls(), 3);
    }

    #[test]
    fn noise_perturbs_but_stays_on_the_rounding_ladder() {
        let plan = FaultPlan::new(2).with(
            FaultKind::Noise { amplitude: 0.3 },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let p = FaultyPlatform::new(sim().linkedin.clone(), plan.clone());
        let clean = sim().linkedin.reach_estimate(&request()).unwrap().value;
        let mut saw_difference = false;
        for i in 0..10u64 {
            let noisy = p.reach_estimate(&request()).unwrap().value;
            let factor = plan.noise_factor(i, 0.3);
            assert!((0.7..=1.3).contains(&factor));
            // Re-rounded through the platform ladder: consistent with it.
            assert_eq!(noisy, p.config().rounding.apply(noisy), "on-ladder");
            if noisy != clean {
                saw_difference = true;
            }
        }
        assert!(
            saw_difference,
            "±30 % noise must move a large estimate off its value"
        );
        assert_eq!(p.injected().perturbed, 10);
    }

    #[test]
    fn drift_grows_with_call_index() {
        let plan = FaultPlan::new(3).with(
            FaultKind::Drift { rate: 0.5 },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let p = FaultyPlatform::new(sim().linkedin.clone(), plan);
        let v0 = p.reach_estimate(&request()).unwrap().value;
        for _ in 0..8 {
            let _ = p.reach_estimate(&request()).unwrap();
        }
        let v9 = p.reach_estimate(&request()).unwrap().value;
        assert!(
            v9 > v0,
            "50 %/call drift must dominate rounding after 9 calls"
        );
    }

    #[test]
    fn metadata_passes_through_unfaulted() {
        let plan = FaultPlan::new(4).with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let p = FaultyPlatform::new(sim().linkedin.clone(), plan);
        assert_eq!(p.label(), "LinkedIn");
        assert_eq!(p.catalog().len(), sim().linkedin.catalog().len());
        assert!(p.check(&TargetingSpec::everyone()).is_ok());
        // But estimates always fault under an every-call plan.
        assert!(p.reach_estimate(&request()).is_err());
    }

    #[test]
    fn drop_faults_are_transparent_at_platform_level() {
        let plan = FaultPlan::new(5).with(
            FaultKind::Drop { mid_frame: true },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
        let p = FaultyPlatform::new(sim().linkedin.clone(), plan);
        let clean = sim().linkedin.reach_estimate(&request()).unwrap();
        assert_eq!(p.reach_estimate(&request()).unwrap(), clean);
        assert_eq!(p.injected().total(), 0);
    }
}
