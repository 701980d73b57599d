//! Deterministic chaos harness: kill the daemon at seeded fault
//! points, restart it, and prove the run converges to byte-identical
//! results with zero re-issued answered queries.
//!
//! A "kill" here is in-process but honest about what `kill -9` leaves
//! behind: the daemon value is dropped mid-lifecycle (no destructors
//! run any journaling), the provider and its platform counters live
//! on, and the next incarnation sees only what the journal and epoch
//! stores made durable. Three kinds of kill cover the lifecycle:
//!
//! * **mid-survey** — a [`KillAfter`] wrapper below the recording layer
//!   fails the Nth unanswered estimate *before forwarding it*, exactly
//!   where a dying process stops issuing queries;
//! * **during the drift diff** — [`FaultPoint::DuringDrift`], after any
//!   `AlertRaised` is journaled but before `DriftChecked`;
//! * **between epochs** — [`FaultPoint::BetweenEpochs`], after one
//!   lifecycle is fully journaled and before the next is scheduled.
//!
//! [`run_chaos`] drives a whole run through a kill schedule and returns
//! what the journal ended up holding; tests compare that against an
//! identical run with no kills.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use adcomp_core::recording::EpochEvent;
use adcomp_core::source::{EstimateSource, SourceError};
use adcomp_obs::{Clock, ManualClock};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};

use crate::config::ServeConfig;
use crate::daemon::{Daemon, FaultInjector, FaultPoint, Tick, CHAOS_KILL};
use crate::provider::SourceProvider;

/// One scheduled daemon death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Die when `epoch`'s survey asks its `after_queries + 1`-th
    /// *unanswered* estimate (answered ones replay from the store and
    /// never reach the trigger).
    MidSurvey {
        /// Epoch whose survey dies.
        epoch: u64,
        /// Estimates forwarded before the death.
        after_queries: u64,
    },
    /// Die inside `epoch`'s drift stage (alert journaled, check not).
    DuringDrift {
        /// Epoch whose drift stage dies.
        epoch: u64,
    },
    /// Die after `epoch`'s lifecycle, before the next is scheduled.
    BetweenEpochs {
        /// Epoch after which to die.
        epoch: u64,
    },
}

/// A full chaos schedule. Each kill fires exactly once.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// The kills, in any order.
    pub kills: Vec<KillPoint>,
}

/// What a chaos (or clean — run with an empty plan) run converged to.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Daemon incarnations used (kills + 1).
    pub incarnations: u32,
    /// Kills actually taken.
    pub kills: u32,
    /// Per-epoch digests, in epoch order, from the journal's
    /// `Completed` records.
    pub digests: Vec<u64>,
    /// Epochs with an `AlertRaised` record.
    pub alerted_epochs: Vec<u64>,
    /// Platform-side answered estimates at the end, if the provider
    /// can see them.
    pub answered: Option<u64>,
}

/// Fails the Nth unanswered estimate without forwarding it — and every
/// estimate after it in the same incarnation. A dying process does not
/// answer the query it died on, and it does not keep issuing the rest
/// of its batch either; the `dead` latch (fresh per incarnation, shared
/// across that incarnation's replicas) models the second half, while
/// the shared `armed` flag disarms the trigger for the incarnation that
/// resumes.
struct KillAfter {
    inner: Arc<dyn EstimateSource>,
    remaining: Arc<AtomicI64>,
    armed: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
}

impl EstimateSource for KillAfter {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(SourceError::Transport(
                "chaos: process died mid-survey".into(),
            ));
        }
        if self.armed.load(Ordering::Acquire) {
            // fetch_sub returns the prior budget: positive means this
            // query is still allowed through; zero-or-less means it is
            // the trigger and must NOT reach the platform.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) <= 0 {
                self.armed.store(false, Ordering::Release);
                self.dead.store(true, Ordering::Release);
                return Err(SourceError::Transport(
                    "chaos: process died mid-survey".into(),
                ));
            }
        }
        self.inner.estimate(spec)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
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

/// Wraps a provider so scheduled [`KillPoint::MidSurvey`] kills fire on
/// the right epoch. The trigger state is shared across incarnations:
/// re-arming on restart would kill the resumed survey again and again.
pub struct ChaosProvider {
    inner: Arc<dyn SourceProvider>,
    triggers: HashMap<u64, (Arc<AtomicI64>, Arc<AtomicBool>)>,
}

impl ChaosProvider {
    /// Arms `plan`'s mid-survey kills over `inner`.
    pub fn new(inner: Arc<dyn SourceProvider>, plan: &ChaosPlan) -> ChaosProvider {
        let mut triggers = HashMap::new();
        for kill in &plan.kills {
            if let KillPoint::MidSurvey {
                epoch,
                after_queries,
            } = kill
            {
                triggers.insert(
                    *epoch,
                    (
                        Arc::new(AtomicI64::new(*after_queries as i64)),
                        Arc::new(AtomicBool::new(true)),
                    ),
                );
            }
        }
        ChaosProvider { inner, triggers }
    }
}

impl SourceProvider for ChaosProvider {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn endpoints(&self, epoch: u64) -> Vec<Arc<dyn EstimateSource>> {
        let endpoints = self.inner.endpoints(epoch);
        match self.triggers.get(&epoch) {
            None => endpoints,
            Some((remaining, armed)) => {
                // One death latch per endpoint-set request: the
                // incarnation that trips the trigger goes fully dead,
                // the one that resumes starts alive (and disarmed).
                let dead = Arc::new(AtomicBool::new(false));
                endpoints
                    .into_iter()
                    .map(|inner| {
                        Arc::new(KillAfter {
                            inner,
                            remaining: remaining.clone(),
                            armed: armed.clone(),
                            dead: dead.clone(),
                        }) as Arc<dyn EstimateSource>
                    })
                    .collect()
            }
        }
    }

    fn answered(&self) -> Option<u64> {
        self.inner.answered()
    }
}

/// Consumes scheduled lifecycle kills, one shot each.
struct Injector {
    pending: Mutex<Vec<FaultPoint>>,
}

impl FaultInjector for Injector {
    fn should_die(&self, point: FaultPoint) -> bool {
        let mut pending = adcomp_obs::lock(&self.pending);
        match pending.iter().position(|p| *p == point) {
            Some(i) => {
                pending.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

fn is_chaos_death(e: &io::Error) -> bool {
    // Lifecycle kills carry the marker; mid-survey kills surface as the
    // epoch failing on the injected transport error (retries are 0 in
    // chaos configs, so the failure is immediate and fatal — process
    // death has no retry budget either).
    e.to_string().contains(CHAOS_KILL) || e.to_string().contains("chaos: process died")
}

/// Runs `config` to completion under `plan`, restarting the daemon
/// after every scheduled death. The provider must outlive the run —
/// pass the same `Arc` you would compare counters on afterwards.
///
/// `config.epoch_retries` must be 0: a killed process does not retry,
/// and a nonzero budget would absorb mid-survey kills in-process.
pub fn run_chaos(
    config: &ServeConfig,
    provider: Arc<dyn SourceProvider>,
    plan: &ChaosPlan,
) -> io::Result<ChaosOutcome> {
    assert_eq!(
        config.epoch_retries, 0,
        "chaos runs model process death; in-process retries would mask kills"
    );
    assert!(config.max_epochs > 0, "chaos runs need an epoch budget");
    let provider: Arc<dyn SourceProvider> = Arc::new(ChaosProvider::new(provider, plan));
    let injector = Arc::new(Injector {
        pending: Mutex::new(
            plan.kills
                .iter()
                .filter_map(|k| match k {
                    KillPoint::DuringDrift { epoch } => {
                        Some(FaultPoint::DuringDrift { epoch: *epoch })
                    }
                    KillPoint::BetweenEpochs { epoch } => {
                        Some(FaultPoint::BetweenEpochs { epoch: *epoch })
                    }
                    KillPoint::MidSurvey { .. } => None,
                })
                .collect(),
        ),
    });

    let mut incarnations = 0u32;
    let mut kills = 0u32;
    // Enough budget that a stuck schedule fails loudly instead of
    // looping: every kill costs one incarnation.
    let max_incarnations = plan.kills.len() as u32 + 2;
    loop {
        incarnations += 1;
        assert!(
            incarnations <= max_incarnations,
            "chaos run did not converge in {max_incarnations} incarnations"
        );
        let clock = Arc::new(ManualClock::new());
        let mut daemon = Daemon::open(config.clone(), provider.clone(), clock.clone())?
            .with_injector(injector.clone());
        let died = loop {
            match daemon.tick() {
                Ok(Tick::Finished) => break false,
                Ok(Tick::Completed { .. }) => {}
                Ok(Tick::Idle { until }) => {
                    let now = clock.now();
                    if until > now {
                        clock.advance(until - now);
                    }
                }
                Err(e) if is_chaos_death(&e) => {
                    kills += 1;
                    break true;
                }
                Err(e) => return Err(e),
            }
        };
        // Dropping `daemon` here IS the kill: no state survives it but
        // the journal, the epoch stores, and the provider.
        drop(daemon);
        if !died {
            break;
        }
    }

    // Read what converged out of the journal itself.
    let journal = crate::journal::EpochJournal::open(config.journal_dir(), "serve", false)?;
    let mut digests = Vec::new();
    let mut alerted_epochs = Vec::new();
    for event in journal.events() {
        match event {
            EpochEvent::Completed { epoch, digest, .. } => {
                assert_eq!(epoch as usize, digests.len(), "gap in completed epochs");
                digests.push(digest);
            }
            EpochEvent::AlertRaised { epoch, .. } => alerted_epochs.push(epoch),
            _ => {}
        }
    }
    Ok(ChaosOutcome {
        incarnations,
        kills,
        digests,
        alerted_epochs,
        answered: provider.answered(),
    })
}

/// Drives one daemon to completion with no kills — the baseline a
/// chaos run must converge to. Uses its own [`ManualClock`], so wall
/// time never enters the comparison.
pub fn run_clean(
    config: &ServeConfig,
    provider: Arc<dyn SourceProvider>,
) -> io::Result<ChaosOutcome> {
    run_chaos(config, provider, &ChaosPlan::default())
}
