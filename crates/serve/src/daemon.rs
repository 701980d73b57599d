//! The supervisor loop: recurring audit epochs with crash recovery.
//!
//! [`Daemon`] owns one continuous audit. Each [`Daemon::tick`] either
//! reports how long until the next epoch is due, or runs one full epoch
//! lifecycle:
//!
//! 1. **Survey** — journal `Started`, run
//!    [`run_epoch`] into the epoch's own recording store (answered
//!    queries are durable before their values are used), journal
//!    `Completed` with the digest. Failures retry up to the configured
//!    budget with doubling, capped backoff; endpoints that fail their
//!    health probe are dropped for the epoch and journaled as
//!    `Degraded`.
//! 2. **Drift** — diff against the previous epoch with
//!    [`drift_between`]; a four-fifths crossing journals `AlertRaised`
//!    *before* `DriftChecked`, and an already-journaled alert is never
//!    raised twice — that ordering plus the journal's latest-wins
//!    keying is the exactly-once alert story the chaos tests kill the
//!    daemon to verify.
//!
//! Time comes from an injected [`Clock`], so tests and the chaos
//! harness drive schedules by hand. Config reloads happen only between
//! epochs (never mid-lifecycle) and never drop journaled or in-memory
//! state; identity changes are rejected (see [`crate::config`]).

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adcomp_agg::{Telemetry, TelemetryPusher};
use adcomp_core::recording::{fnv1a, EpochEvent};
use adcomp_core::{
    drift_between_with, run_epoch, DriftOptions, EpochPlan, ResilienceConfig, SchedulerConfig,
};
use adcomp_obs::metrics::{MetricKey, MetricValue, Snapshot};
use adcomp_obs::{Clock, Registry, RunReport};
use adcomp_store::{RunStore, SyncPolicy, WalOptions};

use crate::alert::{AlertSink, DriftAlert};
use crate::config::ServeConfig;
use crate::journal::{EpochJournal, Resume};
use crate::provider::SourceProvider;
use crate::status::DaemonStatus;

/// Stage tag of [`EpochEvent::AlertRaised`] in the journal.
const STAGE_ALERT: u8 = 4;

/// Points in the epoch lifecycle where the chaos harness may kill the
/// daemon. `MidSurvey` is not here because survey kills are injected
/// below the recording layer (a [`KillAfter`](crate::chaos) source),
/// which is where a real process death lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// `Completed` is journaled; the drift diff has not started.
    BeforeDrift {
        /// Epoch in flight.
        epoch: u64,
    },
    /// Mid drift stage: any `AlertRaised` is journaled, `DriftChecked`
    /// is not.
    DuringDrift {
        /// Epoch in flight.
        epoch: u64,
    },
    /// The epoch's lifecycle is fully journaled; the next epoch is not
    /// scheduled yet.
    BetweenEpochs {
        /// Epoch just finished.
        epoch: u64,
    },
}

/// Decides whether the daemon "dies" at a lifecycle point.
pub trait FaultInjector: Send + Sync {
    /// Return `true` to kill the daemon at `point`.
    fn should_die(&self, point: FaultPoint) -> bool;
}

/// What one [`Daemon::tick`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Nothing due; call again at `until` (clock time).
    Idle {
        /// When the next epoch is due.
        until: Duration,
    },
    /// One epoch's full lifecycle finished.
    Completed {
        /// The epoch.
        epoch: u64,
        /// Its estimate digest.
        digest: u64,
        /// Whether a four-fifths crossing alert stands for it.
        alerted: bool,
        /// Whether this epoch resumed work journaled by a previous
        /// incarnation.
        resumed: bool,
    },
    /// The configured epoch budget is exhausted.
    Finished,
}

/// The error message marker for chaos-injected deaths; the harness
/// matches on it to tell a simulated kill from a real failure.
pub const CHAOS_KILL: &str = "chaos: killed at ";

fn chaos_kill(point: FaultPoint) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("{CHAOS_KILL}{point:?}"))
}

/// One continuous audit: supervisor state plus its durable journal.
pub struct Daemon {
    config: ServeConfig,
    config_path: Option<PathBuf>,
    config_hash: u64,
    provider: Arc<dyn SourceProvider>,
    journal: EpochJournal,
    clock: Arc<dyn Clock>,
    injector: Option<Arc<dyn FaultInjector>>,
    alert_sinks: Vec<Arc<dyn AlertSink>>,
    telemetry: Option<Arc<TelemetryPusher>>,
    status: Arc<DaemonStatus>,
    report: RunReport,
    resume: Option<Resume>,
    next_epoch: u64,
    next_due: Duration,
}

impl Daemon {
    /// Opens the daemon over `config`, recovering from the journal at
    /// `config.journal_dir()`. A nonempty journal means a previous
    /// incarnation ran here: recovery picks the resume point and never
    /// re-runs a durable stage.
    pub fn open(
        config: ServeConfig,
        provider: Arc<dyn SourceProvider>,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Daemon> {
        Daemon::open_at(config, None, provider, clock)
    }

    /// Like [`Daemon::open`], but re-reads `config_path` between epochs
    /// and applies operational changes (see [`crate::config`]).
    pub fn open_reloadable(
        config_path: impl Into<PathBuf>,
        provider: Arc<dyn SourceProvider>,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Daemon> {
        let path = config_path.into();
        let (config, hash) = ServeConfig::load(&path)?;
        let mut daemon = Daemon::open_at(config, Some(path), provider, clock)?;
        daemon.config_hash = hash;
        Ok(daemon)
    }

    fn open_at(
        config: ServeConfig,
        config_path: Option<PathBuf>,
        provider: Arc<dyn SourceProvider>,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Daemon> {
        let journal = EpochJournal::open(config.journal_dir(), "serve", config.fsync)?;
        let status = DaemonStatus::new();
        let mut report = RunReport::new(&format!("continuous audit: {}", provider.label()));
        let recovered = journal.recover();
        let resuming = !journal.is_fresh();
        let (next_epoch, resume) = match recovered {
            Resume::Fresh { epoch } => (epoch, None),
            Resume::Survey { epoch, .. } => (epoch, Some(recovered.clone())),
            Resume::Drift { epoch, .. } => (epoch, Some(recovered.clone())),
        };
        if resuming {
            Registry::global()
                .counter("adcomp_serve_resumes_total")
                .inc();
            status.resumes.fetch_add(1, Ordering::AcqRel);
            status.epochs.store(next_epoch, Ordering::Release);
            let how = match &resume {
                None => "between epochs".to_string(),
                Some(Resume::Survey { epoch, .. }) => format!("mid-survey of epoch {epoch}"),
                Some(Resume::Drift { epoch, .. }) => format!("mid-drift of epoch {epoch}"),
                Some(Resume::Fresh { .. }) => unreachable!("fresh resume is None"),
            };
            report.note(format!("resumed {how}; next epoch {next_epoch}"));
            adcomp_obs::info!("serve: resumed {how}");
        }
        let next_due = clock.now();
        Ok(Daemon {
            config,
            config_path,
            config_hash: 0,
            provider,
            journal,
            clock,
            injector: None,
            alert_sinks: Vec::new(),
            telemetry: None,
            status,
            report,
            resume,
            next_epoch,
            next_due,
        })
    }

    /// Installs a chaos fault injector (see [`crate::chaos`]).
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Daemon {
        self.injector = Some(injector);
        self
    }

    /// Adds a drift-alert sink (see [`crate::alert`]). Delivery is
    /// at-least-once: an alert journaled by a previous incarnation but
    /// possibly not delivered is re-delivered when its drift stage is
    /// resumed, so sinks must dedup (the fleet aggregator does, by
    /// `(source, epoch)`).
    pub fn with_alert_sink(mut self, sink: Arc<dyn AlertSink>) -> Daemon {
        self.alert_sinks.push(sink);
        self
    }

    /// Installs a fleet telemetry pusher: after every completed epoch
    /// the daemon pushes a [`Snapshot`] of its own status counters
    /// ([`status_frame`]; never blocking — the pusher's queue drops on
    /// overflow).
    pub fn with_telemetry(mut self, pusher: Arc<TelemetryPusher>) -> Daemon {
        self.telemetry = Some(pusher);
        self
    }

    /// The shared counters the status endpoint serves.
    pub fn status(&self) -> Arc<DaemonStatus> {
        self.status.clone()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The run report accumulated so far (notes, degradations, alerts).
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The lifecycle journal (read access for tests and tools).
    pub fn journal(&self) -> &EpochJournal {
        &self.journal
    }

    fn die_if_armed(&self, point: FaultPoint) -> io::Result<()> {
        if let Some(injector) = &self.injector {
            if injector.should_die(point) {
                return Err(chaos_kill(point));
            }
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.config.max_epochs > 0
            && self.resume.is_none()
            && self.next_epoch >= self.config.max_epochs
    }

    /// Runs at most one epoch lifecycle. Call in a loop; [`Tick::Idle`]
    /// tells the caller how long to sleep.
    pub fn tick(&mut self) -> io::Result<Tick> {
        if self.finished() {
            self.status.healthy.store(false, Ordering::Release);
            return Ok(Tick::Finished);
        }
        let now = self.clock.now();
        if now < self.next_due {
            return Ok(Tick::Idle {
                until: self.next_due,
            });
        }
        // Reload strictly between epochs: a resumed lifecycle finishes
        // under the config it started with.
        if self.resume.is_none() {
            self.maybe_reload();
            if self.finished() {
                self.status.healthy.store(false, Ordering::Release);
                return Ok(Tick::Finished);
            }
        }

        let epoch = self.next_epoch;
        // The epoch's root span: survey (sched → wire → platform) and
        // drift work nests under it, so one epoch is one span tree.
        let _span =
            adcomp_obs::Tracer::global().span_with("serve:epoch", &[("epoch", epoch.to_string())]);
        let resume = self.resume.take();
        let resumed = resume.is_some();
        let (digest, estimates) = match resume {
            Some(Resume::Drift {
                digest, estimates, ..
            }) => (digest, estimates),
            Some(Resume::Survey { epoch, attempt }) => self.survey(epoch, attempt.max(1))?,
            _ => self.survey(epoch, 1)?,
        };

        let alerted = self.drift_stage(epoch, digest)?;
        self.die_if_armed(FaultPoint::BetweenEpochs { epoch })?;

        self.next_epoch = epoch + 1;
        self.next_due = self.clock.now() + Duration::from_millis(self.config.interval_ms);
        self.status.epochs.store(self.next_epoch, Ordering::Release);
        self.status.last_digest.store(digest, Ordering::Release);
        Registry::global()
            .counter("adcomp_serve_epochs_total")
            .inc();
        self.report.note(format!(
            "epoch {epoch}: {estimates} estimates, digest {digest:016x}{}",
            if resumed { " (resumed)" } else { "" }
        ));
        self.push_telemetry();
        Ok(Tick::Completed {
            epoch,
            digest,
            alerted,
            resumed,
        })
    }

    /// Runs epochs until the budget is exhausted, sleeping through idle
    /// gaps. The production entry point; tests drive [`Daemon::tick`].
    pub fn run(&mut self) -> io::Result<()> {
        loop {
            match self.tick()? {
                Tick::Finished => return Ok(()),
                Tick::Completed { .. } => {}
                Tick::Idle { until } => {
                    let now = self.clock.now();
                    if until > now {
                        // Short naps so config edits and signals are
                        // noticed promptly even with long intervals.
                        std::thread::sleep((until - now).min(Duration::from_millis(50)));
                    }
                }
            }
        }
    }

    fn maybe_reload(&mut self) {
        let Some(path) = &self.config_path else {
            return;
        };
        let Ok(bytes) = std::fs::read(path) else {
            return;
        };
        let hash = fnv1a(&bytes);
        if hash == self.config_hash {
            return;
        }
        // One decision per content change, whatever the outcome.
        self.config_hash = hash;
        let text = String::from_utf8_lossy(&bytes);
        let parsed = ServeConfig::parse(&text, self.config.root.clone());
        match parsed {
            Err(e) => {
                adcomp_obs::warn!("serve: config reload rejected (parse error: {e})");
                self.report.note(format!("config reload rejected: {e}"));
            }
            Ok(new) if !self.config.same_identity(&new) => {
                adcomp_obs::warn!(
                    "serve: config reload rejected (identity change); keeping the running audit"
                );
                self.report
                    .note("config reload rejected: identity fields changed".to_string());
            }
            Ok(new) => {
                adcomp_obs::info!(
                    "serve: config reloaded (interval {}ms, retries {}, max_epochs {})",
                    new.interval_ms,
                    new.epoch_retries,
                    new.max_epochs
                );
                self.report.note(format!(
                    "config reloaded: interval {}ms, retries {}, max_epochs {}",
                    new.interval_ms, new.epoch_retries, new.max_epochs
                ));
                self.config = new;
                Registry::global()
                    .counter("adcomp_serve_reloads_total")
                    .inc();
                self.status.reloads.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Pushes this daemon's status counters as one metric frame. Built
    /// from [`DaemonStatus`] rather than the global registry: several
    /// daemons in one process share the registry, but each owns its
    /// status — so per-source fleet series stay per-daemon.
    fn push_telemetry(&self) {
        let Some(pusher) = &self.telemetry else {
            return;
        };
        pusher.push(Telemetry::Metrics(status_frame(&self.status)));
    }

    fn epoch_store(&self, epoch: u64) -> io::Result<Arc<RunStore>> {
        let opts = WalOptions {
            sync: if self.config.fsync {
                SyncPolicy::EveryRecord
            } else {
                SyncPolicy::Never
            },
            ..WalOptions::default()
        };
        Ok(Arc::new(RunStore::open_with(
            self.config.epoch_dir(epoch),
            opts,
        )?))
    }

    /// Survey stage: retries with capped doubling backoff, journals
    /// `Started`/`Degraded`/`Completed`. Returns `(digest, estimates)`.
    fn survey(&mut self, epoch: u64, first_attempt: u32) -> io::Result<(u64, u64)> {
        let mut attempt = first_attempt;
        loop {
            self.journal
                .record(&EpochEvent::Started { epoch, attempt })?;
            let plan = EpochPlan {
                endpoints: self.provider.endpoints(epoch),
                store: self.epoch_store(epoch)?,
                scheduler: SchedulerConfig::fast(),
                resilience: self
                    .config
                    .resilient
                    .then(|| ResilienceConfig::standard(self.config.seed)),
            };
            match run_epoch(&plan) {
                Ok(outcome) => {
                    if !outcome.degraded.is_empty() {
                        let detail = format!(
                            "epoch {epoch} ran on {} of {} endpoints; down: {}",
                            plan.endpoints.len() - outcome.degraded.len(),
                            plan.endpoints.len(),
                            outcome.degraded.join(", ")
                        );
                        self.journal.record(&EpochEvent::Degraded {
                            epoch,
                            detail: detail.clone(),
                        })?;
                        Registry::global()
                            .counter("adcomp_serve_degraded_epochs_total")
                            .inc();
                        self.status.degraded.fetch_add(1, Ordering::AcqRel);
                        self.report.degradation(detail.clone());
                        adcomp_obs::warn!("serve: {detail}");
                    }
                    self.journal.record(&EpochEvent::Completed {
                        epoch,
                        digest: outcome.digest,
                        estimates: outcome.estimates,
                    })?;
                    return Ok((outcome.digest, outcome.estimates));
                }
                Err(e) if attempt - first_attempt < self.config.epoch_retries => {
                    let backoff = Duration::from_millis(
                        self.config
                            .backoff_base_ms
                            .saturating_mul(1 << (attempt - first_attempt).min(20))
                            .min(self.config.backoff_cap_ms),
                    );
                    Registry::global()
                        .counter("adcomp_serve_epoch_retries_total")
                        .inc();
                    adcomp_obs::warn!(
                        "serve: epoch {epoch} attempt {attempt} failed ({e}); retrying in {backoff:?}"
                    );
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => {
                    self.status.healthy.store(false, Ordering::Release);
                    return Err(io::Error::other(format!(
                        "epoch {epoch} failed after {attempt} attempt(s): {e}"
                    )));
                }
            }
        }
    }

    /// Drift stage: diff against the previous epoch, raise (at most
    /// one) alert, journal `DriftChecked`. Returns whether an alert
    /// stands for this epoch.
    fn drift_stage(&mut self, epoch: u64, digest: u64) -> io::Result<bool> {
        self.die_if_armed(FaultPoint::BeforeDrift { epoch })?;
        let (findings, crossings, alerted) = if epoch == 0 {
            (0, 0, false)
        } else {
            let before = RunStore::open(self.config.epoch_dir(epoch - 1))?.snapshot();
            let after = RunStore::open(self.config.epoch_dir(epoch))?.snapshot();
            let options = DriftOptions {
                rounding: self.provider.rounding_rules(),
            };
            let drift = drift_between_with(&before, &after, &options);
            let crossings = drift.ratio_moves.iter().filter(|m| m.crossed()).count() as u32;
            // Crossings whose rounding-slack interval straddles a
            // four-fifths edge. Like `detail`, a pure function of the
            // two epoch stores — recomputed (not journaled) so resumed
            // re-deliveries match the original alert exactly.
            let low_confidence = drift
                .ratio_moves
                .iter()
                .filter(|m| m.crossed() && m.low_confidence())
                .count() as u32;
            let findings = drift.findings() as u32;
            let mut alerted = false;
            if crossings > 0 {
                let detail = format!(
                    "epoch {epoch}: {crossings} four-fifths crossing(s) vs epoch {} \
                     across {findings} drift finding(s); digest {digest:016x}",
                    epoch - 1
                );
                if self.journal.event(epoch, STAGE_ALERT).is_none() {
                    // Alert before DriftChecked: a kill between the two
                    // re-runs this stage, finds the alert journaled, and
                    // does not raise it again.
                    self.journal.record(&EpochEvent::AlertRaised {
                        epoch,
                        crossings,
                        detail: detail.clone(),
                    })?;
                    Registry::global()
                        .counter("adcomp_serve_alerts_total")
                        .inc();
                    self.status.alerts.fetch_add(1, Ordering::AcqRel);
                    self.report.degradation(detail.clone());
                    adcomp_obs::warn!("serve: ALERT {detail}");
                }
                // Fan out on fresh raises AND on resumed drift stages
                // (the journal record may not have left the process
                // before a kill): at-least-once delivery, deduplicated
                // downstream. The detail is a pure function of the
                // epoch's data, so a re-delivery is byte-identical.
                let alert = DriftAlert {
                    epoch,
                    crossings,
                    low_confidence,
                    detail,
                };
                for sink in &self.alert_sinks {
                    sink.deliver(&alert);
                }
                alerted = true;
            }
            (findings, crossings, alerted)
        };
        self.die_if_armed(FaultPoint::DuringDrift { epoch })?;
        self.journal.record(&EpochEvent::DriftChecked {
            epoch,
            findings,
            crossings,
        })?;
        Ok(alerted)
    }
}

/// One daemon's status counters as a pushable snapshot (the
/// per-source state behind the fleet's `adcomp_serve_*` series).
pub fn status_frame(status: &DaemonStatus) -> Snapshot {
    let counter = |name: &str, value: &AtomicU64| {
        let value = MetricValue::Counter(value.load(Ordering::Acquire));
        (MetricKey::new(name, &[]), value)
    };
    let healthy = MetricValue::Gauge(status.healthy.load(Ordering::Acquire) as i64);
    [
        counter("adcomp_serve_epochs_total", &status.epochs),
        counter("adcomp_serve_alerts_total", &status.alerts),
        counter("adcomp_serve_degraded_epochs_total", &status.degraded),
        counter("adcomp_serve_resumes_total", &status.resumes),
        counter("adcomp_serve_reloads_total", &status.reloads),
        (MetricKey::new("adcomp_serve_healthy", &[]), healthy),
    ]
    .into_iter()
    .collect()
}
