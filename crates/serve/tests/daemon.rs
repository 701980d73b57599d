//! Supervisor-loop integration tests: scheduling, config reload,
//! retry/backoff, degraded mode, wire status, and drift alerting.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adcomp_core::source::{EstimateSource, SourceError};
use adcomp_obs::{Clock, ManualClock};
use adcomp_platform::{FaultKind, FaultPlan, Schedule};
use adcomp_serve::{Daemon, ServeConfig, SimProvider, SourceProvider, StatusService, Tick};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};
use adcomp_wire::{serve_service, Client, ClientConfig, ServerConfig};

mod common;

fn fast_config(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::default_at(root);
    cfg.seed = 2020;
    cfg.interval_ms = 1_000;
    cfg.max_epochs = 3;
    cfg.epoch_retries = 1;
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 4;
    cfg.fsync = false; // unit speed; chaos tests exercise fsync
    cfg
}

/// The plan the longitudinal example uses: noisy estimates plus a slow
/// monotone drift, enough to push ~100 ratios across a four-fifths
/// threshold at SimScale::Test.
fn drifting_plan() -> FaultPlan {
    FaultPlan::new(41)
        .with(
            FaultKind::Noise { amplitude: 0.35 },
            Schedule::EveryNth {
                period: 2,
                offset: 0,
            },
        )
        .with(
            FaultKind::Drift { rate: 0.0005 },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        )
}

#[test]
fn daemon_runs_epochs_on_the_injected_clock() {
    let root = common::temp_dir("schedule");
    let cfg = fast_config(&root);
    let provider = Arc::new(SimProvider::from_config(&cfg));
    let clock = Arc::new(ManualClock::new());
    let mut daemon = Daemon::open(cfg, provider, clock.clone()).unwrap();

    // First epoch is due immediately.
    let first = daemon.tick().unwrap();
    let Tick::Completed {
        epoch: 0,
        digest,
        alerted: false,
        resumed: false,
    } = first
    else {
        panic!("unexpected first tick {first:?}");
    };

    // Not due again until the interval passes; Idle tells us when.
    let Tick::Idle { until } = daemon.tick().unwrap() else {
        panic!("expected idle");
    };
    assert!(until >= Duration::from_millis(1_000));
    clock.advance(until - clock.now());

    // Same world, no faults: every epoch digests identically.
    for want in 1..3u64 {
        let tick = daemon.tick().unwrap();
        match tick {
            Tick::Completed {
                epoch,
                digest: d,
                alerted,
                ..
            } => {
                assert_eq!(epoch, want);
                assert_eq!(d, digest, "stable world must digest identically");
                assert!(!alerted);
            }
            other => panic!("unexpected tick {other:?}"),
        }
        clock.advance(Duration::from_millis(1_000));
    }
    assert_eq!(daemon.tick().unwrap(), Tick::Finished);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn config_reload_applies_between_epochs_without_dropping_state() {
    let root = common::temp_dir("reload");
    std::fs::create_dir_all(&root).unwrap();
    let config_file = root.join("serve.conf");
    let base = format!(
        "seed = 2020\nroot = {}\ninterval_ms = 1000\nmax_epochs = 2\nfsync = false\n",
        root.join("data").display()
    );
    std::fs::write(&config_file, &base).unwrap();

    let (cfg, _) = ServeConfig::load(&config_file).unwrap();
    let provider = Arc::new(SimProvider::from_config(&cfg));
    let clock = Arc::new(ManualClock::new());
    let mut daemon = Daemon::open_reloadable(&config_file, provider, clock.clone()).unwrap();

    let Tick::Completed {
        epoch: 0, digest, ..
    } = daemon.tick().unwrap()
    else {
        panic!("expected epoch 0");
    };
    let reloads_before = daemon.status().reloads.load(Ordering::Acquire);

    // Touching operational knobs applies on the next epoch boundary:
    // the interval shrinks and the budget grows, state stays.
    std::fs::write(
        &config_file,
        base.replace("interval_ms = 1000", "interval_ms = 200")
            .replace("max_epochs = 2", "max_epochs = 3"),
    )
    .unwrap();
    clock.advance(Duration::from_millis(1_000));
    let Tick::Completed {
        epoch: 1,
        digest: d1,
        resumed: false,
        ..
    } = daemon.tick().unwrap()
    else {
        panic!("expected epoch 1");
    };
    assert_eq!(d1, digest, "reload must not change what is audited");
    assert_eq!(daemon.config().interval_ms, 200);
    assert_eq!(daemon.config().max_epochs, 3);
    assert_eq!(
        daemon.status().reloads.load(Ordering::Acquire),
        reloads_before + 1
    );
    let Tick::Idle { until } = daemon.tick().unwrap() else {
        panic!("expected idle");
    };
    assert!(
        until - clock.now() <= Duration::from_millis(200),
        "new interval must schedule the next epoch"
    );

    // An identity change is rejected: the audit keeps its world.
    std::fs::write(&config_file, base.replace("seed = 2020", "seed = 7")).unwrap();
    clock.advance(Duration::from_millis(200));
    let Tick::Completed {
        epoch: 2,
        digest: d2,
        ..
    } = daemon.tick().unwrap()
    else {
        panic!("expected epoch 2");
    };
    assert_eq!(d2, digest, "identity reload must be refused");
    assert_eq!(daemon.config().seed, 2020);
    // The rejected reload still counts as a decision, not an apply.
    assert_eq!(
        daemon.status().reloads.load(Ordering::Acquire),
        reloads_before + 1
    );
    // max_epochs snapped back to 2 was rejected wholesale with the
    // seed change, so the budget of 3 from the applied reload stands.
    assert_eq!(daemon.tick().unwrap(), Tick::Finished);
    std::fs::remove_dir_all(&root).ok();
}

/// An endpoint whose health probe fails a fixed number of times before
/// recovering — the shape of a replica rebooting during an epoch start.
struct FlakyCheck {
    inner: Arc<dyn EstimateSource>,
    failures: AtomicU32,
}

impl EstimateSource for FlakyCheck {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs.iter().map(|s| self.inner.estimate(s)).collect()
    }
    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        let left = self.failures.load(Ordering::Acquire);
        if left > 0 {
            self.failures.store(left - 1, Ordering::Release);
            return Err(SourceError::Transport("endpoint rebooting".into()));
        }
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

struct FlakyProvider {
    inner: SimProvider,
    failures: u32,
    flaky: std::sync::Mutex<Option<Arc<FlakyCheck>>>,
}

impl SourceProvider for FlakyProvider {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn endpoints(&self, epoch: u64) -> Vec<Arc<dyn EstimateSource>> {
        let mut slot = self.flaky.lock().unwrap();
        let flaky = slot
            .get_or_insert_with(|| {
                Arc::new(FlakyCheck {
                    inner: self.inner.endpoints(epoch).remove(0),
                    failures: AtomicU32::new(self.failures),
                })
            })
            .clone();
        vec![flaky]
    }
}

#[test]
fn failed_epoch_retries_with_backoff_and_journals_the_attempt() {
    let root = common::temp_dir("retry");
    let mut cfg = fast_config(&root);
    cfg.max_epochs = 1;
    cfg.epoch_retries = 2;
    let provider = Arc::new(FlakyProvider {
        inner: SimProvider::from_config(&cfg),
        failures: 1, // attempt 1's probe fails; attempt 2 recovers
        flaky: std::sync::Mutex::new(None),
    });
    let retries = adcomp_obs::Registry::global().counter("adcomp_serve_epoch_retries_total");
    let before = retries.get();

    let mut daemon = Daemon::open(cfg, provider, Arc::new(ManualClock::new())).unwrap();
    let Tick::Completed { epoch: 0, .. } = daemon.tick().unwrap() else {
        panic!("epoch should complete on the retry");
    };
    assert_eq!(retries.get(), before + 1);
    // The journal holds the *second* attempt: the retry overwrote the
    // first Started record in the latest-wins view.
    assert!(matches!(
        daemon.journal().event(0, 1),
        Some(adcomp_core::EpochEvent::Started { attempt: 2, .. })
    ));
    std::fs::remove_dir_all(&root).ok();
}

/// Two replicas, one permanently unreachable: the epoch must complete
/// degraded on the survivor and record exactly what a clean
/// single-replica epoch records.
struct HalfDeadProvider {
    inner: SimProvider,
}

struct DeadCheck {
    inner: Arc<dyn EstimateSource>,
}

impl EstimateSource for DeadCheck {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs
            .iter()
            .map(|_| Err(SourceError::Transport("unreachable".into())))
            .collect()
    }
    fn check(&self, _: &TargetingSpec) -> Result<(), SourceError> {
        Err(SourceError::Transport("unreachable".into()))
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

impl SourceProvider for HalfDeadProvider {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn endpoints(&self, epoch: u64) -> Vec<Arc<dyn EstimateSource>> {
        let healthy = self.inner.endpoints(epoch).remove(0);
        vec![
            Arc::new(DeadCheck {
                inner: healthy.clone(),
            }),
            healthy,
        ]
    }
}

#[test]
fn dead_replica_degrades_the_epoch_but_not_the_results() {
    let root_half = common::temp_dir("degraded-half");
    let root_clean = common::temp_dir("degraded-clean");
    let mut cfg_half = fast_config(&root_half);
    cfg_half.max_epochs = 1;
    let mut cfg_clean = fast_config(&root_clean);
    cfg_clean.max_epochs = 1;

    let provider = Arc::new(HalfDeadProvider {
        inner: SimProvider::from_config(&cfg_half),
    });
    let mut daemon = Daemon::open(cfg_half, provider, Arc::new(ManualClock::new())).unwrap();
    let Tick::Completed { digest, .. } = daemon.tick().unwrap() else {
        panic!("degraded epoch should still complete");
    };
    assert_eq!(daemon.status().degraded.load(Ordering::Acquire), 1);
    assert!(daemon.report().degraded());
    assert!(matches!(
        daemon.journal().event(0, 5),
        Some(adcomp_core::EpochEvent::Degraded { .. })
    ));

    let clean = Arc::new(SimProvider::from_config(&cfg_clean));
    let mut clean_daemon = Daemon::open(cfg_clean, clean, Arc::new(ManualClock::new())).unwrap();
    let Tick::Completed {
        digest: clean_digest,
        ..
    } = clean_daemon.tick().unwrap()
    else {
        panic!("clean epoch");
    };
    assert_eq!(
        digest, clean_digest,
        "running on the survivor must record identical estimates"
    );
    std::fs::remove_dir_all(&root_half).ok();
    std::fs::remove_dir_all(&root_clean).ok();
}

#[test]
fn status_endpoint_serves_live_counters_over_the_wire() {
    let root = common::temp_dir("status");
    let mut cfg = fast_config(&root);
    cfg.max_epochs = 2;
    let provider = Arc::new(SimProvider::from_config(&cfg));
    let clock = Arc::new(ManualClock::new());
    let mut daemon = Daemon::open(cfg, provider, clock.clone()).unwrap();

    let service = Arc::new(StatusService::new(daemon.status(), "LinkedIn"));
    let handle = serve_service(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();

    let (healthy, body) = client.status().unwrap();
    assert!(healthy);
    assert!(body.contains("epochs=0"), "{body}");

    daemon.tick().unwrap();
    let (healthy, body) = client.status().unwrap();
    assert!(healthy);
    assert!(body.contains("epochs=1"), "{body}");

    clock.advance(Duration::from_millis(1_000));
    daemon.tick().unwrap();
    assert_eq!(daemon.tick().unwrap(), Tick::Finished);
    let (healthy, body) = client.status().unwrap();
    assert!(!healthy, "a finished daemon is not healthy: {body}");
    assert!(body.contains("epochs=2"), "{body}");
    handle.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn four_fifths_crossing_raises_exactly_one_alert() {
    let root = common::temp_dir("alert");
    let mut cfg = fast_config(&root);
    cfg.max_epochs = 3;
    // Epoch 1 is served through a noisy, drifting platform; epochs 0
    // and 2 are clean. Exactly one alert: 0→1 crosses. (1→2 crosses
    // back — also alertable — so assert per-epoch, not just totals.)
    let provider = Arc::new(SimProvider::from_config(&cfg).with_fault(1, drifting_plan()));
    let clock = Arc::new(ManualClock::new());
    let mut daemon = Daemon::open(cfg, provider, clock.clone()).unwrap();

    let Tick::Completed {
        epoch: 0,
        alerted: false,
        ..
    } = daemon.tick().unwrap()
    else {
        panic!("epoch 0 should be quiet");
    };
    clock.advance(Duration::from_millis(1_000));
    let Tick::Completed {
        epoch: 1,
        alerted: true,
        ..
    } = daemon.tick().unwrap()
    else {
        panic!("epoch 1 must alert");
    };
    assert_eq!(daemon.status().alerts.load(Ordering::Acquire), 1);
    let Some(adcomp_core::EpochEvent::AlertRaised {
        epoch: 1,
        crossings,
        ..
    }) = daemon.journal().event(1, 4)
    else {
        panic!("alert must be journaled");
    };
    assert!(crossings > 0);
    assert!(daemon.journal().event(0, 4).is_none());
    std::fs::remove_dir_all(&root).ok();
}
