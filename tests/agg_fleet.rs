//! Fleet telemetry acceptance: three audit daemons push metrics and
//! drift alerts into one aggregator over the wire, and the merged view
//! must be exact — fleet counters equal the sum of per-daemon counters,
//! alerts land exactly once per `(source, epoch)` even when a daemon is
//! killed mid-drift and re-delivers on resume, and the audit digests
//! stay byte-identical to a telemetry-free run of the same world.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Clock, ManualClock};
use discrimination_via_composition::agg::{
    AggService, Aggregator, PusherConfig, Scrape, TelemetryPusher,
};
use discrimination_via_composition::platform::{FaultKind, FaultPlan, Schedule};
use discrimination_via_composition::serve::{
    run_clean, Daemon, FaultInjector, FaultPoint, PushAlertSink, ServeConfig, SimProvider, Tick,
    CHAOS_KILL,
};
use discrimination_via_composition::wire::{serve_service, ServerConfig};

mod common;

fn daemon_config(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::default_at(root);
    cfg.seed = 2020;
    cfg.max_epochs = 3;
    cfg.interval_ms = 10;
    cfg.epoch_retries = 0;
    cfg.fsync = false;
    cfg.resilient = false;
    cfg
}

/// Noise plus drift at epoch 1: enough four-fifths crossings for every
/// daemon to raise an alert (same plan the serve-crate tests use).
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

fn provider(cfg: &ServeConfig) -> Arc<SimProvider> {
    Arc::new(SimProvider::from_config(cfg).with_fault(1, drifting_plan()))
}

/// Kills the daemon once, during the drift stage of epoch 1 — after the
/// alert is journaled and pushed, before `DriftChecked` lands. The
/// resumed incarnation re-runs the stage and re-delivers the alert.
struct KillDuringDrift {
    armed: AtomicBool,
}

impl FaultInjector for KillDuringDrift {
    fn should_die(&self, point: FaultPoint) -> bool {
        matches!(point, FaultPoint::DuringDrift { epoch: 1 })
            && self.armed.swap(false, Ordering::AcqRel)
    }
}

/// Drives a daemon to completion on its manual clock, returning the
/// per-epoch digests. Panics on any error other than a chaos kill.
fn drive(daemon: &mut Daemon, clock: &Arc<ManualClock>) -> Result<Vec<u64>, String> {
    let mut digests = Vec::new();
    loop {
        match daemon.tick() {
            Ok(Tick::Completed { digest, .. }) => digests.push(digest),
            Ok(Tick::Idle { until }) => {
                let now = clock.now();
                if until > now {
                    clock.advance(until - now);
                }
            }
            Ok(Tick::Finished) => return Ok(digests),
            Err(e) if e.to_string().contains(CHAOS_KILL) => return Err(e.to_string()),
            Err(e) => panic!("daemon failed: {e}"),
        }
    }
}

#[test]
fn three_daemons_converge_on_one_aggregator_with_exactly_once_alerts() {
    // ── Baseline: same world, telemetry never attached. ─────────────
    let baseline_root = common::temp_dir("baseline");
    let baseline_cfg = daemon_config(&baseline_root);
    let baseline = run_clean(&baseline_cfg, provider(&baseline_cfg)).unwrap();
    assert_eq!(baseline.digests.len(), 3);
    assert!(
        baseline.alerted_epochs.contains(&1),
        "the drifting plan must alert at epoch 1: {:?}",
        baseline.alerted_epochs
    );

    // ── The aggregator, served over real TCP. ───────────────────────
    let agg = Arc::new(Aggregator::new());
    let handle = serve_service(
        Arc::new(AggService::new(agg.clone())),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind aggregator");
    let agg_addr = handle.addr().to_string();

    // ── Three daemons, each its own journal root and pusher. ────────
    let mut roots = Vec::new();
    let mut pushers: Vec<Arc<TelemetryPusher>> = Vec::new();
    let mut statuses = Vec::new();
    for i in 0..3usize {
        let source = format!("serve-{i}");
        let root = common::temp_dir(&source);
        let cfg = daemon_config(&root);
        let pusher = Arc::new(TelemetryPusher::start(PusherConfig::new(
            agg_addr.clone(),
            source.clone(),
        )));
        let clock = Arc::new(ManualClock::new());
        let mut daemon = Daemon::open(cfg.clone(), provider(&cfg), clock.clone())
            .unwrap()
            .with_telemetry(pusher.clone())
            .with_alert_sink(Arc::new(PushAlertSink::new(pusher.clone())));
        let digests = if i == 0 {
            // Daemon 0 dies mid-drift at epoch 1 (alert already pushed)
            // and resumes: the aggregator sees the alert twice.
            daemon = daemon.with_injector(Arc::new(KillDuringDrift {
                armed: AtomicBool::new(true),
            }));
            let killed = drive(&mut daemon, &clock);
            assert!(killed.is_err(), "injector must kill daemon 0");
            drop(daemon);
            let mut revived = Daemon::open(cfg.clone(), provider(&cfg), clock.clone())
                .unwrap()
                .with_telemetry(pusher.clone())
                .with_alert_sink(Arc::new(PushAlertSink::new(pusher.clone())));
            // Epoch 0 completed pre-kill and lives in the journal; the
            // revived incarnation reports epochs 1 and 2.
            let digests = drive(&mut revived, &clock).expect("revived daemon finishes");
            statuses.push(revived.status());
            digests
        } else {
            let digests = drive(&mut daemon, &clock).expect("daemon finishes");
            statuses.push(daemon.status());
            digests
        };
        // Every epoch a daemon *completed* digests identically to the
        // baseline (daemon 0's pre-kill epochs live in its journal).
        for (idx, d) in digests.iter().enumerate() {
            let epoch = baseline.digests.len() - digests.len() + idx;
            assert_eq!(
                *d, baseline.digests[epoch],
                "{source}: epoch {epoch} digest differs from telemetry-free baseline"
            );
        }
        roots.push(root);
        pushers.push(pusher);
    }

    // Everything queued must land before we read the merged view.
    for pusher in &pushers {
        assert!(
            pusher.flush(Duration::from_secs(10)),
            "pusher drained before deadline"
        );
    }

    // ── Fleet counters are the sum of the per-daemon counters. ──────
    let mut sources = agg.sources();
    sources.sort();
    assert_eq!(sources, vec!["serve-0", "serve-1", "serve-2"]);
    let fleet = agg.fleet();
    let fleet_epochs = fleet.counter("adcomp_serve_epochs_total");
    let sum_epochs: u64 = statuses
        .iter()
        .map(|s| s.epochs.load(Ordering::Acquire))
        .sum();
    assert_eq!(fleet_epochs, sum_epochs, "fleet epochs = Σ per-daemon");
    assert_eq!(fleet_epochs, 9, "three daemons × three epochs");
    let fleet_alerts = fleet.counter("adcomp_serve_alerts_total");
    let sum_alerts: u64 = statuses
        .iter()
        .map(|s| s.alerts.load(Ordering::Acquire))
        .sum();
    assert_eq!(fleet_alerts, sum_alerts, "fleet alerts = Σ per-daemon");

    // ── Alerts: exactly once per (source, epoch), dedup visible. ────
    let alerts = agg.alerts();
    let mut seen = std::collections::BTreeSet::new();
    for a in &alerts {
        assert!(
            seen.insert((a.source.clone(), a.epoch)),
            "duplicate alert escaped dedup: {}@{}",
            a.source,
            a.epoch
        );
    }
    for i in 0..3 {
        assert!(
            seen.contains(&(format!("serve-{i}"), 1)),
            "serve-{i} epoch-1 alert observed: {alerts:?}"
        );
    }
    // Daemon 0 delivered its epoch-1 alert at least twice (kill+resume)
    // and the aggregator counted the surplus.
    let scrape = Scrape::parse(&agg.render_prometheus());
    let dups = scrape
        .value("adcomp_agg_duplicate_alerts_total")
        .unwrap_or(0.0);
    assert!(
        dups >= 1.0,
        "resumed drift stage re-delivered the alert (dups={dups})"
    );

    handle.shutdown();
    for pusher in pushers {
        drop(pusher);
    }
    std::fs::remove_dir_all(&baseline_root).ok();
    for root in roots {
        std::fs::remove_dir_all(&root).ok();
    }
}
