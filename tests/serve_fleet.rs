//! The audit daemon over a *real* wire fleet: epochs are surveyed
//! through `RemoteSource` clients against wire servers, one replica is
//! killed between epochs, and the daemon must degrade — survivors carry
//! the epoch, the degradation is journaled and reported — while the
//! results stay byte-identical to a purely local run of the same world.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use adcomp_obs::{Clock, ManualClock};

use discrimination_via_composition::audit::recording::EpochEvent;
use discrimination_via_composition::audit::EstimateSource;
use discrimination_via_composition::platform::{InterfaceKind, Simulation};
use discrimination_via_composition::serve::{
    run_clean, Daemon, ServeConfig, SimProvider, SourceProvider, Tick,
};
use discrimination_via_composition::Fleet;

mod common;

fn fleet_config(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::default_at(root);
    cfg.seed = 2020;
    cfg.max_epochs = 2;
    cfg.interval_ms = 10;
    cfg.epoch_retries = 0;
    cfg.fsync = false;
    cfg.resilient = false;
    cfg.replicas = 2;
    cfg
}

/// A [`SourceProvider`] whose endpoints are wire clients into a
/// [`Fleet`] — the daemon audits over TCP exactly as it would audit a
/// load-balanced ads API, and never learns the platform is simulated.
struct FleetProvider {
    fleet: Arc<Fleet>,
    kind: InterfaceKind,
}

impl SourceProvider for FleetProvider {
    fn label(&self) -> String {
        self.kind.label().to_string()
    }

    fn endpoints(&self, _epoch: u64) -> Vec<Arc<dyn EstimateSource>> {
        self.fleet.endpoints(self.kind)
    }
}

#[test]
fn fleet_backed_daemon_degrades_on_replica_kill_with_identical_results() {
    // ── Local baseline: same seed, same world, no wire. ─────────────
    let local_root = common::temp_dir("local");
    let local_cfg = fleet_config(&local_root);
    let baseline = run_clean(&local_cfg, Arc::new(SimProvider::from_config(&local_cfg))).unwrap();
    assert_eq!(baseline.digests.len(), 2);

    // ── Fleet run: two wire replicas, one killed between epochs. ────
    let fleet_root = common::temp_dir("wire");
    let cfg = fleet_config(&fleet_root);
    let sim = Simulation::build(cfg.seed, cfg.scale);
    let fleet = Arc::new(Fleet::launch(&sim, 2).unwrap());
    let provider = Arc::new(FleetProvider {
        fleet: fleet.clone(),
        kind: cfg.interface,
    });

    let clock = Arc::new(ManualClock::new());
    let mut daemon = Daemon::open(cfg.clone(), provider, clock.clone()).unwrap();
    let mut digests = Vec::new();
    loop {
        match daemon.tick().unwrap() {
            Tick::Completed { epoch, digest, .. } => {
                digests.push(digest);
                if epoch == 0 {
                    // Both replicas answered epoch 0; replica 1 dies
                    // before epoch 1 starts.
                    fleet.kill(cfg.interface, 1);
                }
            }
            Tick::Idle { until } => {
                let now = clock.now();
                if until > now {
                    clock.advance(until - now);
                }
            }
            Tick::Finished => break,
        }
    }

    // Byte-identical to the local run, wire and kill notwithstanding.
    assert_eq!(digests, baseline.digests);

    // Epoch 1 ran degraded — the status counter moved once, the report
    // noted it, and the journal holds a durable Degraded record for
    // epoch 1 and none for epoch 0.
    assert_eq!(daemon.status().degraded.load(Ordering::Acquire), 1);
    assert!(daemon.report().degraded());
    let degraded: Vec<u64> = daemon
        .journal()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            EpochEvent::Degraded { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    assert_eq!(degraded, vec![1]);

    fleet.shutdown();
    std::fs::remove_dir_all(&local_root).ok();
    std::fs::remove_dir_all(&fleet_root).ok();
}
