//! Chaos acceptance: kill the daemon at seeded fault points — mid
//! survey, during the drift diff, between epochs — and prove the run
//! converges to byte-identical results with zero re-issued answered
//! queries and exactly one alert per crossing epoch.

use std::sync::Arc;

use adcomp_core::recording::EpochEvent;
use adcomp_obs::Registry;
use adcomp_platform::{FaultKind, FaultPlan, Schedule};
use adcomp_serve::{
    run_chaos, run_clean, ChaosPlan, EpochJournal, KillPoint, ServeConfig, SimProvider,
};

mod common;

/// Chaos config: fsync everywhere (the guarantees under test are
/// durability guarantees) and no in-process retries (a killed process
/// has no retry budget).
fn chaos_config(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::default_at(root);
    cfg.seed = 2020;
    cfg.max_epochs = 3;
    cfg.interval_ms = 10;
    cfg.epoch_retries = 0;
    cfg.fsync = true;
    cfg
}

/// Noise + monotone drift on epoch 1 only: pushes representation
/// ratios across four-fifths thresholds against the clean epoch 0.
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

fn provider_for(cfg: &ServeConfig) -> Arc<SimProvider> {
    Arc::new(SimProvider::from_config(cfg).with_fault(1, drifting_plan()))
}

#[test]
fn killed_daemon_converges_byte_identically_with_zero_reissued_queries() {
    let alerts_metric = Registry::global().counter("adcomp_serve_alerts_total");
    let resumes_metric = Registry::global().counter("adcomp_serve_resumes_total");

    // ── Baseline: the same three epochs with no kills. ──────────────
    let clean_root = common::temp_dir("clean");
    let clean_cfg = chaos_config(&clean_root);
    let clean_provider = provider_for(&clean_cfg);
    let alerts_before_clean = alerts_metric.get();
    let clean = run_clean(&clean_cfg, clean_provider.clone()).unwrap();
    let clean_alerts_raised = alerts_metric.get() - alerts_before_clean;

    assert_eq!(clean.incarnations, 1);
    assert_eq!(clean.kills, 0);
    assert_eq!(clean.digests.len(), 3);
    assert!(
        clean.alerted_epochs.contains(&1),
        "the drifting epoch must alert: {:?}",
        clean.alerted_epochs
    );
    assert_eq!(clean_alerts_raised, clean.alerted_epochs.len() as u64);
    let clean_answered = clean.answered.expect("sim provider sees the platform");
    assert!(clean_answered > 0);

    // ── Chaos: four kills across three distinct fault-point kinds. ──
    //
    // * mid-survey of the clean epoch 0 (40 answered queries on disk);
    // * mid-survey of the *faulty* epoch 1 — the resumed survey must
    //   continue the fault plan exactly where the dead process left it;
    // * during epoch 1's drift diff, after its AlertRaised is durable
    //   and before its DriftChecked is — the exactly-once-alert window;
    // * between epochs 1 and 2.
    let chaos_root = common::temp_dir("killed");
    let chaos_cfg = chaos_config(&chaos_root);
    let chaos_provider = provider_for(&chaos_cfg);
    let plan = ChaosPlan {
        kills: vec![
            KillPoint::MidSurvey {
                epoch: 0,
                after_queries: 40,
            },
            KillPoint::MidSurvey {
                epoch: 1,
                after_queries: 25,
            },
            KillPoint::DuringDrift { epoch: 1 },
            KillPoint::BetweenEpochs { epoch: 1 },
        ],
    };
    let alerts_before_chaos = alerts_metric.get();
    let resumes_before = resumes_metric.get();
    let chaos = run_chaos(&chaos_cfg, chaos_provider.clone(), &plan).unwrap();
    let chaos_alerts_raised = alerts_metric.get() - alerts_before_chaos;

    assert_eq!(chaos.kills, 4, "every scheduled kill must fire");
    assert_eq!(chaos.incarnations, 5);
    assert!(resumes_metric.get() - resumes_before >= 4);

    // Byte-identical convergence: every epoch's digest matches the
    // clean run's, in order.
    assert_eq!(chaos.digests, clean.digests);

    // Zero re-issued answered queries: the platform answered exactly as
    // many estimates as in the clean run — every query answered before
    // a kill was replayed from disk, never re-sent.
    assert_eq!(chaos.answered, Some(clean_answered));

    // Exactly one alert per crossing epoch, before AND after the kill
    // inside epoch 1's drift stage: the same epochs alerted as in the
    // clean run, and the alert counter moved once per epoch even
    // though the alerting stage ran twice.
    assert_eq!(chaos.alerted_epochs, clean.alerted_epochs);
    assert_eq!(chaos_alerts_raised, clean_alerts_raised);

    // The journal's durable view agrees: one AlertRaised for epoch 1,
    // whose detail survived the restart verbatim.
    let journal = EpochJournal::open(chaos_cfg.journal_dir(), "serve", false).unwrap();
    let alerts: Vec<_> = journal
        .events()
        .into_iter()
        .filter(|e| matches!(e, EpochEvent::AlertRaised { epoch: 1, .. }))
        .collect();
    assert_eq!(alerts.len(), 1);

    std::fs::remove_dir_all(&clean_root).ok();
    std::fs::remove_dir_all(&chaos_root).ok();
}

#[test]
fn chaos_runs_are_reproducible_across_identical_schedules() {
    // The harness itself must be deterministic: two chaos runs with the
    // same seeds and the same kill schedule agree on every digest.
    let plan = ChaosPlan {
        kills: vec![
            KillPoint::MidSurvey {
                epoch: 0,
                after_queries: 10,
            },
            KillPoint::BetweenEpochs { epoch: 0 },
        ],
    };
    let mut digests = Vec::new();
    for tag in ["repro-a", "repro-b"] {
        let root = common::temp_dir(tag);
        let mut cfg = chaos_config(&root);
        cfg.max_epochs = 2;
        // Clean provider: this test may run alongside the alert test,
        // and the global alert counter must not move under it.
        let provider = Arc::new(SimProvider::from_config(&cfg));
        let outcome = run_chaos(&cfg, provider, &plan).unwrap();
        assert_eq!(outcome.kills, 2);
        digests.push(outcome.digests);
        std::fs::remove_dir_all(&root).ok();
    }
    assert_eq!(digests[0], digests[1]);
    // Resumes were counted for the killed incarnations.
    assert!(
        Registry::global()
            .counter("adcomp_serve_resumes_total")
            .get()
            >= 2
    );
}
