//! The observability acceptance path: an audit driven over a hostile
//! wire transport must leave a complete record in the global registry —
//! non-zero retry, rate-limit, and reconnect counters — plus a trace of
//! the phase and a run report that surfaces all of it. Assertions are
//! deltas around the audited stretch, since the registry is
//! process-global.

use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Registry, RunReport, Tracer};
use discrimination_via_composition::audit::{
    survey_individuals, AuditTarget, Layers, ResilienceConfig,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::wire::{
    serve, Client, ClientConfig, FaultPlanHook, ServerConfig,
};
use discrimination_via_composition::RemoteSource;

/// Sum of a labelled counter across every label combination.
fn counter(snap: &adcomp_obs::Snapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    snap.counters()
        .filter(|(k, _)| {
            k.name == name
                && label.is_none_or(|(lk, lv)| k.labels.iter().any(|(a, b)| a == lk && b == lv))
        })
        .map(|(_, v)| *v)
        .sum()
}

#[test]
fn faulty_wire_audit_leaves_full_observability_record() {
    let before = Registry::global().snapshot();

    let sim = Simulation::build(991, SimScale::Test);
    // Deterministic fault mix: transient errors, rate limits with a
    // structured hint, and dropped connections.
    let plan = FaultPlan::new(5)
        .with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 23,
                offset: 4,
            },
        )
        .with(
            FaultKind::RateLimit {
                retry_after: Duration::from_millis(1),
            },
            Schedule::EveryNth {
                period: 29,
                offset: 9,
            },
        )
        .with(
            FaultKind::Drop { mid_frame: false },
            Schedule::EveryNth {
                period: 37,
                offset: 2,
            },
        );
    let faulty = Arc::new(FaultyPlatform::new(sim.linkedin.clone(), plan.clone()));
    let config = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(faulty, "127.0.0.1:0", config).expect("bind");

    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).expect("connect");
    let remote = Arc::new(RemoteSource::new(client).expect("describe"));
    let target = AuditTarget::direct(remote)
        .layered(Layers {
            resilience: Some(ResilienceConfig::standard(991)),
            ..Layers::default()
        })
        .unwrap();

    let survey = {
        let _span = Tracer::global().span("test:obs_survey");
        survey_individuals(&target).expect("survey over faulty wire")
    };
    assert!(!survey.entries.is_empty(), "the audit itself succeeded");
    handle.shutdown();

    let after = Registry::global().snapshot();
    let delta = |name: &str, label: Option<(&str, &str)>| {
        counter(&after, name, label) - counter(&before, name, label)
    };

    // Every layer of the stack reported the turbulence it absorbed.
    assert!(
        delta("adcomp_faults_injected_total", None) > 0,
        "the plan injected faults"
    );
    assert!(
        delta("adcomp_retries_total", None) > 0,
        "the resilience layer retried"
    );
    assert!(
        delta(
            "adcomp_wire_retries_total",
            Some(("reason", "rate_limited"))
        ) > 0,
        "the wire client waited out rate limits"
    );
    assert!(
        delta("adcomp_wire_reconnects_total", None) > 0,
        "dropped connections forced reconnects"
    );
    assert!(
        delta("adcomp_wire_frames_total", None) > 0,
        "wire traffic was counted"
    );
    assert_eq!(
        delta("adcomp_skipped_total", None),
        0,
        "nothing was skipped — every spec was eventually answered"
    );

    // The trace ring covers the phase, and the run report surfaces both
    // the phase and the counters.
    assert!(Tracer::global()
        .span_names()
        .iter()
        .any(|n| n == "test:obs_survey"));
    let text = RunReport::new("obs_integration").render();
    assert!(text.contains("test:obs_survey"));
    assert!(text.contains("adcomp_wire_reconnects_total"));
}
