//! End-to-end resilience: the audit must measure *exactly* the same
//! numbers through a flaky wire transport as it does in-process, and a
//! killed probe must resume from its checkpoint without re-issuing the
//! queries it already answered — the properties that make a multi-day
//! audit of a real platform feasible.

use std::sync::Arc;
use std::time::Duration;

use discrimination_via_composition::audit::{
    median_pairwise_overlap, rank_individuals, survey_individuals, top_compositions, union_recall,
    AuditTarget, Direction, DiscoveryConfig, GranularityProbe, Layers, ProbeCheckpoint,
    ResilienceConfig, Selector, SensitiveClass, SourceError,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, RetryPolicy, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::targeting::TargetingSpec;
use discrimination_via_composition::wire::{
    serve, ClientConfig, CountingHook, FaultPlanHook, ServerConfig,
};
use discrimination_via_composition::RemoteSource;

/// The Table-1 metrics for one favoured population: median pairwise
/// overlap of the top compositions, top-1 recall, top-k union recall,
/// and the favoured population size. Mirrors `table1_cell` with explicit
/// targets so local and remote runs use byte-identical code paths.
#[derive(Debug, PartialEq)]
struct CellMetrics {
    median_overlap: Option<f64>,
    top1_recall: u64,
    union_recall: u64,
    population: u64,
}

fn table1_metrics(target: &AuditTarget) -> CellMetrics {
    let favoured = Selector::Class(SensitiveClass::Gender(Gender::Male));
    let class = SensitiveClass::Gender(Gender::Male);
    let cfg = DiscoveryConfig {
        top_k: 15,
        ..DiscoveryConfig::default()
    };

    let survey = survey_individuals(target).unwrap();
    let ranked = rank_individuals(&survey, class, Direction::Toward, cfg.min_reach);
    let compositions = top_compositions(target, &survey, &ranked, &cfg).unwrap();
    let specs: Vec<TargetingSpec> = compositions.iter().map(|c| c.spec.clone()).collect();

    let median_overlap =
        median_pairwise_overlap(target, &specs, favoured, 8.min(specs.len())).unwrap();
    let population = target
        .selector_estimate(&TargetingSpec::everyone(), favoured)
        .unwrap();
    let top1_recall = target.selector_estimate(&specs[0], favoured).unwrap();
    let top = &specs[..specs.len().min(5)];
    let union = union_recall(target, top, favoured, top.len()).unwrap();

    CellMetrics {
        median_overlap,
        top1_recall,
        union_recall: union.recall,
        population,
    }
}

/// A deterministic plan mixing every metric-neutral fault: transient
/// server errors, rate-limit rejections with a structured hint, and
/// dropped connections. (Noise/drift faults are deliberately absent —
/// they *should* change the numbers.)
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 31,
                offset: 7,
            },
        )
        .with(
            FaultKind::RateLimit {
                retry_after: Duration::from_millis(2),
            },
            Schedule::EveryNth {
                period: 41,
                offset: 3,
            },
        )
        .with(
            FaultKind::Drop { mid_frame: false },
            Schedule::EveryNth {
                period: 53,
                offset: 11,
            },
        )
}

#[test]
fn faulty_wire_audit_matches_fault_free_metrics() {
    let sim = Simulation::build(771, SimScale::Test);

    // Fault-free baseline, in-process.
    let local = AuditTarget::for_platform(&sim.linkedin, &sim);
    let baseline = table1_metrics(&local);

    // The same audit through a wire transport that injects transient
    // errors and rate limits at the platform and drops connections at
    // the transport, with the resilient client stack in front.
    let plan = lossy_plan(9);
    let faulty = Arc::new(FaultyPlatform::new(sim.linkedin.clone(), plan.clone()));
    let hook = Arc::new(CountingHook::new(FaultPlanHook(plan)));
    let config = ServerConfig::default().with_fault_hook(hook.clone());
    let handle = serve(faulty.clone(), "127.0.0.1:0", config).unwrap();
    let client = discrimination_via_composition::wire::Client::connect_with(
        handle.addr(),
        ClientConfig::fast(),
    )
    .unwrap();
    let remote = Arc::new(RemoteSource::new(client).unwrap());
    let resilience = ResilienceConfig {
        retry: RetryPolicy::fast(8),
        degradation: discrimination_via_composition::audit::DegradationPolicy::Abort,
    };
    let target = AuditTarget::direct(remote)
        .layered(Layers {
            resilience: Some(resilience),
            ..Layers::default()
        })
        .unwrap();
    let measured = table1_metrics(&target);

    assert_eq!(
        measured, baseline,
        "faults must never change what the audit measures"
    );
    assert!(
        faulty.injected().total() > 0 && hook.fired() > 0,
        "the plan must actually have fired (otherwise this test proves nothing)"
    );
    handle.shutdown();
}

#[test]
fn killed_probe_resumes_without_reissuing_answered_queries() {
    const SEED: u64 = 402;
    const QUERIES: usize = 60;

    // Clean reference run over its own identical simulation, so its
    // query counters are not polluted by the faulty run.
    let clean_sim = Simulation::build(772, SimScale::Test);
    let clean_handle = serve(
        clean_sim.linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let clean_remote = Arc::new(RemoteSource::connect(clean_handle.addr()).unwrap());
    let clean_target = AuditTarget::direct(clean_remote);
    let mut clean_probe = GranularityProbe::new(SEED, QUERIES);
    let clean_report = clean_probe.run(&clean_target).unwrap();
    let clean_estimates = clean_sim.linkedin.stats().estimates;
    clean_handle.shutdown();

    // Faulty run: the connection is dropped once, mid-probe. The client
    // retries nothing (RetryPolicy::none), so the kill surfaces as a
    // transport error and the probe checkpoints where it stood.
    let sim = Simulation::build(772, SimScale::Test);
    let plan = FaultPlan::new(1).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::Once { at: 25 },
    );
    let config = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", config).unwrap();

    let dir = std::env::temp_dir().join(format!("adcomp-fault-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.ckpt");

    let brittle = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::fast()
    };
    let client =
        discrimination_via_composition::wire::Client::connect_with(handle.addr(), brittle).unwrap();
    let remote = Arc::new(RemoteSource::new(client).unwrap());
    let target = AuditTarget::direct(remote);
    let mut probe = GranularityProbe::new(SEED, QUERIES);
    let err = probe.run_checkpointed(&target, &path, 10).unwrap_err();
    assert!(
        matches!(err, SourceError::Transport(_)),
        "kill must surface as transport: {err}"
    );
    assert!(!probe.completed());
    let answered_before_kill = probe.observations().len() as u64;
    drop(probe);
    drop(target);

    // "Crash" over: a fresh process loads the checkpoint with a fresh
    // (now resilient) client and finishes the probe.
    let checkpoint = ProbeCheckpoint::load(&path).unwrap();
    assert_eq!(checkpoint.observations.len() as u64, answered_before_kill);
    let client = discrimination_via_composition::wire::Client::connect_with(
        handle.addr(),
        ClientConfig::fast(),
    )
    .unwrap();
    let remote = Arc::new(RemoteSource::new(client).unwrap());
    let target = AuditTarget::direct(remote);
    let mut resumed = GranularityProbe::resume(checkpoint);
    let report = resumed.run_checkpointed(&target, &path, 10).unwrap();

    assert_eq!(
        report, clean_report,
        "resumed probe must reproduce the clean run exactly"
    );
    // The decisive count: across kill and resume the platform answered
    // exactly as many estimate queries as the uninterrupted run issued —
    // nothing answered before the kill was ever asked again (the dropped
    // request itself never reached the platform).
    assert_eq!(sim.linkedin.stats().estimates, clean_estimates);

    std::fs::remove_dir_all(&dir).ok();
    handle.shutdown();
}
