//! Deterministic replay: a recorded run reproduces its results
//! byte-for-byte with the platform layer fully detached — the offline
//! analogue of re-running the paper's analysis over saved crawl data
//! instead of re-crawling the platforms.

use std::sync::Arc;
use std::time::Duration;

use discrimination_via_composition::audit::experiments::table1::{table1, table1_tsv};
use discrimination_via_composition::audit::experiments::{ExperimentConfig, ExperimentContext};
use discrimination_via_composition::audit::{
    median_pairwise_overlap, rank_individuals, survey_individuals, top_compositions, union_recall,
    AuditTarget, DegradationPolicy, Direction, DiscoveryConfig, ResilienceConfig, Selector,
    SensitiveClass,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, RetryPolicy, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::store::RunStore;
use discrimination_via_composition::targeting::TargetingSpec;
use discrimination_via_composition::wire::{
    serve, Client, ClientConfig, CountingHook, FaultPlanHook, ServerConfig,
};
use discrimination_via_composition::RemoteSource;

mod common;

fn platform_queries(sim: &Simulation) -> u64 {
    sim.facebook.stats().estimates
        + sim.facebook_restricted.stats().estimates
        + sim.google.stats().estimates
        + sim.linkedin.stats().estimates
}

#[test]
fn recorded_table1_replays_byte_identically_offline() {
    let dir = common::temp_dir("table1");
    let config = ExperimentConfig::test(7);

    // Record a complete Table-1 run.
    let store = Arc::new(RunStore::open(&dir).unwrap());
    let ctx = ExperimentContext::recorded(config, store.clone());
    let recorded_tsv = table1_tsv(&table1(&ctx).unwrap());
    store.sync().unwrap();
    drop(ctx);
    drop(store);

    // Replay it: targets are reconstructed purely from the store, and
    // the simulation this context owns is never consulted.
    let store = Arc::new(RunStore::open(&dir).unwrap());
    let ctx = ExperimentContext::replayed(config, store.clone());
    let replayed_tsv = table1_tsv(&table1(&ctx).unwrap());

    assert_eq!(
        replayed_tsv, recorded_tsv,
        "replayed Table 1 must be byte-identical to the recorded run"
    );
    assert_eq!(
        platform_queries(&ctx.simulation),
        0,
        "replay must never touch the platform layer"
    );
    assert_eq!(store.stats().appends, 0, "replay never writes the store");

    std::fs::remove_dir_all(&dir).ok();
}

/// The Table-1 metrics for one favoured population, computed with
/// explicit targets so the wire-recorded run and the offline replay use
/// byte-identical code paths (mirrors `tests/fault_path.rs`).
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

/// Metric-neutral faults only (transients, rate limits, dropped
/// connections) — the resilience layer must absorb them, so the recorded
/// answers stay identical to an in-process run.
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
fn faulty_wire_run_replays_after_the_platform_is_torn_down() {
    let dir = common::temp_dir("wire");
    let sim = Simulation::build(616, SimScale::Test);

    // Record a survey plus Table-1 metrics through a faulty wire
    // transport, recorder outermost so the store holds the final
    // post-resilience answers.
    let plan = lossy_plan(5);
    let faulty = Arc::new(FaultyPlatform::new(sim.linkedin.clone(), plan.clone()));
    let hook = Arc::new(CountingHook::new(FaultPlanHook(plan)));
    let server = ServerConfig::default().with_fault_hook(hook.clone());
    let handle = serve(faulty.clone(), "127.0.0.1:0", server).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let remote = Arc::new(RemoteSource::new(client).unwrap());
    let resilience = ResilienceConfig {
        retry: RetryPolicy::fast(8),
        degradation: DegradationPolicy::Abort,
    };
    let store = Arc::new(RunStore::open(&dir).unwrap());
    let target = AuditTarget::direct(remote)
        .with_resilience(resilience)
        .with_recording(store.clone())
        .unwrap();

    let recorded_survey = survey_individuals(&target).unwrap();
    let recorded_metrics = table1_metrics(&target);
    assert!(
        faulty.injected().total() > 0 && hook.fired() > 0,
        "the plan must actually have fired (otherwise this test proves nothing)"
    );
    store.sync().unwrap();
    drop(target);
    drop(store);

    // Tear the platform down completely: server gone, simulation gone.
    handle.shutdown();
    drop(sim);

    // Offline replay from the store alone reproduces the survey and the
    // Table-1 metrics byte-for-byte.
    let store = Arc::new(RunStore::open(&dir).unwrap());
    let replay = AuditTarget::from_replay(&store, "LinkedIn").unwrap();
    let replayed_survey = survey_individuals(&replay).unwrap();
    let replayed_metrics = table1_metrics(&replay);

    assert_eq!(replayed_survey.entries, recorded_survey.entries);
    assert_eq!(replayed_survey.base, recorded_survey.base);
    assert_eq!(
        replayed_metrics, recorded_metrics,
        "offline replay must reproduce the Table-1 metrics exactly"
    );

    // And the faults never leaked into the record: the replay matches a
    // clean in-process run of the same simulation seed.
    let clean_sim = Simulation::build(616, SimScale::Test);
    let clean_target = AuditTarget::for_platform(&clean_sim.linkedin, &clean_sim);
    let clean = survey_individuals(&clean_target).unwrap();
    assert_eq!(replayed_survey.entries, clean.entries);

    std::fs::remove_dir_all(&dir).ok();
}
