//! The uncertainty table must be execution-mode-invisible (ISSUE 10
//! acceptance): the scenario-family table — bootstrap replicates
//! included — must be byte-identical whether it runs serially,
//! scheduled over in-process replicas, or recorded-then-resumed after a
//! coordinator kill, with zero answered queries re-issued (proven by
//! platform-side counters). On top of that, the verdicts must be
//! *right*: oracle attributes reduce every confident verdict to its
//! point band, the loaded job ad's delivery sits confidently under the
//! four-fifths line, and a high-error observation channel degrades the
//! delivery verdict to `Indeterminate` rather than silently calling it
//! clean.

use std::sync::{Arc, Mutex};

use discrimination_via_composition::audit::experiments::uncertainty_exp::{
    scenario_family, uncertainty_cells, uncertainty_table_with, uncertainty_tsv, Scenario, Stage,
    UncertaintyConfig,
};
use discrimination_via_composition::audit::experiments::{
    EndpointSetFactory, ExperimentConfig, ExperimentContext,
};
use discrimination_via_composition::audit::{EstimateSource, SchedulerConfig, SkewBand};
use discrimination_via_composition::infer::RatioVerdict;
use discrimination_via_composition::platform::{AdPlatform, Simulation};
use discrimination_via_composition::population::AttributeInference;
use discrimination_via_composition::store::RunStore;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("adcomp-unc-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Four in-process replicas of each interface of `sim`, as the endpoint
/// sets of [`ExperimentContext::distributed`].
fn in_process_replicas(sim: Simulation) -> EndpointSetFactory {
    Arc::new(move |kind| {
        let platform: Arc<dyn EstimateSource> = sim
            .interfaces()
            .into_iter()
            .find(|p| p.kind() == kind)
            .expect("simulated interface")
            .clone();
        vec![platform; 4]
    })
}

/// Small bootstrap, fixed confidence: the same `ucfg` in every mode so
/// byte-equality of the TSVs is exactly execution-mode equivalence.
fn ucfg() -> UncertaintyConfig {
    UncertaintyConfig {
        replicates: 24,
        confidence: 0.95,
    }
}

#[test]
fn uncertainty_table_is_byte_identical_serial_vs_pooled_and_verdicts_hold() {
    let config = ExperimentConfig::test(101);
    let ucfg = ucfg();

    let serial =
        uncertainty_table_with(config, &ucfg, |_, config| ExperimentContext::new(config)).unwrap();
    let serial_tsv = uncertainty_tsv(&serial);

    // In-process scheduled: measurement queries fan out over four
    // in-process replicas of a same-seed, same-inference simulation.
    let pooled = uncertainty_table_with(config, &ucfg, |_, config| {
        let replicas =
            Simulation::build_inferred(config.seed, config.scale, config.inference.as_ref());
        ExperimentContext::distributed(
            config,
            in_process_replicas(replicas),
            SchedulerConfig::default(),
        )
    })
    .unwrap();
    assert_eq!(
        uncertainty_tsv(&pooled),
        serial_tsv,
        "in-process scheduled uncertainty table must be byte-identical to the serial run"
    );

    // Oracle attributes: the observation channel is exact, so every
    // ratio is identified and a verdict may differ from its point band
    // only as an honest Indeterminate — the residual sampling/rounding
    // interval genuinely straddling a four-fifths edge — never as a
    // *different* determinate band.
    let oracle: Vec<_> = serial.iter().filter(|c| c.scenario == "oracle").collect();
    assert!(!oracle.is_empty());
    for cell in &oracle {
        assert!(
            cell.ratio.identified,
            "oracle {} {} cell must be identified",
            cell.interface,
            cell.stage.label()
        );
        let expected = match cell.point_band {
            SkewBand::Under => RatioVerdict::Under,
            SkewBand::Within => RatioVerdict::Within,
            SkewBand::Over => RatioVerdict::Over,
        };
        let verdict = cell.verdict();
        assert!(
            verdict == expected
                || (verdict == RatioVerdict::Indeterminate && cell.ratio.straddles_four_fifths()),
            "oracle {} {} {:?}: verdict {verdict:?} contradicts point band {:?}",
            cell.interface,
            cell.stage.label(),
            cell.creative,
            cell.point_band
        );
    }

    // MNAR missingness is the other high-uncertainty axis: a quarter of
    // the panel unobservable (and not at random) must push every
    // delivery verdict to Indeterminate, not to a confident call.
    for cell in serial
        .iter()
        .filter(|c| c.scenario == "missing" && c.stage == Stage::Delivery)
    {
        assert_eq!(
            cell.verdict(),
            RatioVerdict::Indeterminate,
            "missing-panel {} {:?} delivery cell must be Indeterminate",
            cell.interface,
            cell.creative
        );
    }

    // The loaded job ad (delivery stage, Facebook) under oracle
    // attributes: confidently under the four-fifths line — the whole
    // 95% interval below 0.8, not just the point.
    let job = oracle
        .iter()
        .find(|c| {
            c.stage == Stage::Delivery && c.interface == "Facebook" && c.creative == Some("job")
        })
        .expect("oracle Facebook job delivery cell");
    assert_eq!(job.verdict(), RatioVerdict::Under);
    assert!(
        job.ratio.interval.hi < 0.8,
        "loaded creative's interval must sit entirely below four-fifths, got hi {}",
        job.ratio.interval.hi
    );
    assert!(job.ratio.confidence >= 0.95);
}

#[test]
fn high_error_channel_degrades_delivery_verdict_to_indeterminate() {
    // Near-half gender error: sensitivity + specificity - 1 = 0.2, so
    // deconvolution amplifies every count fluctuation fivefold. The
    // honest answer is "cannot tell", and the verdict must say so
    // rather than flip to Within.
    let mut config = ExperimentConfig::test(101);
    let scenario = Scenario {
        name: "extreme",
        inference: Some(AttributeInference::noisy(101, 0.40, 0.40)),
    };
    config.inference = scenario.inference;
    let ctx = ExperimentContext::new(config);
    let cells = uncertainty_cells(&ctx, &scenario, &ucfg()).unwrap();
    let delivery: Vec<_> = cells
        .iter()
        .filter(|c| c.stage == Stage::Delivery)
        .collect();
    assert!(!delivery.is_empty());
    for cell in &delivery {
        // No delivery cell may be declared clean through a channel this
        // noisy — not even the baseline creative, which really is near
        // parity on the ground.
        assert_ne!(
            cell.verdict(),
            RatioVerdict::Within,
            "high-error {} {:?} delivery verdict must never flip to Within",
            cell.interface,
            cell.creative
        );
    }
    for cell in delivery.iter().filter(|c| c.creative == Some("baseline")) {
        assert_eq!(
            cell.verdict(),
            RatioVerdict::Indeterminate,
            "high-error {} baseline delivery verdict must degrade to Indeterminate",
            cell.interface
        );
    }
}

#[test]
fn recorded_uncertainty_run_resumes_without_reissuing_queries() {
    let config = ExperimentConfig::test(102);
    let ucfg = ucfg();

    let plain_tsv = uncertainty_tsv(
        &uncertainty_table_with(config, &ucfg, |_, config| ExperimentContext::new(config)).unwrap(),
    );

    // The `make_ctx` hook: each scenario records into its own store
    // directory (record keys are per-interface, and the same question
    // has different answers under different observation channels), and
    // the platform Arcs are stashed so the platform-side query counters
    // outlive the contexts that issued the queries.
    type Platforms = Arc<Mutex<Vec<Arc<AdPlatform>>>>;
    let hook = |dir: std::path::PathBuf, platforms: Platforms| {
        move |scenario: &Scenario, config: ExperimentConfig| {
            let store = Arc::new(RunStore::open(dir.join(scenario.name)).unwrap());
            let ctx = ExperimentContext::recorded(config, store);
            let sim = &ctx.simulation;
            platforms.lock().unwrap().extend([
                sim.facebook.clone(),
                sim.facebook_restricted.clone(),
                sim.google.clone(),
                sim.linkedin.clone(),
            ]);
            ctx
        }
    };
    let total = |platforms: &Platforms| -> u64 {
        platforms
            .lock()
            .unwrap()
            .iter()
            .map(|p| p.stats().estimates)
            .sum()
    };

    // Uninterrupted recorded run: one full run's query budget.
    let ref_dir = temp_dir("ref");
    let ref_platforms: Platforms = Default::default();
    let ref_tsv = uncertainty_tsv(
        &uncertainty_table_with(config, &ucfg, hook(ref_dir.clone(), ref_platforms.clone()))
            .unwrap(),
    );
    assert_eq!(ref_tsv, plain_tsv, "recording must not change the table");
    let full_queries = total(&ref_platforms);
    assert!(full_queries > 0);

    // "Killed coordinator": only the first scenario's cells complete.
    let dir = temp_dir("resume");
    let partial_platforms: Platforms = Default::default();
    let scenarios = scenario_family(config.seed);
    {
        let make = hook(dir.clone(), partial_platforms.clone());
        let mut partial_config = config;
        partial_config.inference = scenarios[0].inference;
        let ctx = make(&scenarios[0], partial_config);
        uncertainty_cells(&ctx, &scenarios[0], &ucfg).unwrap();
    } // context and store dropped: the kill
    let partial_queries = total(&partial_platforms);
    assert!(partial_queries > 0);

    // Resume: fresh contexts, same stores. The first scenario replays
    // wholly from disk and never reaches a platform.
    let resumed_platforms: Platforms = Default::default();
    let resumed_tsv = uncertainty_tsv(
        &uncertainty_table_with(config, &ucfg, hook(dir.clone(), resumed_platforms.clone()))
            .unwrap(),
    );
    let resumed_queries = total(&resumed_platforms);

    assert_eq!(
        resumed_tsv, plain_tsv,
        "resumed uncertainty table must be byte-identical to the serial run"
    );
    assert_eq!(
        partial_queries + resumed_queries,
        full_queries,
        "coordinator resume must not re-issue answered queries"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
