//! The delivery simulation must be execution-mode-invisible (ISSUE 9
//! acceptance): the paired-ad delivery table — impression-log digests
//! included — must be byte-identical whether the measurement side runs
//! serially, scheduled over in-process replicas, or sharded across a
//! three-replica wire fleet with one replica killed mid-run. And a recorded delivery
//! audit must survive a coordinator kill+resume without re-issuing a
//! single answered query, proven by platform-side counters.

use std::sync::Arc;

use discrimination_via_composition::audit::experiments::delivery_exp::{
    delivery_table, delivery_table_tsv, paired_ad_cell, DELIVERY_INTERFACES,
};
use discrimination_via_composition::audit::experiments::{
    EndpointSetFactory, ExperimentConfig, ExperimentContext,
};
use discrimination_via_composition::audit::{EstimateSource, SchedulerConfig};
use discrimination_via_composition::platform::Simulation;
use discrimination_via_composition::store::RunStore;
use discrimination_via_composition::Fleet;

mod common;

/// Estimates the backing platforms actually answered. The delivery
/// simulation resolves eligibility through ground-truth audiences
/// (`exact_audience`), which never touches the estimate path — so this
/// counts exactly the resumable, journaled measurement queries.
fn platform_queries(local: &Simulation, remote: &Simulation) -> u64 {
    let count = |sim: &Simulation| {
        sim.facebook.stats().estimates
            + sim.facebook_restricted.stats().estimates
            + sim.google.stats().estimates
            + sim.linkedin.stats().estimates
    };
    count(local) + count(remote)
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

#[test]
fn delivery_table_is_byte_identical_across_execution_modes() {
    let config = ExperimentConfig::test(94);

    // Serial single-endpoint baseline.
    let serial_tsv = delivery_table_tsv(&delivery_table(&ExperimentContext::new(config)).unwrap());

    // In-process scheduled: measurement queries fan out over four
    // in-process replicas of a same-seed simulation.
    let pooled_ctx = ExperimentContext::distributed(
        config,
        in_process_replicas(Simulation::build(config.seed, config.scale)),
        SchedulerConfig::default(),
    );
    let pooled_tsv = delivery_table_tsv(&delivery_table(&pooled_ctx).unwrap());
    assert_eq!(
        pooled_tsv, serial_tsv,
        "in-process scheduled delivery table must be byte-identical to the serial run"
    );

    // Distributed: three wire replicas per interface, one killed before
    // the table runs — requeue onto the survivors must not move a byte.
    let fleet_sim = Simulation::build(config.seed, config.scale);
    let fleet = Arc::new(Fleet::launch(&fleet_sim, 3).unwrap());
    let ctx =
        ExperimentContext::distributed(config, Fleet::factory(&fleet), SchedulerConfig::fast());
    for kind in DELIVERY_INTERFACES {
        fleet.kill(kind, 2);
    }
    let distributed_tsv = delivery_table_tsv(&delivery_table(&ctx).unwrap());
    assert_eq!(
        distributed_tsv, serial_tsv,
        "distributed delivery table must be byte-identical to the serial run"
    );
    fleet.shutdown();
}

#[test]
fn recorded_delivery_run_resumes_without_reissuing_queries() {
    let config = ExperimentConfig::test(95);
    let sched = SchedulerConfig::default(); // long TTL: exactly-once dispatch

    let plain_tsv = delivery_table_tsv(&delivery_table(&ExperimentContext::new(config)).unwrap());

    // Uninterrupted distributed+recorded run: one full run's query budget.
    let ref_dir = common::temp_dir("ref");
    let ref_fleet_sim = Simulation::build(config.seed, config.scale);
    let ref_fleet = Arc::new(Fleet::launch(&ref_fleet_sim, 3).unwrap());
    let ref_store = Arc::new(RunStore::open(&ref_dir).unwrap());
    let ref_ctx = ExperimentContext::distributed_recorded(
        config,
        ref_store.clone(),
        Fleet::factory(&ref_fleet),
        sched.clone(),
    );
    let ref_tsv = delivery_table_tsv(&delivery_table(&ref_ctx).unwrap());
    assert_eq!(ref_tsv, plain_tsv, "recording must not change the table");
    let full_queries = platform_queries(&ref_ctx.simulation, &ref_fleet_sim);
    assert!(full_queries > 0);
    ref_fleet.shutdown();

    // "Killed coordinator": only the first interface's cell completes.
    let dir = common::temp_dir("resume");
    let fleet_sim_a = Simulation::build(config.seed, config.scale);
    let fleet_a = Arc::new(Fleet::launch(&fleet_sim_a, 3).unwrap());
    let store_a = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_a = ExperimentContext::distributed_recorded(
        config,
        store_a.clone(),
        Fleet::factory(&fleet_a),
        sched.clone(),
    );
    paired_ad_cell(&ctx_a, DELIVERY_INTERFACES[0]).unwrap();
    let partial_queries = platform_queries(&ctx_a.simulation, &fleet_sim_a);
    assert!(partial_queries > 0);
    drop(ctx_a);
    drop(store_a);
    fleet_a.shutdown();
    drop(fleet_a);

    // Resume: fresh coordinator and fleet, same store. Every answered
    // measurement replays from disk and never reaches an endpoint.
    let fleet_sim_b = Simulation::build(config.seed, config.scale);
    let fleet_b = Arc::new(Fleet::launch(&fleet_sim_b, 3).unwrap());
    let store_b = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_b = ExperimentContext::distributed_recorded(
        config,
        store_b.clone(),
        Fleet::factory(&fleet_b),
        sched.clone(),
    );
    let resumed_tsv = delivery_table_tsv(&delivery_table(&ctx_b).unwrap());
    let resumed_queries = platform_queries(&ctx_b.simulation, &fleet_sim_b);

    assert_eq!(
        resumed_tsv, plain_tsv,
        "resumed delivery table must be byte-identical to the serial run"
    );
    assert_eq!(
        partial_queries + resumed_queries,
        full_queries,
        "coordinator resume must not re-issue answered queries"
    );

    fleet_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
