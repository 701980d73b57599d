//! The distributed scheduler must be *invisible* in the results: the
//! full Table-1 driver and the individual survey, sharded across three
//! wire replicas per interface — one of them fault-injected, one of
//! them killed partway through the experiment — must produce output
//! byte-identical to the single-endpoint serial run. And a coordinator
//! kill+resume through the run store must, exactly like the
//! single-endpoint guarantee in `tests/store_replay.rs`, never re-issue
//! an answered query to any endpoint — proven with platform-side
//! counters, not scheduler bookkeeping.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use discrimination_via_composition::audit::experiments::table1::{
    favoured_populations, table1, table1_cell, table1_tsv, TABLE1_INTERFACES,
};
use discrimination_via_composition::audit::experiments::{ExperimentConfig, ExperimentContext};
use discrimination_via_composition::audit::{sched_events_in, SchedEvent, SchedulerConfig};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, InterfaceKind, Schedule, Simulation,
};
use discrimination_via_composition::store::RunStore;
use discrimination_via_composition::wire::{
    serve, ClientConfig, CountingHook, FaultPlanHook, ServerConfig,
};
use discrimination_via_composition::Fleet;

mod common;

/// Estimates the backing platforms actually answered — targeting-side
/// queries land on `local`, scheduled measurement queries on the
/// fleet's `remote` simulation (same seed, so identical answers).
fn platform_queries(local: &Simulation, remote: &Simulation) -> u64 {
    let count = |sim: &Simulation| {
        sim.facebook.stats().estimates
            + sim.facebook_restricted.stats().estimates
            + sim.google.stats().estimates
            + sim.linkedin.stats().estimates
    };
    count(local) + count(remote)
}

/// A transport-level fault plan for the designated bad replica:
/// connections die at a frame boundary every 89th frame. Frame-drop
/// faults are metric-neutral — the dropped request is never dispatched,
/// the client retries or the scheduler requeues — so the merged results
/// must not move.
fn drop_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::EveryNth {
            period: 89,
            offset: 5,
        },
    )
}

/// Client tuning for fleets whose endpoints are *expected* to die:
/// short socket timeout and barely any client-side retrying, because
/// failover is the scheduler's job — a failed unit requeues onto a
/// healthy replica faster than a retry ladder resurrects a dead one.
fn failfast_client() -> ClientConfig {
    ClientConfig {
        io_timeout: Some(Duration::from_millis(400)),
        retry: discrimination_via_composition::platform::RetryPolicy::fast(1),
        ..ClientConfig::fast()
    }
}

#[test]
fn distributed_table1_is_byte_identical_despite_fault_and_kill() {
    let config = ExperimentConfig::test(91);

    // Serial single-endpoint baseline.
    let serial_ctx = ExperimentContext::new(config);
    let serial_survey = serial_ctx.survey(InterfaceKind::LinkedIn).unwrap().clone();
    let serial_tsv = table1_tsv(&table1(&serial_ctx).unwrap());

    // Three replicas per interface; replica 1 drops connections on a
    // deterministic schedule, replica 2 will be killed mid-experiment.
    let fleet_sim = Simulation::build(config.seed, config.scale);
    let hooks = Mutex::new(Vec::new());
    let fleet = Arc::new(
        Fleet::launch_with(
            &fleet_sim,
            3,
            |kind, replica| {
                if replica == 1 {
                    let hook = Arc::new(CountingHook::new(FaultPlanHook(drop_plan(
                        kind.label().len() as u64,
                    ))));
                    hooks.lock().unwrap().push(hook.clone());
                    ServerConfig::default().with_fault_hook(hook)
                } else {
                    ServerConfig::default()
                }
            },
            |_, _| failfast_client(),
        )
        .unwrap(),
    );
    // The aggressive profile: tiny units, a 250 ms lease TTL that the
    // killed replica's 400 ms socket timeout overshoots — so its stuck
    // leases *expire* and requeue rather than waiting out the error.
    let ctx =
        ExperimentContext::distributed(config, Fleet::factory(&fleet), SchedulerConfig::fast());

    // First half of the experiment with all three replicas up…
    let distributed_survey = ctx.survey(InterfaceKind::LinkedIn).unwrap().clone();
    assert_eq!(distributed_survey.entries, serial_survey.entries);
    assert_eq!(distributed_survey.base, serial_survey.base);

    // …then replica 2 of every interface dies mid-run. Its in-flight
    // units either fail fast (closed connection) or expire their
    // leases; both paths requeue onto the survivors.
    for kind in [
        InterfaceKind::FacebookNormal,
        InterfaceKind::FacebookRestricted,
        InterfaceKind::GoogleDisplay,
        InterfaceKind::LinkedIn,
    ] {
        fleet.kill(kind, 2);
    }

    let distributed_tsv = table1_tsv(&table1(&ctx).unwrap());
    assert_eq!(
        distributed_tsv, serial_tsv,
        "distributed Table 1 must be byte-identical to the serial run"
    );
    let drops: u64 = hooks.lock().unwrap().iter().map(|h| h.fired()).sum();
    assert!(
        drops > 0,
        "the bad replicas must actually have dropped connections"
    );
    fleet.shutdown();
}

#[test]
fn killed_replica_port_served_by_another_interface_is_refused() {
    // Replica 1 of every interface dies and another interface's server
    // is given its exact port. The killed replica's client reconnects
    // there, finds a different instance id and fails like a dead
    // endpoint, so the scheduler requeues onto replica 0: the table
    // stays byte-identical and the newcomers answer no estimate.
    let config = ExperimentConfig::test(93);
    let serial_tsv = table1_tsv(&table1(&ExperimentContext::new(config)).unwrap());

    let fleet_sim = Simulation::build(config.seed, config.scale);
    let fleet = Arc::new(
        Fleet::launch_with(
            &fleet_sim,
            2,
            |_, _| ServerConfig::default(),
            |_, _| failfast_client(),
        )
        .unwrap(),
    );
    let other_sim = Simulation::build(config.seed + 1, config.scale);
    let kinds = [
        InterfaceKind::FacebookNormal,
        InterfaceKind::FacebookRestricted,
        InterfaceKind::GoogleDisplay,
        InterfaceKind::LinkedIn,
    ];
    let mut newcomers = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let addr = fleet.addr(kind, 1).unwrap();
        fleet.kill(kind, 1);
        let hook = Arc::new(CountingHook::new(FaultPlanHook(FaultPlan::new(0))));
        let other = other_sim.platform(kinds[(i + 1) % kinds.len()]).clone();
        let config = ServerConfig::default().with_fault_hook(hook.clone());
        newcomers.push((serve(other, &addr.to_string(), config).unwrap(), hook));
    }

    let ctx =
        ExperimentContext::distributed(config, Fleet::factory(&fleet), SchedulerConfig::fast());
    assert_eq!(
        table1_tsv(&table1(&ctx).unwrap()),
        serial_tsv,
        "distributed Table 1 must be byte-identical to the serial run"
    );
    let reached: u64 = newcomers.iter().map(|(_, hook)| hook.frames()).sum();
    assert!(
        reached > 0,
        "the killed replicas' clients reached the newcomers"
    );
    assert_eq!(platform_queries(&other_sim, &other_sim), 0);
    for (handle, _) in newcomers {
        handle.shutdown();
    }
    fleet.shutdown();
}

#[test]
fn coordinator_kill_resume_reissues_no_answered_query() {
    let config = ExperimentConfig::test(92);
    let sched = SchedulerConfig::default(); // 10 s TTL: no expiry, exactly-once dispatch

    // Serial baseline for the final numbers.
    let plain_tsv = table1_tsv(&table1(&ExperimentContext::new(config)).unwrap());

    // Uninterrupted distributed+recorded run: the total platform-side
    // query budget of one complete run.
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
    let ref_tsv = table1_tsv(&table1(&ref_ctx).unwrap());
    assert_eq!(ref_tsv, plain_tsv, "recording must not change the table");
    let full_queries = platform_queries(&ref_ctx.simulation, &ref_fleet_sim);
    // The fleet answers every estimate: the context's own platforms only
    // describe catalogs and validate specs, which builds none of them.
    for platform in ref_ctx.simulation.interfaces() {
        assert!(
            !platform.is_materialized(),
            "a fleet audit never builds its local {}",
            platform.label()
        );
    }
    ref_fleet.shutdown();

    // "Killed coordinator": only the first favoured population's row
    // completes, then every handle is dropped — store, fleet, context.
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
    let first_favoured = favoured_populations()[0];
    for kind in TABLE1_INTERFACES {
        table1_cell(&ctx_a, kind, first_favoured).unwrap();
    }
    let partial_queries = platform_queries(&ctx_a.simulation, &fleet_sim_a);
    assert!(partial_queries > 0);
    // The journal must already hold the partial run's unit trail.
    let events_before_kill = sched_events_in(&store_a);
    assert!(
        events_before_kill
            .iter()
            .any(|e| matches!(e, SchedEvent::Completed { .. })),
        "partial run must journal completed units"
    );
    drop(ctx_a);
    drop(store_a);
    fleet_a.shutdown();
    drop(fleet_a);

    // Resume: fresh coordinator, fresh fleet, same store. Everything
    // the partial run answered replays from disk and never reaches any
    // endpoint — the scheduler only ever sees the unanswered tail.
    let fleet_sim_b = Simulation::build(config.seed, config.scale);
    let fleet_b = Arc::new(Fleet::launch(&fleet_sim_b, 3).unwrap());
    let store_b = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_b = ExperimentContext::distributed_recorded(
        config,
        store_b.clone(),
        Fleet::factory(&fleet_b),
        sched.clone(),
    );
    let resumed_tsv = table1_tsv(&table1(&ctx_b).unwrap());
    let resumed_queries = platform_queries(&ctx_b.simulation, &fleet_sim_b);

    assert_eq!(
        resumed_tsv, plain_tsv,
        "resumed distributed Table 1 must be byte-identical to the serial run"
    );
    // The decisive platform-side count: across kill and resume the
    // backing platforms answered exactly one run's worth of estimates —
    // zero answered queries were re-issued to any endpoint.
    assert_eq!(
        partial_queries + resumed_queries,
        full_queries,
        "coordinator resume must not re-issue answered queries"
    );
    // And the resumed run appended its own journal trail after the
    // partial run's (monotonic sequence keys, no overwrites).
    let events_after = sched_events_in(&store_b);
    assert!(events_after.len() > events_before_kill.len());

    fleet_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn lease_ttl_shorter_than_unit_requeues_through_heartbeat_loss() {
    // A scheduler whose lease TTL is far below the time a dead
    // endpoint's socket takes to fail still finishes: expiry requeues
    // the unit while the stuck worker's eventual completion lands
    // `Stale` and is discarded. Single interface to keep it quick.
    let config = ExperimentConfig::test(93);
    let serial = ExperimentContext::new(config)
        .survey(InterfaceKind::GoogleDisplay)
        .unwrap()
        .clone();

    let fleet_sim = Simulation::build(config.seed, config.scale);
    let fleet = Arc::new(
        Fleet::launch_with(
            &fleet_sim,
            3,
            |_, _| ServerConfig::default(),
            |_, _| failfast_client(),
        )
        .unwrap(),
    );
    let sched = SchedulerConfig {
        unit_size: 2,
        lease_ttl: Duration::from_millis(120),
        ..SchedulerConfig::fast()
    };
    let ctx = ExperimentContext::distributed(config, Fleet::factory(&fleet), sched);
    fleet.kill(InterfaceKind::GoogleDisplay, 0);
    let distributed = ctx.survey(InterfaceKind::GoogleDisplay).unwrap().clone();
    assert_eq!(distributed.entries, serial.entries);
    assert_eq!(distributed.base, serial.base);
    fleet.shutdown();
}
