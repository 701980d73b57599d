//! The scheduler's worker pool is a pure wall-clock optimisation: every
//! audit result must be byte-identical to the serial path, on every
//! simulated platform, and budget accounting must be exact even when the
//! transport underneath is retrying.

use std::sync::Arc;

use discrimination_via_composition::audit::{
    rank_individuals, survey_individuals, top_compositions, AuditTarget, BudgetedSource, Direction,
    DiscoveryConfig, Layers, QueryBudget, Replicas, SchedulerConfig, SensitiveClass,
    QUERIES_PER_SPEC,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, InterfaceKind, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::wire::{
    serve, Client, ClientConfig, CountingHook, FaultPlanHook, ServerConfig,
};
use discrimination_via_composition::RemoteSource;

#[test]
fn pooled_audit_is_bit_identical_to_serial_on_every_platform() {
    let sim = Simulation::build(909, SimScale::Test);
    let cfg = DiscoveryConfig {
        top_k: 10,
        ..DiscoveryConfig::default()
    };
    let male = SensitiveClass::Gender(Gender::Male);
    for kind in [
        InterfaceKind::FacebookNormal,
        InterfaceKind::FacebookRestricted,
        InterfaceKind::GoogleDisplay,
        InterfaceKind::LinkedIn,
    ] {
        let serial = AuditTarget::for_platform(sim.platform(kind), &sim);
        // Four in-process replicas of the measurement interface (the
        // restricted interface measures through its Facebook parent).
        let pooled = serial
            .layered(Layers {
                scheduler: Some(Replicas {
                    endpoints: vec![serial.measurement.clone(); 4],
                    config: SchedulerConfig::default(),
                    journal: None,
                }),
                ..Layers::default()
            })
            .unwrap();

        let serial_survey = survey_individuals(&serial).unwrap();
        let pooled_survey = survey_individuals(&pooled).unwrap();
        assert_eq!(serial_survey.base, pooled_survey.base, "{kind:?} base");
        assert_eq!(
            serial_survey.entries, pooled_survey.entries,
            "{kind:?} survey"
        );

        let ranked = rank_individuals(&serial_survey, male, Direction::Toward, cfg.min_reach);
        assert_eq!(
            ranked,
            rank_individuals(&pooled_survey, male, Direction::Toward, cfg.min_reach),
            "{kind:?} ranking"
        );
        let serial_top = top_compositions(&serial, &serial_survey, &ranked, &cfg).unwrap();
        let pooled_top = top_compositions(&pooled, &pooled_survey, &ranked, &cfg).unwrap();
        assert_eq!(serial_top.len(), pooled_top.len(), "{kind:?} top count");
        for (s, p) in serial_top.iter().zip(&pooled_top) {
            assert_eq!(s.attrs, p.attrs, "{kind:?} composition attrs");
            assert_eq!(s.measurement, p.measurement, "{kind:?} measurement");
        }
    }
}

#[test]
fn pipelined_retries_over_a_faulty_wire_never_double_charge_the_budget() {
    // Kill the connection on the survey's batch frame (frame 0 is the
    // client's Describe): the client reconnects and re-issues the
    // unanswered slots. The budget sits *above* the transport, so a
    // logical query is charged exactly once no matter how many times the
    // wire has to carry it.
    let sim = Simulation::build(910, SimScale::Test);
    let plan = FaultPlan::new(17).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::Once { at: 1 },
    );
    let hook = Arc::new(CountingHook::new(FaultPlanHook(plan)));
    let config = ServerConfig::default().with_fault_hook(hook.clone());
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            pipeline_window: 8,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let remote = Arc::new(RemoteSource::new(client).unwrap());
    let budgeted = Arc::new(BudgetedSource::new(remote, QueryBudget::capped(100_000)));
    // The budget forwards the client's pipeline window, so the survey
    // goes out as batches.
    let target = AuditTarget::direct(budgeted.clone());
    assert!(target.measurement.batch_window() > 1);

    let survey = survey_individuals(&target).unwrap();
    assert_eq!(
        hook.fired(),
        1,
        "the drop must fire, or nothing was re-issued"
    );
    let logical_queries = (survey.entries.len() as u64 + 1) * QUERIES_PER_SPEC as u64;
    assert_eq!(
        budgeted.used(),
        logical_queries,
        "each logical query must be charged exactly once despite transport retries"
    );

    // And the answers are still the clean in-process answers.
    let local = survey_individuals(&AuditTarget::for_platform(&sim.linkedin, &sim)).unwrap();
    assert_eq!(survey.base, local.base);
    assert_eq!(survey.entries, local.entries);
    handle.shutdown();
}
