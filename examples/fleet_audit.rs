//! Table 1 over a fleet of three wire endpoints per interface — one of
//! them dropping connections on a deterministic fault plan, one of them
//! killed partway through the run — with the merged results
//! byte-identical to the single-endpoint serial baseline.
//!
//! The run shows the two failover mechanics in isolation first:
//!
//! 1. a *lease-expiry* walkthrough on a bare [`UnitQueue`] with a
//!    manual clock (claim → silence → expiry → requeue → late
//!    completion rejected as stale), then
//! 2. the full distributed Table-1 audit, where the same mechanics run
//!    live against TCP endpoints and the scheduler's metrics record
//!    how many units had to be requeued onto the survivors.
//!
//! ```text
//! cargo run --release --example fleet_audit
//! ```
//!
//! [`UnitQueue`]: discrimination_via_composition::sched::UnitQueue

use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Clock, ManualClock, Registry};

use discrimination_via_composition::audit::experiments::table1::{table1, table1_tsv};
use discrimination_via_composition::audit::experiments::{ExperimentConfig, ExperimentContext};
use discrimination_via_composition::audit::SchedulerConfig;
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, InterfaceKind, RetryPolicy, Schedule, Simulation,
};
use discrimination_via_composition::sched::{Completion, LeaseConfig, UnitQueue};
use discrimination_via_composition::wire::{ClientConfig, FaultPlanHook, ServerConfig};
use discrimination_via_composition::Fleet;

fn main() {
    lease_expiry_walkthrough();
    distributed_table1();
}

/// The failover primitive, frame by frame: a worker claims a unit and
/// goes silent; the lease expires; the unit is regranted to a healthy
/// worker; the silent worker's late answer is rejected as stale.
fn lease_expiry_walkthrough() {
    println!("--- lease expiry walkthrough ---");
    let clock = Arc::new(ManualClock::new());
    let queue = UnitQueue::new(
        LeaseConfig {
            ttl: Duration::from_millis(100),
            ..LeaseConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
        None,
    );
    queue.seed_slots(4, 4);

    let stuck = queue.try_claim("worker-a").expect("grant");
    println!(
        "worker-a claimed unit {} (lease {})",
        stuck.unit, stuck.lease
    );
    clock.advance(Duration::from_millis(150));
    let expired = queue.expire_overdue();
    println!("150 ms of silence: {expired} lease(s) expired, unit requeued");

    let rescued = queue.try_claim("worker-b").expect("regrant");
    assert_eq!(rescued.unit, stuck.unit);
    println!(
        "worker-b claimed the same unit (attempt {} under lease {})",
        rescued.attempt, rescued.lease
    );
    assert_eq!(
        queue.complete(stuck.lease, &stuck.slots),
        Completion::Stale,
        "the silent worker's late answer must not land"
    );
    println!("worker-a's late completion rejected as stale ✓");
    assert!(matches!(
        queue.complete(rescued.lease, &rescued.slots),
        Completion::Accepted { .. }
    ));
    assert!(queue.is_drained());
    println!("worker-b's completion accepted; queue drained ✓\n");
}

fn distributed_table1() {
    println!("--- distributed Table 1 ---");
    let config = ExperimentConfig::test(2026);

    // Single-endpoint serial baseline: the bytes to beat.
    let serial_tsv = table1_tsv(&table1(&ExperimentContext::new(config)).expect("serial table"));

    // Three replicas per interface, all wrapping one simulation:
    //   replica 0 — healthy;
    //   replica 1 — drops the connection every 67th request;
    //   replica 2 — healthy for now, killed mid-run below. Its client
    //     keeps a 2 s socket timeout, far beyond the 250 ms lease TTL,
    //     so the kill surfaces as lease expiry, not a fast error.
    let fleet_sim = Simulation::build(config.seed, config.scale);
    let plan = FaultPlan::new(11).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::EveryNth {
            period: 67,
            offset: 9,
        },
    );
    let fleet = Arc::new(
        Fleet::launch_with(
            &fleet_sim,
            3,
            |_, replica| {
                if replica == 1 {
                    ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan.clone())))
                } else {
                    ServerConfig::default()
                }
            },
            |_, replica| {
                if replica == 2 {
                    ClientConfig::fast()
                } else {
                    ClientConfig {
                        io_timeout: Some(Duration::from_millis(400)),
                        retry: RetryPolicy::fast(1),
                        ..ClientConfig::fast()
                    }
                }
            },
        )
        .expect("launch fleet"),
    );
    for kind in [
        InterfaceKind::FacebookNormal,
        InterfaceKind::GoogleDisplay,
        InterfaceKind::LinkedIn,
    ] {
        println!(
            "{:<18} replicas: {} (faulty: replica 1)",
            kind.label(),
            fleet.replicas()
        );
    }

    let ctx =
        ExperimentContext::distributed(config, Fleet::factory(&fleet), SchedulerConfig::fast());

    // Kill replica 2 of every interface 300 ms into the run — mid-audit
    // by construction, since the distributed table takes far longer.
    let killer = {
        let fleet = fleet.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            for kind in [
                InterfaceKind::FacebookNormal,
                InterfaceKind::FacebookRestricted,
                InterfaceKind::GoogleDisplay,
                InterfaceKind::LinkedIn,
            ] {
                fleet.kill(kind, 2);
            }
            println!("[killer] replica 2 of every interface is gone");
        })
    };

    let distributed_tsv = table1_tsv(&table1(&ctx).expect("distributed table"));
    killer.join().expect("killer thread");

    assert_eq!(
        distributed_tsv, serial_tsv,
        "distributed Table 1 must be byte-identical to the serial baseline"
    );
    println!("\n{distributed_tsv}");
    println!("byte-identical to the single-endpoint serial run ✓");

    // The scheduler's own account of the turbulence. Its counts depend
    // on thread timing around the killed replica, so they go to stderr
    // and stdout stays the same from run to run.
    let snap = Registry::global().snapshot();
    let queued = snap.counter("adcomp_sched_units_queued");
    let completed = snap.counter("adcomp_sched_units_completed");
    let requeued = snap.counter("adcomp_sched_units_requeued");
    let expired = snap.counter("adcomp_sched_lease_expired_total");
    eprintln!(
        "scheduler: {queued} units queued, {completed} completed, \
         {requeued} requeued after failures, {expired} leases expired"
    );
    assert!(
        requeued > 0,
        "a dropped and a killed replica must have forced requeues"
    );

    fleet.shutdown();
}
