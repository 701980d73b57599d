//! Measures the audit survey ([`survey_individuals`], the opening move
//! of every discovery experiment) serial, scheduled over in-process
//! replicas, and scheduled over wire endpoints, in
//! `BENCH_sched_throughput.json`. Each floor is gated on the platform
//! it was set on, and enforced only with two or more hardware threads:
//!
//! * **in-process** (Facebook) — the scheduler over 4 in-process
//!   replicas, one claiming loop each, **≥ 2×** serial (best of 5);
//! * **wire** (LinkedIn) — the scheduler over 4 loopback wire servers
//!   of the same platform **≥ 1.2×** over 1 server (best of 3).
//!
//! Every pass of every mode must be byte-identical to its platform's
//! serial survey: the scheduler's determinism guarantee is half the
//! point of the bench.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adcomp_bench::harness::{best, hardware_threads, interleaved, Gate, Report};
use adcomp_bench::Cli;
use adcomp_core::{
    survey_individuals, AuditTarget, EstimateSource, IndividualSurvey, Layers, Replicas,
    SchedulerConfig,
};
use adcomp_platform::Simulation;
use adcomp_wire::{serve, ServerConfig, ServerHandle};
use discrimination_via_composition::RemoteSource;

/// Timed rounds of the in-process modes.
const POOLED_ROUNDS: usize = 5;
/// Timed rounds of the wire modes.
const WIRE_ROUNDS: usize = 3;
/// In-process replicas — the size the in-process floor is set at.
const REPLICAS: usize = 4;
/// Required in-process speedup over serial at `REPLICAS` replicas.
const POOLED_FLOOR: f64 = 2.0;
/// Required speedup of 4 wire endpoints over 1.
const WIRE_FLOOR: f64 = 1.2;

fn gates(pooled_speedup: f64, endpoints_4_speedup: f64, threads: usize) -> [Gate; 2] {
    [
        Gate::new(
            "speedup_pooled_4_replicas",
            pooled_speedup,
            ">=",
            POOLED_FLOOR,
        )
        .parallel(threads),
        Gate::new("speedup_4_endpoints", endpoints_4_speedup, ">=", WIRE_FLOOR).parallel(threads),
    ]
}

/// A scheduled LinkedIn target over `n` fresh loopback wire servers,
/// whose handles go to `servers`.
fn wire_target(sim: &Simulation, n: usize, servers: &mut Vec<ServerHandle>) -> AuditTarget {
    let endpoints = (0..n)
        .map(|_| {
            let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", ServerConfig::default())
                .expect("loopback server");
            let remote = RemoteSource::connect(handle.addr()).expect("connect");
            servers.push(handle);
            Arc::new(remote) as Arc<dyn EstimateSource>
        })
        .collect();
    AuditTarget::for_platform(&sim.linkedin, sim)
        .layered(Layers {
            scheduler: Some(Replicas {
                endpoints,
                config: SchedulerConfig {
                    unit_size: 8,
                    lease_ttl: Duration::from_secs(5),
                    ..SchedulerConfig::default()
                },
                journal: None,
            }),
            ..Layers::default()
        })
        .expect("no store to write")
}

/// One survey, which must reproduce the serial `reference` exactly.
fn survey_pass(target: &AuditTarget, reference: &IndividualSurvey) {
    let pass = survey_individuals(target).expect("survey");
    assert!(
        pass.entries == reference.entries && pass.base == reference.base,
        "a scheduled survey must be byte-identical to the serial run"
    );
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let sim = Simulation::build(cli.seed, cli.scale);

    let serial = AuditTarget::for_platform(&sim.facebook, &sim);
    let pooled = serial
        .layered(Layers {
            scheduler: Some(Replicas {
                endpoints: vec![serial.measurement.clone(); REPLICAS],
                config: SchedulerConfig {
                    workers_per_endpoint: 1,
                    ..SchedulerConfig::default()
                },
                journal: None,
            }),
            ..Layers::default()
        })
        .expect("no store to write");
    let facebook = survey_individuals(&serial).expect("serial survey");
    let [serial_s, pooled_s] = interleaved(
        POOLED_ROUNDS,
        [&mut || survey_pass(&serial, &facebook), &mut || {
            survey_pass(&pooled, &facebook)
        }],
    );

    let linkedin =
        survey_individuals(&AuditTarget::for_platform(&sim.linkedin, &sim)).expect("serial survey");
    let mut servers = Vec::new();
    let [one, two, four] = [1, 2, 4].map(|n| wire_target(&sim, n, &mut servers));
    let [endpoints_1_s, endpoints_2_s, endpoints_4_s] = interleaved(
        WIRE_ROUNDS,
        [
            &mut || survey_pass(&one, &linkedin),
            &mut || survey_pass(&two, &linkedin),
            &mut || survey_pass(&four, &linkedin),
        ],
    );
    for server in servers {
        server.shutdown();
    }

    let speedup = |base: &[f64], mode: &[f64]| best(base) / best(mode);
    let specs = |survey: &IndividualSurvey| (survey.entries.len() + 1) as f64;
    let speedup_2 = speedup(&endpoints_1_s, &endpoints_2_s);
    Report::new("sched_throughput")
        .value("facebook_specs_per_pass", "count", specs(&facebook))
        .metric("serial_s", "s", &serial_s)
        .metric("pooled_4_replicas_s", "s", &pooled_s)
        .value("linkedin_specs_per_pass", "count", specs(&linkedin))
        .metric("endpoints_1_s", "s", &endpoints_1_s)
        .metric("endpoints_2_s", "s", &endpoints_2_s)
        .metric("endpoints_4_s", "s", &endpoints_4_s)
        .value("speedup_2_endpoints", "ratio", speedup_2)
        .gates(gates(
            speedup(&serial_s, &pooled_s),
            speedup(&endpoints_1_s, &endpoints_4_s),
            hardware_threads(),
        ))
        .finish("BENCH_sched_throughput.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_floors_hold_at_their_bounds_with_two_threads_only() {
        let pass = |pooled, wire, threads| gates(pooled, wire, threads).map(|g| g.pass());
        assert_eq!(pass(0.66, 1.71, 2), [false, true], "committed values");
        assert_eq!(pass(POOLED_FLOOR, WIRE_FLOOR, 2), [true, true]);
        assert_eq!(pass(1.99, 1.19, 2), [false, false]);
        assert_eq!(pass(1.99, 1.19, 1), [true, true]);
    }
}
