//! Drives millions of auction rounds through the delivery engine and
//! records the verdict in `BENCH_delivery.json`.
//!
//! Three things are measured and gated:
//!
//! 1. **Determinism** — the multi-threaded scoring path must produce an
//!    impression log byte-identical (digest-identical) to the serial
//!    run; a mismatch fails the bench outright, on any hardware.
//! 2. **Stage separation** — the paired job-ad vs baseline-ad audit
//!    must put neutral targeting *above* the four-fifths line and the
//!    loaded creative's delivery *below* it. This is the subsystem's
//!    reason to exist; a bench that is fast but wrong must fail.
//! 3. **Throughput** — auction rounds per second, serial and threaded,
//!    interleaved. The threaded floor (≥ 1.1× at 4 scoring threads, best
//!    round of each) is only enforced with two or more hardware threads;
//!    scoring parallelizes but settlement is serial by design, so the
//!    ceiling is Amdahl's.

use std::process::ExitCode;

use adcomp_bench::harness::{best, hardware_threads, interleaved, per_second, Gate, Report};
use adcomp_bench::{finish, Cli};
use adcomp_core::experiments::delivery_exp::{paired_campaigns, PairedAdConfig};
use adcomp_core::source::{AuditTarget, SensitiveClass};
use adcomp_core::{four_fifths_band, measure_spec, rep_ratio, SkewBand, FOUR_FIFTHS_THRESHOLD};
use adcomp_delivery::{deliver, DeliveryConfig, DeliverySetup};
use adcomp_platform::{SimScale, Simulation};
use adcomp_population::Gender;
use adcomp_targeting::TargetingSpec;

/// Timed rounds per thread count.
const ROUNDS: usize = 2;
/// Required speedup of 4 scoring threads over 1.
const THRESHOLD_SPEEDUP: f64 = 1.1;

struct Params {
    /// Auction rounds per timed pass.
    rounds: u64,
    /// Pacing-window length.
    window: u64,
}

impl Params {
    fn for_scale(scale: SimScale) -> Params {
        match scale {
            // ~2M rounds × 8 campaigns ≈ 16M bid evaluations per pass.
            SimScale::Paper => Params {
                rounds: 2_000_000,
                window: 4_000,
            },
            SimScale::Test => Params {
                rounds: 200_000,
                window: 2_000,
            },
        }
    }
}

fn gates(byte_identical: bool, separated: bool, speedup: f64, threads: usize) -> [Gate; 3] {
    [
        Gate::flag("byte_identical", byte_identical),
        Gate::flag("stage_separated", separated),
        Gate::new("speedup_4_threads", speedup, ">=", THRESHOLD_SPEEDUP).parallel(threads),
    ]
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let p = Params::for_scale(cli.scale);
    let sim = Simulation::build(cli.seed, cli.scale);

    // The paired-ad roster at audit configuration, but with the bench's
    // own round count scaled into the budgets so pacing stays engaged.
    let audit_cfg = PairedAdConfig::for_scale(cli.scale);
    let mut campaigns = paired_campaigns(cli.seed, &audit_cfg);
    for c in &mut campaigns {
        c.budget_micros = p.rounds.saturating_mul(4_000);
    }
    let setup = DeliverySetup::for_platform(&sim.facebook, campaigns).expect("resolve audiences");

    let serial_cfg = DeliveryConfig::new(p.rounds, cli.seed)
        .window(p.window)
        .label("bench-serial");
    let threaded_cfg = DeliveryConfig::new(p.rounds, cli.seed)
        .window(p.window)
        .threads(4)
        .label("bench-threaded");
    let universe = sim.facebook.universe();
    let run = |cfg| deliver(universe, universe.everyone(), &setup, cfg);
    let (mut serial, mut threaded) = (None, None);
    let [serial_s, threaded_s] = interleaved(
        ROUNDS,
        [&mut || serial = Some(run(&serial_cfg)), &mut || {
            threaded = Some(run(&threaded_cfg))
        }],
    );
    let serial = serial.expect("serial pass");
    let threaded = threaded.expect("threaded pass");

    // Determinism across thread counts, digest-level.
    let byte_identical = serial.digest() == threaded.digest();
    assert_eq!(
        serial.impressions, threaded.impressions,
        "threaded scoring must not change the impression log"
    );

    // Stage separation on the job ad (index 0) vs the measured base
    // rates — neutral targeting above the line, delivery below it.
    let target = AuditTarget::direct(sim.facebook.clone());
    let base = measure_spec(&target, &TargetingSpec::everyone()).expect("measure base");
    let class = SensitiveClass::Gender(Gender::Female);
    let targeting_ratio = adcomp_core::rep_ratio_of(&base, &base, class).unwrap_or(1.0);
    let ratio_of = |index: usize| {
        let tally = serial.delivered(index, &setup, universe);
        rep_ratio(
            tally.by_gender[Gender::Female.index()],
            tally.by_gender[Gender::Male.index()],
            base.by_gender[Gender::Female.index()],
            base.by_gender[Gender::Male.index()],
        )
        .unwrap_or(1.0)
    };
    let job_ratio = ratio_of(0);
    let separated =
        four_fifths_band(targeting_ratio) == SkewBand::Within && job_ratio < FOUR_FIFTHS_THRESHOLD;

    let serial_rate = per_second(p.rounds as f64, &serial_s);
    let threaded_rate = per_second(p.rounds as f64, &threaded_s);
    finish("delivery_skew");
    Report::new("delivery_skew")
        .value("rounds_per_pass", "count", p.rounds as f64)
        .value("campaigns", "count", setup.len() as f64)
        .metric("serial_s", "s", &serial_s)
        .metric("threaded_s", "s", &threaded_s)
        .metric("auction_rounds_per_s", "1/s", &serial_rate)
        .metric("threaded_rounds_per_s", "1/s", &threaded_rate)
        .value("impressions", "count", serial.impressions.len() as f64)
        .value("unfilled", "count", serial.unfilled as f64)
        .value("targeting_ratio", "ratio", targeting_ratio)
        .value("job_delivery_ratio", "ratio", job_ratio)
        .value("baseline_delivery_ratio", "ratio", ratio_of(1))
        .gates(gates(
            byte_identical,
            separated,
            best(&serial_s) / best(&threaded_s),
            hardware_threads(),
        ))
        .finish("BENCH_delivery.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_always_gate_and_the_thread_floor_only_with_two_threads() {
        let pass = |identical, separated, speedup, threads| {
            gates(identical, separated, speedup, threads).map(|g| g.pass())
        };
        assert_eq!(pass(true, true, 0.85, 2), [true, true, false]); // committed
        assert_eq!(pass(true, true, THRESHOLD_SPEEDUP, 2), [true; 3]);
        assert_eq!(pass(true, true, 1.09, 1), [true; 3]);
        assert_eq!(pass(false, false, 1.09, 2), [false; 3]);
    }
}
