//! Benchmarks bootstrap replicate throughput for the uncertainty
//! subsystem and records the verdict in `BENCH_uncertainty.json`.
//!
//! Two things are measured:
//!
//! 1. **Coverage sanity** (gated) — the confident ratio assembled from
//!    the replicates must contain its own point estimate; an interval
//!    that excluded the statistic it resampled from would be an
//!    artefact.
//! 2. **Throughput** — replicates per second. The bootstrap is a plain
//!    loop: a single replicate is a handful of binomial draws, too
//!    little work to pay for a worker pool.

use std::process::ExitCode;

use adcomp_bench::harness::{interleaved, per_second, Gate, Report};
use adcomp_bench::{finish, Cli};
use adcomp_core::source::{AuditTarget, SensitiveClass};
use adcomp_core::{
    bootstrap_ratios, confident_rep_ratio, measure_spec, ClassChannel, MeasuredPair,
    UncertaintyConfig,
};
use adcomp_platform::{SimScale, Simulation};
use adcomp_population::{AttributeInference, Gender};
use adcomp_targeting::{AttributeId, TargetingSpec};
use discrimination_via_composition::infer::Interval;

/// Timed passes.
const ROUNDS: usize = 2;

struct Params {
    /// Bootstrap replicates per timed pass.
    replicates: u32,
}

impl Params {
    fn for_scale(scale: SimScale) -> Params {
        match scale {
            SimScale::Paper => Params {
                replicates: 200_000,
            },
            SimScale::Test => Params { replicates: 50_000 },
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let p = Params::for_scale(cli.scale);
    let sim = Simulation::build(cli.seed, cli.scale);

    // Real measured counts through the audited pipeline: the whole
    // universe as the base, the first catalog attribute as the target,
    // observed through a noisy inference channel so the deconvolution
    // path is part of every replicate.
    let audit = AuditTarget::direct(sim.facebook.clone());
    let base_m = measure_spec(&audit, &TargetingSpec::everyone()).expect("measure base");
    let target_m =
        measure_spec(&audit, &TargetingSpec::and_of([AttributeId(0)])).expect("measure target");
    let class = SensitiveClass::Gender(Gender::Female);
    let rounding = sim.facebook.config().rounding;
    let base = MeasuredPair::of(&base_m, class, rounding);
    let target = MeasuredPair::of(&target_m, class, rounding);
    let inference = AttributeInference::noisy(cli.seed ^ 0x1A7E5, 0.08, 0.12);
    let channel = ClassChannel::for_class(Some(&inference), class);

    let [serial_s] = interleaved(
        ROUNDS,
        [&mut || {
            std::hint::black_box(bootstrap_ratios(
                cli.seed,
                &target,
                &base,
                &channel,
                p.replicates,
            ));
        }],
    );

    // Gate: the assembled confident ratio contains its point.
    let ucfg = UncertaintyConfig {
        replicates: p.replicates.min(512),
        confidence: 0.95,
    };
    let ratio = confident_rep_ratio(&target, &base, &channel, cli.seed, &ucfg);
    adcomp_obs::info!("confident ratio verdict: {}", ratio.verdict().label());

    let rate = per_second(f64::from(p.replicates), &serial_s);
    finish("uncertainty");
    Report::new("uncertainty")
        .value("replicates_per_pass", "count", f64::from(p.replicates))
        .metric("serial_s", "s", &serial_s)
        .metric("serial_replicates_per_s", "1/s", &rate)
        .value("ratio_point", "ratio", ratio.point)
        .value("ratio_lo", "ratio", ratio.interval.lo)
        .value("ratio_hi", "ratio", ratio.interval.hi)
        .gates([gate(&ratio.interval, ratio.point)])
        .finish("BENCH_uncertainty.json")
}

fn gate(interval: &Interval, point: f64) -> Gate {
    Gate::flag("contains_point", interval.contains(point))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_interval_missing_its_point_fails() {
        let committed = Interval::new(0.7155, 0.9554);
        assert!(gate(&committed, 0.8047).pass() && gate(&committed, 0.9554).pass());
        assert!(!gate(&committed, 0.9555).pass() && !gate(&committed, 0.7154).pass());
    }
}
