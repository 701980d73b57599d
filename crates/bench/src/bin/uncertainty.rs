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

use std::sync::Arc;
use std::time::Instant;

use adcomp_bench::{finish, say, Cli};
use adcomp_core::source::{ApiSource, AuditTarget, SensitiveClass};
use adcomp_core::{
    bootstrap_ratios, confident_rep_ratio, measure_spec, ClassChannel, MeasuredPair,
    UncertaintyConfig,
};
use adcomp_platform::{SimScale, Simulation};
use adcomp_population::{AttributeInference, Gender};
use adcomp_targeting::{AttributeId, TargetingSpec};

/// Timed passes (best-of).
const ROUNDS_BEST_OF: usize = 2;

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

fn best_of(f: impl Fn() -> Vec<f64>) -> f64 {
    (0..ROUNDS_BEST_OF)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let cli = Cli::parse();
    let p = Params::for_scale(cli.scale);
    let sim = Simulation::build(cli.seed, cli.scale);

    // Real measured counts through the audited pipeline: the whole
    // universe as the base, the first catalog attribute as the target,
    // observed through a noisy inference channel so the deconvolution
    // path is part of every replicate.
    let audit = AuditTarget::direct(Arc::new(ApiSource(sim.facebook.clone())));
    let base_m = measure_spec(&audit, &TargetingSpec::everyone()).expect("measure base");
    let target_m =
        measure_spec(&audit, &TargetingSpec::and_of([AttributeId(0)])).expect("measure target");
    let class = SensitiveClass::Gender(Gender::Female);
    let rounding = sim.facebook.config().rounding;
    let base = MeasuredPair::of(&base_m, class, rounding);
    let target = MeasuredPair::of(&target_m, class, rounding);
    let inference = AttributeInference::noisy(cli.seed ^ 0x1A7E5, 0.08, 0.12);
    let channel = ClassChannel::for_class(Some(&inference), class);
    say!(
        "{} replicates/pass over target {}/{} vs base {}/{}",
        p.replicates,
        target.class_count,
        target.complement_count,
        base.class_count,
        base.complement_count
    );

    let serial_s = best_of(|| bootstrap_ratios(cli.seed, &target, &base, &channel, p.replicates));

    // Gate: the assembled confident ratio contains its point.
    let ucfg = UncertaintyConfig {
        replicates: p.replicates.min(512),
        confidence: 0.95,
    };
    let ratio = confident_rep_ratio(&target, &base, &channel, cli.seed, &ucfg);
    let contains_point = ratio.interval.contains(ratio.point);

    let serial_per_s = p.replicates as f64 / serial_s;
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pass = contains_point;

    let json = format!(
        "{{\n  \"bench\": \"uncertainty\",\n  \"replicates_per_pass\": {replicates},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"serial_s\": {serial_s:.4},\n  \
         \"serial_replicates_per_s\": {serial_per_s:.0},\n  \
         \"ratio_point\": {point:.4},\n  \
         \"ratio_lo\": {lo:.4},\n  \"ratio_hi\": {hi:.4},\n  \
         \"verdict\": \"{verdict}\",\n  \
         \"contains_point\": {contains_point},\n  \"pass\": {pass}\n}}\n",
        replicates = p.replicates,
        point = ratio.point,
        lo = ratio.interval.lo,
        hi = ratio.interval.hi,
        verdict = ratio.verdict().label(),
    );
    std::fs::write("BENCH_uncertainty.json", &json).expect("write BENCH_uncertainty.json");
    say!("{json}");
    adcomp_obs::info!(
        "uncertainty: {serial_per_s:.0} replicates/s; ratio {:.2} in [{:.2}, {:.2}]",
        ratio.point,
        ratio.interval.lo,
        ratio.interval.hi
    );
    finish("uncertainty");
    if !pass {
        adcomp_obs::error!("uncertainty bench failed: contains_point={contains_point}");
        std::process::exit(1);
    }
}
