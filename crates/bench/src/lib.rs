//! Shared harness for the experiment binaries.
//!
//! Every binary regenerates one paper artifact (figure or table), or
//! writes one `BENCH_*.json` through [`harness`]. They all accept the
//! same flags:
//!
//! ```text
//! --scale test|paper   simulation size (default: paper)
//! --seed N             simulation seed (default: 2020)
//! --top-k N            discovery size (default: 1000 at paper scale)
//! --quiet              only warnings/errors on stderr, no narration
//! ```
//!
//! Output convention: a human-readable summary on stdout (suppressed by
//! `--quiet`; emit it with [`say!`]), then the machine-readable TSV
//! blocks (separated by `== <name> ==` markers) that EXPERIMENTS.md's
//! numbers are drawn from. Diagnostics (build/stage timings) go through
//! the `adcomp-obs` logging facade to stderr. Each binary ends with
//! [`finish`], which snapshots the global metrics registry next to its
//! TSVs and prints the end-of-run report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod plot;

use std::fs;
use std::path::{Path, PathBuf};

use adcomp_core::experiments::{ExperimentConfig, ExperimentContext};
use adcomp_core::DiscoveryConfig;
use adcomp_obs::{Registry, RunReport};
use adcomp_platform::SimScale;

/// Parsed command-line flags.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Simulation size.
    pub scale: SimScale,
    /// Simulation seed.
    pub seed: u64,
    /// Discovery top-k.
    pub top_k: usize,
    /// Suppress narration and info-level diagnostics.
    pub quiet: bool,
}

impl Cli {
    /// Parses `std::env::args`; exits with a usage message on bad flags.
    /// Also applies `--quiet` to the global logging facade, so every
    /// layer honours it.
    pub fn parse() -> Cli {
        let mut scale = SimScale::Paper;
        let mut seed = 2020u64;
        let mut top_k: Option<usize> = None;
        let mut quiet = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => match args.next().as_deref() {
                    Some("test") => scale = SimScale::Test,
                    Some("paper") => scale = SimScale::Paper,
                    other => usage(&format!("bad --scale value: {other:?}")),
                },
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => seed = v,
                    None => usage("--seed needs an integer"),
                },
                "--top-k" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => top_k = Some(v),
                    None => usage("--top-k needs an integer"),
                },
                "--quiet" | "-q" => quiet = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        let top_k = top_k.unwrap_or(match scale {
            SimScale::Paper => 1000,
            SimScale::Test => 100,
        });
        adcomp_obs::log::set_quiet(quiet);
        Cli {
            scale,
            seed,
            top_k,
            quiet,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--scale test|paper] [--seed N] [--top-k N] [--quiet]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Whether stdout narration is on (off under `--quiet`). The [`say!`]
/// macro checks this; TSV blocks print unconditionally.
pub fn narrating() -> bool {
    adcomp_obs::log::enabled(adcomp_obs::log::Level::Info)
}

/// `println!` for human narration: suppressed under `--quiet`, so stdout
/// can be piped clean. Machine-readable blocks still use
/// [`print_block`].
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => {
        if $crate::narrating() {
            println!($($arg)*);
        }
    };
}

/// Builds the experiment context, reporting build time.
pub fn context(cli: Cli) -> ExperimentContext {
    let config = ExperimentConfig {
        seed: cli.seed,
        scale: cli.scale,
        discovery: DiscoveryConfig {
            top_k: cli.top_k,
            ..DiscoveryConfig::default()
        },
        resilience: None,
        inference: None,
    };
    let (ctx, secs) = harness::time(|| ExperimentContext::new(config));
    adcomp_obs::info!(
        "simulation built in {secs:.1}s (scale {:?}, seed {}, top-k {})",
        cli.scale,
        cli.seed,
        cli.top_k
    );
    ctx
}

/// Prints a named TSV block.
pub fn print_block(name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    println!("\n== {name} ==");
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

/// Runs a stage inside a trace span, logging its wall time.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let _span = adcomp_obs::Tracer::global().span_with("bench:stage", &[("label", label.into())]);
    let (out, secs) = harness::time(f);
    adcomp_obs::info!("{label}: {secs:.1}s");
    out
}

/// Ends a binary's run: writes the Prometheus snapshot of the global
/// registry to `results/<name>_metrics.prom` and prints the end-of-run
/// report (always when degraded; otherwise only when narrating).
/// Returns the snapshot path.
pub fn finish(name: &str) -> PathBuf {
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    let path = dir.join(format!("{name}_metrics.prom"));
    let registry = Registry::global();
    match fs::write(&path, registry.render_prometheus()) {
        Ok(()) => adcomp_obs::info!("metrics snapshot: {}", path.display()),
        Err(e) => adcomp_obs::warn!("could not write {}: {e}", path.display()),
    }

    let report = run_report(name, registry, &path);
    if report.degraded() || narrating() {
        eprint!("{}", report.render());
    }
    path
}

/// The end-of-run report over `registry`'s counters: one degradation
/// line per counter that records a silent fallback.
fn run_report(name: &str, registry: &Registry, snapshot: &Path) -> RunReport {
    let snap = registry.snapshot();
    let mut report = RunReport::new(name);
    for (counter, what) in [
        (
            "adcomp_skipped_total",
            "spec(s) skipped after exhausted retries",
        ),
        (
            "adcomp_probe_warnings_total",
            "consistency-probe warning(s)",
        ),
        (
            "adcomp_platform_oracle_undecidable_total",
            "reach-oracle answer(s) undecidable; measured instead",
        ),
    ] {
        let n = snap.counter(counter);
        if n > 0 {
            report.degradation(format!("{n} {what}"));
        }
    }
    report.note(format!("snapshot: {}", snapshot.display()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::Tracer;

    #[test]
    fn undecidable_oracle_answers_are_a_degradation() {
        let registry = Registry::new();
        let quiet = run_report("t", &registry, Path::new("t.prom"));
        assert!(!quiet.degraded());
        registry
            .counter_with(
                "adcomp_platform_oracle_undecidable_total",
                &[("interface", "a")],
            )
            .add(2);
        registry
            .counter_with(
                "adcomp_platform_oracle_undecidable_total",
                &[("interface", "b")],
            )
            .inc();
        let report = run_report("t", &registry, Path::new("t.prom"));
        assert!(report.degraded());
        let text = report.render_with(&registry, &Tracer::new(16));
        assert!(
            text.contains("3 reach-oracle answer(s) undecidable; measured instead"),
            "{text}"
        );
    }
}
