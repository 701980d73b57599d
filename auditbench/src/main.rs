//! `benchmark`: the canonical audit's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark [run|trace] --workload <name> [--seed N] [--seconds S]
//!           [--trace 0|1] [--out DIR] [--keep]
//! ```
//!
//! One process runs one workload. Untraced (`run`, `--trace 0`, the
//! default) it prints the end-to-end metrics; traced (`trace`,
//! `--trace 1`) the per-layer ones. It prints the run's full JSON
//! envelope, then, as its last line, the result: exactly `correct`,
//! `attempted`, `failed` and `metrics`. Every round's output is checked;
//! when any round fails or is wrong the command exits 1. Stores, segment
//! files and traces go to a fresh directory under `--out` (default
//! `target/benchmark`), removed on exit unless `--keep` is given.

mod harness;
mod ledger;
mod program;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;

use workloads::Workload;

const USAGE: &str = "usage: benchmark [run|trace] --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR] [--keep]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    keep: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = run::REFERENCE_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("target/benchmark");
    let mut keep = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "run" => trace = false,
            "trace" => trace = true,
            "--workload" => {
                let name = value("--workload")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--keep" => keep = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        keep,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = args.workload.name();
    let scratch = match harness::ScratchDir::create(&args.out, name, args.keep) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!(
                "error: cannot create a run directory under {}: {e}",
                args.out.display()
            );
            std::process::exit(2);
        }
    };
    let (mode, outcome) = if args.trace {
        (
            "trace",
            run::trace(args.workload, args.seed, args.seconds, scratch.path()),
        )
    } else {
        (
            "run",
            run::measure(args.workload, args.seed, args.seconds, scratch.path()),
        )
    };
    println!("{}", harness::envelope(name, args.seed, mode, &outcome));
    println!("{}", harness::result_line(&outcome));
    drop(scratch);
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
