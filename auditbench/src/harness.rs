//! Timing statistics, the per-run scratch directory, and the JSON the
//! benchmark prints.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Median, quartiles and sample count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (the reported value).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

/// The `q`-quantile of sorted samples, interpolating linearly between
/// closest ranks (the "inclusive" definition: the minimum is quantile 0,
/// the maximum quantile 1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises samples (at least one).
fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        value: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// The median of samples (at least one).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).value
}

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub summary: Summary,
}

impl Metric {
    /// A metric summarising several samples.
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            summary: summarize(samples),
        }
    }

    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Audit rounds attempted (warm-up included).
    pub attempted: u64,
    /// Rounds that errored or produced a wrong output, with why.
    pub failures: Vec<String>,
    /// Extra `"key": value` JSON members for the envelope.
    pub details: Vec<(String, String)>,
}

/// FNV-1a over bytes: the digest outputs are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The calibration kernel's time on the measurement host (a 2-vCPU
/// x86_64 VM) when it is quiet, s: the unit time metrics are scaled to.
pub const REFERENCE_KERNEL_S: f64 = 0.018;

/// Times the host-speed calibration kernel on `threads` threads at once
/// and returns their mean time. The kernel is a fixed mix of integer
/// arithmetic and AND-popcount passes over 4 MiB, the kind of work the
/// audits do, in code of the benchmark's own that no change to the
/// program touches. On a shared host every thread's speed drifts by tens
/// of percent over minutes, often on one hardware thread more than the
/// other; the kernel, run on as many threads as the measured work keeps
/// busy, drifts with it.
pub fn calibration_s(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_s();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let running: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_s)).collect();
        running
            .into_iter()
            .map(|t| t.join().expect("the calibration kernel cannot panic"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

fn kernel_s() -> f64 {
    static DATA: OnceLock<(Vec<u64>, Vec<u64>)> = OnceLock::new();
    let (a, b) = DATA.get_or_init(|| {
        let words = |m: u64| (0..1u64 << 18).map(|i| i.wrapping_mul(m)).collect();
        (words(0x9e37_79b9_7f4a_7c15), words(0xbf58_476d_1ce4_e5b9))
    });
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..10_000_000u64 {
        x = x
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(i ^ (x >> 13));
    }
    let mut ones = 0u64;
    for _ in 0..16 {
        for (p, q) in a.iter().zip(b) {
            ones += u64::from((p & q).count_ones());
        }
    }
    std::hint::black_box((x, ones));
    started.elapsed().as_secs_f64()
}

/// `secs` as the reference host would have taken, given the calibration
/// kernel's time measured beside them.
pub fn at_reference_speed(secs: f64, kernel_s: f64) -> f64 {
    secs * REFERENCE_KERNEL_S / kernel_s
}

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory of this run's own under `--out`, removed on drop unless
/// kept. Its name joins workload, pid and the clock's nanoseconds, so
/// two runs never share one, even when pids repeat.
pub struct ScratchDir {
    path: PathBuf,
    keep: bool,
}

impl ScratchDir {
    /// Creates `<out>/<workload>-<pid>-<nanos>`.
    pub fn create(out: &Path, workload: &str, keep: bool) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = out.join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path, keep })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A fresh, empty `dir/name`.
pub fn fresh(dir: &Path, name: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// A JSON number. Rust prints finite floats in full, without exponents.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// A JSON string (names, units and reasons here never need escapes
/// beyond these).
fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The full envelope: every metric with its quartiles and sample count,
/// the environment, and why any round failed.
pub fn envelope(workload: &str, seed: u64, mode: &str, outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let s = m.summary;
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{},\"unit\":{},\"n\":{},\"q1\":{},\"q3\":{}}}",
            if i == 0 { "" } else { "," },
            string(m.name),
            number(s.value),
            string(m.unit),
            s.n,
            number(s.q1),
            number(s.q3)
        );
    }
    let failures: Vec<String> = outcome.failures.iter().map(|f| string(f)).collect();
    let details: String = outcome
        .details
        .iter()
        .map(|(k, v)| format!(",{}:{v}", string(k)))
        .collect();
    format!(
        "{{\"bench\":\"auditbench\",\"workload\":{},\"seed\":{seed},\"mode\":{},\
         \"env\":{{\"hardware_threads\":{},\"os\":{},\"arch\":{}}},\"metrics\":{{{metrics}}},\
         \"attempted\":{},\"failed\":{},\"failures\":[{}]{details},\"pass\":{}}}",
        string(workload),
        string(mode),
        hardware_threads(),
        string(std::env::consts::OS),
        string(std::env::consts::ARCH),
        outcome.attempted,
        outcome.failures.len(),
        failures.join(","),
        outcome.failures.is_empty()
    )
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` {name: {value, unit}}.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(m.name),
                number(m.summary.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (5.0, 3.0, 7.0, 5));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.value, 2.5);
        assert_eq!(even.q1, 1.75);
        assert_eq!(even.q3, 3.25);
        let one = summarize(&[42.0]);
        assert_eq!((one.value, one.q1, one.q3, one.n), (42.0, 42.0, 42.0, 1));
    }

    #[test]
    fn quantile_endpoints_are_the_extremes() {
        let sorted = [1.0, 2.0, 10.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        assert_eq!(quantile(&sorted, 0.75), 6.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            metrics: vec![Metric::of("audit_s", "s", &[0.5, 0.25, 1.0])],
            attempted: 4,
            failures: Vec::new(),
            details: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\
             \"metrics\":{\"audit_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
