//! The one harness every `BENCH_*.json` program runs on: a warm-up and
//! interleaved timed rounds, the hardware-thread rule, named gates, a
//! scratch dir, peak RSS, and one envelope — `bench`,
//! `env.hardware_threads`, `metrics{value,unit,n,min,q1,q3}`,
//! `gates[{name,value,op,bound,enforced,pass}]` and `pass`.
//!
//! A metric's `value` is the median of its samples; gates on timings
//! read the best round (`min`), which sheds scheduler noise. A flag
//! (byte-identity, no lost records) is a gate of value 1 or 0 against
//! `>= 1`. The top-level `pass` is false when any enforced gate misses,
//! and `main` then exits with failure, after the file is written.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::say;

/// The `q`-quantile of samples (at least one), interpolating linearly
/// between closest ranks: the minimum is quantile 0, the maximum 1.
fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The best (smallest) of a timing's samples.
pub fn best(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// Runs every mode once untimed (caches, connections, lazy set-up),
/// then `rounds` timed rounds in which each mode runs once, in order,
/// so slow load drift on the host hits every mode alike. Returns each
/// mode's wall seconds per round, in mode order.
pub fn interleaved<const N: usize>(
    rounds: usize,
    mut modes: [&mut dyn FnMut(); N],
) -> [Vec<f64>; N] {
    for mode in modes.iter_mut() {
        mode();
    }
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for _ in 0..rounds {
        for (mode, out) in modes.iter_mut().zip(secs.iter_mut()) {
            out.push(time(mode).1);
        }
    }
    secs
}

/// Runs `f` once, returning its result and wall seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `work` units per second for each timing sample.
pub fn per_second(work: f64, secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| work / s).collect()
}

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing
/// (non-Linux dev hosts, where an RSS ceiling then passes trivially).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// A fresh, empty directory under the system temp dir, removed on drop.
/// Its name joins a tag, the pid and a per-process counter, so no two
/// scratch dirs share one.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<tmp>/adcomp-bench-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("adcomp-bench-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A named verdict: `value op bound`, with `op` one of `<`, `<=`, `>=`.
#[derive(Clone, Debug)]
pub struct Gate {
    name: &'static str,
    value: f64,
    op: &'static str,
    bound: f64,
    enforced: bool,
}

impl Gate {
    /// An enforced gate.
    pub fn new(name: &'static str, value: f64, op: &'static str, bound: f64) -> Gate {
        assert!(matches!(op, "<" | "<=" | ">="), "unknown gate op {op}");
        Gate {
            name,
            value,
            op,
            bound,
            enforced: true,
        }
    }

    /// `ok` as a gate: 1 or 0 against `>= 1`.
    pub fn flag(name: &'static str, ok: bool) -> Gate {
        Gate::new(name, if ok { 1.0 } else { 0.0 }, ">=", 1.0)
    }

    /// Enforces a parallel speedup floor only where the host has two or
    /// more hardware threads: with one, no pool can beat serial.
    pub fn parallel(self, hardware_threads: usize) -> Gate {
        self.enforced_if(hardware_threads >= 2)
    }

    /// Enforces the gate only when `enforced` holds; an unenforced gate
    /// is still measured and written.
    pub fn enforced_if(mut self, enforced: bool) -> Gate {
        self.enforced = enforced;
        self
    }

    /// Whether the value meets the bound, enforced or not.
    pub fn met(&self) -> bool {
        match self.op {
            "<" => self.value < self.bound,
            "<=" => self.value <= self.bound,
            _ => self.value >= self.bound,
        }
    }

    /// Whether the gate lets the run pass: met, or not enforced.
    pub fn pass(&self) -> bool {
        !self.enforced || self.met()
    }
}

/// One BENCH program's metrics and gates.
pub struct Report {
    bench: &'static str,
    metrics: Vec<(String, &'static str, Vec<f64>)>,
    gates: Vec<Gate>,
}

impl Report {
    /// An empty report for program `bench`.
    pub fn new(bench: &'static str) -> Report {
        Report {
            bench,
            metrics: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Adds a metric summarising `samples` (at least one).
    pub fn metric(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> &mut Report {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        self.metrics
            .push((name.to_string(), unit, samples.to_vec()));
        self
    }

    /// Adds a metric measured once.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) -> &mut Report {
        self.metric(name, unit, &[value])
    }

    /// Adds gates.
    pub fn gates(&mut self, gates: impl IntoIterator<Item = Gate>) -> &mut Report {
        self.gates.extend(gates);
        self
    }

    /// Whether every gate passes.
    pub fn pass(&self) -> bool {
        self.gates.iter().all(Gate::pass)
    }

    /// The envelope.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, samples)| {
                let q = |p| number(quantile(samples, p));
                let (n, min, q1, q3) = (samples.len(), q(0.0), q(0.25), q(0.75));
                format!(
                    "    \"{name}\": {{ \"value\": {}, \"unit\": \"{unit}\", \"n\": {n}, \
                     \"min\": {min}, \"q1\": {q1}, \"q3\": {q3} }}",
                    q(0.5)
                )
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                let (value, bound) = (number(g.value), number(g.bound));
                format!(
                    "    {{ \"name\": \"{}\", \"value\": {value}, \"op\": \"{}\", \
                     \"bound\": {bound}, \"enforced\": {}, \"pass\": {} }}",
                    g.name,
                    g.op,
                    g.enforced,
                    g.pass()
                )
            })
            .collect();
        let (os, arch) = (std::env::consts::OS, std::env::consts::ARCH);
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"env\": {{ \"hardware_threads\": {}, \"os\": \"{os}\", \
             \"arch\": \"{arch}\" }},\n  \"metrics\": {{\n{}\n  }},\n  \"gates\": [\n{}\n  ],\n  \
             \"pass\": {}\n}}\n",
            self.bench,
            hardware_threads(),
            metrics.join(",\n"),
            gates.join(",\n"),
            self.pass()
        )
    }

    /// Writes the envelope to `path`, prints it unless `--quiet`, logs
    /// every missed gate, and returns the exit code for `main`: failure
    /// when an enforced gate missed.
    pub fn finish(&self, path: &str) -> ExitCode {
        let json = self.to_json();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        say!("{json}");
        for g in self.gates.iter().filter(|g| !g.met()) {
            let (value, bound) = (number(g.value), number(g.bound));
            let enforced = g.enforced;
            adcomp_obs::warn!(
                "{}: {value} is not {} {bound} (enforced: {enforced})",
                g.name,
                g.op
            );
        }
        if self.pass() {
            return ExitCode::SUCCESS;
        }
        adcomp_obs::error!("{} missed a gate; numbers written to {path}", self.bench);
        ExitCode::FAILURE
    }
}

/// A JSON number to six significant digits, without trailing zeros;
/// non-finite values (a ratio over zero) are `null`.
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let decimals = (5 - v.abs().log10().floor() as i32).max(0) as usize;
    let s = format!("{v:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let q = |samples: &[f64]| [0.0, 0.25, 0.5, 0.75].map(|p| quantile(samples, p));
        assert_eq!(q(&[9.0, 1.0, 5.0, 3.0, 7.0]), [1.0, 3.0, 5.0, 7.0]);
        // Ranks 0.75, 1.5 and 2.25 of [1, 2, 3, 4].
        assert_eq!(q(&[4.0, 1.0, 3.0, 2.0]), [1.0, 1.75, 2.5, 3.25]);
        assert_eq!(q(&[42.0]), [42.0; 4]);
        assert_eq!(quantile(&[1.0, 2.0, 10.0], 0.75), 6.0);
        assert_eq!(best(&[0.3, 0.1, 0.2]), 0.1);
    }

    #[test]
    fn interleaved_warms_up_then_alternates_modes() {
        let order = &std::cell::RefCell::new(String::new());
        let mode = |c| move || order.borrow_mut().push(c);
        let [a, b] = interleaved(3, [&mut mode('a'), &mut mode('b')]);
        assert_eq!(
            (order.borrow().as_str(), a.len(), b.len()),
            ("abababab", 3, 3)
        );
    }

    #[test]
    fn gates_compare_and_follow_the_two_thread_rule() {
        assert!(Gate::new("g", 4.99, "<", 5.0).pass() && !Gate::new("g", 5.0, "<", 5.0).pass());
        assert!(Gate::new("g", 5.0, "<=", 5.0).pass() && !Gate::new("g", 5.01, "<=", 5.0).pass());
        assert!(Gate::new("g", 2.0, ">=", 2.0).pass() && !Gate::new("g", 1.99, ">=", 2.0).pass());
        assert!(Gate::flag("g", true).pass() && !Gate::flag("g", false).pass());
        let slow = Gate::new("g", 1.0, ">=", 2.0);
        assert!(slow.clone().parallel(1).pass() && !slow.clone().parallel(1).met());
        assert!(!slow.parallel(2).pass());
    }

    #[test]
    fn envelope_carries_metrics_gates_and_one_verdict() {
        let mut report = Report::new("demo");
        report
            .metric("round_s", "s", &[0.5, 0.25, 1.0])
            .gates([Gate::new("speedup", 0.5, ">=", 2.0).parallel(1)]);
        let json = report.to_json();
        assert!(json.contains(
            "\"round_s\": { \"value\": 0.5, \"unit\": \"s\", \"n\": 3, \"min\": 0.25, \
             \"q1\": 0.375, \"q3\": 0.75 }"
        ));
        assert!(json.contains(
            "{ \"name\": \"speedup\", \"value\": 0.5, \"op\": \">=\", \"bound\": 2, \
             \"enforced\": false, \"pass\": true }"
        ));
        assert!(json.ends_with("\n  \"pass\": true\n}\n"));
        report.gates([Gate::flag("identical", false)]);
        assert!(report.to_json().ends_with("\n  \"pass\": false\n}\n"));
        let numbers = [f64::INFINITY, 2137.98897, 0.001221432, -6.994463, 2268.0];
        assert_eq!(
            numbers.map(number),
            ["null", "2137.99", "0.00122143", "-6.99446", "2268"]
        );
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let (a, b) = (ScratchDir::new("harness"), ScratchDir::new("harness"));
        assert!(a.path() != b.path() && a.path().is_dir());
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
