//! Offline stand-in for the `criterion` crate.
//!
//! Runs each registered benchmark closure once untimed (a warm-up, so a
//! cold first call — a lazily built platform, an empty cache, a fresh
//! connection — is not charged to the measurement), then a small fixed
//! number of timed iterations, and prints their median and minimum
//! wall-clock time. No statistical analysis, warm-up calibration, or
//! HTML reports — enough to keep `cargo bench` compiling and producing
//! comparable rough numbers.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Timed iterations per benchmark; small because there is no
/// calibration.
const ITERS: u32 = 30;

/// Opaque value sink preventing the optimiser from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortises setup cost. All variants behave
/// identically here (setup always runs once per iteration).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    times: Vec<Duration>,
}

impl Bencher {
    /// Runs `routine` once untimed, then times it over the fixed
    /// iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::PerIteration);
    }

    /// Runs `routine` once untimed, then times it on fresh inputs from
    /// `setup`; setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..ITERS {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.times.push(start.elapsed());
        }
    }

    /// Median and minimum of the timed iterations (zero when none ran).
    fn summary(&mut self) -> (Duration, Duration) {
        self.times.sort_unstable();
        let at = |i: usize| self.times.get(i).copied().unwrap_or(Duration::ZERO);
        (at(self.times.len() / 2), at(0))
    }
}

/// Named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark and prints its median (and minimum) time.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher { times: Vec::new() };
        f(&mut bencher);
        let (median, min) = bencher.summary();
        println!(
            "bench {}/{}: median {:?} (min {:?}) over {} iters",
            self.name,
            id.into(),
            median,
            min,
            bencher.times.len()
        );
        self
    }

    /// Accepted for source compatibility; the shim's single-pass timer
    /// has no sampling to configure.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Ends the group (upstream flushes reports; nothing to do here).
    pub fn finish(&mut self) {}
}

/// Benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.benchmark_group(id.clone()).bench_function(id, f);
        self
    }
}

/// Declares a group-runner function invoking each benchmark fn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("sum");
        group.bench_function("iter", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runner_executes() {
        benches();
    }

    #[test]
    fn warm_up_call_is_not_timed() {
        let mut bencher = Bencher { times: Vec::new() };
        let mut calls = 0;
        bencher.iter(|| {
            calls += 1;
            // Only the first, untimed call is slow.
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        assert_eq!(calls, ITERS + 1);
        assert_eq!(bencher.times.len(), ITERS as usize);
        let (median, min) = bencher.summary();
        assert!(min <= median);
        assert!(bencher.times.iter().all(|t| *t < Duration::from_millis(50)));
    }

    #[test]
    fn summary_is_median_and_min() {
        let mut bencher = Bencher {
            times: [5, 1, 9, 3, 7].map(Duration::from_millis).to_vec(),
        };
        assert_eq!(
            bencher.summary(),
            (Duration::from_millis(5), Duration::from_millis(1))
        );
    }
}
