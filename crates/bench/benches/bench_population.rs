//! Population benchmarks: the cost of building a platform's audiences.
//!
//! `materialize_all` is timed over the paper-scale Facebook catalog
//! (667 attributes on 220k users) and the test-scale Google catalog,
//! and reported per (user, model) draw; `Universe::generate` is reported
//! in users per second. Each figure is the median of a few repetitions
//! on all available hardware threads; pin the process to one CPU
//! (`taskset -c 0 cargo bench -p adcomp-bench --bench bench_population`)
//! for the single-thread kernel cost.

use std::time::{Duration, Instant};

use adcomp_platform::{build_facebook, build_google, SimScale};
use adcomp_population::{AttributeModel, Universe};

const REPS: usize = 5;

/// Median wall time of `REPS` runs of `f`.
fn median_time<T>(mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[REPS / 2]
}

fn bench_catalog(name: &str, universe: &Universe, models: &[AttributeModel]) {
    let time = median_time(|| universe.materialize_all(models));
    let draws = f64::from(universe.n_users()) * models.len() as f64;
    println!(
        "bench population/materialize_all/{name}: {:.2} ns per (user, model), \
         {} users x {} models, median {time:?} of {REPS}",
        time.as_secs_f64() * 1e9 / draws,
        universe.n_users(),
        models.len(),
    );
    let time = median_time(|| Universe::generate(universe.config()));
    println!(
        "bench population/generate/{name}: {:.0} users/s, median {time:?} of {REPS}",
        f64::from(universe.n_users()) / time.as_secs_f64(),
    );
}

fn main() {
    for (name, platform) in [
        ("facebook_paper", build_facebook(2020, SimScale::Paper)),
        ("google_test", build_google(2020, SimScale::Test)),
    ] {
        let models: Vec<_> = platform
            .catalog()
            .entries()
            .iter()
            .map(|e| e.model.clone())
            .collect();
        bench_catalog(name, platform.universe(), &models);
    }
}
