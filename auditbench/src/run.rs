//! The two modes of a run: `measure` reports the end-to-end metrics from
//! untraced rounds; `trace` reports the per-layer metrics from traced
//! rounds and the ledger.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::harness::{
    at_reference_speed, calibration_s, digest, fresh, hardware_threads, median, peak_rss_mib,
    quantile, Metric, Outcome, REFERENCE_KERNEL_S,
};
use crate::ledger;
use crate::program as p;
use crate::trace::{self, covered_by, nested_self_time, of, Layer, Recorder, Span};
use crate::workloads::{Mode, Round, State, Workload};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed rounds before timing starts.
const WARMUP_ROUNDS: usize = 1;
/// Fewest timed rounds a run reports.
const MIN_ROUNDS: usize = 3;
/// The seed the committed reference digests are for.
pub const REFERENCE_SEED: u64 = 2020;

/// `workload<TAB>digest` lines: the FNV-1a digest of each workload's
/// output at [`REFERENCE_SEED`].
const REFERENCES: &str = include_str!("../reference.tsv");

fn reference(workload: Workload) -> Option<u64> {
    REFERENCES
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, hex) = l.split_once('\t')?;
            (name == workload.name())
                .then(|| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())?
        })
}

/// Runs rounds and checks every output.
struct Runner<'a> {
    state: &'a State,
    workload: Workload,
    seed: u64,
    /// What every output must equal, and where that came from.
    expected: Option<(String, &'static str)>,
    attempted: u64,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl<'a> Runner<'a> {
    fn new(state: &'a State, workload: Workload, seed: u64) -> Runner<'a> {
        let source = match workload {
            Workload::Table1Fleet => "the in-process serial table",
            Workload::Replay => "the recorded table",
            _ => "round 0's output",
        };
        Runner {
            state,
            workload,
            seed,
            expected: state.expected.clone().map(|e| (e, source)),
            attempted: 0,
            failures: Vec::new(),
            digest: None,
        }
    }

    fn round(&mut self, mode: Mode) -> Round {
        let index = self.attempted;
        let round = self.state.round(index as usize, mode);
        self.attempted += 1;
        match &round.output {
            Err(e) => self.failures.push(format!("round {index}: {e}")),
            Ok(out) => self.check(index, out),
        }
        if (self.workload == Workload::Replay) != (round.platform_estimates == 0) {
            self.failures.push(format!(
                "round {index}: the platforms answered {} estimates",
                round.platform_estimates
            ));
        }
        round
    }

    fn check(&mut self, index: u64, out: &str) {
        match &self.expected {
            Some((expected, source)) if expected != out => self
                .failures
                .push(format!("round {index}: output differs from {source}")),
            Some(_) => {}
            None => self.expected = Some((out.to_string(), "round 0's output")),
        }
        let d = digest(out.as_bytes());
        self.digest = Some(d);
        if self.seed == REFERENCE_SEED {
            match reference(self.workload) {
                Some(r) if r == d => {}
                Some(r) => self.failures.push(format!(
                    "round {index}: digest {d:#018x} differs from the reference {r:#018x}"
                )),
                None => self
                    .failures
                    .push(format!("no reference digest for {}", self.workload.name())),
            }
        }
    }

    /// Timed rounds for at least `seconds` and `min` rounds.
    fn rounds(&mut self, seconds: f64, min: usize, mode: Mode) -> Vec<Round> {
        let started = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || started.elapsed().as_secs_f64() < seconds {
            out.push(self.round(mode));
        }
        out
    }

    fn outcome(self, metrics: Vec<Metric>, mut details: Vec<(String, String)>) -> Outcome {
        if let Some(d) = self.digest {
            details.push(("digest".into(), format!("\"{d:#018x}\"")));
        }
        Outcome {
            metrics,
            attempted: self.attempted,
            failures: self.failures,
            details,
        }
    }
}

fn failed(why: String) -> Outcome {
    Outcome {
        metrics: Vec::new(),
        attempted: 1,
        failures: vec![why],
        details: Vec::new(),
    }
}

/// A latency's median (with quartiles) and 99th percentile, µs.
fn latency(p50: &'static str, p99: &'static str, samples: &[f64]) -> [Metric; 2] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [
        Metric::of(p50, "us", &sorted),
        Metric::single(p99, "us", quantile(&sorted, 0.99)),
    ]
}

fn secs(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(|r| r.secs).collect()
}

/// The end-to-end metrics of `workload`: the median of [`SETUPS`]
/// set-ups, then a warm-up round, then timed rounds for `seconds`. Each
/// set-up and round is followed by the calibration kernel, and its time
/// is reported at the reference host's speed.
pub fn measure(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let (mut setups, mut setups_wall, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        match State::setup(workload, seed, dir, None) {
            Ok(s) => state = Some(s),
            Err(e) => return failed(format!("set-up: {e}")),
        }
        let wall = started.elapsed().as_secs_f64();
        // Set-ups generate universes on every hardware thread.
        setups.push(at_reference_speed(wall, calibration_s(hardware_threads())));
        setups_wall.push(wall);
    }
    let state = state.expect("at least one set-up");
    let mut runner = Runner::new(&state, workload, seed);
    for _ in 0..WARMUP_ROUNDS {
        runner.round(Mode::Plain);
    }
    let (mut audits, mut audits_wall, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while audits.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let round = runner.round(Mode::Plain);
        let kernel = calibration_s(workload.round_threads());
        let secs = at_reference_speed(round.secs, kernel);
        audits.push(secs);
        audits_wall.push(round.secs);
        qps.push(round.answered as f64 / secs);
        kernels.push(kernel);
    }
    let metrics = vec![
        Metric::of("audit_s", "s", &audits),
        Metric::of("queries_per_s", "1/s", &qps),
        Metric::of("setup_s", "s", &setups),
        Metric::single("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
    ];
    let host = format!(
        "{{\"calibration_s\":{},\"reference_s\":{REFERENCE_KERNEL_S},\
         \"audit_wall_s\":{},\"setup_wall_s\":{}}}",
        median(&kernels),
        median(&audits_wall),
        median(&setups_wall)
    );
    runner.outcome(metrics, vec![("host".to_string(), host)])
}

/// The per-layer metrics of `workload`: untraced rounds for half of
/// `seconds`, one round capturing the query stream, traced rounds for
/// the other half, then the ledger over the captured stream.
pub fn trace(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let rec = Arc::new(Recorder::new());
    let state = match State::setup(workload, seed, dir, Some(rec.clone())) {
        Ok(s) => s,
        Err(e) => return failed(format!("set-up: {e}")),
    };
    let mut runner = Runner::new(&state, workload, seed);
    let counters = || {
        (
            p::counter(p::RESILIENCE_RETRIES),
            p::WIRE_ERRORS.iter().map(|c| p::counter(c)).sum::<u64>(),
        )
    };
    let before = counters();
    for _ in 0..WARMUP_ROUNDS {
        runner.round(Mode::Plain);
    }
    let untraced = runner.rounds(seconds / 2.0, MIN_ROUNDS, Mode::Plain);
    rec.set(true, true);
    let capture = runner.round(Mode::Capture);
    let capture_spans = rec.take_spans();
    rec.set(true, false);
    let traced = runner.rounds(seconds / 2.0, MIN_ROUNDS, Mode::Traced);
    rec.set(false, false);
    let after = counters();
    if let Some(greedy) = state.greedy_output() {
        match (greedy, &runner.expected) {
            (Ok(g), Some((bounded, _))) if &g == bounded => {}
            (Ok(_), _) => runner
                .failures
                .push("bounded discovery differs from the greedy scan".into()),
            (Err(e), _) => runner.failures.push(format!("greedy scan: {e}")),
        }
    }

    let spans = rec.take_spans();
    let stream = rec.take_stream();
    let ledger = match fresh(dir, "ledger")
        .and_then(|d| Ok((state.ledger_platforms(&d)?, d)))
        .and_then(|(platforms, d)| ledger::run(&stream, &platforms, seed, &d))
    {
        Ok(l) => l,
        Err(e) => return failed(format!("ledger: {e}")),
    };
    runner.failures.extend(ledger.mismatches.iter().cloned());
    let every: Vec<Span> = capture_spans.iter().chain(&spans).copied().collect();
    let _ = trace::write_jsonl(&dir.join("trace.jsonl"), &every);
    let _ = ledger.write_jsonl(&dir.join("ledger.jsonl"));

    let seams = seams(
        &state,
        workload,
        &spans,
        (&capture, &capture_spans),
        &traced,
        &ledger,
    );
    let details = vec![("spans_vs_ledger".to_string(), seams.agreement)];

    let rung = |name| ledger.marginal(name);
    let mut metrics = vec![
        Metric::of("core.driver_self_s", "s", &seams.driver_self),
        Metric::of("sched.busy_frac", "ratio", &seams.busy),
        Metric::single(
            "trace.overhead_frac",
            "ratio",
            median(&secs(&traced)) / median(&secs(&untraced)) - 1.0,
        ),
        Metric::of("trace.unaccounted_frac", "ratio", &seams.unaccounted),
        Metric::of(
            "core.context_build_s",
            "s",
            &untraced.iter().map(|r| r.context_secs).collect::<Vec<_>>(),
        ),
        Metric::single("platform.build_s", "s", state.build_secs),
        Metric::of(
            "platform.estimates",
            "count",
            &untraced
                .iter()
                .map(|r| r.platform_estimates as f64)
                .collect::<Vec<_>>(),
        ),
        Metric::of("platform.oracle_calls", "count", &seams.oracle_calls),
        Metric::single(
            "core.resilience_retries",
            "count",
            (after.0 - before.0) as f64,
        ),
        Metric::single("wire.errors", "count", (after.1 - before.1) as f64),
        Metric::of("bitset.and_count_ns", "ns", &rung("floor")),
        Metric::of("targeting.evaluate_ns", "ns", &rung("evaluate")),
        Metric::of("platform.check_ns", "ns", &rung("check")),
        Metric::of("platform.estimate_ns", "ns", &rung("estimate")),
        Metric::of("core.source_ns", "ns", &rung("source")),
        Metric::of("core.resilience_ns", "ns", &rung("resilience")),
        Metric::of("core.recording_ns", "ns", &rung("recording")),
        Metric::of("core.replay_ns", "ns", &rung("replay")),
        Metric::of("store.append_per_s", "1/s", &ledger.append_per_s),
        Metric::single(
            "store.bytes_per_estimate",
            "bytes",
            ledger.bytes_per_estimate,
        ),
        Metric::of("store.open_s", "s", &ledger.open_s),
        Metric::of("wire.serial_ns", "ns", &rung("wire")),
        Metric::of("wire.pipelined_ns", "ns", &rung("pipelined")),
        Metric::of("sched.ns", "ns", &rung("sched")),
        Metric::of("platform.segmented_estimate_ns", "ns", &rung("segmented")),
        Metric::of("platform.oracle_ns", "ns", &rung("oracle")),
        Metric::single(
            "population.cache_miss_rate",
            "ratio",
            ledger.cache_miss_rate,
        ),
        Metric::single(
            "population.cache_resident_mib",
            "MiB",
            ledger.cache_resident_mib,
        ),
        Metric::single(
            "population.generate_users_per_s",
            "1/s",
            ledger.generate_users_per_s,
        ),
    ];
    metrics.extend(latency(
        "wire.batch_us_p50",
        "wire.batch_us_p99",
        &ledger.batch_us,
    ));
    metrics.extend(latency(
        "platform.server_us_p50",
        "platform.server_us_p99",
        &ledger.server_us,
    ));
    runner.outcome(metrics, details)
}

/// What the spans say, per traced round.
struct Seams {
    /// Share of the round with a measurement call in flight.
    busy: Vec<f64>,
    /// The round minus its time in measurement calls and oracle calls, s.
    driver_self: Vec<f64>,
    /// Oracle calls in the round.
    oracle_calls: Vec<f64>,
    /// |round − (queries × the ledger's cost per query ÷ endpoint
    /// concurrency + oracle time + driver self time)| ÷ round.
    unaccounted: Vec<f64>,
    /// JSON: per-call span times beside the ledger's cost of the same
    /// layers.
    agreement: String,
}

/// Reads the seam spans. Endpoint busy time counts once however many
/// endpoints were busy at once, and the ledger's serial per-query cost
/// is divided by that concurrency. The in-process stacks have no
/// endpoint seam of their own, so their time inside the measurement
/// source is the capturing round's, per query.
fn seams(
    state: &State,
    workload: Workload,
    spans: &[Span],
    (capture, capture_spans): (&Round, &[Span]),
    traced: &[Round],
    ledger: &ledger::Ledger,
) -> Seams {
    let native = state.native_seams();
    let seam_spans = if native { spans } else { capture_spans };
    let endpoints = of(seam_spans, Layer::Endpoint);
    let servers = of(seam_spans, Layer::Server);
    let oracles = of(spans, Layer::Oracle);
    // The ledger rungs a query passes through below the endpoint seam:
    // the whole path, the endpoint layer's own share, and the server's.
    let (path, endpoint_layer, server) = match workload {
        Workload::Table1Paper => ("source", "source", "estimate"),
        Workload::Table1Fleet => ("wire", "wire", "estimate"),
        Workload::Replay => ("replay", "replay", "replay"),
        Workload::DiscoverySegmented => ("segmented", "source", "segmented"),
    };
    let path_ns = ledger.total(path);
    let total = |s: &[Span]| s.iter().map(Span::len).sum::<u64>() as f64;
    let capture_ns_per_query = total(&endpoints) / capture.answered.max(1) as f64;
    let mut out = Seams {
        busy: Vec::new(),
        driver_self: Vec::new(),
        oracle_calls: Vec::new(),
        unaccounted: Vec::new(),
        agreement: String::new(),
    };
    for (d, round) in of(spans, Layer::Driver).iter().zip(traced) {
        let wall = d.len() as f64;
        let inside = |s: &&Span| s.start >= d.start && s.end <= d.end;
        let calls: Vec<Span> = oracles.iter().filter(inside).copied().collect();
        let (covered, concurrency) = if native {
            let within: Vec<Span> = endpoints.iter().filter(inside).copied().collect();
            let covered = covered_by(d, &within) as f64;
            (covered, (total(&within) / covered.max(1.0)).max(1.0))
        } else {
            (capture_ns_per_query * round.answered as f64, 1.0)
        };
        let own = wall - covered - total(&calls);
        let accounted = round.answered as f64 * path_ns / concurrency + total(&calls) + own;
        out.busy.push(covered / wall);
        out.driver_self.push(own / 1e9);
        out.oracle_calls.push(calls.len() as f64);
        out.unaccounted.push((accounted - wall).abs() / wall);
    }
    let queries: u64 = if native {
        traced.iter().map(|r| r.answered).sum()
    } else {
        capture.answered
    };
    let endpoint_self = nested_self_time(&endpoints, &servers) as f64 / queries.max(1) as f64;
    let server_per_call = total(&servers) / servers.len().max(1) as f64;
    out.agreement = format!(
        "{{\"endpoint_self_span_ns\":{endpoint_self:.1},\"endpoint_ledger_ns\":{:.1},\
         \"server_span_ns\":{server_per_call:.1},\"server_ledger_ns\":{:.1},\
         \"ledger_specs\":{}}}",
        median(&ledger.marginal(endpoint_layer)),
        ledger.total(server),
        ledger.specs
    );
    out
}
