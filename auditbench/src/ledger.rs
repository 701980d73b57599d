//! The layer ledger: a workload's measurement query stream replayed up
//! a stack that grows one layer at a time.
//!
//! Every rung runs the same specs (a seeded subsample of the stream,
//! in whole blocks and in stream order) through one layer more than its
//! parent rung. The ladder, each rung over its parent:
//!
//! ```text
//! floor      intersection_len over the resolved audiences   (count only)
//! evaluate   AdPlatform::exact_audience                     over floor
//! estimate   reach_estimate: validate, evaluate, round      over evaluate
//! source     EstimateSource::estimate                       over estimate
//! resilience ResilientSource                                over source
//! recording  RecordingSource, fresh store per pass          over resilience
//! wire       RemoteSource, one request in flight            over source
//! pipelined  RemoteSource::estimate_batch, two in flight    over source
//! sched      ScheduledSource over two wire replicas         over wire
//! ```
//!
//! Beside the ladder, with no parent: `check` (validation alone),
//! `replay` (the recording rung's store, replayed), `segmented` (the
//! segment-store copy of each platform), `oracle` (thresholded
//! intersections of the stream's conjunctions, per call), and raw store
//! appends of the recorded records.
//!
//! Each pass times every rung over the whole subsample, in stream
//! order: a rung's time per query. A thin layer's marginal cost is far
//! below the run-to-run noise of the rung under it, so marginals are not
//! differences of those totals. Each pass also takes every fourth spec,
//! warms it through the parent, then times the parent and the child on
//! it back to back, in alternating order: the marginal is the mean of
//! the two orders' median differences. The batching rungs (`pipelined`,
//! `sched`) have no per-spec call; theirs is the difference of totals.
//! Every figure is the median over passes.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::harness::{fresh, median};
use crate::program::{self as p, AdPlatform, EstimateSource, SegmentedPlatform, TargetingSpec};
use crate::trace::{of, Captured, Layer, Recorder};

/// Most specs a ledger replays.
const MAX_SPECS: usize = 4096;
/// Consecutive specs the subsample keeps together.
const BLOCK: usize = 64;
/// Passes over every rung.
const PASSES: usize = 3;
/// Every how many specs a pass times back to back for the marginals.
const PAIR_STRIDE: usize = 4;
/// Specs per pipelined wire batch.
const PIPELINE_BATCH: usize = 64;
/// Specs per scheduler batch.
const SCHED_BATCH: usize = 512;

/// A measurement interface the ledger replays against.
pub struct LedgerPlatform {
    /// The interface label the stream's specs carry.
    pub label: String,
    /// The in-memory platform.
    pub resident: Arc<AdPlatform>,
    /// Its segment-store copy.
    pub segmented: Arc<SegmentedPlatform>,
    /// Users per second the segment store was generated at.
    pub generate_users_per_s: f64,
}

/// The rungs, each with the rung it adds one layer to.
const LADDER: [(&str, Option<&str>); 13] = [
    ("floor", None),
    ("evaluate", Some("floor")),
    ("check", None),
    ("estimate", Some("evaluate")),
    ("source", Some("estimate")),
    ("resilience", Some("source")),
    ("recording", Some("resilience")),
    ("replay", None),
    ("wire", Some("source")),
    ("pipelined", Some("source")),
    ("sched", Some("wire")),
    ("segmented", None),
    ("oracle", None),
];

/// One rung, per pass.
pub struct Rung {
    /// Rung name.
    pub name: &'static str,
    /// The rung it adds one layer to.
    pub parent: Option<&'static str>,
    /// ns per query (per call, for `oracle`) over the whole subsample.
    pub ns: Vec<f64>,
    /// Median per-spec marginal over the parent, ns, where timed back
    /// to back.
    pub paired: Vec<f64>,
}

/// What a ledger measured.
pub struct Ledger {
    /// Specs replayed.
    pub specs: usize,
    /// Every rung.
    pub rungs: Vec<Rung>,
    /// Raw store appends per second, per pass.
    pub append_per_s: Vec<f64>,
    /// Store bytes per recorded estimate.
    pub bytes_per_estimate: f64,
    /// Cold store opens, s.
    pub open_s: Vec<f64>,
    /// Pipelined batch latencies, µs.
    pub batch_us: Vec<f64>,
    /// Server-side `reach_estimate` latencies on the wire rung, µs.
    pub server_us: Vec<f64>,
    /// Cache misses ÷ loads on the segmented rung.
    pub cache_miss_rate: f64,
    /// Cache bytes resident after the segmented rung, MiB.
    pub cache_resident_mib: f64,
    /// Segment generation rate, users/s.
    pub generate_users_per_s: f64,
    /// Layers whose answers disagreed with `reach_estimate`'s.
    pub mismatches: Vec<String>,
}

impl Ledger {
    fn rung(&self, name: &str) -> &Rung {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .expect("every rung name is one of the ledger's")
    }

    /// Median ns per query of a rung.
    pub fn total(&self, name: &str) -> f64 {
        median(&self.rung(name).ns)
    }

    /// Per-pass marginal ns per query of a rung over its parent (its
    /// total, for a rung without one).
    pub fn marginal(&self, name: &str) -> Vec<f64> {
        let rung = self.rung(name);
        match rung.parent {
            None => rung.ns.clone(),
            Some(_) if !rung.paired.is_empty() => rung.paired.clone(),
            Some(parent) => {
                let parent = self.rung(parent);
                rung.ns.iter().zip(&parent.ns).map(|(a, b)| a - b).collect()
            }
        }
    }

    /// Writes one JSON line per rung.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for rung in &self.rungs {
            let ns: Vec<String> = rung.ns.iter().map(|v| format!("{v:.1}")).collect();
            out.push_str(&format!(
                "{{\"rung\":\"{}\",\"parent\":{},\"specs\":{},\"ns_per_query\":[{}],\
                 \"marginal_ns\":{:.1}}}\n",
                rung.name,
                rung.parent
                    .map_or("null".to_string(), |p| format!("\"{p}\"")),
                self.specs,
                ns.join(","),
                median(&self.marginal(rung.name))
            ));
        }
        std::fs::write(path, out)
    }
}

/// Keeps at most `max` items of `stream` in blocks of `block`
/// consecutive items, the blocks chosen by a seeded draw (Knuth's
/// selection sampling) and kept in stream order. Whole blocks keep the
/// locality the audit's queries have: the seven estimates of one
/// measured spec follow each other and share their audiences.
fn subsample<T: Clone>(stream: &[T], max: usize, block: usize, seed: u64) -> Vec<T> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut uniform = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let blocks: Vec<&[T]> = stream.chunks(block).collect();
    let mut wanted = max / block;
    let mut out = Vec::with_capacity(max.min(stream.len()));
    for (i, chunk) in blocks.iter().enumerate() {
        if wanted == 0 {
            break;
        }
        if uniform() * ((blocks.len() - i) as f64) < wanted as f64 {
            out.extend_from_slice(chunk);
            wanted -= 1;
        }
    }
    out
}

/// One layer's answer for the spec at an index of the subsample.
type PerSpec<'a> = &'a dyn Fn(usize) -> u64;

/// Times one call.
fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// The marginal cost of `child` over `parent`, ns: on every
/// `PAIR_STRIDE`-th spec, warmed through `parent`, both timed back to
/// back. Whichever of two calls runs second runs a little faster, so
/// the order alternates, and the marginal is the mean of the two
/// orders' median differences.
fn paired(n: usize, parent: PerSpec, child: PerSpec) -> f64 {
    let mut orders: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (j, k) in (0..n).step_by(PAIR_STRIDE).enumerate() {
        black_box(parent(k));
        let (first, second) = if j % 2 == 0 {
            (parent, child)
        } else {
            (child, parent)
        };
        let t0 = Instant::now();
        black_box(first(k));
        let t1 = Instant::now();
        black_box(second(k));
        let t2 = Instant::now();
        let (a, b) = ((t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64);
        orders[j % 2].push(if j % 2 == 0 { b - a } else { a - b });
    }
    let medians: Vec<f64> = orders
        .iter()
        .filter(|o| !o.is_empty())
        .map(|o| median(o))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Every spec's answer through `estimate_batch`, in runs of consecutive
/// same-interface specs at most `size` long, recording each batch's
/// latency.
fn batched(
    specs: &[(usize, TargetingSpec)],
    size: usize,
    layer: &[Arc<dyn EstimateSource>],
    latency_us: &mut Vec<f64>,
) -> Vec<u64> {
    let mut runs: Vec<(usize, Vec<TargetingSpec>)> = Vec::new();
    for (i, spec) in specs {
        match runs.last_mut() {
            Some((j, run)) if j == i && run.len() < size => run.push(spec.clone()),
            _ => runs.push((*i, vec![spec.clone()])),
        }
    }
    let mut out = Vec::with_capacity(specs.len());
    for (i, run) in &runs {
        let (secs, answers) = time(|| layer[*i].estimate_batch(run));
        latency_us.push(secs * 1e6);
        out.extend(answers.into_iter().map(|a| a.unwrap_or(u64::MAX)));
    }
    out
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Runs the ledger over `stream`, whose labels name `platforms`.
pub fn run(
    stream: &[Captured],
    platforms: &[LedgerPlatform],
    seed: u64,
    dir: &Path,
) -> io::Result<Ledger> {
    let specs: Vec<(usize, TargetingSpec)> = subsample(stream, MAX_SPECS, BLOCK, seed)
        .into_iter()
        .filter_map(|(label, spec)| {
            let i = platforms.iter().position(|pl| pl.label == label)?;
            Some((i, spec))
        })
        .collect();
    if specs.is_empty() {
        return Err(io::Error::other(
            "the captured stream has no replayable specs",
        ));
    }
    let n = specs.len();

    // Each interface's layers, built once. The wires servers answer
    // through the server probe, on only while the wires rung runs.
    let rec = Arc::new(Recorder::new());
    let mut servers = Vec::new();
    let (mut sources, mut resilients, mut wires, mut pipelines, mut scheds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pl in platforms {
        let api = p::probe_api(pl.resident.clone(), Some(&rec));
        let replicas = [p::serve_api(api.clone())?, p::serve_api(api)?];
        let bare = p::source_of(&pl.resident);
        resilients.push(p::resilient(bare.clone()));
        sources.push(bare);
        wires.push(p::remote(&replicas[0], 1)?);
        pipelines.push(p::remote(&replicas[0], 2)?);
        scheds.push(p::scheduled(vec![
            p::remote(&replicas[0], 1)?,
            p::remote(&replicas[1], 1)?,
        ]));
        servers.extend(replicas);
    }
    let resident: Vec<&AdPlatform> = platforms.iter().map(|pl| pl.resident.as_ref()).collect();
    let segment_platforms: Vec<&SegmentedPlatform> =
        platforms.iter().map(|pl| pl.segmented.as_ref()).collect();
    let thresholds: Vec<u64> = segment_platforms
        .iter()
        .map(|s| p::reach_threshold(*s))
        .collect();
    let mut resolvers: Vec<p::Resolver> = resident.iter().map(|r| p::Resolver::new(r)).collect();
    let resolved: Vec<p::Resolved> = specs
        .iter()
        .map(|(i, spec)| resolvers[*i].resolve(spec))
        .collect();
    let conjunctions: Vec<(usize, Vec<_>)> = specs
        .iter()
        .filter_map(|(i, spec)| Some((*i, p::conjunction(spec)?)))
        .collect();
    let truth: Vec<u64> = specs
        .iter()
        .map(|(i, spec)| p::reach(resident[*i], spec))
        .collect();
    let records: Vec<(u64, Vec<u8>)> = specs
        .iter()
        .zip(&truth)
        .map(|((i, spec), value)| p::estimate_record(&platforms[*i].label, spec, *value))
        .collect();
    let cache_before: Vec<_> = segment_platforms
        .iter()
        .map(|s| p::cache_stats(s))
        .collect();

    let mut ledger = Ledger {
        specs: n,
        rungs: LADDER
            .iter()
            .map(|&(name, parent)| Rung {
                name,
                parent,
                ns: Vec::new(),
                paired: Vec::new(),
            })
            .collect(),
        append_per_s: Vec::new(),
        bytes_per_estimate: 0.0,
        open_s: Vec::new(),
        batch_us: Vec::new(),
        server_us: Vec::new(),
        cache_miss_rate: 0.0,
        cache_resident_mib: 0.0,
        generate_users_per_s: median(
            &platforms
                .iter()
                .map(|pl| pl.generate_users_per_s)
                .collect::<Vec<_>>(),
        ),
        mismatches: Vec::new(),
    };

    for pass in 0..PASSES {
        let totals_store = p::open_store(&fresh(dir, "recording")?)?;
        let paired_store = p::open_store(&fresh(dir, "paired")?)?;
        let recorded = |store: &Arc<p::RunStore>| {
            resilients
                .iter()
                .map(|r| p::recording(r.clone(), store.clone()))
                .collect::<io::Result<Vec<_>>>()
        };
        let recorders = recorded(&totals_store)?;
        let paired_recorders = recorded(&paired_store)?;
        let via = |layer: &[Arc<dyn EstimateSource>], k: usize| {
            let (i, spec) = &specs[k];
            layer[*i].estimate(spec).unwrap_or(u64::MAX)
        };
        let floor = |k: usize| resolvers[specs[k].0].count(&resolved[k]);
        let evaluate = |k: usize| p::exact_len(resident[specs[k].0], &specs[k].1);
        let check = |k: usize| u64::from(p::check(resident[specs[k].0], &specs[k].1));
        let estimate = |k: usize| p::reach(resident[specs[k].0], &specs[k].1);
        let source = |k: usize| via(&sources, k);
        let resilience = |k: usize| via(&resilients, k);
        let recording = |k: usize| via(&recorders, k);
        let wire = |k: usize| via(&wires, k);
        let segmented = |k: usize| p::reach(segment_platforms[specs[k].0], &specs[k].1);

        let mut times: Vec<(&'static str, f64)> = Vec::new();
        let mut answers: Vec<(&'static str, Vec<u64>)> = Vec::new();
        let each: [(&'static str, PerSpec); 9] = [
            ("floor", &floor),
            ("evaluate", &evaluate),
            ("check", &check),
            ("estimate", &estimate),
            ("source", &source),
            ("resilience", &resilience),
            ("recording", &recording),
            ("wire", &wire),
            ("segmented", &segmented),
        ];
        for (name, layer) in each {
            rec.set(name == "wire", false);
            let (t, got) = time(|| (0..n).map(layer).collect::<Vec<u64>>());
            times.push((name, t));
            answers.push((name, got));
        }
        rec.set(false, false);
        ledger.server_us.extend(
            of(&rec.take_spans(), Layer::Server)
                .iter()
                .map(|s| s.len() as f64 / 1e3),
        );

        drop(recorders);
        p::sync(&totals_store)?;
        let replays = platforms
            .iter()
            .map(|pl| p::replay(&totals_store, &pl.label))
            .collect::<io::Result<Vec<_>>>()?;
        let (t, got) = time(|| (0..n).map(|k| via(&replays, k)).collect::<Vec<u64>>());
        times.push(("replay", t));
        answers.push(("replay", got));

        let (t, got) = time(|| batched(&specs, PIPELINE_BATCH, &pipelines, &mut ledger.batch_us));
        times.push(("pipelined", t));
        answers.push(("pipelined", got));
        let (t, got) = time(|| batched(&specs, SCHED_BATCH, &scheds, &mut Vec::new()));
        times.push(("sched", t));
        answers.push(("sched", got));
        let (t, reached) = time(|| {
            conjunctions
                .iter()
                .filter(|(i, attrs)| p::and_reaches(segment_platforms[*i], attrs, thresholds[*i]))
                .count()
        });
        black_box(reached);
        let oracle_ns = t * 1e9 / conjunctions.len().max(1) as f64;

        let append_dir = fresh(dir, "append")?;
        let appends = p::open_store(&append_dir)?;
        let (t, written) = time(|| -> io::Result<()> {
            for record in &records {
                p::append(&appends, record)?;
            }
            p::sync(&appends)
        });
        written?;
        ledger.append_per_s.push(n as f64 / t);
        drop(appends);
        ledger.bytes_per_estimate = dir_bytes(&append_dir)? as f64 / n as f64;
        let (t, reopened) = time(|| p::open_store(&append_dir));
        drop(reopened?);
        ledger.open_s.push(t);

        let paired_recording = |k: usize| via(&paired_recorders, k);
        let pairs: [(&str, PerSpec, PerSpec); 6] = [
            ("evaluate", &floor, &evaluate),
            ("estimate", &evaluate, &estimate),
            ("source", &estimate, &source),
            ("resilience", &source, &resilience),
            ("recording", &resilience, &paired_recording),
            ("wire", &source, &wire),
        ];
        for (name, parent, child) in pairs {
            let marginal = paired(n, parent, child);
            rung_mut(&mut ledger, name).paired.push(marginal);
        }

        for (name, secs) in times {
            rung_mut(&mut ledger, name).ns.push(secs * 1e9 / n as f64);
        }
        rung_mut(&mut ledger, "oracle").ns.push(oracle_ns);
        if pass == 0 {
            let lengths = |name: &str| answers.iter().find(|(n, _)| *n == name).map(|(_, a)| a);
            if lengths("floor") != lengths("evaluate") {
                ledger
                    .mismatches
                    .push("the floor rung's counts differ from exact audiences".into());
            }
            for (name, got) in &answers {
                if !["floor", "evaluate", "check"].contains(name) && got != &truth {
                    ledger
                        .mismatches
                        .push(format!("the {name} rung disagrees with reach_estimate"));
                }
            }
        }
    }

    let (mut hits, mut misses, mut resident_bytes) = (0, 0, 0);
    for (s, before) in segment_platforms.iter().zip(&cache_before) {
        let (h, m, r) = p::cache_stats(s);
        hits += h - before.0;
        misses += m - before.1;
        resident_bytes += r;
    }
    ledger.cache_miss_rate = misses as f64 / (hits + misses).max(1) as f64;
    ledger.cache_resident_mib = resident_bytes as f64 / (1024.0 * 1024.0);
    drop((sources, resilients, wires, pipelines, scheds));
    for server in servers {
        server.shutdown();
    }
    Ok(ledger)
}

fn rung_mut<'a>(ledger: &'a mut Ledger, name: &str) -> &'a mut Rung {
    ledger
        .rungs
        .iter_mut()
        .find(|r| r.name == name)
        .expect("every rung name is one of the ledger's")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_keeps_whole_blocks_in_order() {
        let stream: Vec<u32> = (0..1000).collect();
        let picked = subsample(&stream, 100, 10, 7);
        assert_eq!(picked.len(), 100);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert!(picked
            .chunks(10)
            .all(|b| b[0] % 10 == 0 && b[9] == b[0] + 9));
        assert_eq!(picked, subsample(&stream, 100, 10, 7), "seeded");
        assert_ne!(picked, subsample(&stream, 100, 10, 8));
        assert_eq!(subsample(&stream[..25], 100, 10, 7), stream[..25].to_vec());
    }
}
