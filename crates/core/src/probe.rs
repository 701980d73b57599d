//! Black-box characterisation of the platforms' size estimates.
//!
//! Before trusting the estimates, the paper studies them (§3,
//! "Understanding size estimates"): 100 back-to-back repeated calls on 20
//! random options and 20 random compositions per platform to check
//! **consistency**, and the union of >80 000 distinct calls to infer the
//! **granularity** (significant-digit ladder and reporting minimum).
//! These probes run the same study against any [`EstimateSource`](crate::source::EstimateSource) and are
//! the audit's guard against obfuscated (noised) estimates.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use adcomp_infer::rng::splitmix64;
use adcomp_obs::metrics::{Counter, Registry};
use adcomp_obs::progress::ProgressReporter;
use adcomp_obs::trace::Tracer;
use adcomp_targeting::{AttributeId, TargetingSpec};
use rand::{Rng, SeedableRng};

use crate::discovery::AuditRng;
use crate::source::{AuditTarget, SourceError};

/// Sampling shortfalls reported by consistency probes.
fn probe_warnings_total() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("adcomp_probe_warnings_total"))
}

/// Queries abandoned (resilience-layer skips) during granularity probes.
fn probe_skipped_total() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("adcomp_probe_skipped_total"))
}

/// Result of the consistency probe.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsistencyReport {
    /// Distinct specs probed.
    pub specs: usize,
    /// Repeats per spec.
    pub repeats: usize,
    /// Specs whose repeated estimates were not all identical.
    pub inconsistent: Vec<TargetingSpec>,
    /// Sampling shortfalls: specs requested but not delivered because the
    /// catalog ran out of distinct (composable) options to sample.
    pub warnings: usize,
}

impl ConsistencyReport {
    /// True when every probed spec returned identical estimates.
    pub fn is_consistent(&self) -> bool {
        self.inconsistent.is_empty()
    }
}

/// Repeats estimates `repeats` times for `n_individual` random individual
/// options and `n_composed` random pairs (paper: 100 × (20 + 20)).
///
/// Sampled specs are deduplicated — probing the same spec twice would
/// double-count its repeats without adding evidence. When the catalog is
/// too small to deliver the requested number of *distinct* specs, the
/// report's `warnings` counts the shortfall instead of looping forever.
pub fn consistency_probe(
    target: &AuditTarget,
    seed: u64,
    n_individual: usize,
    n_composed: usize,
    repeats: usize,
) -> Result<ConsistencyReport, SourceError> {
    let _span = Tracer::global().span("probe:consistency");
    let mut rng = AuditRng::seed_from_u64(seed);
    let n = target.targeting.catalog_len();
    let mut specs = Vec::with_capacity(n_individual + n_composed);
    // Dedup on the attribute-id shape: (id, MAX) for singles, ordered
    // (min, max) for pairs.
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut attempts = 0;
    while specs.len() < n_individual && attempts < n_individual * 50 {
        attempts += 1;
        let id = rng.gen_range(0..n);
        if seen.insert((id, u32::MAX)) {
            specs.push(TargetingSpec::and_of([AttributeId(id)]));
        }
    }
    let individual_delivered = specs.len();
    let mut attempts = 0;
    while specs.len() < individual_delivered + n_composed && attempts < n_composed * 50 {
        attempts += 1;
        let a = AttributeId(rng.gen_range(0..n));
        let b = AttributeId(rng.gen_range(0..n));
        if target.targeting.can_compose(a, b) && seen.insert((a.0.min(b.0), a.0.max(b.0))) {
            specs.push(TargetingSpec::and_of([a, b]));
        }
    }
    let warnings = (n_individual + n_composed).saturating_sub(specs.len());
    if warnings > 0 {
        probe_warnings_total().add(warnings as u64);
        adcomp_obs::warn!(
            "consistency probe sampled {} of {} requested specs \
             (catalog ran out of distinct options)",
            specs.len(),
            n_individual + n_composed
        );
    }
    // A measurement interface without native batching gets one repeat
    // per submission, so the first differing answer stops the spec's
    // queries; one that batches gets all of a spec's repeats in one
    // submission, and a flagged spec may cost up to `repeats − 1` more
    // queries — acceptable, since flagging ends the audit of that
    // platform anyway. The verdict is the same either way. Recording
    // must stay off here (replayed answers would make any platform look
    // consistent); this probes whatever source the target carries.
    let per_chunk = if target.measurement.batch_window() > 1 {
        repeats.max(1)
    } else {
        1
    };
    let mut inconsistent = Vec::new();
    for spec in &specs {
        let chunk = vec![target.translate(spec).into_owned(); per_chunk];
        let mut first = None;
        let mut left = repeats.max(1);
        'repeats: while left > 0 {
            let n = per_chunk.min(left);
            left -= n;
            for result in target.measurement.estimate_batch(&chunk[..n]) {
                let value = result?;
                if *first.get_or_insert(value) != value {
                    inconsistent.push(spec.clone());
                    break 'repeats;
                }
            }
        }
    }
    if !inconsistent.is_empty() {
        adcomp_obs::warn!(
            "consistency probe found {} inconsistent spec(s): \
             estimates may be noised",
            inconsistent.len()
        );
    }
    Ok(ConsistencyReport {
        specs: specs.len(),
        repeats,
        inconsistent,
        warnings,
    })
}

/// Inferred granularity of a platform's estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GranularityReport {
    /// Distinct non-zero estimate values observed.
    pub observed_values: usize,
    /// Smallest non-zero estimate observed (the reporting floor).
    pub min_nonzero: Option<u64>,
    /// Whether a zero estimate was ever returned.
    pub saw_zero: bool,
    /// Maximum number of significant digits per decade (index = decade,
    /// i.e. `10^index ..< 10^(index+1)`); `0` for unobserved decades.
    pub digits_per_decade: Vec<u32>,
}

impl GranularityReport {
    /// Maximum significant digits across all decades.
    pub fn max_significant_digits(&self) -> u32 {
        self.digits_per_decade.iter().copied().max().unwrap_or(0)
    }
}

/// Number of significant digits in a positive integer (trailing zeros
/// stripped).
pub fn significant_digits(mut value: u64) -> u32 {
    assert!(value > 0, "significant digits of zero are undefined");
    while value.is_multiple_of(10) {
        value /= 10;
    }
    let mut digits = 0;
    while value > 0 {
        value /= 10;
        digits += 1;
    }
    digits
}

/// Infers the granularity ladder from a set of observed estimate values
/// (the experiments feed every estimate they ever received into this).
pub fn granularity_from_observations(values: impl IntoIterator<Item = u64>) -> GranularityReport {
    let mut distinct = std::collections::BTreeSet::new();
    let mut saw_zero = false;
    for v in values {
        if v == 0 {
            saw_zero = true;
        } else {
            distinct.insert(v);
        }
    }
    let mut digits_per_decade = vec![0u32; 20];
    for &v in &distinct {
        let decade = (v as f64).log10().floor() as usize;
        let d = significant_digits(v);
        if d > digits_per_decade[decade] {
            digits_per_decade[decade] = d;
        }
    }
    while digits_per_decade.last() == Some(&0) {
        digits_per_decade.pop();
    }
    GranularityReport {
        observed_values: distinct.len(),
        min_nonzero: distinct.first().copied(),
        saw_zero,
        digits_per_decade,
    }
}

/// The random spec scheduled at `index` of a granularity probe: 50/50 a
/// single attribute or an AND pair; `None` when the pair drawn at this
/// index is not composable on the target (the index is skipped for free).
/// Each index seeds its own RNG through SplitMix64, so the spec sequence
/// is a pure function of `(seed, index)` and a resumed run regenerates
/// specs without replaying RNG state.
fn spec_at(target: &AuditTarget, seed: u64, index: u64) -> Option<TargetingSpec> {
    let mut rng = AuditRng::seed_from_u64(splitmix64(
        seed ^ 0x9A17 ^ index.wrapping_mul(0xA076_1D64_78BD_642F),
    ));
    let n = target.targeting.catalog_len();
    let a = AttributeId(rng.gen_range(0..n));
    if rng.gen_bool(0.5) {
        Some(TargetingSpec::and_of([a]))
    } else {
        let b = AttributeId(rng.gen_range(0..n));
        target
            .targeting
            .can_compose(a, b)
            .then(|| TargetingSpec::and_of([a, b]))
    }
}

/// Serialisable snapshot of a [`GranularityProbe`] in flight.
///
/// The format is a plain text file (version header, one field per line,
/// then one observation per line), written atomically via a `.tmp`
/// sibling — robust to being killed mid-save.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeCheckpoint {
    /// The probe's seed (resuming with a different seed is an error).
    pub seed: u64,
    /// Total observations the probe is collecting.
    pub queries: usize,
    /// Next spec index to evaluate.
    pub next_index: u64,
    /// Queries abandoned by the resilience layer so far.
    pub skipped: u64,
    /// Estimates collected so far.
    pub observations: Vec<u64>,
}

const CHECKPOINT_HEADER: &str = "adcomp-granularity-checkpoint v1";

impl ProbeCheckpoint {
    /// The checkpoint's serialized form (the same text format `save`
    /// writes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "queries {}", self.queries);
        let _ = writeln!(out, "next_index {}", self.next_index);
        let _ = writeln!(out, "skipped {}", self.skipped);
        let _ = writeln!(out, "observations {}", self.observations.len());
        for v in &self.observations {
            let _ = writeln!(out, "{v}");
        }
        out.into_bytes()
    }

    /// Writes the checkpoint to `path` via
    /// [`write_atomic`](adcomp_store::write_atomic): unique temp
    /// sibling, `fsync`, atomic rename, directory `fsync`. The old
    /// rename-only path left a window where a crash could persist an
    /// empty or partial checkpoint; this one can't.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        adcomp_store::write_atomic(path, &self.to_bytes())
    }

    /// Reads a checkpoint back from `path`.
    pub fn load(path: &Path) -> std::io::Result<ProbeCheckpoint> {
        ProbeCheckpoint::from_bytes(&std::fs::read(path)?)
    }

    /// Parses the serialized form produced by
    /// [`to_bytes`](ProbeCheckpoint::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<ProbeCheckpoint> {
        use std::io::{Error, ErrorKind};
        let bad = |what: &str| Error::new(ErrorKind::InvalidData, format!("checkpoint: {what}"));
        let text = std::str::from_utf8(bytes).map_err(|_| bad("not utf-8"))?;
        // Every line ends in a newline, so a file cut inside its last
        // line cannot parse as a shorter value.
        if !text.ends_with('\n') {
            return Err(bad("truncated"));
        }
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_HEADER) {
            return Err(bad("bad header"));
        }
        let mut field = |name: &str| -> std::io::Result<u64> {
            let line = lines.next().ok_or_else(|| bad("truncated"))?;
            let value = line
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| bad(name))?;
            value.trim().parse().map_err(|_| bad(name))
        };
        let seed = field("seed")?;
        let queries = field("queries")? as usize;
        let next_index = field("next_index")?;
        let skipped = field("skipped")?;
        let count = field("observations")? as usize;
        let observations: Vec<u64> = lines
            .by_ref()
            .take(count)
            .map(|l| l.trim().parse().map_err(|_| bad("observation")))
            .collect::<Result<_, _>>()?;
        if observations.len() != count {
            return Err(bad("missing observations"));
        }
        if lines.next().is_some() {
            return Err(bad("trailing lines"));
        }
        Ok(ProbeCheckpoint {
            seed,
            queries,
            next_index,
            skipped,
            observations,
        })
    }
}

/// A resumable granularity probe.
///
/// The paper's granularity study is the audit's biggest query bill
/// (>80 000 calls); a crash near the end of a multi-day run must not
/// restart it. The probe's spec schedule is indexed — spec `i` is a pure
/// function of `(seed, i)` — so progress is just `(next_index,
/// observations)`: checkpoint those, and a resumed probe continues
/// exactly where the crash left off. [`run`](GranularityProbe::run)
/// and [`run_checkpointed`](GranularityProbe::run_checkpointed) say how
/// many answered queries a kill can cost.
#[derive(Clone, Debug)]
pub struct GranularityProbe {
    seed: u64,
    queries: usize,
    next_index: u64,
    skipped: u64,
    observations: Vec<u64>,
}

impl GranularityProbe {
    /// A fresh probe collecting `queries` estimates.
    pub fn new(seed: u64, queries: usize) -> Self {
        GranularityProbe {
            seed,
            queries,
            next_index: 0,
            skipped: 0,
            observations: Vec::new(),
        }
    }

    /// Resumes from a checkpoint.
    pub fn resume(checkpoint: ProbeCheckpoint) -> Self {
        GranularityProbe {
            seed: checkpoint.seed,
            queries: checkpoint.queries,
            next_index: checkpoint.next_index,
            skipped: checkpoint.skipped,
            observations: checkpoint.observations,
        }
    }

    /// Snapshot of the current progress.
    pub fn checkpoint(&self) -> ProbeCheckpoint {
        ProbeCheckpoint {
            seed: self.seed,
            queries: self.queries,
            next_index: self.next_index,
            skipped: self.skipped,
            observations: self.observations.clone(),
        }
    }

    /// Whether every scheduled query has been answered or skipped.
    pub fn completed(&self) -> bool {
        self.observations.len() as u64 + self.skipped >= self.queries as u64
    }

    /// Estimates collected so far.
    pub fn observations(&self) -> &[u64] {
        &self.observations
    }

    /// Queries skipped (resilience-layer degradation) so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Runs until complete. On error the probe keeps its progress: save
    /// a [`checkpoint`](GranularityProbe::checkpoint) and
    /// [`resume`](GranularityProbe::resume) later. A query abandoned by
    /// the resilience layer ([`SourceError::Skipped`]) is counted and
    /// excluded from the ladder rather than aborting the probe.
    ///
    /// A measurement interface without native batching is asked one
    /// query at a time, so only the query in flight at a failure is
    /// re-asked on resume. One that batches gets the schedule in chunks
    /// of 4,096 queries; on a failure,
    /// answers already issued past it in the chunk are discarded and
    /// re-asked on resume.
    pub fn run(&mut self, target: &AuditTarget) -> Result<GranularityReport, SourceError> {
        let chunk = if target.measurement.batch_window() > 1 {
            Self::BATCH_CHUNK
        } else {
            1
        };
        self.walk(target, chunk, None)
    }

    /// Queries of the schedule submitted per batch when the measurement
    /// interface batches natively. Bounds the memory of a paper-scale
    /// (>80 000 query) probe.
    const BATCH_CHUNK: u64 = 4_096;

    /// Like [`run`](GranularityProbe::run), saving a checkpoint to
    /// `path` every `every` answered queries (and one final time), so a
    /// kill at any point loses at most `every − 1` answers. Always asks
    /// one query at a time, whatever the interface: every answered query
    /// is issued exactly once across a kill and resume.
    pub fn run_checkpointed(
        &mut self,
        target: &AuditTarget,
        path: &Path,
        every: usize,
    ) -> Result<GranularityReport, SourceError> {
        assert!(every > 0, "checkpoint interval must be positive");
        self.walk(target, 1, Some((path, every)))
    }

    /// The one walk of the indexed schedule behind [`run`] and
    /// [`run_checkpointed`]: submits up to `chunk` scheduled specs at a
    /// time and files their answers in index order, so the observations
    /// do not depend on `chunk`. On a hard error `next_index` points at
    /// the failed query.
    ///
    /// [`run`]: GranularityProbe::run
    /// [`run_checkpointed`]: GranularityProbe::run_checkpointed
    fn walk(
        &mut self,
        target: &AuditTarget,
        chunk: u64,
        checkpoint: Option<(&Path, usize)>,
    ) -> Result<GranularityReport, SourceError> {
        let _span = Tracer::global().span("probe:granularity");
        let progress = ProgressReporter::new("granularity_probe", 1_000);
        let save = |probe: &Self, path: &Path| {
            probe
                .checkpoint()
                .save(path)
                .map_err(|e| SourceError::Transport(format!("checkpoint save: {e}")))
        };
        let mut since_save = 0usize;
        while !self.completed() {
            let outstanding = self.queries as u64 - (self.observations.len() as u64 + self.skipped);
            let mut indices = Vec::new();
            let mut queries = Vec::new();
            let mut index = self.next_index;
            while (queries.len() as u64) < outstanding.min(chunk) {
                // A non-composable pair consumes its index with no query.
                if let Some(spec) = spec_at(target, self.seed, index) {
                    indices.push(index);
                    queries.push(target.translate(&spec).into_owned());
                }
                index += 1;
            }
            for (&index, result) in indices
                .iter()
                .zip(target.measurement.estimate_batch(&queries))
            {
                match result {
                    Ok(value) => {
                        self.observations.push(value);
                        progress.tick();
                    }
                    Err(SourceError::Skipped { .. }) => {
                        self.skipped += 1;
                        probe_skipped_total().inc();
                    }
                    // A resumed run re-asks this query first.
                    Err(e) => {
                        self.next_index = index;
                        if let Some((path, _)) = checkpoint {
                            let _ = save(self, path);
                        }
                        return Err(e);
                    }
                }
                self.next_index = index + 1;
                if let Some((path, every)) = checkpoint {
                    since_save += 1;
                    if since_save >= every {
                        save(self, path)?;
                        since_save = 0;
                    }
                }
            }
        }
        if let Some((path, _)) = checkpoint {
            save(self, path)?;
        }
        adcomp_obs::debug!("granularity_probe: {} queries answered", progress.done());
        Ok(self.report())
    }

    /// The granularity inferred from the observations so far.
    pub fn report(&self) -> GranularityReport {
        granularity_from_observations(self.observations.iter().copied())
    }
}

/// Runs a granularity probe by querying many random specs (individuals
/// and pairs) and collecting their estimates. One-shot convenience over
/// [`GranularityProbe`].
pub fn granularity_probe(
    target: &AuditTarget,
    seed: u64,
    queries: usize,
) -> Result<GranularityReport, SourceError> {
    GranularityProbe::new(seed, queries).run(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{AuditTarget, EstimateSource};
    use adcomp_platform::{SimScale, Simulation};
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(45, SimScale::Test))
    }

    #[test]
    fn significant_digit_counting() {
        assert_eq!(significant_digits(1), 1);
        assert_eq!(significant_digits(1_000), 1);
        assert_eq!(significant_digits(1_200), 2);
        assert_eq!(significant_digits(123_000), 3);
        assert_eq!(significant_digits(101), 3);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn significant_digits_of_zero_panics() {
        let _ = significant_digits(0);
    }

    #[test]
    fn simulated_platforms_are_consistent() {
        // Paper finding: "across all three platforms, the returned
        // estimates are consistent."
        for p in sim().interfaces() {
            let target = AuditTarget::for_platform(p, sim());
            let report = consistency_probe(&target, 1, 5, 5, 10).unwrap();
            assert!(report.is_consistent(), "{} inconsistent", p.label());
            assert_eq!(report.specs, 10);
        }
    }

    #[test]
    fn granularity_matches_facebook_ladder() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let report = granularity_probe(&target, 2, 400).unwrap();
        assert!(
            report.max_significant_digits() <= 2,
            "facebook is 2 sig digits"
        );
        if let Some(min) = report.min_nonzero {
            assert!(min >= 1_000, "facebook floor is 1000, got {min}");
        }
    }

    #[test]
    fn granularity_matches_google_ladder() {
        let target = AuditTarget::for_platform(&sim().google, sim());
        let report = granularity_probe(&target, 3, 400).unwrap();
        // Below 100_000: one significant digit.
        for (decade, &d) in report.digits_per_decade.iter().enumerate().take(5) {
            assert!(d <= 1, "decade 10^{decade} has {d} digits on google");
        }
        assert!(report.max_significant_digits() <= 2);
    }

    /// Fails with a transport error exactly once, at call `fail_at`.
    struct FailOnceSource {
        inner: std::sync::Arc<dyn crate::source::EstimateSource>,
        calls: std::sync::atomic::AtomicU64,
        fail_at: u64,
    }

    impl crate::source::EstimateSource for FailOnceSource {
        fn label(&self) -> String {
            self.inner.label()
        }

        fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
            specs
                .iter()
                .map(|spec| {
                    let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if call == self.fail_at {
                        return Err(SourceError::Transport("injected crash".into()));
                    }
                    self.inner.estimate(spec)
                })
                .collect()
        }

        fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
            self.inner.check(spec)
        }

        fn catalog_len(&self) -> u32 {
            self.inner.catalog_len()
        }

        fn attribute_name(&self, id: AttributeId) -> Option<String> {
            self.inner.attribute_name(id)
        }

        fn attribute_feature(&self, id: AttributeId) -> Option<adcomp_targeting::FeatureId> {
            self.inner.attribute_feature(id)
        }

        fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
            self.inner.can_compose(a, b)
        }

        fn supports_demographics(&self) -> bool {
            self.inner.supports_demographics()
        }
    }

    #[test]
    fn indexed_schedule_is_deterministic() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let a = granularity_probe(&target, 7, 60).unwrap();
        let b = granularity_probe(&target, 7, 60).unwrap();
        assert_eq!(a, b);
        let c = granularity_probe(&target, 8, 60).unwrap();
        assert_ne!(a.observed_values, 0);
        // Different seeds draw different specs (ladders may coincide, the
        // raw observation sets should not).
        let mut pa = GranularityProbe::new(7, 60);
        let mut pc = GranularityProbe::new(8, 60);
        pa.run(&target).unwrap();
        pc.run(&target).unwrap();
        assert_ne!(pa.observations(), pc.observations());
        let _ = c;
    }

    #[test]
    fn interrupted_probe_resumes_without_reissuing_answered_queries() {
        const QUERIES: usize = 40;
        let flaky = std::sync::Arc::new(FailOnceSource {
            inner: sim().linkedin.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_at: 17,
        });
        let target = AuditTarget::direct(flaky.clone());
        let clean = granularity_probe(
            &AuditTarget::for_platform(&sim().linkedin, sim()),
            5,
            QUERIES,
        )
        .unwrap();

        let mut probe = GranularityProbe::new(5, QUERIES);
        let err = probe.run(&target).unwrap_err();
        assert!(matches!(err, SourceError::Transport(_)));
        assert_eq!(
            probe.observations().len(),
            17,
            "answers before the crash are kept"
        );

        // Checkpoint survives a trip through disk.
        let path = std::env::temp_dir().join(format!(
            "adcomp-probe-ckpt-{}-{}.txt",
            std::process::id(),
            5
        ));
        probe.checkpoint().save(&path).unwrap();
        let restored = ProbeCheckpoint::load(&path).unwrap();
        assert_eq!(restored, probe.checkpoint());
        let _ = std::fs::remove_file(&path);

        let mut resumed = GranularityProbe::resume(restored);
        let report = resumed.run(&target).unwrap();
        assert_eq!(report, clean, "interruption must not change the result");
        // Every answered query was issued exactly once; only the one
        // in-flight at the crash was re-asked.
        assert_eq!(
            flaky.calls.load(std::sync::atomic::Ordering::SeqCst),
            QUERIES as u64 + 1
        );
    }

    /// `target` measured through the scheduler over one replica, so the
    /// probes take their batching branch.
    fn batching(target: &AuditTarget, replica: Arc<dyn EstimateSource>) -> AuditTarget {
        let batching = target
            .layered(crate::source::Layers {
                scheduler: Some(crate::source::Replicas {
                    endpoints: vec![replica],
                    config: crate::distributed::SchedulerConfig::default(),
                }),
                ..Default::default()
            })
            .unwrap();
        assert!(batching.measurement.batch_window() > 1);
        batching
    }

    #[test]
    fn batching_and_one_at_a_time_probes_agree() {
        let serial = AuditTarget::for_platform(&sim().linkedin, sim());
        assert_eq!(serial.measurement.batch_window(), 1);
        let batched = batching(&serial, sim().linkedin.clone());
        assert_eq!(
            consistency_probe(&serial, 4, 6, 6, 5).unwrap(),
            consistency_probe(&batched, 4, 6, 6, 5).unwrap()
        );
        let mut one = GranularityProbe::new(9, 300);
        let mut many = GranularityProbe::new(9, 300);
        assert_eq!(one.run(&serial).unwrap(), many.run(&batched).unwrap());
        assert_eq!(one.observations(), many.observations());

        // Every call noised: both branches flag the same specs — all
        // those whose repeats can differ.
        let noised = || -> Arc<dyn EstimateSource> {
            let plan = adcomp_platform::FaultPlan::new(31).with(
                adcomp_platform::FaultKind::Noise { amplitude: 0.9 },
                adcomp_platform::Schedule::EveryNth {
                    period: 1,
                    offset: 0,
                },
            );
            Arc::new(adcomp_platform::FaultyPlatform::new(
                sim().linkedin.clone(),
                plan,
            ))
        };
        let serial = AuditTarget::direct(noised());
        let batched = batching(&serial, noised());
        let one = consistency_probe(&serial, 4, 6, 6, 5).unwrap();
        let many = consistency_probe(&batched, 4, 6, 6, 5).unwrap();
        assert!(!one.is_consistent(), "noise must be flagged");
        assert_eq!(one.inconsistent, many.inconsistent);
    }

    #[test]
    fn checkpoint_load_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("adcomp-probe-bad-{}.txt", std::process::id()));
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(ProbeCheckpoint::load(&path).is_err());
        std::fs::write(&path, format!("{CHECKPOINT_HEADER}\nseed 1\n")).unwrap();
        assert!(ProbeCheckpoint::load(&path).is_err(), "truncated file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_consistency_specs_are_collapsed() {
        // A 1-attribute catalog can deliver one individual spec and no
        // pairs; the rest of the request shows up as warnings.
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let report = consistency_probe(&target, 3, 5, 5, 2).unwrap();
        assert_eq!(report.specs + report.warnings, 10);
        // On a full-size catalog the sampler should find 10 distinct specs.
        assert_eq!(
            report.warnings, 0,
            "552-attribute catalog has plenty of distinct specs"
        );
    }

    #[test]
    fn granularity_from_observations_handles_zero_and_minimum() {
        let r = granularity_from_observations([0, 300, 310, 4_600, 12_000]);
        assert!(r.saw_zero);
        assert_eq!(r.min_nonzero, Some(300));
        assert_eq!(r.observed_values, 4);
        assert_eq!(r.max_significant_digits(), 2);
    }

    #[test]
    fn empty_observations() {
        let r = granularity_from_observations([]);
        assert_eq!(r.observed_values, 0);
        assert_eq!(r.min_nonzero, None);
        assert!(!r.saw_zero);
        assert_eq!(r.max_significant_digits(), 0);
    }
}
