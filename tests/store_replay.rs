//! Kill+resume through the run store: any experiment driver wrapped in a
//! [`RecordingSource`] can be killed mid-run and re-run against the same
//! store — answered queries replay from disk, only the unanswered tail
//! reaches the platform, and the final numbers are byte-identical to an
//! uninterrupted run. This extends the checkpoint guarantee the
//! granularity probe already had (see `tests/fault_path.rs`) to the
//! individual survey and the full Table-1 driver.
//!
//! [`RecordingSource`]: discrimination_via_composition::audit::RecordingSource

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use discrimination_via_composition::audit::experiments::table1::{
    favoured_populations, table1, table1_cell, table1_tsv, TABLE1_INTERFACES,
};
use discrimination_via_composition::audit::experiments::{ExperimentConfig, ExperimentContext};
use discrimination_via_composition::audit::recording::{fnv1a, labels_in, meta_in};
use discrimination_via_composition::audit::{
    survey_individuals, AuditTarget, EstimateSource, Layers, ReplaySource, SourceError,
};
use discrimination_via_composition::platform::{SimScale, Simulation};
use discrimination_via_composition::store::RunStore;
use discrimination_via_composition::targeting::{AttributeId, FeatureId, TargetingSpec};

mod common;

/// Total estimate queries the simulated platforms actually answered —
/// the ground truth for "did the audit touch the platform again?".
fn platform_queries(sim: &Simulation) -> u64 {
    sim.facebook.stats().estimates
        + sim.facebook_restricted.stats().estimates
        + sim.google.stats().estimates
        + sim.linkedin.stats().estimates
}

/// A transport that dies permanently after `budget` answered estimates —
/// the in-process stand-in for a process kill partway through a run.
struct FailAfter {
    inner: Arc<dyn EstimateSource>,
    remaining: AtomicI64,
}

impl FailAfter {
    fn new(inner: Arc<dyn EstimateSource>, budget: i64) -> FailAfter {
        FailAfter {
            inner,
            remaining: AtomicI64::new(budget),
        }
    }
}

impl EstimateSource for FailAfter {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs
            .iter()
            .map(|spec| {
                if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
                    return Err(SourceError::Transport("simulated crash".into()));
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

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
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
fn killed_survey_resumes_without_reissuing_answered_queries() {
    const SEED: u64 = 4242;
    let dir = common::temp_dir("survey-resume");

    // Clean reference run: the entries a survey must produce.
    let clean_sim = Simulation::build(SEED, SimScale::Test);
    let clean_target = AuditTarget::for_platform(&clean_sim.linkedin, &clean_sim);
    let clean = survey_individuals(&clean_target).unwrap();

    // Clean *recorded* run over a throwaway store: how many platform
    // queries a survey costs when answered queries are deduplicated
    // through the store (the apples-to-apples baseline for resume).
    let ref_dir = common::temp_dir("survey-resume-ref");
    let ref_sim = Simulation::build(SEED, SimScale::Test);
    let ref_store = Arc::new(RunStore::open(&ref_dir).unwrap());
    let ref_target = AuditTarget::for_platform(&ref_sim.linkedin, &ref_sim)
        .layered(Layers {
            recording: Some(ref_store.clone()),
            ..Layers::default()
        })
        .unwrap();
    let reference = survey_individuals(&ref_target).unwrap();
    assert_eq!(reference.entries, clean.entries);
    assert_eq!(reference.base, clean.base);
    let full_queries = ref_sim.linkedin.stats().estimates;

    // "Killed" run: the transport dies after 25 answered estimates. The
    // recorder sits outermost, so everything answered before the crash
    // is already on disk.
    let sim_a = Simulation::build(SEED, SimScale::Test);
    let store_a = Arc::new(RunStore::open(&dir).unwrap());
    let flaky = Arc::new(FailAfter::new(sim_a.linkedin.clone(), 25));
    let target_a = AuditTarget::direct(flaky)
        .layered(Layers {
            recording: Some(store_a.clone()),
            ..Layers::default()
        })
        .unwrap();
    let err = survey_individuals(&target_a).unwrap_err();
    assert!(
        matches!(err, SourceError::Transport(_)),
        "crash must surface as a transport error: {err}"
    );
    let answered_before_crash = sim_a.linkedin.stats().estimates;
    assert!(
        answered_before_crash > 0 && answered_before_crash <= 25,
        "crash must land mid-survey (answered {answered_before_crash})"
    );
    drop(target_a);
    drop(store_a);

    // Resume: a fresh "process" reopens the store. Answered queries
    // replay from disk; only the unanswered tail reaches the platform.
    let sim_b = Simulation::build(SEED, SimScale::Test);
    let store_b = Arc::new(RunStore::open(&dir).unwrap());
    let target_b = AuditTarget::for_platform(&sim_b.linkedin, &sim_b)
        .layered(Layers {
            recording: Some(store_b.clone()),
            ..Layers::default()
        })
        .unwrap();
    let resumed = survey_individuals(&target_b).unwrap();
    let resumed_queries = sim_b.linkedin.stats().estimates;

    assert_eq!(
        resumed.entries, clean.entries,
        "resumed survey must be byte-identical to the clean run"
    );
    assert_eq!(resumed.base, clean.base);
    // The decisive count: across kill and resume the platform answered
    // exactly as many estimates as one uninterrupted run — nothing
    // answered before the crash was ever asked again.
    assert_eq!(
        answered_before_crash + resumed_queries,
        full_queries,
        "resume must not re-issue answered queries"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn killed_table1_resumes_and_then_replays_entirely_from_disk() {
    let dir = common::temp_dir("table1-resume");
    let config = ExperimentConfig::test(33);

    // Plain uninterrupted run: the reference TSV.
    let plain_ctx = ExperimentContext::new(config);
    let plain_tsv = table1_tsv(&table1(&plain_ctx).unwrap());

    // Full recorded run over a throwaway store: the query budget of one
    // complete run with store-level deduplication.
    let ref_dir = common::temp_dir("table1-resume-ref");
    let ref_store = Arc::new(RunStore::open(&ref_dir).unwrap());
    let ref_ctx = ExperimentContext::recorded(config, ref_store.clone());
    let ref_tsv = table1_tsv(&table1(&ref_ctx).unwrap());
    assert_eq!(ref_tsv, plain_tsv, "recording must not change the table");
    let full_queries = platform_queries(&ref_ctx.simulation);

    // "Killed" run: only the first favoured population's row of cells
    // completes before the run stops.
    let store_a = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_a = ExperimentContext::recorded(config, store_a.clone());
    let first_favoured = favoured_populations()[0];
    for kind in TABLE1_INTERFACES {
        table1_cell(&ctx_a, kind, first_favoured).unwrap();
    }
    let partial_queries = platform_queries(&ctx_a.simulation);
    assert!(partial_queries > 0);
    drop(ctx_a);
    drop(store_a);

    // Resume: reopen the store, run the whole table. Everything the
    // partial run answered is served from disk.
    let store_b = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_b = ExperimentContext::recorded(config, store_b.clone());
    let resumed_tsv = table1_tsv(&table1(&ctx_b).unwrap());
    let resumed_queries = platform_queries(&ctx_b.simulation);
    assert_eq!(
        resumed_tsv, plain_tsv,
        "resumed Table 1 must be byte-identical to an uninterrupted run"
    );
    assert_eq!(
        partial_queries + resumed_queries,
        full_queries,
        "resume must not re-issue answered queries"
    );
    drop(ctx_b);
    drop(store_b);

    // Third run over the now-complete store: the platform is never
    // queried and no new estimate is appended — the run replays entirely
    // from disk while still going through the live-target code path.
    let store_c = Arc::new(RunStore::open(&dir).unwrap());
    let ctx_c = ExperimentContext::recorded(config, store_c.clone());
    let keys_before = store_c.len();
    let replayed_tsv = table1_tsv(&table1(&ctx_c).unwrap());
    assert_eq!(replayed_tsv, plain_tsv);
    assert_eq!(
        platform_queries(&ctx_c.simulation),
        0,
        "a complete store must serve every query"
    );
    assert_eq!(
        store_c.len(),
        keys_before,
        "no new estimates may appear on a pure re-run"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// A record key as the recording layer salts it: FNV-1a over
/// `tag 0 label 0 rest`.
fn salted_key(tag: &[u8], label: &str, rest: &[u8]) -> u64 {
    let mut buf = tag.to_vec();
    buf.push(0);
    buf.extend_from_slice(label.as_bytes());
    buf.push(0);
    buf.extend_from_slice(rest);
    fnv1a(&buf)
}

/// A scheduler journal payload as kind 5 stored it: event tag, unit id,
/// then (for a grant) the attempt and the worker name.
fn old_sched_grant(unit: u64, attempt: u32, worker: &str) -> Vec<u8> {
    let mut buf = vec![1];
    buf.extend_from_slice(&unit.to_be_bytes());
    buf.extend_from_slice(&attempt.to_be_bytes());
    buf.extend_from_slice(&(worker.len() as u32).to_be_bytes());
    buf.extend_from_slice(worker.as_bytes());
    buf
}

/// Run stores written before record kinds 4 (named checkpoint blobs)
/// and 5 (scheduler journal events) were retired still hold such
/// records. They stay inert: the store opens, every interface's
/// metadata reads back unchanged, and the recorded Table 1 replays
/// byte-identically with the platforms detached.
#[test]
fn old_store_with_retired_record_kinds_still_opens_and_replays() {
    let dir = common::temp_dir("retired-kinds");
    let config = ExperimentConfig::test(7);

    let store = Arc::new(RunStore::open(&dir).unwrap());
    let ctx = ExperimentContext::recorded(config, store.clone());
    let recorded_tsv = table1_tsv(&table1(&ctx).unwrap());
    drop(ctx);
    let recorded = store.snapshot();
    let labels = labels_in(&recorded);
    assert!(!labels.is_empty());

    // What an older fleet run left beside its answers: a journal trail
    // per interface scope and a named checkpoint blob.
    let mut seq = 0u64;
    for label in &labels {
        for unit in 0..3u64 {
            let payload = old_sched_grant(unit, 1, "replica-0#0");
            let key = salted_key(b"sched", label, &seq.to_be_bytes());
            store.append(5, key, &payload).unwrap();
            seq += 1;
        }
    }
    store
        .append(4, salted_key(b"ckpt", "table1", &[]), b"progress v2")
        .unwrap();
    store.sync().unwrap();
    drop(store);

    let store = Arc::new(RunStore::open(&dir).unwrap());
    assert_eq!(store.count_kind(5) as u64, seq);
    assert_eq!(store.count_kind(4), 1);
    let reopened = store.snapshot();
    assert_eq!(labels_in(&reopened), labels);
    for label in &labels {
        let meta = meta_in(&recorded, label).unwrap();
        assert!(meta.is_some(), "{label} metadata recorded");
        assert_eq!(meta_in(&reopened, label).unwrap(), meta);
        let replay = ReplaySource::from_store(&store, label).unwrap();
        assert_eq!(Some(replay.meta()), meta.as_ref());
    }

    let replay_ctx = ExperimentContext::replayed(config, store.clone());
    let replayed_tsv = table1_tsv(&table1(&replay_ctx).unwrap());
    assert_eq!(
        replayed_tsv, recorded_tsv,
        "an old store must replay Table 1 byte-identically"
    );
    assert_eq!(platform_queries(&replay_ctx.simulation), 0);
    assert_eq!(store.stats().appends, 0, "replay never writes the store");

    std::fs::remove_dir_all(&dir).ok();
}
