//! Measures run-store write and replay throughput and records the
//! numbers in `BENCH_store_throughput.json`.
//!
//! Three rates, all over realistic records (encoded `TargetingSpec` +
//! estimate payloads, the store's production workload):
//!
//! * **append, fsync-per-record** — every append is durable before the
//!   next query is issued (the paranoid multi-day-audit setting);
//! * **append, batched group-commit** — the default
//!   [`SyncPolicy::Batched`] durability, one fsync per 64 records;
//! * **replay** — cold-opening the store, which scans and checksums the
//!   whole WAL to rebuild the snapshot index (what a resumed or
//!   replayed experiment pays at startup).
//!
//! The batched/fsync ratio is the price of per-record durability; the
//! binary only fails if the store loses or corrupts records, never on
//! speed, so CI stays robust to noisy runners.

use std::path::Path;
use std::process::ExitCode;

use adcomp_bench::harness::{time, Gate, Report, ScratchDir};
use adcomp_bench::Cli;
use adcomp_core::recording::{
    decode_estimate, encode_estimate, normalized_spec_key, KIND_ESTIMATE,
};
use adcomp_store::{RunStore, SyncPolicy, WalOptions};
use adcomp_targeting::{AttributeId, TargetingSpec};

/// Records per timed append run (kept modest so the fsync-per-record
/// mode finishes quickly even on slow disks).
const BATCHED_RECORDS: u32 = 50_000;
const FSYNC_RECORDS: u32 = 2_000;

fn spec_for(i: u32) -> TargetingSpec {
    // Two-attribute AND compositions over a synthetic catalog: the spec
    // shape discovery actually records.
    TargetingSpec::and_of([AttributeId(i % 997), AttributeId(997 + i / 997)]).normalized()
}

/// Appends `n` estimate records under `sync`, returning records/sec.
fn append_run(dir: &Path, sync: SyncPolicy, n: u32) -> f64 {
    let store = RunStore::open_with(
        dir,
        WalOptions {
            sync,
            ..WalOptions::default()
        },
    )
    .expect("open store");
    let ((), secs) = time(|| {
        for i in 0..n {
            let spec = spec_for(i);
            let key = normalized_spec_key("bench", &spec);
            let payload = encode_estimate(&spec, u64::from(i) * 10);
            store.append(KIND_ESTIMATE, key, &payload).expect("append");
        }
        store.sync().expect("final sync");
    });
    f64::from(n) / secs
}

/// Whether a cold open of `dir` recovers every appended record and a
/// sample of them reads back with the right value (appends with
/// duplicate keys are latest-wins in the index).
fn records_intact(dir: &Path, recovered: u64) -> bool {
    let store = RunStore::open(dir).expect("verify store");
    recovered == u64::from(BATCHED_RECORDS)
        && (0..BATCHED_RECORDS).step_by(977).all(|i| {
            let spec = spec_for(i);
            match store.get(normalized_spec_key("bench", &spec)) {
                Some((KIND_ESTIMATE, payload)) => {
                    decode_estimate(&payload).expect("decode") == (spec, u64::from(i) * 10)
                }
                _ => false,
            }
        })
}

fn main() -> ExitCode {
    let _cli = Cli::parse();
    let scratch = ScratchDir::new("store");
    let fsync_rate = append_run(
        &scratch.path().join("fsync"),
        SyncPolicy::EveryRecord,
        FSYNC_RECORDS,
    );
    let dir = scratch.path().join("batched");
    let batched_rate = append_run(&dir, SyncPolicy::Batched(64), BATCHED_RECORDS);
    // Replay: a cold open scans and checksums the whole WAL.
    let (recovered, replay_s) = time(|| {
        RunStore::open(&dir)
            .expect("reopen store")
            .stats()
            .recovered
    });

    Report::new("store_throughput")
        .value(
            "append_fsync_per_record_records",
            "count",
            f64::from(FSYNC_RECORDS),
        )
        .value("append_fsync_per_record_per_s", "1/s", fsync_rate)
        .value(
            "append_batched_64_records",
            "count",
            f64::from(BATCHED_RECORDS),
        )
        .value("append_batched_64_per_s", "1/s", batched_rate)
        .value("replay_records", "count", recovered as f64)
        .value("replay_per_s", "1/s", recovered as f64 / replay_s)
        .value(
            "batched_over_fsync",
            "ratio",
            batched_rate / fsync_rate.max(1.0),
        )
        .gates([Gate::flag(
            "records_intact",
            records_intact(&dir, recovered),
        )])
        .finish("BENCH_store_throughput.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_record_fails_the_run() {
        let scratch = ScratchDir::new("store-gate");
        let empty = scratch.path().join("empty");
        assert!(!records_intact(&empty, u64::from(BATCHED_RECORDS)));
        let dir = scratch.path().join("full");
        append_run(&dir, SyncPolicy::Never, BATCHED_RECORDS);
        assert!(records_intact(&dir, u64::from(BATCHED_RECORDS)));
        assert!(!records_intact(&dir, u64::from(BATCHED_RECORDS) - 1));
    }
}
