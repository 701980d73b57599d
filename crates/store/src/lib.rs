//! Crash-safe persistence for audit runs.
//!
//! The audit methodology is *longitudinal*: estimate consistency is
//! characterised by re-issuing the same queries over time, and
//! granularity / skew findings only hold if runs can be compared across
//! days and platform changes. This crate is the durability layer that
//! makes that possible without trusting anything beyond POSIX file
//! semantics:
//!
//! * [`frame`] — length-prefixed, CRC-checksummed record frames. Every
//!   byte that reaches disk is self-validating; a torn write is
//!   detectable, never silently read back.
//! * [`wal`] — an append-only write-ahead log over rotating segment
//!   files. Rotation is atomic (a fsync'd temp file renamed into
//!   place), so only the *last* segment can ever hold a torn tail, and
//!   [`Wal::open`] truncates that tail instead of failing the run.
//! * [`index`] — a persisted snapshot of the latest record per key, so
//!   reopening a long run does not replay the whole log.
//! * [`run`] — [`RunStore`], the public face: a directory holding one
//!   recorded run (WAL + snapshot), shareable across threads, with
//!   last-writer-wins key semantics.
//! * [`atomic`] — [`write_atomic`], the fsync'd temp-file + rename
//!   primitive everything else (and `adcomp-core`'s probe checkpoints)
//!   builds on.
//!
//! The store is deliberately **byte-generic**: records are
//! `(kind, key, payload)` where the key is a caller-computed content
//! hash (in the audit pipeline: a stable hash of the normalized
//! `TargetingSpec`) and the payload is opaque. Serialization of domain
//! types stays with the domain crates; crash-safety stays here.
//!
//! Appends, fsyncs, rotations and truncated tails are counted in the
//! global `adcomp-obs` registry under `adcomp_store_*`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod frame;
pub mod index;
pub mod run;
pub mod wal;

pub use atomic::write_atomic;
pub use frame::{crc32, Record};
pub use index::SnapshotIndex;
pub use run::RunStore;
pub use wal::{SyncPolicy, Wal, WalOptions, WalStats};

/// A fresh, empty directory under the system temp dir for one test,
/// unique to this call: its name joins `tag`, the pid and a per-process
/// counter, so tests running in parallel never share one.
#[cfg(test)]
fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("adcomp-store-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
