//! [`RunStore`]: one recorded audit run, durable and shareable.
//!
//! A run store is a directory holding a WAL plus an optional snapshot
//! (`index.snap`). Opening it recovers the keyed latest-wins view —
//! loading the snapshot first and replaying only the sealed segments it
//! has not folded in, then the active segment. All mutation goes
//! through an internal mutex, so a store can sit behind an `Arc` and be
//! shared by the recording source, the checkpointing drivers, and the
//! drift reporter at once.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use adcomp_obs::lock;

use crate::frame::Record;
use crate::index::SnapshotIndex;
use crate::wal::{Wal, WalOptions, WalStats};

const SNAPSHOT_FILE: &str = "index.snap";

/// A durable, keyed record store for one audit run.
pub struct RunStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

struct Inner {
    wal: Wal,
    index: SnapshotIndex,
}

impl RunStore {
    /// Opens (creating if needed) the store in `dir` with default WAL
    /// options.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RunStore> {
        RunStore::open_with(dir, WalOptions::default())
    }

    /// Opens the store with explicit WAL options, recovering state from
    /// snapshot + log.
    pub fn open_with(dir: impl AsRef<Path>, opts: WalOptions) -> io::Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        let snap_path = dir.join(SNAPSHOT_FILE);
        let mut index = match SnapshotIndex::load(&snap_path)? {
            Some(idx) => idx,
            None => SnapshotIndex::new(),
        };
        let skip = index.applied_segments();
        let wal = Wal::recover(&dir, opts, skip, |rec| index.apply(rec))?;
        Ok(RunStore {
            dir,
            inner: Mutex::new(Inner { wal, index }),
        })
    }

    /// Appends a record to the log and folds it into the keyed view.
    pub fn append(&self, kind: u8, key: u64, payload: &[u8]) -> io::Result<()> {
        let record = Record::new(kind, key, payload.to_vec());
        let mut inner = lock(&self.inner);
        inner.wal.append(&record)?;
        inner.index.apply(record);
        Ok(())
    }

    /// The latest `(kind, payload)` for `key`, if recorded.
    pub fn get(&self, key: u64) -> Option<(u8, Vec<u8>)> {
        let inner = lock(&self.inner);
        inner.index.get(key).map(|(k, p)| (k, p.to_vec()))
    }

    /// Whether `key` has been recorded.
    pub fn contains(&self, key: u64) -> bool {
        lock(&self.inner).index.contains(key)
    }

    /// Number of distinct keys recorded.
    pub fn len(&self) -> usize {
        lock(&self.inner).index.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).index.is_empty()
    }

    /// A point-in-time clone of the keyed view, for offline iteration
    /// (replay sources, drift diffs).
    pub fn snapshot(&self) -> SnapshotIndex {
        lock(&self.inner).index.clone()
    }

    /// Visits every `(key, kind, payload)` in ascending key order.
    pub fn for_each(&self, mut f: impl FnMut(u64, u8, &[u8])) {
        let inner = lock(&self.inner);
        for (key, kind, payload) in inner.index.iter() {
            f(key, kind, payload);
        }
    }

    /// Visits every record of `kind` in ascending key order.
    pub fn for_each_kind(&self, kind: u8, mut f: impl FnMut(u64, &[u8])) {
        let inner = lock(&self.inner);
        for (key, k, payload) in inner.index.iter() {
            if k == kind {
                f(key, payload);
            }
        }
    }

    /// Number of recorded keys holding a record of `kind`.
    pub fn count_kind(&self, kind: u8) -> usize {
        let inner = lock(&self.inner);
        inner.index.iter().filter(|(_, k, _)| *k == kind).count()
    }

    /// Forces appended records to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        lock(&self.inner).wal.sync()
    }

    /// Persists the keyed view so the next open can skip every sealed
    /// segment written so far.
    pub fn save_snapshot(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        let sealed = inner.wal.sealed_segments();
        inner.index.set_applied_segments(sealed);
        inner.index.save(&self.dir.join(SNAPSHOT_FILE))
    }

    /// WAL counters since open.
    pub fn stats(&self) -> WalStats {
        lock(&self.inner).wal.stats()
    }

    /// The directory this run lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adcomp-store-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> WalOptions {
        WalOptions {
            segment_bytes: 96,
            sync: SyncPolicy::Never,
        }
    }

    #[test]
    fn append_reopen_roundtrip_latest_wins() {
        let dir = tmp_dir("roundtrip");
        {
            let store = RunStore::open_with(&dir, small_opts()).unwrap();
            for i in 0..25u64 {
                store.append(1, i % 5, &[i as u8]).unwrap();
            }
        }
        let store = RunStore::open_with(&dir, small_opts()).unwrap();
        assert_eq!(store.len(), 5);
        for k in 0..5u64 {
            // Latest write for key k was i = 20 + k.
            assert_eq!(store.get(k), Some((1, vec![20 + k as u8])));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_skips_sealed_segments_on_reopen() {
        let dir = tmp_dir("snapshot");
        {
            let store = RunStore::open_with(&dir, small_opts()).unwrap();
            for i in 0..40u64 {
                store.append(1, i, &[i as u8; 8]).unwrap();
            }
            store.save_snapshot().unwrap();
            // More appends after the snapshot land only in the log.
            for i in 40..50u64 {
                store.append(1, i, &[i as u8; 8]).unwrap();
            }
        }
        let store = RunStore::open_with(&dir, small_opts()).unwrap();
        assert_eq!(store.len(), 50);
        assert_eq!(store.get(45), Some((1, vec![45u8; 8])));
        // Recovery replayed strictly fewer records than exist: the
        // snapshot covered the sealed prefix.
        assert!(
            (store.stats().recovered as usize) < 50,
            "{:?}",
            store.stats()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshot_falls_back_to_full_replay() {
        let dir = tmp_dir("bad-snap");
        {
            let store = RunStore::open_with(&dir, small_opts()).unwrap();
            for i in 0..30u64 {
                store.append(2, i, &[3; 4]).unwrap();
            }
            store.save_snapshot().unwrap();
        }
        let snap = dir.join(super::SNAPSHOT_FILE);
        std::fs::write(&snap, b"adcsnap1 but then nonsense").unwrap();
        let store = RunStore::open_with(&dir, small_opts()).unwrap();
        assert_eq!(store.len(), 30, "full replay reconstructs everything");
        assert_eq!(store.stats().recovered, 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_across_threads() {
        let dir = tmp_dir("threads");
        let store = std::sync::Arc::new(RunStore::open_with(&dir, small_opts()).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..20u64 {
                        store.append(1, t * 100 + i, &[t as u8]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 80);
        std::fs::remove_dir_all(&dir).ok();
    }
}
