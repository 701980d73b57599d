//! Persisted snapshot of the latest record per key.
//!
//! The index is a last-writer-wins map from content-hash key to
//! `(kind, payload)`, rebuilt from the WAL on open. Persisting it lets
//! a reopen skip every sealed segment the snapshot already covers:
//! [`SnapshotIndex::applied_segments`] records how many sealed segments
//! were folded in at save time, and re-applying any record twice is
//! harmless because application is idempotent latest-wins.
//!
//! On-disk format: an 8-byte magic, the applied-segment count (u64 BE),
//! then one [`Record`] frame per entry. Frames are self-checksummed, so
//! a damaged snapshot is *detected* and reported as absent — the caller
//! falls back to a full WAL replay rather than trusting bad bytes.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::path::Path;

use crate::atomic::write_atomic;
use crate::frame::Record;

/// First bytes of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"adcsnap1";

/// Last-writer-wins view of a record log, keyed by content hash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotIndex {
    map: BTreeMap<u64, (u8, Vec<u8>)>,
    applied_segments: u64,
}

impl SnapshotIndex {
    /// An empty index covering zero sealed segments.
    pub fn new() -> SnapshotIndex {
        SnapshotIndex::default()
    }

    /// Folds a record in (latest wins per key).
    pub fn apply(&mut self, record: Record) {
        self.map.insert(record.key, (record.kind, record.payload));
    }

    /// The latest `(kind, payload)` for `key`, if any.
    pub fn get(&self, key: u64) -> Option<(u8, &[u8])> {
        self.map.get(&key).map(|(k, p)| (*k, p.as_slice()))
    }

    /// Whether `key` has a record.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index has no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries in ascending key order (deterministic — drift diffs
    /// depend on this).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8, &[u8])> {
        self.map
            .iter()
            .map(|(k, (kind, p))| (*k, *kind, p.as_slice()))
    }

    /// How many sealed WAL segments this index has fully folded in.
    pub fn applied_segments(&self) -> u64 {
        self.applied_segments
    }

    /// Records the sealed-segment watermark before a save.
    pub fn set_applied_segments(&mut self, n: u64) {
        self.applied_segments = n;
    }

    /// Serializes the index and writes it via [`write_atomic`].
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&self.applied_segments.to_be_bytes());
        for (key, (kind, payload)) in &self.map {
            Record::new(*kind, *key, payload.clone()).write_to(&mut buf)?;
        }
        write_atomic(path, &buf)
    }

    /// Loads a snapshot. `Ok(None)` means missing **or** damaged —
    /// either way the caller rebuilds from the WAL; only environmental
    /// failures (permissions etc.) surface as errors.
    pub fn load(path: &Path) -> io::Result<Option<SnapshotIndex>> {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut header = [0u8; 16];
        if file.read_exact(&mut header).is_err() || &header[..8] != SNAPSHOT_MAGIC {
            return Ok(None);
        }
        let applied = u64::from_be_bytes(header[8..].try_into().expect("8 bytes"));
        let mut idx = SnapshotIndex {
            map: BTreeMap::new(),
            applied_segments: applied,
        };
        let mut r = io::BufReader::new(file);
        loop {
            match Record::read_from(&mut r) {
                Ok(Some(rec)) => idx.apply(rec),
                Ok(None) => return Ok(Some(idx)),
                Err(_) => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotIndex {
        let mut idx = SnapshotIndex::new();
        idx.apply(Record::new(1, 10, vec![1, 2, 3]));
        idx.apply(Record::new(2, 20, vec![]));
        idx.apply(Record::new(1, 10, vec![9])); // latest wins
        idx.set_applied_segments(3);
        idx
    }

    #[test]
    fn latest_wins_and_ordered_iteration() {
        let idx = sample();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(10), Some((1, [9u8].as_slice())));
        let keys: Vec<u64> = idx.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![10, 20]);
    }

    #[test]
    fn save_load_roundtrip() {
        let path = crate::test_dir("roundtrip").join("index.snap");
        let idx = sample();
        idx.save(&path).unwrap();
        let back = SnapshotIndex::load(&path).unwrap().unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.applied_segments(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let path = crate::test_dir("missing").join("index.snap");
        assert!(SnapshotIndex::load(&path).unwrap().is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn damaged_snapshot_is_none_not_garbage() {
        let path = crate::test_dir("damaged").join("index.snap");
        let idx = sample();
        idx.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(SnapshotIndex::load(&path).unwrap().is_none());
        // Truncated mid-frame is equally rejected.
        let good = idx_bytes(&idx);
        std::fs::write(&path, &good[..good.len() - 2]).unwrap();
        assert!(SnapshotIndex::load(&path).unwrap().is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    fn idx_bytes(idx: &SnapshotIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&idx.applied_segments.to_be_bytes());
        for (key, kind, payload) in idx.iter() {
            Record::new(kind, key, payload.to_vec())
                .write_to(&mut buf)
                .unwrap();
        }
        buf
    }
}
