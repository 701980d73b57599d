//! Append-only write-ahead log over rotating segment files.
//!
//! A log is a directory of segment files. The *active* segment
//! (`wal-NNNNNN.active`) is the only file ever appended to; when it
//! reaches [`WalOptions::segment_bytes`] it is fsync'd and renamed to
//! `wal-NNNNNN.seg` (a *sealed* segment) in one atomic step, and a new
//! active segment is started. Consequently:
//!
//! * sealed segments are immutable and were durable before the rename —
//!   a corrupt frame inside one is genuine media corruption and
//!   [`Wal::open`] refuses to silently drop it;
//! * only the active segment can hold a torn tail from a crash, and
//!   recovery truncates that tail back to the last self-validating
//!   frame instead of failing the run.
//!
//! Appends, fsyncs, rotations and truncated tail bytes are mirrored to
//! the global `adcomp-obs` registry (`adcomp_store_*`).

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use adcomp_obs::metrics::{Counter, Registry};

use crate::frame::Record;

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"adcwal01";

/// When appended records are pushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every record: at most zero acknowledged
    /// records lost on power failure, slowest.
    EveryRecord,
    /// `fdatasync` once every `n` records (and on rotation / close):
    /// bounded loss window, near-`Never` throughput.
    Batched(u32),
    /// Never sync explicitly; durability rides on segment rotation and
    /// [`Wal::sync`] calls from the caller.
    Never,
}

/// Tuning for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Durability policy for appends.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 << 20,
            sync: SyncPolicy::Batched(64),
        }
    }
}

/// Counters for one log's lifetime (since `open`), plus what recovery
/// found on disk.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Records appended since open.
    pub appends: u64,
    /// Explicit sync calls issued since open.
    pub fsyncs: u64,
    /// Segment rotations since open.
    pub rotations: u64,
    /// Valid records visited during recovery (skipped sealed segments
    /// excluded).
    pub recovered: u64,
    /// Torn tail bytes truncated from the active segment at open.
    pub truncated_bytes: u64,
}

struct StoreCounters {
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    rotations: Arc<Counter>,
    truncated: Arc<Counter>,
}

impl StoreCounters {
    fn global() -> StoreCounters {
        let reg = Registry::global();
        StoreCounters {
            appends: reg.counter("adcomp_store_appends_total"),
            fsyncs: reg.counter("adcomp_store_fsyncs_total"),
            rotations: reg.counter("adcomp_store_rotations_total"),
            truncated: reg.counter("adcomp_store_truncated_bytes_total"),
        }
    }
}

/// An open write-ahead log rooted at a directory.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    active_seq: u64,
    active_len: u64,
    pending: u32,
    stats: WalStats,
    counters: StoreCounters,
}

impl Wal {
    /// Opens (creating if needed) the log in `dir`, recovering all
    /// records without visiting them.
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<Wal> {
        Wal::recover(dir, opts, 0, |_| {})
    }

    /// Opens the log, invoking `on_record` for every recovered record
    /// in append order. The first `skip_sealed` sealed segments are not
    /// read at all — callers restoring from a snapshot pass the
    /// snapshot's applied-segment count here.
    pub fn recover(
        dir: &Path,
        opts: WalOptions,
        skip_sealed: u64,
        mut on_record: impl FnMut(Record),
    ) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let (sealed, active) = list_segments(dir)?;
        let counters = StoreCounters::global();
        let mut stats = WalStats::default();

        for (i, (seq, path)) in sealed.iter().enumerate() {
            if (i as u64) < skip_sealed {
                continue;
            }
            read_sealed(path, *seq, &mut |rec| {
                stats.recovered += 1;
                on_record(rec);
            })?;
        }

        let max_sealed = sealed.last().map(|(seq, _)| *seq);
        let (active_seq, file, active_len) = match active {
            Some((seq, path)) => {
                if max_sealed.is_some_and(|m| seq <= m) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("active segment {seq} not newer than sealed segments"),
                    ));
                }
                let (file, good, truncated) = recover_active(&path, &mut |rec| {
                    stats.recovered += 1;
                    on_record(rec);
                })?;
                stats.truncated_bytes += truncated;
                (seq, file, good)
            }
            None => {
                let seq = max_sealed.map_or(0, |m| m + 1);
                let file = new_segment(&dir.join(segment_name(seq, true)))?;
                (seq, file, SEGMENT_MAGIC.len() as u64)
            }
        };
        counters.truncated.add(stats.truncated_bytes);

        Ok(Wal {
            dir: dir.to_path_buf(),
            opts,
            file,
            active_seq,
            active_len,
            pending: 0,
            stats,
            counters,
        })
    }

    /// Appends one record, rotating and syncing per the options.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        let frame_len = record.frame_len() as u64;
        if self.active_len > SEGMENT_MAGIC.len() as u64
            && self.active_len + frame_len > self.opts.segment_bytes
        {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(record.frame_len());
        record.write_to(&mut buf)?;
        self.file.write_all(&buf)?;
        self.active_len += frame_len;
        self.stats.appends += 1;
        self.counters.appends.inc();
        match self.opts.sync {
            SyncPolicy::EveryRecord => self.sync()?,
            SyncPolicy::Batched(n) => {
                self.pending += 1;
                if self.pending >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => self.pending += 1,
        }
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.pending = 0;
        self.stats.fsyncs += 1;
        self.counters.fsyncs.inc();
        Ok(())
    }

    /// Seals the active segment (fsync + atomic rename) and starts a
    /// fresh one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.stats.fsyncs += 1;
        self.counters.fsyncs.inc();
        let open_path = self.dir.join(segment_name(self.active_seq, true));
        let sealed_path = self.dir.join(segment_name(self.active_seq, false));
        std::fs::rename(&open_path, &sealed_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.active_seq += 1;
        let next = self.dir.join(segment_name(self.active_seq, true));
        self.file = new_segment(&next)?;
        self.active_len = SEGMENT_MAGIC.len() as u64;
        self.pending = 0;
        self.stats.rotations += 1;
        self.counters.rotations.inc();
        Ok(())
    }

    /// Number of sealed (immutable, durable) segments on disk.
    pub fn sealed_segments(&self) -> u64 {
        self.active_seq
    }

    /// Counters since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.pending > 0 {
            let _ = self.file.sync_data();
        }
    }
}

fn segment_name(seq: u64, active: bool) -> String {
    let ext = if active { "active" } else { "seg" };
    format!("wal-{seq:06}.{ext}")
}

fn parse_segment(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("wal-")?;
    if let Some(seq) = rest.strip_suffix(".seg") {
        return seq.parse().ok().map(|s| (s, false));
    }
    if let Some(seq) = rest.strip_suffix(".active") {
        return seq.parse().ok().map(|s| (s, true));
    }
    None
}

type Segments = (Vec<(u64, PathBuf)>, Option<(u64, PathBuf)>);

fn list_segments(dir: &Path) -> io::Result<Segments> {
    let mut sealed = Vec::new();
    let mut active: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match parse_segment(name) {
            Some((seq, false)) => sealed.push((seq, entry.path())),
            Some((seq, true)) => {
                if active.is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "multiple active segments",
                    ));
                }
                active = Some((seq, entry.path()));
            }
            None => {}
        }
    }
    sealed.sort_by_key(|(seq, _)| *seq);
    Ok((sealed, active))
}

fn check_magic(r: &mut impl Read, path: &Path) -> io::Result<bool> {
    let mut magic = [0u8; 8];
    let mut filled = 0;
    while filled < magic.len() {
        match r.read(&mut magic[filled..])? {
            0 => return Ok(false),
            n => filled += n,
        }
    }
    if &magic != SEGMENT_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad segment magic in {}", path.display()),
        ));
    }
    Ok(true)
}

fn read_sealed(path: &Path, seq: u64, on_record: &mut dyn FnMut(Record)) -> io::Result<()> {
    let mut r = BufReader::new(File::open(path)?);
    if !check_magic(&mut r, path)? {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("sealed segment {seq} shorter than its header"),
        ));
    }
    loop {
        match Record::read_from(&mut r) {
            Ok(Some(rec)) => on_record(rec),
            Ok(None) => return Ok(()),
            // A sealed segment was fsync'd before its rename; anything
            // invalid inside it is media corruption, not a torn write,
            // and dropping it silently would forge audit history.
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("sealed segment {seq} corrupt: {e}"),
                ))
            }
        }
    }
}

/// Scans the active segment, truncating any torn tail, and returns the
/// file positioned for appending plus the truncated byte count.
fn recover_active(path: &Path, on_record: &mut dyn FnMut(Record)) -> io::Result<(File, u64, u64)> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let disk_len = file.metadata()?.len();
    let mut good;
    {
        let mut r = BufReader::new(&mut file);
        if !check_magic(&mut r, path)? {
            // Torn before the header finished: restart the segment.
            good = 0;
        } else {
            good = SEGMENT_MAGIC.len() as u64;
            loop {
                match Record::read_from(&mut r) {
                    Ok(Some(rec)) => {
                        good += rec.frame_len() as u64;
                        on_record(rec);
                    }
                    Ok(None) => break,
                    Err(_) => break,
                }
            }
        }
    }
    let mut truncated = 0;
    if good < disk_len {
        truncated = disk_len - good;
        file.set_len(good)?;
        file.sync_all()?;
    }
    if good == 0 {
        file.seek(SeekFrom::Start(0))?;
        file.write_all(SEGMENT_MAGIC)?;
        file.sync_all()?;
        good = SEGMENT_MAGIC.len() as u64;
    }
    file.seek(SeekFrom::Start(good))?;
    Ok((file, good, truncated))
}

fn new_segment(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.sync_all()?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            sync: SyncPolicy::Never,
        }
    }

    fn collect(dir: &Path) -> Vec<Record> {
        let mut out = Vec::new();
        let wal = Wal::recover(dir, opts(1 << 20), 0, |r| out.push(r)).unwrap();
        drop(wal);
        out
    }

    #[test]
    fn append_and_recover_in_order() {
        let dir = crate::test_dir("order");
        {
            let mut wal = Wal::open(&dir, opts(1 << 20)).unwrap();
            for i in 0..50u64 {
                wal.append(&Record::new(1, i, vec![i as u8; 10])).unwrap();
            }
        }
        let recs = collect(&dir);
        assert_eq!(recs.len(), 50);
        assert!(recs.iter().enumerate().all(|(i, r)| r.key == i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_keeps_order() {
        let dir = crate::test_dir("rotate");
        {
            // Tiny segments: every few records forces a rotation.
            let mut wal = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..40u64 {
                wal.append(&Record::new(2, i, vec![0xAB; 16])).unwrap();
            }
            assert!(wal.stats().rotations > 3, "{:?}", wal.stats());
            assert_eq!(wal.sealed_segments(), wal.stats().rotations);
        }
        let (sealed, active) = list_segments(&dir).unwrap();
        assert!(sealed.len() > 3);
        assert!(active.is_some());
        let recs = collect(&dir);
        assert_eq!(recs.len(), 40);
        assert!(recs.iter().enumerate().all(|(i, r)| r.key == i as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = crate::test_dir("torn");
        {
            let mut wal = Wal::open(&dir, opts(1 << 20)).unwrap();
            for i in 0..10u64 {
                wal.append(&Record::new(1, i, vec![1; 8])).unwrap();
            }
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let active = list_segments(&dir).unwrap().1.unwrap().1;
        let mut f = OpenOptions::new().append(true).open(&active).unwrap();
        f.write_all(&[0xFF, 0x00, 0x13]).unwrap();
        drop(f);

        let mut seen = Vec::new();
        let mut wal = Wal::recover(&dir, opts(1 << 20), 0, |r| seen.push(r.key)).unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(wal.stats().truncated_bytes, 3);
        wal.append(&Record::new(1, 10, vec![2; 8])).unwrap();
        drop(wal);
        assert_eq!(collect(&dir).len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_restarts_segment() {
        let dir = crate::test_dir("torn-header");
        drop(Wal::open(&dir, opts(1 << 20)).unwrap());
        let active = list_segments(&dir).unwrap().1.unwrap().1;
        // Crash after only 3 header bytes hit disk.
        let f = OpenOptions::new().write(true).open(&active).unwrap();
        f.set_len(3).unwrap();
        drop(f);
        let mut wal = Wal::open(&dir, opts(1 << 20)).unwrap();
        wal.append(&Record::new(1, 1, vec![])).unwrap();
        drop(wal);
        assert_eq!(collect(&dir).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_corruption_is_an_error_not_silent_loss() {
        let dir = crate::test_dir("sealed-corrupt");
        {
            let mut wal = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..20u64 {
                wal.append(&Record::new(1, i, vec![7; 16])).unwrap();
            }
            assert!(wal.sealed_segments() > 0);
        }
        let sealed = list_segments(&dir).unwrap().0;
        let victim = &sealed[0].1;
        let bytes = std::fs::read(victim).unwrap();
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(victim, &bad).unwrap();
        let err = match Wal::open(&dir, opts(64)) {
            Err(e) => e,
            Ok(_) => panic!("corrupt sealed segment must not open"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skip_sealed_skips_exactly_that_prefix() {
        let dir = crate::test_dir("skip");
        {
            let mut wal = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..30u64 {
                wal.append(&Record::new(1, i, vec![9; 16])).unwrap();
            }
        }
        let all = collect(&dir);
        let (sealed, _) = list_segments(&dir).unwrap();
        assert!(sealed.len() >= 2);
        let mut tail = Vec::new();
        let wal = Wal::recover(&dir, opts(64), 1, |r| tail.push(r)).unwrap();
        assert_eq!(wal.stats().recovered as usize, tail.len());
        assert!(tail.len() < all.len());
        // The visited records are exactly a suffix of the full log.
        assert_eq!(&all[all.len() - tail.len()..], tail.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_every_record_counts_fsyncs() {
        let dir = crate::test_dir("sync");
        let mut wal = Wal::open(
            &dir,
            WalOptions {
                segment_bytes: 1 << 20,
                sync: SyncPolicy::EveryRecord,
            },
        )
        .unwrap();
        for i in 0..5u64 {
            wal.append(&Record::new(1, i, vec![])).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 5);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }
}
