//! Streamed, segment-at-a-time universe generation and serving.
//!
//! A monolithic [`Universe`](crate::Universe) holds every user's latent
//! vector in memory (`n × 12 × f32`), which caps practical universes at a
//! few million users. This module scales generation to tens of millions by
//! splitting the id space into fixed-size **segments**: each segment's
//! users are generated, their demographic and attribute audiences
//! materialised into [`Bitset`]s, serialised to one file per segment, and
//! the per-user buffers dropped before the next segment starts. Peak RSS
//! is therefore a function of the segment size, not the universe size.
//!
//! Because every per-user quantity is a pure function of
//! `(seed, user id)` (see [`crate::universe`]'s stream derivation), the
//! segmented generator is **byte-identical** to the monolithic one: the
//! union of the per-segment audiences equals the audience the monolithic
//! generator would materialise. Segment sizes are required to be multiples
//! of 65 536 so per-segment bitsets occupy disjoint chunk ranges.
//!
//! Serving side, a [`SegmentStore`] exposes:
//!
//! * manifest **cardinalities** per `(segment, audience)` — zero-IO upper
//!   bounds for the discovery search's reach pruning;
//! * on-demand audience loading through a bounded LRU [`CacheStats`]
//!   cache, so query-time RSS is bounded by the configured cache size.
//!
//! On-disk layout: `manifest.bin` plus `seg-NNNNN.bin` files, each the
//! concatenation of the segment's serialised audiences (decodable with
//! [`Bitset::from_bytes_prefix`]).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use adcomp_bitset::{Bitset, DecodeError};

use crate::demographics::{AgeBucket, Gender};
use crate::latent::AttributeModel;
use crate::universe::{
    demographic_audiences, draw_all, generate_users, parallelism, UniverseConfig,
};

/// Segment sizes must be a multiple of this (one bitset chunk), so that
/// per-segment bitsets never share a chunk and concatenate losslessly.
pub const SEGMENT_ALIGN: u32 = 1 << 16;

/// Magic + version prefix of `manifest.bin`.
const MANIFEST_MAGIC: &[u8; 8] = b"ADSEGM01";

/// Fixed audiences stored before the attribute audiences in every
/// segment file: everyone, 2 genders, 4 age buckets.
const FIXED_AUDIENCES: u32 = 7;

/// One audience of a segmented universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentAudience {
    /// Every user of the segment (the paper's relevant audience).
    Everyone,
    /// Users of one gender.
    Gender(Gender),
    /// Users of one age bucket.
    Age(AgeBucket),
    /// Users in the audience of the `i`-th attribute model passed to
    /// [`SegmentStore::create`].
    Attribute(u32),
}

impl SegmentAudience {
    fn index(self) -> u32 {
        match self {
            SegmentAudience::Everyone => 0,
            SegmentAudience::Gender(g) => 1 + g.index() as u32,
            SegmentAudience::Age(a) => 3 + a.index() as u32,
            // Saturates: an index past the catalog stays out of range.
            SegmentAudience::Attribute(i) => FIXED_AUDIENCES.saturating_add(i),
        }
    }
}

/// Failures creating or serving a segment store.
#[derive(Debug)]
pub enum SegmentError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A stored bitset failed validation.
    Decode(DecodeError),
    /// The manifest or a request is structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment io: {e}"),
            SegmentError::Decode(e) => write!(f, "segment decode: {e}"),
            SegmentError::Corrupt(what) => write!(f, "segment store corrupt: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

impl From<DecodeError> for SegmentError {
    fn from(e: DecodeError) -> Self {
        SegmentError::Decode(e)
    }
}

/// Encoded size of one [`AudienceEntry`]: three little-endian `u64`s.
const ENTRY_BYTES: usize = 24;

/// Location and size of one audience inside its segment file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AudienceEntry {
    cardinality: u64,
    offset: u64,
    bytes: u64,
}

/// Everything needed to serve a segmented universe without touching the
/// segment files: config, layout, and per-(segment, audience)
/// cardinalities/offsets.
#[derive(Debug)]
pub struct SegmentManifest {
    config: UniverseConfig,
    segment_users: u32,
    n_attributes: u32,
    /// `entries[segment][audience index]`.
    entries: Vec<Vec<AudienceEntry>>,
}

impl SegmentManifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.config.n_users.to_le_bytes());
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        out.extend_from_slice(&self.config.scale.to_bits().to_le_bytes());
        let p = &self.config.profile;
        out.extend_from_slice(&p.male_fraction.to_bits().to_le_bytes());
        for w in p.age_weights {
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        // f32 signals are widened to u64 slots for a uniform record layout.
        out.extend_from_slice(&u64::from(p.gender_signal.to_bits()).to_le_bytes());
        out.extend_from_slice(&u64::from(p.age_signal.to_bits()).to_le_bytes());
        out.extend_from_slice(&self.segment_users.to_le_bytes());
        out.extend_from_slice(&self.n_attributes.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for seg in &self.entries {
            for e in seg {
                out.extend_from_slice(&e.cardinality.to_le_bytes());
                out.extend_from_slice(&e.offset.to_le_bytes());
                out.extend_from_slice(&e.bytes.to_le_bytes());
            }
        }
        out
    }

    /// Decodes `manifest.bin`. Total: any input yields a manifest or an
    /// error, never a panic, and nothing is allocated before the input is
    /// known to be long enough to hold it.
    pub fn decode(bytes: &[u8]) -> Result<SegmentManifest, SegmentError> {
        let mut r = ManifestReader { buf: bytes };
        if r.take(8)? != MANIFEST_MAGIC {
            return Err(SegmentError::Corrupt("bad manifest magic"));
        }
        let n_users = r.u32()?;
        let seed = r.u64()?;
        let scale = f64::from_bits(r.u64()?);
        let male_fraction = f64::from_bits(r.u64()?);
        let mut age_weights = [0f64; 4];
        for w in &mut age_weights {
            *w = f64::from_bits(r.u64()?);
        }
        let gender_signal = f32::from_bits(r.u64()? as u32);
        let age_signal = f32::from_bits(r.u64()? as u32);
        let config = UniverseConfig {
            n_users,
            seed,
            scale,
            profile: crate::demographics::DemographicProfile {
                male_fraction,
                age_weights,
                gender_signal,
                age_signal,
            },
        };
        config.check().map_err(SegmentError::Corrupt)?;
        let segment_users = r.u32()?;
        let n_attributes = r.u32()?;
        let n_segments = r.u32()? as usize;
        if segment_users == 0 || segment_users % SEGMENT_ALIGN != 0 {
            return Err(SegmentError::Corrupt("segment size not chunk-aligned"));
        }
        if n_segments != (n_users as usize).div_ceil(segment_users as usize) {
            return Err(SegmentError::Corrupt("segment count mismatch"));
        }
        let per_segment = FIXED_AUDIENCES
            .checked_add(n_attributes)
            .ok_or(SegmentError::Corrupt("attribute count overflows"))?
            as usize;
        let entries_len = n_segments
            .checked_mul(per_segment)
            .and_then(|n| n.checked_mul(ENTRY_BYTES));
        if entries_len != Some(r.buf.len()) {
            return Err(SegmentError::Corrupt(
                "manifest length does not match its header",
            ));
        }
        let mut entries = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let mut seg = Vec::with_capacity(per_segment);
            for _ in 0..per_segment {
                seg.push(AudienceEntry {
                    cardinality: r.u64()?,
                    offset: r.u64()?,
                    bytes: r.u64()?,
                });
            }
            entries.push(seg);
        }
        Ok(SegmentManifest {
            config,
            segment_users,
            n_attributes,
            entries,
        })
    }
}

struct ManifestReader<'a> {
    buf: &'a [u8],
}

impl<'a> ManifestReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        if self.buf.len() < n {
            return Err(SegmentError::Corrupt("manifest truncated"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    // f32s are stored widened to u64 slots to keep the record layout
    // uniform; the high bits are zero.
}

/// Snapshot of the audience cache's effectiveness and footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Audience loads answered from memory.
    pub hits: u64,
    /// Audience loads that read and decoded a segment file.
    pub misses: u64,
    /// Bytes of decoded audiences currently resident.
    pub resident_bytes: usize,
    /// Decoded audiences currently resident.
    pub resident_entries: usize,
}

/// Bounded LRU over decoded `(segment, audience)` bitsets.
struct AudienceCache {
    capacity_bytes: usize,
    map: HashMap<u64, Arc<Bitset>>,
    /// Least-recently-used at the front.
    order: VecDeque<u64>,
    stats: CacheStats,
}

impl AudienceCache {
    fn new(capacity_bytes: usize) -> Self {
        AudienceCache {
            capacity_bytes,
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, key: u64) -> Option<Arc<Bitset>> {
        let hit = self.map.get(&key).cloned();
        if hit.is_some() {
            self.stats.hits += 1;
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
                self.order.push_back(key);
            }
        }
        hit
    }

    fn insert(&mut self, key: u64, set: Arc<Bitset>) {
        self.stats.misses += 1;
        self.stats.resident_bytes += set.memory_bytes();
        self.map.insert(key, set);
        self.order.push_back(key);
        // Evict oldest first, but always keep the newest entry so a
        // single oversized audience can still be served.
        while self.stats.resident_bytes > self.capacity_bytes && self.order.len() > 1 {
            let evict = self.order.pop_front().expect("order non-empty");
            if let Some(gone) = self.map.remove(&evict) {
                self.stats.resident_bytes -= gone.memory_bytes();
            }
        }
        self.stats.resident_entries = self.map.len();
    }
}

/// A segmented universe on disk: generation-complete audiences served
/// through a bounded cache. See the [module docs](self).
pub struct SegmentStore {
    dir: PathBuf,
    manifest: SegmentManifest,
    cache: Mutex<AudienceCache>,
}

impl SegmentStore {
    /// Generates a segmented universe under `dir`, one segment at a time.
    ///
    /// Peak memory is `O(segment_users)` (per-user buffers plus the
    /// segment's audiences), independent of `config.n_users`. The result
    /// is byte-identical to materialising the same `models` on a
    /// monolithic [`Universe`](crate::Universe) with the same config.
    ///
    /// # Panics
    /// Panics when `segment_users` is zero or not a multiple of
    /// [`SEGMENT_ALIGN`], or when the config is invalid.
    pub fn create(
        dir: &Path,
        config: &UniverseConfig,
        segment_users: u32,
        models: &[AttributeModel],
        cache_bytes: usize,
    ) -> Result<SegmentStore, SegmentError> {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        assert!(
            segment_users > 0 && segment_users.is_multiple_of(SEGMENT_ALIGN),
            "segment_users must be a positive multiple of {SEGMENT_ALIGN}"
        );
        std::fs::create_dir_all(dir)?;
        let n_segments = (config.n_users as usize).div_ceil(segment_users as usize);
        let mut entries = Vec::with_capacity(n_segments);
        for seg in 0..n_segments as u32 {
            let (start, end) = bounds(config.n_users, segment_users, seg);
            let audiences = generate_segment(config, start, end, models);
            let mut buf = Vec::new();
            let mut seg_entries = Vec::with_capacity(audiences.len());
            for set in &audiences {
                let offset = buf.len() as u64;
                set.write_into(&mut buf);
                seg_entries.push(AudienceEntry {
                    cardinality: set.len(),
                    offset,
                    bytes: buf.len() as u64 - offset,
                });
            }
            let mut file = std::fs::File::create(segment_path(dir, seg))?;
            file.write_all(&buf)?;
            file.sync_all()?;
            entries.push(seg_entries);
        }
        let manifest = SegmentManifest {
            config: config.clone(),
            segment_users,
            n_attributes: models.len() as u32,
            entries,
        };
        std::fs::write(dir.join("manifest.bin"), manifest.encode())?;
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            manifest,
            cache: Mutex::new(AudienceCache::new(cache_bytes)),
        })
    }

    /// Opens an existing store by reading its manifest.
    pub fn open(dir: &Path, cache_bytes: usize) -> Result<SegmentStore, SegmentError> {
        let manifest = SegmentManifest::decode(&std::fs::read(dir.join("manifest.bin"))?)?;
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            manifest,
            cache: Mutex::new(AudienceCache::new(cache_bytes)),
        })
    }

    /// The generation config of the stored universe.
    pub fn config(&self) -> &UniverseConfig {
        &self.manifest.config
    }

    /// Users per segment (the last segment may be shorter).
    pub fn segment_users(&self) -> u32 {
        self.manifest.segment_users
    }

    /// Number of segments.
    pub fn n_segments(&self) -> u32 {
        self.manifest.entries.len() as u32
    }

    /// Number of stored attribute audiences.
    pub fn n_attributes(&self) -> u32 {
        self.manifest.n_attributes
    }

    /// Id range `[start, end)` of one segment; empty past the last one.
    pub fn segment_bounds(&self, segment: u32) -> (u32, u32) {
        bounds(
            self.manifest.config.n_users,
            self.manifest.segment_users,
            segment,
        )
    }

    fn entry(
        &self,
        segment: u32,
        audience: SegmentAudience,
    ) -> Result<AudienceEntry, SegmentError> {
        let seg = self
            .manifest
            .entries
            .get(segment as usize)
            .ok_or(SegmentError::Corrupt("segment index out of range"))?;
        seg.get(audience.index() as usize)
            .copied()
            .ok_or(SegmentError::Corrupt("audience index out of range"))
    }

    /// Exact size of one audience within one segment, from the manifest
    /// alone (no IO). These are the per-segment cardinality bounds the
    /// discovery search prunes with.
    pub fn cardinality(
        &self,
        segment: u32,
        audience: SegmentAudience,
    ) -> Result<u64, SegmentError> {
        Ok(self.entry(segment, audience)?.cardinality)
    }

    /// Exact size of one audience across the whole universe (no IO).
    pub fn total_cardinality(&self, audience: SegmentAudience) -> Result<u64, SegmentError> {
        let idx = audience.index() as usize;
        let mut total = 0u64;
        for seg in &self.manifest.entries {
            total += seg
                .get(idx)
                .ok_or(SegmentError::Corrupt("audience index out of range"))?
                .cardinality;
        }
        Ok(total)
    }

    /// Loads one audience of one segment through the bounded cache.
    ///
    /// The returned bitset holds **global** user ids (the segment's id
    /// range), so per-segment results combine by disjoint union.
    pub fn load(
        &self,
        segment: u32,
        audience: SegmentAudience,
    ) -> Result<Arc<Bitset>, SegmentError> {
        let key = (u64::from(segment) << 32) | u64::from(audience.index());
        if let Some(hit) = self.cache.lock().expect("cache lock").get(key) {
            return Ok(hit);
        }
        let entry = self.entry(segment, audience)?;
        let mut file = std::fs::File::open(segment_path(&self.dir, segment))?;
        // The manifest is untrusted: read nothing the file cannot hold.
        let file_len = file.metadata()?.len();
        if entry
            .offset
            .checked_add(entry.bytes)
            .is_none_or(|end| end > file_len)
        {
            return Err(SegmentError::Corrupt(
                "audience extends past its segment file",
            ));
        }
        file.seek(SeekFrom::Start(entry.offset))?;
        let mut bytes = vec![0u8; entry.bytes as usize];
        file.read_exact(&mut bytes)?;
        let set = Bitset::from_bytes(&bytes)?;
        if set.len() != entry.cardinality {
            return Err(SegmentError::Corrupt("cardinality mismatch on load"));
        }
        let set = Arc::new(set);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&set));
        Ok(set)
    }

    /// Materialises one audience across all segments as a single bitset.
    ///
    /// This is the monolithic-equivalence hook (and only sensible at
    /// seed scale): segments occupy disjoint chunk ranges, so the union
    /// is exactly what the monolithic generator would produce.
    pub fn assemble(&self, audience: SegmentAudience) -> Result<Bitset, SegmentError> {
        let mut out = Bitset::new();
        for seg in 0..self.n_segments() {
            out = out.or(self.load(seg, audience)?.as_ref());
        }
        Ok(out)
    }

    /// Current cache effectiveness and footprint.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("cache lock");
        let mut stats = cache.stats;
        stats.resident_entries = cache.map.len();
        stats
    }
}

/// Id range `[start, end)` of segment `segment`, clamped to the
/// universe (so an index past the last segment gives an empty range).
fn bounds(n_users: u32, segment_users: u32, segment: u32) -> (u32, u32) {
    let start = (u64::from(segment) * u64::from(segment_users)).min(u64::from(n_users));
    let end = (start + u64::from(segment_users)).min(u64::from(n_users));
    (start as u32, end as u32)
}

fn segment_path(dir: &Path, segment: u32) -> PathBuf {
    dir.join(format!("seg-{segment:05}.bin"))
}

/// Generates one segment's audiences: everyone, genders, ages, then one
/// audience per attribute model, all over global ids `[start, end)`.
fn generate_segment(
    config: &UniverseConfig,
    start: u32,
    end: u32,
    models: &[AttributeModel],
) -> Vec<Bitset> {
    let (demos, latent) = generate_users(config, start, (end - start) as usize);
    let (genders, ages) = demographic_audiences(start, &demos);
    let attributes = draw_all(config.seed, models, start, &demos, &latent, parallelism());

    let mut audiences = Vec::with_capacity(FIXED_AUDIENCES as usize + models.len());
    audiences.push(Bitset::from_sorted_iter(start..end));
    audiences.extend(genders);
    audiences.extend(ages);
    audiences.extend(attributes);
    for set in &mut audiences {
        set.run_optimize();
    }
    audiences
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::DemographicProfile;
    use crate::universe::Universe;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adcomp-segment-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_config(seed: u64, n_users: u32) -> UniverseConfig {
        UniverseConfig {
            n_users,
            seed,
            scale: 10.0,
            profile: DemographicProfile::balanced(),
        }
    }

    fn test_models() -> Vec<AttributeModel> {
        vec![
            AttributeModel::new(1).popularity(0.2),
            AttributeModel::new(2).popularity(0.1).gender_bias(0.8),
            AttributeModel::new(3).popularity(0.05).loading(0, 0.7),
        ]
    }

    #[test]
    fn streamed_matches_monolithic() {
        let config = test_config(41, 150_000); // 3 segments, last short
        let models = test_models();
        let dir = tmpdir("mono");
        let store = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 1 << 20).unwrap();
        let universe = Universe::generate(&config);

        let mono_everyone = universe.everyone().clone();
        assert_eq!(
            store.assemble(SegmentAudience::Everyone).unwrap(),
            mono_everyone
        );
        for g in [Gender::Male, Gender::Female] {
            assert_eq!(
                &store.assemble(SegmentAudience::Gender(g)).unwrap(),
                universe.gender_audience(g)
            );
        }
        for a in AgeBucket::ALL {
            assert_eq!(
                &store.assemble(SegmentAudience::Age(a)).unwrap(),
                universe.age_audience(a)
            );
        }
        for (i, m) in models.iter().enumerate() {
            let assembled = store
                .assemble(SegmentAudience::Attribute(i as u32))
                .unwrap();
            let mono = universe.materialize(m);
            assert_eq!(assembled, mono, "attribute {i}");
            assert_eq!(
                store
                    .total_cardinality(SegmentAudience::Attribute(i as u32))
                    .unwrap(),
                mono.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_roundtrips_manifest_and_serves_identical_audiences() {
        let config = test_config(7, 100_000);
        let models = test_models();
        let dir = tmpdir("open");
        let created = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 1 << 20).unwrap();
        let opened = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(opened.config(), &config);
        assert_eq!(opened.segment_users(), SEGMENT_ALIGN);
        assert_eq!(opened.n_segments(), 2);
        assert_eq!(opened.n_attributes(), models.len() as u32);
        assert_eq!(opened.segment_bounds(1), (65_536, 100_000));
        for seg in 0..opened.n_segments() {
            for aud in [
                SegmentAudience::Everyone,
                SegmentAudience::Gender(Gender::Female),
                SegmentAudience::Age(AgeBucket::A35_54),
                SegmentAudience::Attribute(2),
            ] {
                assert_eq!(
                    opened.load(seg, aud).unwrap(),
                    created.load(seg, aud).unwrap(),
                    "seg {seg} {aud:?}"
                );
                assert_eq!(
                    opened.cardinality(seg, aud).unwrap(),
                    opened.load(seg, aud).unwrap().len()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_is_bounded_and_counts_hits() {
        let config = test_config(9, 4 * SEGMENT_ALIGN);
        let models = test_models();
        let dir = tmpdir("cache");
        // Tiny cache: a couple of KB forces constant eviction.
        let store = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 4096).unwrap();
        for round in 0..3 {
            for seg in 0..store.n_segments() {
                let a = store.load(seg, SegmentAudience::Attribute(0)).unwrap();
                assert_eq!(
                    a.len(),
                    store
                        .cardinality(seg, SegmentAudience::Attribute(0))
                        .unwrap(),
                    "round {round}"
                );
            }
        }
        let stats = store.cache_stats();
        assert!(stats.misses > 0);
        assert!(
            stats.resident_bytes <= 4096 || stats.resident_entries == 1,
            "cache exceeded bound: {stats:?}"
        );
        // Repeated loads of one hot audience hit.
        let before = store.cache_stats().hits;
        let first = store.load(0, SegmentAudience::Everyone).unwrap();
        let second = store.load(0, SegmentAudience::Everyone).unwrap();
        assert_eq!(first, second);
        assert!(store.cache_stats().hits > before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misaligned_segment_size_rejected() {
        let config = test_config(1, 10_000);
        let dir = tmpdir("align");
        let err = std::panic::catch_unwind(|| {
            let _ = SegmentStore::create(&dir, &config, 1000, &[], 1 << 20);
        });
        assert!(err.is_err(), "non-multiple of 65536 must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let config = test_config(2, SEGMENT_ALIGN);
        let dir = tmpdir("corrupt");
        let _ = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &[], 1 << 20).unwrap();
        let path = dir.join("manifest.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentStore::open(&dir, 1 << 20),
            Err(SegmentError::Corrupt("bad manifest magic"))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ungeneratable_config_rejected_on_decode() {
        let config = test_config(2, SEGMENT_ALIGN);
        let manifest = |config: UniverseConfig| SegmentManifest {
            config,
            segment_users: SEGMENT_ALIGN,
            n_attributes: 0,
            entries: Vec::new(),
        };
        // No users and no segments is self-consistent, but no universe.
        let empty = manifest(UniverseConfig {
            n_users: 0,
            ..config.clone()
        });
        assert!(matches!(
            SegmentManifest::decode(&empty.encode()),
            Err(SegmentError::Corrupt(_))
        ));
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad = manifest(UniverseConfig {
                scale,
                ..config.clone()
            });
            bad.entries = vec![vec![
                AudienceEntry {
                    cardinality: 0,
                    offset: 0,
                    bytes: 0,
                };
                FIXED_AUDIENCES as usize
            ]];
            assert!(
                matches!(
                    SegmentManifest::decode(&bad.encode()),
                    Err(SegmentError::Corrupt(_))
                ),
                "scale {scale}"
            );
        }
    }

    #[test]
    fn load_is_bounded_by_the_segment_file() {
        let config = test_config(4, SEGMENT_ALIGN);
        let dir = tmpdir("bounded");
        let created = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &[], 1 << 20).unwrap();
        for (offset, bytes) in [(0, u64::MAX / 2), (u64::MAX, 16), (1 << 40, 8)] {
            let mut manifest = SegmentManifest::decode(&created.manifest.encode()).unwrap();
            manifest.entries[0][0] = AudienceEntry {
                cardinality: 1,
                offset,
                bytes,
            };
            std::fs::write(dir.join("manifest.bin"), manifest.encode()).unwrap();
            let opened = SegmentStore::open(&dir, 1 << 20).unwrap();
            assert!(
                matches!(
                    opened.load(0, SegmentAudience::Everyone),
                    Err(SegmentError::Corrupt(_))
                ),
                "offset {offset} bytes {bytes}"
            );
        }
        assert_eq!(
            created.segment_bounds(u32::MAX),
            (SEGMENT_ALIGN, SEGMENT_ALIGN)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
