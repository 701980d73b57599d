//! Durable encoding of audit queries: the bridge between the audit's
//! domain types and the byte-generic [`RunStore`].
//!
//! The store persists `(kind, key, payload)` records; this module fixes
//! what those mean for an audit run:
//!
//! * **Keys** are a stable FNV-1a 64 hash over a domain-separation tag,
//!   the interface label, and (for estimates) the canonical encoding of
//!   the **normalized** [`TargetingSpec`], so syntactically different
//!   but semantically identical specs share one record.
//!   Attribute ids are interface-local, which is why every key is
//!   salted with the interface label.
//! * **Estimate payloads** carry the encoded spec alongside the value,
//!   so a recorded run can be *iterated* (replay, cache preload, drift
//!   diffs) without inverting any hash.
//! * **Interface metadata** records everything [`ReplaySource`]
//!   (crate::source::ReplaySource) needs to stand in for a live
//!   platform — catalog size, attribute names and features, composition
//!   and demographic capabilities — so replay runs with the platform
//!   layer fully detached.
//!
//! The byte format is deliberately simple (big-endian integers,
//! length-prefixed strings) and versioned by the record `kind`; the
//! store's frames already provide checksums and crash-safety.

use std::io;

use adcomp_population::{AgeBucket, Gender};
use adcomp_store::{RunStore, SnapshotIndex};
use adcomp_targeting::{AttributeId, FeatureId, Location, OrGroup, TargetingSpec};

use crate::source::EstimateSource;

/// Record kind: one rounded estimate for one normalized spec.
pub const KIND_ESTIMATE: u8 = 1;
/// Record kind: interface metadata (catalog, capabilities).
pub const KIND_META: u8 = 2;
/// Record kind: audit-target layout (targeting/measurement labels and
/// the id translation between them).
pub const KIND_TARGET: u8 = 3;
// Record kinds 4 and 5 are retired and never reassigned, so an old
// store's records of those kinds stay inert: 4 was a named checkpoint
// blob (probe checkpoints are files), 5 (`KIND_SCHED_UNIT`) a scheduler
// unit lifecycle event from a job journal the queue no longer keeps.
/// Record kind: an audit-epoch lifecycle event (started, completed,
/// drift checked, alert raised, degraded) — the continuous-audit
/// daemon's crash-recovery journal.
pub const KIND_EPOCH: u8 = 6;

/// FNV-1a 64 — stable across runs, platforms, and Rust versions
/// (`DefaultHasher` guarantees none of that).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn salted(tag: &[u8], label: &str, rest: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(tag.len() + label.len() + rest.len() + 2);
    buf.extend_from_slice(tag);
    buf.push(0);
    buf.extend_from_slice(label.as_bytes());
    buf.push(0);
    buf.extend_from_slice(rest);
    fnv1a(&buf)
}

/// Content-hash key of `spec` on the interface named `label`. The spec
/// is normalized before encoding, so any spelling of the same audience
/// maps to the same record.
pub fn spec_key(label: &str, spec: &TargetingSpec) -> u64 {
    normalized_spec_key(label, &spec.normalized())
}

/// [`spec_key`] for a spec the caller has already normalized — the hot
/// path for sources that need the normalized form anyway.
pub fn normalized_spec_key(label: &str, normalized: &TargetingSpec) -> u64 {
    salted(b"est", label, &encode_spec(normalized))
}

/// Key of an interface's metadata record.
pub fn meta_key(label: &str) -> u64 {
    salted(b"meta", label, &[])
}

/// Key of an audit target's layout record, by its targeting label.
pub fn target_key(label: &str) -> u64 {
    salted(b"target", label, &[])
}

/// Key of an epoch lifecycle event in daemon scope `scope`, keyed per
/// `(epoch, stage)` so the store's latest-wins view makes every stage
/// idempotent across restarts: re-journaling "alert raised for epoch 3"
/// after a crash *overwrites* the first record instead of raising a
/// second alert.
pub fn epoch_event_key(scope: &str, epoch: u64, stage: u8) -> u64 {
    let mut rest = [0u8; 9];
    rest[..8].copy_from_slice(&epoch.to_be_bytes());
    rest[8] = stage;
    salted(b"epoch", scope, &rest)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("recorded run: {what}"))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.off.checked_add(n).ok_or_else(|| bad("overflow"))?;
        if end > self.bytes.len() {
            return Err(bad("truncated payload"));
        }
        let slice = &self.bytes[self.off..end];
        self.off = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| bad("non-utf8 string"))
    }

    fn done(&self) -> bool {
        self.off == self.bytes.len()
    }

    /// Room to reserve for `n` elements of at least `min_len` encoded
    /// bytes each: no more than the unread bytes can hold, so a forged
    /// count cannot make a decoder allocate beyond its input's size.
    fn capacity(&self, n: usize, min_len: usize) -> usize {
        n.min((self.bytes.len() - self.off) / min_len)
    }
}

/// Canonical byte encoding of a spec. Callers should pass the
/// [normalized](TargetingSpec::normalized) form; [`spec_key`] does.
pub fn encode_spec(spec: &TargetingSpec) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + 4 * spec.include.len());
    let gender_mask = match &spec.demographics.genders {
        None => 0xFF,
        Some(gs) => gs.iter().fold(0u8, |m, g| m | 1 << g.index()),
    };
    let age_mask = match &spec.demographics.ages {
        None => 0xFF,
        Some(ags) => ags.iter().fold(0u8, |m, a| m | 1 << a.index()),
    };
    buf.push(gender_mask);
    buf.push(age_mask);
    buf.push(match spec.demographics.location {
        Location::UnitedStates => 0,
    });
    put_u32(&mut buf, spec.include.len() as u32);
    for group in &spec.include {
        put_u32(&mut buf, group.attributes.len() as u32);
        for id in &group.attributes {
            put_u32(&mut buf, id.0);
        }
    }
    put_u32(&mut buf, spec.exclude.len() as u32);
    for id in &spec.exclude {
        put_u32(&mut buf, id.0);
    }
    buf
}

fn decode_spec_from(r: &mut Reader<'_>) -> io::Result<TargetingSpec> {
    let gender_mask = r.u8()?;
    let age_mask = r.u8()?;
    let location = match r.u8()? {
        0 => Location::UnitedStates,
        _ => return Err(bad("unknown location")),
    };
    let genders = if gender_mask == 0xFF {
        None
    } else {
        Some(
            Gender::ALL
                .into_iter()
                .filter(|g| gender_mask & (1 << g.index()) != 0)
                .collect(),
        )
    };
    let ages = if age_mask == 0xFF {
        None
    } else {
        Some(
            AgeBucket::ALL
                .into_iter()
                .filter(|a| age_mask & (1 << a.index()) != 0)
                .collect(),
        )
    };
    let n_groups = r.u32()? as usize;
    let mut include = Vec::with_capacity(r.capacity(n_groups, 4));
    for _ in 0..n_groups {
        let n = r.u32()? as usize;
        let mut attributes = Vec::with_capacity(r.capacity(n, 4));
        for _ in 0..n {
            attributes.push(AttributeId(r.u32()?));
        }
        include.push(OrGroup { attributes });
    }
    let n_excl = r.u32()? as usize;
    let mut exclude = Vec::with_capacity(r.capacity(n_excl, 4));
    for _ in 0..n_excl {
        exclude.push(AttributeId(r.u32()?));
    }
    Ok(TargetingSpec {
        demographics: adcomp_targeting::DemographicSpec {
            genders,
            ages,
            location,
        },
        include,
        exclude,
    })
}

/// Decodes a spec produced by [`encode_spec`].
pub fn decode_spec(bytes: &[u8]) -> io::Result<TargetingSpec> {
    let mut r = Reader::new(bytes);
    let spec = decode_spec_from(&mut r)?;
    if !r.done() {
        return Err(bad("trailing bytes after spec"));
    }
    Ok(spec)
}

/// Payload of a [`KIND_ESTIMATE`] record: the encoded normalized spec
/// plus the rounded estimate.
pub fn encode_estimate(spec: &TargetingSpec, value: u64) -> Vec<u8> {
    let spec_bytes = encode_spec(spec);
    let mut buf = Vec::with_capacity(4 + spec_bytes.len() + 8);
    put_u32(&mut buf, spec_bytes.len() as u32);
    buf.extend_from_slice(&spec_bytes);
    buf.extend_from_slice(&value.to_be_bytes());
    buf
}

/// Decodes a [`KIND_ESTIMATE`] payload back into `(spec, value)`.
pub fn decode_estimate(bytes: &[u8]) -> io::Result<(TargetingSpec, u64)> {
    let mut r = Reader::new(bytes);
    let spec_len = r.u32()? as usize;
    let spec = decode_spec(r.take(spec_len)?)?;
    let value = r.u64()?;
    if !r.done() {
        return Err(bad("trailing bytes after estimate"));
    }
    Ok((spec, value))
}

/// Everything a replay needs to know about an interface without the
/// platform behind it: identity, catalog, and capability flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceMeta {
    /// Report label ("Facebook", "FB-restricted", …).
    pub label: String,
    /// Whether the interface accepts gender/age constraints.
    pub supports_demographics: bool,
    /// Whether two attributes of the same feature may be AND-composed.
    pub same_feature_and: bool,
    /// Attribute names, indexed by [`AttributeId`].
    pub names: Vec<String>,
    /// Attribute features, indexed by [`AttributeId`] (`u16::MAX` when
    /// the source reported none).
    pub features: Vec<u16>,
}

impl InterfaceMeta {
    /// Captures the metadata of a live source by interrogating its
    /// catalog (plus one `can_compose` probe to learn the same-feature
    /// composition rule — no estimate queries are issued).
    pub fn capture(source: &dyn EstimateSource) -> InterfaceMeta {
        let n = source.catalog_len();
        let names = (0..n)
            .map(|i| source.attribute_name(AttributeId(i)).unwrap_or_default())
            .collect();
        let features: Vec<u16> = (0..n)
            .map(|i| {
                source
                    .attribute_feature(AttributeId(i))
                    .map_or(u16::MAX, |f| f.0)
            })
            .collect();
        let mut first_of = std::collections::HashMap::new();
        let mut same_feature_and = false;
        for (i, &f) in features.iter().enumerate() {
            if f == u16::MAX {
                continue;
            }
            match first_of.entry(f) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    same_feature_and =
                        source.can_compose(AttributeId(*e.get() as u32), AttributeId(i as u32));
                    break;
                }
            }
        }
        InterfaceMeta {
            label: source.label(),
            supports_demographics: source.supports_demographics(),
            same_feature_and,
            names,
            features,
        }
    }

    /// Serializes the metadata as a [`KIND_META`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, &self.label);
        buf.push(u8::from(self.supports_demographics) | (u8::from(self.same_feature_and) << 1));
        put_u32(&mut buf, self.names.len() as u32);
        for (name, &feature) in self.names.iter().zip(&self.features) {
            buf.extend_from_slice(&feature.to_be_bytes());
            put_str(&mut buf, name);
        }
        buf
    }

    /// Decodes a [`KIND_META`] payload.
    pub fn decode(bytes: &[u8]) -> io::Result<InterfaceMeta> {
        let mut r = Reader::new(bytes);
        let label = r.str()?;
        let flags = r.u8()?;
        let n = r.u32()? as usize;
        // Each entry is a 2-byte feature and a 4-byte name length at least.
        let mut names = Vec::with_capacity(r.capacity(n, 6));
        let mut features = Vec::with_capacity(r.capacity(n, 6));
        for _ in 0..n {
            features.push(r.u16()?);
            names.push(r.str()?);
        }
        if !r.done() {
            return Err(bad("trailing bytes after metadata"));
        }
        Ok(InterfaceMeta {
            label,
            supports_demographics: flags & 1 != 0,
            same_feature_and: flags & 2 != 0,
            names,
            features,
        })
    }

    /// Catalog size.
    pub fn catalog_len(&self) -> u32 {
        self.names.len() as u32
    }

    /// Replays the interface's composition rule.
    pub fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        let n = self.catalog_len();
        if a == b || a.0 >= n || b.0 >= n {
            return false;
        }
        if self.same_feature_and {
            return true;
        }
        let (fa, fb) = (self.features[a.0 as usize], self.features[b.0 as usize]);
        fa != u16::MAX && fb != u16::MAX && fa != fb
    }

    /// Attribute name, replayed (`None` for an unknown id or an empty
    /// name).
    pub fn name(&self, id: AttributeId) -> Option<String> {
        match self.names.get(id.0 as usize) {
            Some(name) if !name.is_empty() => Some(name.clone()),
            _ => None,
        }
    }

    /// Attribute feature, replayed.
    pub fn feature(&self, id: AttributeId) -> Option<FeatureId> {
        match self.features.get(id.0 as usize) {
            Some(&f) if f != u16::MAX => Some(FeatureId(f)),
            _ => None,
        }
    }
}

/// Layout of an [`AuditTarget`](crate::source::AuditTarget): which
/// interface was audited, which one measured, and the id translation
/// between them (the restricted-Facebook case).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TargetLayout {
    /// Label of the audited (targeting) interface.
    pub targeting: String,
    /// Label of the measurement interface.
    pub measurement: String,
    /// `id_map[i]` = attribute `i`'s id on the measurement interface,
    /// when the interfaces differ.
    pub id_map: Option<Vec<AttributeId>>,
}

impl TargetLayout {
    /// Serializes the layout as a [`KIND_TARGET`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_str(&mut buf, &self.targeting);
        put_str(&mut buf, &self.measurement);
        match &self.id_map {
            None => buf.push(0),
            Some(map) => {
                buf.push(1);
                put_u32(&mut buf, map.len() as u32);
                for id in map {
                    put_u32(&mut buf, id.0);
                }
            }
        }
        buf
    }

    /// Decodes a [`KIND_TARGET`] payload.
    pub fn decode(bytes: &[u8]) -> io::Result<TargetLayout> {
        let mut r = Reader::new(bytes);
        let targeting = r.str()?;
        let measurement = r.str()?;
        let id_map = match r.u8()? {
            0 => None,
            1 => {
                let n = r.u32()? as usize;
                let mut map = Vec::with_capacity(r.capacity(n, 4));
                for _ in 0..n {
                    map.push(AttributeId(r.u32()?));
                }
                Some(map)
            }
            _ => return Err(bad("unknown id-map tag")),
        };
        if !r.done() {
            return Err(bad("trailing bytes after target layout"));
        }
        Ok(TargetLayout {
            targeting,
            measurement,
            id_map,
        })
    }
}

/// Looks up the recorded estimate for `key` in a store snapshot.
pub fn estimate_in(index: &SnapshotIndex, key: u64) -> Option<u64> {
    match index.get(key) {
        Some((KIND_ESTIMATE, payload)) => decode_estimate(payload).ok().map(|(_, v)| v),
        _ => None,
    }
}

/// Visits every recorded `(spec, value)` estimate belonging to the
/// interface named `label`, in deterministic (key) order.
///
/// Estimate keys are label-salted, so membership is verified by
/// re-deriving the key from the decoded spec — records of other
/// interfaces never match.
pub fn each_estimate_in(index: &SnapshotIndex, label: &str, mut f: impl FnMut(TargetingSpec, u64)) {
    for (key, kind, payload) in index.iter() {
        if kind != KIND_ESTIMATE {
            continue;
        }
        if let Ok((spec, value)) = decode_estimate(payload) {
            if spec_key(label, &spec) == key {
                f(spec, value);
            }
        }
    }
}

/// Labels of every interface whose metadata the run recorded, in
/// deterministic (sorted) order.
pub fn labels_in(index: &SnapshotIndex) -> Vec<String> {
    let mut labels: Vec<String> = index
        .iter()
        .filter(|(_, kind, _)| *kind == KIND_META)
        .filter_map(|(_, _, payload)| InterfaceMeta::decode(payload).ok())
        .map(|m| m.label)
        .collect();
    labels.sort();
    labels
}

/// Loads the [`InterfaceMeta`] recorded for `label`, if any.
pub fn meta_in(index: &SnapshotIndex, label: &str) -> io::Result<Option<InterfaceMeta>> {
    match index.get(meta_key(label)) {
        Some((KIND_META, payload)) => InterfaceMeta::decode(payload).map(Some),
        Some((kind, _)) => Err(bad(&format!("metadata key holds kind {kind}"))),
        None => Ok(None),
    }
}

/// Records an interface's metadata (idempotent: latest wins, and the
/// metadata of a deterministic interface never changes within a run).
pub fn record_meta(store: &RunStore, meta: &InterfaceMeta) -> io::Result<()> {
    store.append(KIND_META, meta_key(&meta.label), &meta.encode())
}

/// Records an audit target's layout under its targeting label.
pub fn record_layout(store: &RunStore, layout: &TargetLayout) -> io::Result<()> {
    store.append(KIND_TARGET, target_key(&layout.targeting), &layout.encode())
}

/// Loads the target layout recorded under `targeting_label`.
pub fn layout_in(index: &SnapshotIndex, targeting_label: &str) -> io::Result<Option<TargetLayout>> {
    match index.get(target_key(targeting_label)) {
        Some((KIND_TARGET, payload)) => TargetLayout::decode(payload).map(Some),
        Some((kind, _)) => Err(bad(&format!("target key holds kind {kind}"))),
        None => Ok(None),
    }
}

/// One audit-epoch lifecycle event, as journaled under [`KIND_EPOCH`].
///
/// The continuous-audit daemon journals these with
/// [`SyncPolicy::EveryRecord`](adcomp_store::SyncPolicy) durability, so
/// a `kill -9` at any point leaves an unambiguous record of how far the
/// epoch got: a `Started` without a matching `Completed` means "resume
/// this epoch's survey" (the answered queries replay from the epoch's
/// own recording store), a `Completed` without a `DriftChecked` means
/// "re-run the drift diff", and an `AlertRaised` is idempotent thanks
/// to [`epoch_event_key`]'s per-stage keying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochEvent {
    /// Epoch began (attempt is 1-based and bumps on per-epoch retry).
    Started {
        /// Epoch number (0-based).
        epoch: u64,
        /// Supervision attempt for this epoch.
        attempt: u32,
    },
    /// Epoch's survey finished and its snapshot is durable.
    Completed {
        /// Epoch number.
        epoch: u64,
        /// FNV-1a digest over the epoch's key-ordered estimates —
        /// byte-identity across runs is checked on this.
        digest: u64,
        /// Estimate records in the epoch store.
        estimates: u64,
    },
    /// Drift versus the previous epoch was computed and acted on.
    DriftChecked {
        /// Epoch number (the *later* epoch of the pair).
        epoch: u64,
        /// Total drift findings.
        findings: u32,
        /// Four-fifths threshold crossings among them.
        crossings: u32,
    },
    /// A four-fifths crossing alert was raised for this epoch.
    AlertRaised {
        /// Epoch number.
        epoch: u64,
        /// Crossings that triggered the alert.
        crossings: u32,
        /// Human-readable alert line.
        detail: String,
    },
    /// The epoch ran degraded (an endpoint was down, survivors carried
    /// the work).
    Degraded {
        /// Epoch number.
        epoch: u64,
        /// What degraded.
        detail: String,
    },
}

impl EpochEvent {
    /// The epoch this event belongs to.
    pub fn epoch(&self) -> u64 {
        match self {
            EpochEvent::Started { epoch, .. }
            | EpochEvent::Completed { epoch, .. }
            | EpochEvent::DriftChecked { epoch, .. }
            | EpochEvent::AlertRaised { epoch, .. }
            | EpochEvent::Degraded { epoch, .. } => *epoch,
        }
    }

    /// The stage tag used in [`epoch_event_key`].
    pub fn stage(&self) -> u8 {
        match self {
            EpochEvent::Started { .. } => 1,
            EpochEvent::Completed { .. } => 2,
            EpochEvent::DriftChecked { .. } => 3,
            EpochEvent::AlertRaised { .. } => 4,
            EpochEvent::Degraded { .. } => 5,
        }
    }

    /// Byte encoding for a [`KIND_EPOCH`] payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            EpochEvent::Started { epoch, attempt } => {
                buf.push(1);
                buf.extend_from_slice(&epoch.to_be_bytes());
                put_u32(&mut buf, *attempt);
            }
            EpochEvent::Completed {
                epoch,
                digest,
                estimates,
            } => {
                buf.push(2);
                buf.extend_from_slice(&epoch.to_be_bytes());
                buf.extend_from_slice(&digest.to_be_bytes());
                buf.extend_from_slice(&estimates.to_be_bytes());
            }
            EpochEvent::DriftChecked {
                epoch,
                findings,
                crossings,
            } => {
                buf.push(3);
                buf.extend_from_slice(&epoch.to_be_bytes());
                put_u32(&mut buf, *findings);
                put_u32(&mut buf, *crossings);
            }
            EpochEvent::AlertRaised {
                epoch,
                crossings,
                detail,
            } => {
                buf.push(4);
                buf.extend_from_slice(&epoch.to_be_bytes());
                put_u32(&mut buf, *crossings);
                put_str(&mut buf, detail);
            }
            EpochEvent::Degraded { epoch, detail } => {
                buf.push(5);
                buf.extend_from_slice(&epoch.to_be_bytes());
                put_str(&mut buf, detail);
            }
        }
        buf
    }

    /// Decodes a [`KIND_EPOCH`] payload.
    pub fn decode(bytes: &[u8]) -> io::Result<EpochEvent> {
        let mut r = Reader::new(bytes);
        let event = match r.u8()? {
            1 => EpochEvent::Started {
                epoch: r.u64()?,
                attempt: r.u32()?,
            },
            2 => EpochEvent::Completed {
                epoch: r.u64()?,
                digest: r.u64()?,
                estimates: r.u64()?,
            },
            3 => EpochEvent::DriftChecked {
                epoch: r.u64()?,
                findings: r.u32()?,
                crossings: r.u32()?,
            },
            4 => EpochEvent::AlertRaised {
                epoch: r.u64()?,
                crossings: r.u32()?,
                detail: r.str()?,
            },
            5 => EpochEvent::Degraded {
                epoch: r.u64()?,
                detail: r.str()?,
            },
            k => return Err(bad(&format!("unknown epoch event {k}"))),
        };
        if !r.done() {
            return Err(bad("trailing bytes in epoch event"));
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_targeting::TargetingSpec;

    fn rich_spec() -> TargetingSpec {
        let mut spec = TargetingSpec::and_of([AttributeId(7), AttributeId(3)]);
        spec.include.push(OrGroup {
            attributes: vec![AttributeId(9), AttributeId(1)],
        });
        spec.exclude = vec![AttributeId(12), AttributeId(4)];
        spec.demographics.genders = Some(vec![Gender::Female]);
        spec.demographics.ages = Some(vec![AgeBucket::A25_34, AgeBucket::A55Plus]);
        spec
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn spec_roundtrips_through_codec() {
        for spec in [
            TargetingSpec::everyone(),
            TargetingSpec::and_of([AttributeId(0)]),
            rich_spec().normalized(),
        ] {
            let decoded = decode_spec(&encode_spec(&spec)).unwrap();
            assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn spec_key_is_spelling_invariant_and_label_salted() {
        let a = TargetingSpec::and_of([AttributeId(3), AttributeId(7)]);
        let b = TargetingSpec::and_of([AttributeId(7), AttributeId(3)]);
        assert_eq!(spec_key("Facebook", &a), spec_key("Facebook", &b));
        assert_ne!(
            spec_key("Facebook", &a),
            spec_key("LinkedIn", &a),
            "attribute ids are interface-local; keys must not collide across labels"
        );
    }

    #[test]
    fn estimate_payload_roundtrips() {
        let spec = rich_spec().normalized();
        let (back, value) = decode_estimate(&encode_estimate(&spec, 123_000)).unwrap();
        assert_eq!(back, spec);
        assert_eq!(value, 123_000);
        assert!(decode_estimate(&[1, 2, 3]).is_err());
    }

    #[test]
    fn meta_roundtrips() {
        let meta = InterfaceMeta {
            label: "Facebook".into(),
            supports_demographics: true,
            same_feature_and: true,
            names: vec!["interests — cats".into(), "interests — dogs".into()],
            features: vec![0, u16::MAX],
        };
        let back = InterfaceMeta::decode(&meta.encode()).unwrap();
        assert_eq!(back, meta);
        assert!(back.can_compose(AttributeId(0), AttributeId(1)));
        assert!(!back.can_compose(AttributeId(0), AttributeId(0)));
        assert!(
            !back.can_compose(AttributeId(0), AttributeId(2)),
            "out of range"
        );
        assert_eq!(back.feature(AttributeId(0)), Some(FeatureId(0)));
        assert_eq!(
            back.feature(AttributeId(1)),
            None,
            "sentinel decodes to None"
        );
    }

    #[test]
    fn layout_roundtrips() {
        let direct = TargetLayout {
            targeting: "LinkedIn".into(),
            measurement: "LinkedIn".into(),
            id_map: None,
        };
        assert_eq!(TargetLayout::decode(&direct.encode()).unwrap(), direct);
        let via = TargetLayout {
            targeting: "FB-restricted".into(),
            measurement: "Facebook".into(),
            id_map: Some(vec![AttributeId(4), AttributeId(9)]),
        };
        assert_eq!(TargetLayout::decode(&via.encode()).unwrap(), via);
    }

    #[test]
    fn store_roundtrip_with_label_filtering() {
        let dir =
            std::env::temp_dir().join(format!("adcomp-recording-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let spec_a = TargetingSpec::and_of([AttributeId(1)]).normalized();
        let spec_b = TargetingSpec::and_of([AttributeId(2)]).normalized();
        store
            .append(
                KIND_ESTIMATE,
                spec_key("A", &spec_a),
                &encode_estimate(&spec_a, 10),
            )
            .unwrap();
        store
            .append(
                KIND_ESTIMATE,
                spec_key("B", &spec_b),
                &encode_estimate(&spec_b, 20),
            )
            .unwrap();
        let index = store.snapshot();
        let mut a_specs = Vec::new();
        each_estimate_in(&index, "A", |s, v| a_specs.push((s, v)));
        assert_eq!(a_specs, vec![(spec_a.clone(), 10)]);
        assert_eq!(estimate_in(&index, spec_key("A", &spec_a)), Some(10));
        assert_eq!(estimate_in(&index, spec_key("A", &spec_b)), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_events_roundtrip() {
        let events = [
            EpochEvent::Started {
                epoch: 3,
                attempt: 2,
            },
            EpochEvent::Completed {
                epoch: 3,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                estimates: 1_234,
            },
            EpochEvent::DriftChecked {
                epoch: 3,
                findings: 7,
                crossings: 2,
            },
            EpochEvent::AlertRaised {
                epoch: 3,
                crossings: 2,
                detail: "LinkedIn: 2 four-fifths crossing(s) vs epoch 2".into(),
            },
            EpochEvent::Degraded {
                epoch: 3,
                detail: "replica-1 unhealthy; survivors carried 40 slots".into(),
            },
        ];
        for e in &events {
            assert_eq!(&EpochEvent::decode(&e.encode()).unwrap(), e);
            assert_eq!(e.epoch(), 3);
        }
        // Trailing bytes and unknown tags must fail loudly.
        let mut bytes = events[0].encode();
        bytes.push(0);
        assert!(EpochEvent::decode(&bytes).is_err());
        assert!(EpochEvent::decode(&[9]).is_err());
    }

    #[test]
    fn epoch_event_keys_separate_stages_and_scopes() {
        let e = EpochEvent::Started {
            epoch: 1,
            attempt: 1,
        };
        let c = EpochEvent::Completed {
            epoch: 1,
            digest: 0,
            estimates: 0,
        };
        // Same (scope, epoch, stage) collides — that is the idempotence
        // mechanism; different stages, epochs, or scopes never do.
        assert_eq!(
            epoch_event_key("daemon", 1, e.stage()),
            epoch_event_key("daemon", 1, e.stage())
        );
        assert_ne!(
            epoch_event_key("daemon", 1, e.stage()),
            epoch_event_key("daemon", 1, c.stage())
        );
        assert_ne!(
            epoch_event_key("daemon", 1, e.stage()),
            epoch_event_key("daemon", 2, e.stage())
        );
        assert_ne!(
            epoch_event_key("daemon", 1, e.stage()),
            epoch_event_key("other", 1, e.stage())
        );
    }
}
