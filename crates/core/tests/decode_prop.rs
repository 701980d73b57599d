//! Property tests for the run-store decoders in `recording.rs` and the
//! granularity-probe checkpoint: every encoding round-trips, every
//! truncation of one is an error, and arbitrary or corrupted bytes
//! never panic a decoder.

use adcomp_core::recording::{decode_estimate, decode_spec, encode_estimate, encode_spec};
use adcomp_core::{EpochEvent, InterfaceMeta, ProbeCheckpoint, SchedEvent, TargetLayout};
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, DemographicSpec, Location, OrGroup, TargetingSpec};
use proptest::prelude::*;

/// Specs in the form the encoding preserves: demographic lists are bit
/// masks, so each list is a subset in canonical order.
fn arb_spec() -> impl Strategy<Value = TargetingSpec> {
    (
        proptest::option::of(0u8..4),
        proptest::option::of(0u8..16),
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..5), 0..4),
        proptest::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(genders, ages, include, exclude)| TargetingSpec {
            demographics: DemographicSpec {
                genders: genders.map(|mask| {
                    Gender::ALL
                        .into_iter()
                        .filter(|g| mask & (1 << g.index()) != 0)
                        .collect()
                }),
                ages: ages.map(|mask| {
                    AgeBucket::ALL
                        .into_iter()
                        .filter(|a| mask & (1 << a.index()) != 0)
                        .collect()
                }),
                location: Location::UnitedStates,
            },
            include: include
                .into_iter()
                .map(|g| OrGroup {
                    attributes: g.into_iter().map(AttributeId).collect(),
                })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
        })
}

fn arb_meta() -> impl Strategy<Value = InterfaceMeta> {
    (
        any::<String>(),
        any::<[bool; 2]>(),
        proptest::collection::vec((any::<String>(), any::<u16>()), 0..6),
    )
        .prop_map(|(label, flags, entries)| InterfaceMeta {
            label,
            supports_demographics: flags[0],
            same_feature_and: flags[1],
            names: entries.iter().map(|(name, _)| name.clone()).collect(),
            features: entries.iter().map(|&(_, feature)| feature).collect(),
        })
}

fn arb_layout() -> impl Strategy<Value = TargetLayout> {
    (
        any::<String>(),
        any::<String>(),
        proptest::option::of(proptest::collection::vec(any::<u32>(), 0..6)),
    )
        .prop_map(|(targeting, measurement, id_map)| TargetLayout {
            targeting,
            measurement,
            id_map: id_map.map(|ids| ids.into_iter().map(AttributeId).collect()),
        })
}

fn arb_sched() -> impl Strategy<Value = SchedEvent> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<String>()).prop_map(|(unit, attempt, worker)| {
            SchedEvent::Granted {
                unit,
                attempt,
                worker,
            }
        }),
        (any::<u64>(), any::<String>(), any::<u32>()).prop_map(|(unit, worker, slots)| {
            SchedEvent::Completed {
                unit,
                worker,
                slots,
            }
        }),
        (any::<u64>(), any::<String>(), any::<String>()).prop_map(|(unit, worker, reason)| {
            SchedEvent::Requeued {
                unit,
                worker,
                reason,
            }
        }),
        (any::<u64>(), any::<String>(), any::<u32>()).prop_map(|(unit, worker, slots)| {
            SchedEvent::Failed {
                unit,
                worker,
                slots,
            }
        }),
    ]
}

fn arb_epoch() -> impl Strategy<Value = EpochEvent> {
    prop_oneof![
        (any::<u64>(), any::<u32>())
            .prop_map(|(epoch, attempt)| EpochEvent::Started { epoch, attempt }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, digest, estimates)| {
            EpochEvent::Completed {
                epoch,
                digest,
                estimates,
            }
        }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(epoch, findings, crossings)| {
            EpochEvent::DriftChecked {
                epoch,
                findings,
                crossings,
            }
        }),
        (any::<u64>(), any::<u32>(), any::<String>()).prop_map(|(epoch, crossings, detail)| {
            EpochEvent::AlertRaised {
                epoch,
                crossings,
                detail,
            }
        }),
        (any::<u64>(), any::<String>())
            .prop_map(|(epoch, detail)| EpochEvent::Degraded { epoch, detail }),
    ]
}

fn arb_checkpoint() -> impl Strategy<Value = ProbeCheckpoint> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(
            |(seed, queries, next_index, skipped, observations)| ProbeCheckpoint {
                seed,
                queries: queries as usize,
                next_index,
                skipped,
                observations,
            },
        )
}

/// A valid encoding of any of the decoded types.
fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_spec().prop_map(|spec| encode_spec(&spec)),
        (arb_spec(), any::<u64>()).prop_map(|(spec, value)| encode_estimate(&spec, value)),
        arb_meta().prop_map(|meta| meta.encode()),
        arb_layout().prop_map(|layout| layout.encode()),
        arb_sched().prop_map(|event| event.encode()),
        arb_epoch().prop_map(|event| event.encode()),
        arb_checkpoint().prop_map(|checkpoint| checkpoint.to_bytes()),
    ]
}

/// Runs every decoder over `bytes`; only a panic fails.
fn decode_all(bytes: &[u8]) {
    let _ = decode_spec(bytes);
    let _ = decode_estimate(bytes);
    let _ = InterfaceMeta::decode(bytes);
    let _ = TargetLayout::decode(bytes);
    let _ = SchedEvent::decode(bytes);
    let _ = EpochEvent::decode(bytes);
    let _ = ProbeCheckpoint::from_bytes(bytes);
}

/// Whether `decode` rejects every strict prefix of `bytes`.
fn truncations_fail<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> std::io::Result<T>) -> bool {
    (0..bytes.len()).all(|cut| decode(&bytes[..cut]).is_err())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn specs_roundtrip_and_reject_truncation(spec in arb_spec()) {
        let bytes = encode_spec(&spec);
        prop_assert_eq!(decode_spec(&bytes).unwrap(), spec);
        prop_assert!(truncations_fail(&bytes, decode_spec));
    }

    #[test]
    fn estimates_roundtrip_and_reject_truncation(spec in arb_spec(), value in any::<u64>()) {
        let bytes = encode_estimate(&spec, value);
        prop_assert_eq!(decode_estimate(&bytes).unwrap(), (spec, value));
        prop_assert!(truncations_fail(&bytes, decode_estimate));
    }

    #[test]
    fn metadata_roundtrips_and_rejects_truncation(meta in arb_meta()) {
        let bytes = meta.encode();
        prop_assert_eq!(InterfaceMeta::decode(&bytes).unwrap(), meta);
        prop_assert!(truncations_fail(&bytes, InterfaceMeta::decode));
    }

    #[test]
    fn layouts_roundtrip_and_reject_truncation(layout in arb_layout()) {
        let bytes = layout.encode();
        prop_assert_eq!(TargetLayout::decode(&bytes).unwrap(), layout);
        prop_assert!(truncations_fail(&bytes, TargetLayout::decode));
    }

    #[test]
    fn sched_events_roundtrip_and_reject_truncation(event in arb_sched()) {
        let bytes = event.encode();
        prop_assert_eq!(SchedEvent::decode(&bytes).unwrap(), event);
        prop_assert!(truncations_fail(&bytes, SchedEvent::decode));
    }

    #[test]
    fn epoch_events_roundtrip_and_reject_truncation(event in arb_epoch()) {
        let bytes = event.encode();
        prop_assert_eq!(EpochEvent::decode(&bytes).unwrap(), event);
        prop_assert!(truncations_fail(&bytes, EpochEvent::decode));
    }

    #[test]
    fn checkpoints_roundtrip_and_reject_truncation(checkpoint in arb_checkpoint()) {
        let bytes = checkpoint.to_bytes();
        prop_assert_eq!(ProbeCheckpoint::from_bytes(&bytes).unwrap(), checkpoint);
        prop_assert!(truncations_fail(&bytes, ProbeCheckpoint::from_bytes));
    }

    #[test]
    fn decoders_are_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_all(&bytes);
    }

    #[test]
    fn decoders_are_total_on_corrupted_encodings(
        bytes in arb_encoding(),
        at in any::<proptest::sample::Index>(),
        byte in any::<u8>(),
        extra in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut bytes = bytes;
        if !bytes.is_empty() {
            let at = at.index(bytes.len());
            bytes[at] = byte;
        }
        bytes.extend_from_slice(&extra);
        decode_all(&bytes);
    }
}
