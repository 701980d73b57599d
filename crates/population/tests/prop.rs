//! Property tests for the universe generator: demographic partitions,
//! prior adherence, determinism, and monotonicity of the attribute model.

use std::sync::OnceLock;

use adcomp_population::segment::SegmentManifest;
use adcomp_population::{
    AgeBucket, AttributeInference, AttributeModel, DemographicProfile, Gender, SegmentAudience,
    SegmentStore, Universe, UniverseConfig, SEGMENT_ALIGN,
};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = DemographicProfile> {
    (
        0.05f64..0.95,
        proptest::array::uniform4(0.05f64..1.0),
        0.0f32..1.5,
        0.0f32..1.5,
    )
        .prop_map(|(male_fraction, age_weights, gender_signal, age_signal)| {
            DemographicProfile {
                male_fraction,
                age_weights,
                gender_signal,
                age_signal,
            }
        })
}

fn universe(seed: u64, profile: DemographicProfile) -> Universe {
    Universe::generate(&UniverseConfig {
        n_users: 6_000,
        seed,
        scale: 1.0,
        profile,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn demographic_sets_partition_for_any_profile(seed in 0u64..1000, profile in arb_profile()) {
        let u = universe(seed, profile);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        prop_assert!(males.is_disjoint(females));
        prop_assert_eq!(males.len() + females.len(), u.n_users() as u64);
        let age_total: u64 = AgeBucket::ALL.iter().map(|a| u.age_audience(*a).len()).sum();
        prop_assert_eq!(age_total, u.n_users() as u64);
        // Per-user lookup agrees with the precomputed sets.
        for user in (0..u.n_users()).step_by(997) {
            let d = u.demographics(user);
            prop_assert!(u.gender_audience(d.gender).contains(user));
            prop_assert!(u.age_audience(d.age).contains(user));
        }
    }

    #[test]
    fn priors_hold_within_sampling_error(seed in 0u64..1000, profile in arb_profile()) {
        let u = universe(seed, profile.clone());
        let male_frac = u.gender_audience(Gender::Male).len() as f64 / u.n_users() as f64;
        // Binomial std-err for n=6000 is ≤ 0.0065; allow 5 sigma.
        prop_assert!((male_frac - profile.male_fraction).abs() < 0.033,
                     "male {male_frac} vs prior {}", profile.male_fraction);
        let total: f64 = profile.age_weights.iter().sum();
        for age in AgeBucket::ALL {
            let expect = profile.age_weights[age.index()] / total;
            let got = u.age_audience(age).len() as f64 / u.n_users() as f64;
            prop_assert!((got - expect).abs() < 0.04, "{age}: {got} vs {expect}");
        }
    }

    #[test]
    fn materialisation_deterministic_and_seed_sensitive(
        seed in 0u64..1000, attr_seed in 0u64..1000, p in 0.02f64..0.5)
    {
        let u = universe(seed, DemographicProfile::balanced());
        let m = AttributeModel::new(attr_seed).popularity(p);
        let a = u.materialize(&m);
        prop_assert_eq!(a.clone(), u.materialize(&m), "same model → same audience");
        let m2 = AttributeModel::new(attr_seed ^ 0xFFFF_0000).popularity(p);
        let b = u.materialize(&m2);
        // Different attribute seeds decorrelate membership: the overlap
        // should be near p² of the universe, far from identity.
        prop_assert!(a != b || a.is_empty());
    }

    #[test]
    fn popularity_is_monotone_in_bias(seed in 0u64..200, attr_seed in 0u64..200) {
        let u = universe(seed, DemographicProfile::balanced());
        let low = u.materialize(&AttributeModel::new(attr_seed).popularity(0.05));
        let high = u.materialize(&AttributeModel::new(attr_seed).popularity(0.30));
        // Same Bernoulli stream, higher threshold: strictly nested sets.
        prop_assert!(low.is_subset(&high), "audiences share a draw stream");
        prop_assert!(low.len() < high.len());
    }

    #[test]
    fn gender_bias_direction_is_respected(seed in 0u64..200, bias in 0.4f32..1.5) {
        let u = universe(seed, DemographicProfile::balanced());
        let m = AttributeModel::new(7).popularity(0.2).gender_bias(bias);
        let audience = u.materialize(&m);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        let male_rate = audience.intersection_len(males) as f64 / males.len() as f64;
        let female_rate = audience.intersection_len(females) as f64 / females.len() as f64;
        prop_assert!(male_rate > female_rate,
                     "bias {bias}: male {male_rate} vs female {female_rate}");
    }

    #[test]
    fn streamed_segments_match_monolithic_generator(
        seed in 0u64..500, extra in 0u32..30_000, p in 0.05f64..0.4)
    {
        // A 2-segment streamed universe must be byte-identical to the
        // monolithic generator: same demographic audiences, same
        // attribute memberships, value for value.
        let config = UniverseConfig {
            n_users: SEGMENT_ALIGN + 1 + extra, // always spills into segment 2
            seed,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        };
        let models = [
            AttributeModel::new(seed ^ 0xA1).popularity(p),
            AttributeModel::new(seed ^ 0xB2).popularity(p).gender_bias(0.6),
        ];
        let dir = std::env::temp_dir().join(format!(
            "adcomp-prop-segment-{}-{seed}-{extra}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 1 << 22).unwrap();
        prop_assert_eq!(store.n_segments(), 2);
        let universe = Universe::generate(&config);
        prop_assert_eq!(
            &store.assemble(SegmentAudience::Everyone).unwrap(),
            universe.everyone()
        );
        for g in [Gender::Male, Gender::Female] {
            prop_assert_eq!(
                &store.assemble(SegmentAudience::Gender(g)).unwrap(),
                universe.gender_audience(g)
            );
        }
        for (i, m) in models.iter().enumerate() {
            let streamed = store.assemble(SegmentAudience::Attribute(i as u32)).unwrap();
            let mono = universe.materialize(m);
            prop_assert_eq!(
                streamed.iter().collect::<Vec<_>>(),
                mono.iter().collect::<Vec<_>>()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_error_inference_is_byte_identical_to_oracle(
        seed in 0u64..500, inf_seed in 0u64..500, profile in arb_profile())
    {
        // Identity confusion + no missingness: the inferred view IS the
        // oracle view, set for set — regardless of the inference seed.
        let u = universe(seed, profile);
        let view = AttributeInference::oracle(inf_seed).view(&u);
        prop_assert_eq!(view.observed(), u.everyone());
        prop_assert_eq!(view.missing_count(), 0);
        for g in Gender::ALL {
            prop_assert_eq!(view.gender_audience(g), u.gender_audience(g));
        }
        for a in AgeBucket::ALL {
            prop_assert_eq!(view.age_audience(a), u.age_audience(a));
        }
    }

    #[test]
    fn masked_users_never_resurrected_across_segments(
        seed in 0u64..500, inf_seed in 0u64..500,
        miss in 0.05f64..0.6, scale in -2.0f64..2.0, chunk in 257u32..3_000)
    {
        // A user the missingness mask drops is dropped in *every*
        // chunking of the id space: chunk-at-a-time views never
        // resurrect them, and their union is byte-identical to the
        // monolithic view.
        let u = universe(seed, DemographicProfile::balanced());
        let inference = AttributeInference::noisy(inf_seed, 0.1, 0.15)
            .with_missingness(miss, (inf_seed % 12) as usize, scale);
        let full = inference.view(&u);
        let mut merged = inference.view_of_range(&u, 0, 0);
        let mut start = 0u32;
        while start < u.n_users() {
            let end = (start + chunk).min(u.n_users());
            let part = inference.view_of_range(&u, start, end);
            for user in start..end {
                if !full.observed().contains(user) {
                    prop_assert!(
                        !part.observed().contains(user),
                        "masked user {user} resurrected in chunk [{start},{end})"
                    );
                    for g in Gender::ALL {
                        prop_assert!(!part.gender_audience(g).contains(user));
                    }
                    for a in AgeBucket::ALL {
                        prop_assert!(!part.age_audience(a).contains(user));
                    }
                }
            }
            merged.merge(&part);
            start = end;
        }
        prop_assert_eq!(merged, full);
    }

    #[test]
    fn membership_probability_matches_realised_rate(seed in 0u64..50) {
        // The mean model probability and the realised audience fraction
        // must agree (law of large numbers over the user dimension).
        let u = universe(seed, DemographicProfile::balanced());
        let m = AttributeModel::new(3).popularity(0.15).gender_bias(0.5).loading(4, 0.8);
        let audience = u.materialize(&m);
        let mean_p: f64 = (0..u.n_users())
            .map(|user| u.membership_probability(&m, user))
            .sum::<f64>()
            / u.n_users() as f64;
        let realised = audience.len() as f64 / u.n_users() as f64;
        prop_assert!((mean_p - realised).abs() < 0.02,
                     "mean p {mean_p} vs realised {realised}");
    }
}

/// `manifest.bin` of a valid two-segment store with three attributes.
fn valid_manifest() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("adcomp-prop-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = UniverseConfig {
            n_users: SEGMENT_ALIGN + 100,
            seed: 3,
            scale: 2.0,
            profile: DemographicProfile::balanced(),
        };
        let models: Vec<_> = (0..3)
            .map(|i| AttributeModel::new(i).popularity(0.2))
            .collect();
        SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 1 << 20).unwrap();
        let bytes = std::fs::read(dir.join("manifest.bin")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// Byte offsets of the manifest's header fields.
mod field {
    pub const N_USERS: usize = 8;
    pub const SCALE: usize = 20;
    pub const MALE_FRACTION: usize = 28;
    pub const AGE_WEIGHTS: usize = 36;
    pub const GENDER_SIGNAL: usize = 68;
    pub const SEGMENT_USERS: usize = 84;
    pub const N_ATTRIBUTES: usize = 88;
    pub const N_SEGMENTS: usize = 92;
}

/// A header field overwritten with a value no valid manifest holds.
fn arb_bad_field() -> impl Strategy<Value = (usize, Vec<u8>)> {
    let le32 = |v: u32| v.to_le_bytes().to_vec();
    let le64 = |v: u64| v.to_le_bytes().to_vec();
    let bad_scale = prop_oneof![
        Just(0.0f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (1e-9f64..1e9).prop_map(|v| -v),
    ];
    prop_oneof![
        Just((field::N_USERS, le32(0))),
        bad_scale.prop_map(move |v| (field::SCALE, le64(v.to_bits()))),
        prop_oneof![Just(f64::NAN), 1.0001f64..1e6, -1e6f64..-0.0001]
            .prop_map(move |v| (field::MALE_FRACTION, le64(v.to_bits()))),
        (
            0usize..4,
            prop_oneof![Just(f64::NAN), Just(f64::INFINITY), -1e6f64..-0.0001]
        )
            .prop_map(move |(i, v)| (field::AGE_WEIGHTS + 8 * i, le64(v.to_bits()))),
        Just((field::AGE_WEIGHTS, vec![0u8; 32])),
        prop_oneof![Just(f32::NAN), Just(f32::INFINITY)]
            .prop_map(move |v| (field::GENDER_SIGNAL, le64(u64::from(v.to_bits())))),
        any::<u32>()
            .prop_filter("misaligned", |v| v % SEGMENT_ALIGN != 0)
            .prop_map(move |v| (field::SEGMENT_USERS, le32(v))),
        Just((field::SEGMENT_USERS, le32(0))),
        prop_oneof![any::<u32>(), (u32::MAX - 8)..=u32::MAX]
            .prop_filter("not the real count", |v| *v != 3)
            .prop_map(move |v| (field::N_ATTRIBUTES, le32(v))),
        any::<u32>()
            .prop_filter("not the real count", |v| *v != 2)
            .prop_map(move |v| (field::N_SEGMENTS, le32(v))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn manifest_decode_rejects_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(SegmentManifest::decode(&bytes).is_err());
        // The same garbage behind a valid magic.
        let mut framed = valid_manifest()[..8].to_vec();
        framed.extend_from_slice(&bytes);
        prop_assert!(SegmentManifest::decode(&framed).is_err());
    }

    #[test]
    fn manifest_decode_rejects_truncation_and_extension(
        cut in any::<proptest::sample::Index>(),
        extra in proptest::collection::vec(any::<u8>(), 1..64))
    {
        let valid = valid_manifest();
        prop_assert!(SegmentManifest::decode(valid).is_ok());
        prop_assert!(SegmentManifest::decode(&valid[..cut.index(valid.len())]).is_err());
        let mut longer = valid.to_vec();
        longer.extend_from_slice(&extra);
        prop_assert!(SegmentManifest::decode(&longer).is_err());
    }

    #[test]
    fn manifest_decode_rejects_bad_header_fields((at, value) in arb_bad_field()) {
        let mut bytes = valid_manifest().to_vec();
        bytes[at..at + value.len()].copy_from_slice(&value);
        prop_assert!(SegmentManifest::decode(&bytes).is_err(), "field at {at}");
    }
}
