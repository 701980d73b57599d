//! Property tests for the wire codec: arbitrary messages round-trip, and
//! arbitrary byte garbage never panics the decoder.

use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, DemographicSpec, Location, OrGroup, TargetingSpec};
use adcomp_wire::{from_bytes, to_bytes, ErrorCode, Request, Response};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = TargetingSpec> {
    (
        proptest::option::of(proptest::collection::vec(0u8..2, 1..=2)),
        proptest::option::of(proptest::collection::vec(0u8..4, 1..=4)),
        proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..5), 0..4),
        proptest::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(genders, ages, include, exclude)| TargetingSpec {
            demographics: DemographicSpec {
                genders: genders.map(|gs| {
                    gs.into_iter()
                        .map(|i| if i == 0 { Gender::Male } else { Gender::Female })
                        .collect()
                }),
                ages: ages.map(|a| {
                    a.into_iter()
                        .map(|i| AgeBucket::from_index(i as usize))
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

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Describe),
        any::<u32>().prop_map(|id| Request::AttributeInfo { id }),
        arb_spec().prop_map(|spec| Request::Check { spec }),
        Just(Request::Stats),
        proptest::collection::vec(arb_spec(), 0..6)
            .prop_map(|specs| Request::EstimateBatch { specs }),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::InvalidTargeting),
        Just(ErrorCode::UnknownAttribute),
        Just(ErrorCode::RateLimited),
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::Internal),
    ]
}

fn arb_error() -> impl Strategy<Value = Response> {
    (
        arb_error_code(),
        any::<String>(),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(code, message, micros)| Response::Error {
            code,
            message,
            retry_after: micros.map(std::time::Duration::from_micros),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<String>(),
            any::<u32>(),
            any::<[bool; 5]>(),
            any::<u64>()
        )
            .prop_map(
                |(label, catalog_len, flags, instance)| Response::Described {
                    label,
                    catalog_len,
                    gender_targeting: flags[0],
                    age_targeting: flags[1],
                    exclusions: flags[2],
                    same_feature_and: flags[3],
                    impressions: flags[4],
                    instance,
                }
            ),
        (any::<String>(), any::<u16>())
            .prop_map(|(name, feature)| Response::AttributeInfo { name, feature }),
        Just(Response::Ok),
        any::<u64>().prop_map(|value| Response::Estimate { value }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(estimates, validation_failures, rate_limited)| Response::Stats {
                estimates,
                validation_failures,
                rate_limited,
            }
        ),
        arb_error(),
        proptest::collection::vec(
            prop_oneof![
                any::<u64>().prop_map(|value| Response::Estimate { value }),
                arb_error(),
            ],
            0..6
        )
        .prop_map(|answers| Response::Estimates { answers }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip(request in arb_request()) {
        let bytes = to_bytes(&request);
        prop_assert_eq!(from_bytes::<Request>(&bytes).unwrap(), request);
    }

    #[test]
    fn responses_roundtrip(response in arb_response()) {
        let bytes = to_bytes(&response);
        prop_assert_eq!(from_bytes::<Response>(&bytes).unwrap(), response);
    }

    #[test]
    fn specs_roundtrip(spec in arb_spec()) {
        let bytes = to_bytes(&spec);
        prop_assert_eq!(from_bytes::<TargetingSpec>(&bytes).unwrap(), spec);
    }

    #[test]
    fn decoder_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic; errors are fine.
        let _ = from_bytes::<Request>(&bytes);
        let _ = from_bytes::<Response>(&bytes);
        let _ = from_bytes::<TargetingSpec>(&bytes);
    }

    #[test]
    fn truncation_always_errors(request in arb_request(), cut in any::<proptest::sample::Index>()) {
        let bytes = to_bytes(&request);
        if bytes.len() > 1 {
            let cut = 1 + cut.index(bytes.len() - 1);
            if cut < bytes.len() {
                prop_assert!(from_bytes::<Request>(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_garbage_always_errors(request in arb_request(), extra in 1u8..=255) {
        let mut bytes = to_bytes(&request);
        bytes.push(extra);
        prop_assert!(from_bytes::<Request>(&bytes).is_err());
    }
}
