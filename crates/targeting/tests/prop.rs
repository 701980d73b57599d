//! Property tests for the targeting algebra: normalisation, intersection,
//! and evaluation must agree with naive per-user semantics for arbitrary
//! specs.

use adcomp_bitset::Bitset;
use adcomp_population::{
    AgeBucket, AttributeModel, DemographicProfile, Gender, Universe, UniverseConfig,
};
use adcomp_targeting::{
    evaluate, evaluate_len, AttributeId, AttributeResolver, Audience, DemographicSpec, EvalError,
    Location, OrGroup, TargetingSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const N_ATTRS: u32 = 8;

struct Fixture {
    universe: Universe,
    audiences: Vec<Bitset>,
}

impl AttributeResolver for Fixture {
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError> {
        self.audiences
            .get(id.0 as usize)
            .map(Audience::Borrowed)
            .ok_or(EvalError::UnknownAttribute(id))
    }
    fn everyone(&self) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.universe.everyone()))
    }
    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.universe.gender_audience(gender)))
    }
    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.universe.age_audience(age)))
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let universe = Universe::generate(&UniverseConfig {
            n_users: 8_000,
            seed: 314,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        });
        let audiences = (0..N_ATTRS)
            .map(|i| {
                universe.materialize(
                    &AttributeModel::new(1000 + i as u64)
                        .popularity(0.1 + 0.05 * i as f64)
                        .gender_bias(0.3 * (i as f32 - 3.0))
                        .loading(2 + (i as usize % 4), 0.8),
                )
            })
            .collect();
        Fixture {
            universe,
            audiences,
        }
    })
}

fn arb_gender() -> impl Strategy<Value = Gender> {
    prop_oneof![Just(Gender::Male), Just(Gender::Female)]
}

fn arb_age() -> impl Strategy<Value = AgeBucket> {
    prop_oneof![
        Just(AgeBucket::A18_24),
        Just(AgeBucket::A25_34),
        Just(AgeBucket::A35_54),
        Just(AgeBucket::A55Plus),
    ]
}

prop_compose! {
    fn arb_spec()(
        genders in proptest::option::of(proptest::collection::vec(arb_gender(), 1..=2)),
        ages in proptest::option::of(proptest::collection::vec(arb_age(), 1..=4)),
        include in proptest::collection::vec(
            proptest::collection::vec(0..N_ATTRS, 1..4), 0..4),
        exclude in proptest::collection::vec(0..N_ATTRS, 0..3),
    ) -> TargetingSpec {
        TargetingSpec {
            demographics: DemographicSpec {
                genders,
                ages,
                location: Location::UnitedStates,
            },
            include: include
                .into_iter()
                .map(|g| OrGroup { attributes: g.into_iter().map(AttributeId).collect() })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
        }
    }
}

prop_compose! {
    /// Specs with the shapes `arb_spec` leaves out: empty OR groups, and
    /// include or exclude ids one past the catalog (unknown).
    fn arb_edge_spec()(
        spec in arb_spec(),
        include in proptest::collection::vec(
            proptest::collection::vec(0..=N_ATTRS, 0..4), 0..4),
        exclude in proptest::collection::vec(0..=N_ATTRS, 0..3),
    ) -> TargetingSpec {
        TargetingSpec {
            include: include
                .into_iter()
                .map(|g| OrGroup { attributes: g.into_iter().map(AttributeId).collect() })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
            ..spec
        }
    }
}

/// Naive per-user reference evaluation.
fn reference(f: &Fixture, spec: &TargetingSpec) -> Bitset {
    let mut out = Bitset::new();
    'user: for user in 0..f.universe.n_users() {
        let d = f.universe.demographics(user);
        if let Some(gs) = &spec.demographics.genders {
            if !gs.contains(&d.gender) {
                continue;
            }
        }
        if let Some(ags) = &spec.demographics.ages {
            if !ags.contains(&d.age) {
                continue;
            }
        }
        for group in &spec.include {
            if !group
                .attributes
                .iter()
                .any(|a| f.audiences[a.0 as usize].contains(user))
            {
                continue 'user;
            }
        }
        for a in &spec.exclude {
            if f.audiences[a.0 as usize].contains(user) {
                continue 'user;
            }
        }
        out.insert(user);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eval_matches_reference(spec in arb_spec()) {
        let f = fixture();
        prop_assert_eq!(evaluate(f, &spec).unwrap(), reference(f, &spec));
    }

    #[test]
    fn evaluate_len_is_evaluated_len(spec in arb_spec(), edge in arb_edge_spec()) {
        // Same count, and the same error for an unknown id.
        let f = fixture();
        for spec in [&spec, &edge] {
            prop_assert_eq!(evaluate_len(f, spec), evaluate(f, spec).map(|a| a.len()));
        }
    }

    #[test]
    fn normalization_preserves_audience(spec in arb_spec()) {
        let f = fixture();
        prop_assert_eq!(
            evaluate(f, &spec).unwrap(),
            evaluate(f, &spec.normalized()).unwrap()
        );
    }

    #[test]
    fn normalization_is_idempotent(spec in arb_spec()) {
        let once = spec.normalized();
        prop_assert_eq!(once.normalized(), once);
    }

    #[test]
    fn intersect_is_audience_intersection(a in arb_spec(), b in arb_spec()) {
        let f = fixture();
        let ea = evaluate(f, &a).unwrap();
        let eb = evaluate(f, &b).unwrap();
        match a.intersect(&b) {
            Some(ab) => prop_assert_eq!(evaluate(f, &ab).unwrap(), ea.and(&eb)),
            // None = contradictory demographics: audiences are disjoint.
            None => prop_assert!(ea.is_disjoint(&eb)),
        }
    }

    #[test]
    fn intersect_is_commutative_up_to_normalisation(a in arb_spec(), b in arb_spec()) {
        let ab = a.intersect(&b).map(|s| s.normalized());
        let ba = b.intersect(&a).map(|s| s.normalized());
        match (ab, ba) {
            (Some(x), Some(y)) => {
                // Gender/age option lists may differ in order before
                // normalize; after it they must be identical.
                prop_assert_eq!(x, y);
            }
            (None, None) => {}
            other => prop_assert!(false, "asymmetric intersect: {:?}", other),
        }
    }

    #[test]
    fn audience_is_monotone_in_constraints(spec in arb_spec(), extra in 0..N_ATTRS) {
        // Adding an AND-constraint can only shrink the audience.
        let f = fixture();
        let base = evaluate(f, &spec).unwrap();
        let mut tighter = spec.clone();
        tighter.include.push(OrGroup::single(AttributeId(extra)));
        let shrunk = evaluate(f, &tighter).unwrap();
        prop_assert!(shrunk.is_subset(&base));
        // Adding an exclusion can only shrink it too.
        let mut excluded = spec.clone();
        excluded.exclude.push(AttributeId(extra));
        prop_assert!(evaluate(f, &excluded).unwrap().is_subset(&base));
    }

    #[test]
    fn display_never_panics_and_is_nonempty(spec in arb_spec()) {
        prop_assert!(!spec.to_string().is_empty());
    }
}
