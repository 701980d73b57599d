//! Property tests for the targeting algebra: normalisation, intersection,
//! and evaluation must agree with naive per-user semantics for arbitrary
//! specs.

use adcomp_bitset::Bitset;
use adcomp_population::{
    AgeBucket, AttributeModel, DemographicProfile, Gender, Universe, UniverseConfig,
};
use adcomp_targeting::{
    evaluate, evaluate_len, evaluate_len_batch, AttributeId, AttributeResolver, Audience,
    DemographicSpec, EvalError, Location, OrGroup, TargetingSpec,
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

prop_compose! {
    /// Specs over ids up to three past the catalog, so that one spec can
    /// hold several different unknown ids and the first one must decide
    /// the error.
    fn arb_unknown_spec()(
        spec in arb_spec(),
        include in proptest::collection::vec(
            proptest::collection::vec(0..N_ATTRS + 3, 0..4), 1..4),
        exclude in proptest::collection::vec(0..N_ATTRS + 3, 0..3),
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

prop_compose! {
    /// A batch shaped like the audit's: each base spec (edge shapes and
    /// unknown ids included) comes with its seven-class family (total, both genders,
    /// all four ages) and a complemented age; every subset of two or more
    /// bases adds its intersection (the inclusion–exclusion terms); the
    /// first spec repeats at the end. The seed shuffles the batch.
    fn arb_batch()(
        plain in proptest::collection::vec(arb_spec(), 1..4),
        edge in proptest::collection::vec(arb_edge_spec(), 0..2),
        unknown in proptest::collection::vec(arb_unknown_spec(), 0..2),
        complement in arb_age(),
        seed in any::<u64>(),
    ) -> (Vec<TargetingSpec>, u64) {
        let bases: Vec<TargetingSpec> = plain.into_iter().chain(edge).chain(unknown).collect();
        let mut batch = Vec::new();
        for base in &bases {
            batch.push(base.clone());
            for g in [Gender::Male, Gender::Female] {
                let mut spec = base.clone();
                spec.demographics.genders = Some(vec![g]);
                batch.push(spec);
            }
            for a in [AgeBucket::A18_24, AgeBucket::A25_34, AgeBucket::A35_54, AgeBucket::A55Plus] {
                let mut spec = base.clone();
                spec.demographics.ages = Some(vec![a]);
                batch.push(spec);
            }
            let mut spec = base.clone();
            spec.demographics.ages = Some(
                [AgeBucket::A18_24, AgeBucket::A25_34, AgeBucket::A35_54, AgeBucket::A55Plus]
                    .into_iter()
                    .filter(|&a| a != complement)
                    .collect(),
            );
            batch.push(spec);
        }
        for subset in 1u32..(1 << bases.len()) {
            if subset.count_ones() < 2 {
                continue;
            }
            let mut members = (0..bases.len()).filter(|i| subset & (1 << i) != 0);
            let first = bases[members.next().unwrap()].clone();
            if let Some(term) = members.try_fold(first, |acc, i| acc.intersect(&bases[i])) {
                batch.push(term);
            }
        }
        batch.push(batch[0].clone());
        (batch, seed)
    }
}

/// Fisher–Yates over a splitmix64 stream.
fn shuffled<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
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
    fn evaluate_len_batch_is_evaluated_len_per_slot((batch, seed) in arb_batch()) {
        // Every slot, errors included, as given and shuffled.
        let f = fixture();
        for specs in [batch.clone(), shuffled(&batch, seed)] {
            let refs: Vec<&TargetingSpec> = specs.iter().collect();
            let counted = evaluate_len_batch(f, &refs);
            prop_assert_eq!(counted.len(), specs.len());
            for (spec, len) in specs.iter().zip(counted) {
                prop_assert_eq!(len, evaluate(f, spec).map(|a| a.len()), "spec: {}", spec);
            }
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
