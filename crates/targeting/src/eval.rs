//! Evaluation of targeting specs against a population.

use std::sync::Arc;

use adcomp_bitset::Bitset;
use adcomp_population::{AgeBucket, Gender};

use crate::ast::{AttributeId, TargetingSpec};

/// An audience a resolver hands out: borrowed from storage the resolver
/// owns, or a shared handle on one it caches (and may later evict).
#[derive(Debug)]
pub enum Audience<'a> {
    /// Borrowed from resident storage.
    Borrowed(&'a Bitset),
    /// A shared handle on a cached audience.
    Shared(Arc<Bitset>),
}

impl std::ops::Deref for Audience<'_> {
    type Target = Bitset;

    fn deref(&self) -> &Bitset {
        match self {
            Audience::Borrowed(set) => set,
            Audience::Shared(set) => set,
        }
    }
}

/// Source of audiences: implemented by the platform layer, which owns the
/// materialised (or disk-backed and cached) bitsets for its catalog and
/// population.
pub trait AttributeResolver {
    /// The audience of a catalog attribute: [`EvalError::UnknownAttribute`]
    /// for an id outside the catalog, [`EvalError::Storage`] when the
    /// backing store fails.
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError>;

    /// Exact size of an attribute's audience. Defaults to resolving it;
    /// resolvers that know sizes without loading (a segment manifest)
    /// override this.
    fn attribute_len(&self, id: AttributeId) -> Result<u64, EvalError> {
        Ok(self.attribute_audience(id)?.len())
    }

    /// Every user of the population.
    fn everyone(&self) -> Result<Audience<'_>, EvalError>;

    /// The audience a gender constraint selects. Resolvers carrying an
    /// inferred demographic view (`adcomp-population::InferredView`)
    /// resolve against the *observed* labels instead of the oracle's.
    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError>;

    /// The audience an age constraint selects (see
    /// [`gender_audience`](AttributeResolver::gender_audience)).
    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError>;
}

/// Evaluation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The spec referenced an attribute the resolver does not know.
    UnknownAttribute(AttributeId),
    /// The resolver's backing store failed; a retry may succeed.
    Storage(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownAttribute(id) => write!(f, "unknown attribute #{}", id.0),
            EvalError::Storage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for EvalError {}

/// Computes the exact audience of `spec`.
///
/// Semantics (matching the platforms' documented behaviour):
///
/// ```text
/// audience = demographics ∧ (∧ over groups (∨ over attributes))
///                         ∧ ¬(∨ over exclusions)
/// ```
///
/// Group evaluation is ordered smallest-first so intersections shrink as
/// early as possible; exclusions are applied last.
pub fn evaluate<R: AttributeResolver + ?Sized>(
    resolver: &R,
    spec: &TargetingSpec,
) -> Result<Bitset, EvalError> {
    // OR within each group.
    let mut group_sets: Vec<Bitset> = Vec::with_capacity(spec.include.len());
    for group in &spec.include {
        let mut acc: Option<Bitset> = None;
        for &id in &group.attributes {
            let audience = resolver.attribute_audience(id)?;
            acc = Some(match acc {
                None => (*audience).clone(),
                Some(cur) => cur.or(&audience),
            });
        }
        // An empty group matches nobody; normalised specs never contain
        // one, but evaluation must still be total.
        group_sets.push(acc.unwrap_or_default());
    }
    // AND across groups, smallest first.
    group_sets.sort_by_key(|s| s.len());
    let mut audience: Option<Bitset> = None;
    for set in group_sets {
        audience = Some(match audience {
            None => set,
            Some(cur) => cur.and(&set),
        });
        if audience.as_ref().is_some_and(|a| a.is_empty()) {
            break;
        }
    }

    // Demographics.
    let mut audience = match audience {
        Some(a) => a,
        None => (*resolver.everyone()?).clone(),
    };
    if let Some(genders) = &spec.demographics.genders {
        let mut demo = Bitset::new();
        for g in genders {
            demo = demo.or(&*resolver.gender_audience(*g)?);
        }
        audience = audience.and(&demo);
    }
    if let Some(ages) = &spec.demographics.ages {
        let mut demo = Bitset::new();
        for a in ages {
            demo = demo.or(&*resolver.age_audience(*a)?);
        }
        audience = audience.and(&demo);
    }

    // Exclusions.
    for &id in &spec.exclude {
        audience = audience.and_not(&*resolver.attribute_audience(id)?);
        if audience.is_empty() {
            break;
        }
    }

    Ok(audience)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_population::{
        AgeBucket, AttributeModel, DemographicProfile, Gender, Universe, UniverseConfig,
    };

    /// Test resolver over a handful of materialised attributes.
    struct TestResolver {
        universe: Universe,
        audiences: Vec<Bitset>,
    }

    impl AttributeResolver for TestResolver {
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

    fn resolver() -> TestResolver {
        let universe = Universe::generate(&UniverseConfig {
            n_users: 30_000,
            seed: 42,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        });
        let models = [
            AttributeModel::new(100).popularity(0.3),
            AttributeModel::new(101).popularity(0.2).gender_bias(1.0),
            AttributeModel::new(102)
                .popularity(0.25)
                .age_biases([1.0, 0.3, -0.3, -1.0]),
            AttributeModel::new(103).popularity(0.15).loading(3, 1.2),
        ];
        let audiences = models.iter().map(|m| universe.materialize(m)).collect();
        TestResolver {
            universe,
            audiences,
        }
    }

    /// Naive per-user reference evaluation.
    fn reference(r: &TestResolver, spec: &TargetingSpec) -> Bitset {
        let u = &r.universe;
        let mut out = Bitset::new();
        'user: for user in 0..u.n_users() {
            let d = u.demographics(user);
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
                    .any(|a| r.audiences[a.0 as usize].contains(user))
                {
                    continue 'user;
                }
            }
            for a in &spec.exclude {
                if r.audiences[a.0 as usize].contains(user) {
                    continue 'user;
                }
            }
            out.insert(user);
        }
        out
    }

    #[test]
    fn everyone_spec_returns_universe() {
        let r = resolver();
        let a = evaluate(&r, &TargetingSpec::everyone()).unwrap();
        assert_eq!(a, r.universe.everyone().clone());
    }

    #[test]
    fn matches_reference_on_varied_specs() {
        let r = resolver();
        let specs = [
            TargetingSpec::and_of([AttributeId(0)]),
            TargetingSpec::and_of([AttributeId(0), AttributeId(1)]),
            TargetingSpec::builder()
                .any_of([AttributeId(0), AttributeId(2)])
                .attribute(AttributeId(3))
                .build(),
            TargetingSpec::builder()
                .gender(Gender::Female)
                .attribute(AttributeId(1))
                .build(),
            TargetingSpec::builder()
                .ages([AgeBucket::A18_24, AgeBucket::A25_34])
                .any_of([AttributeId(1), AttributeId(3)])
                .exclude([AttributeId(2)])
                .build(),
            TargetingSpec::builder().exclude([AttributeId(0)]).build(),
        ];
        for spec in &specs {
            assert_eq!(
                evaluate(&r, spec).unwrap(),
                reference(&r, spec),
                "spec: {spec}"
            );
        }
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let r = resolver();
        let spec = TargetingSpec::and_of([AttributeId(999)]);
        assert_eq!(
            evaluate(&r, &spec),
            Err(EvalError::UnknownAttribute(AttributeId(999)))
        );
        let spec = TargetingSpec::builder().exclude([AttributeId(999)]).build();
        assert_eq!(
            evaluate(&r, &spec),
            Err(EvalError::UnknownAttribute(AttributeId(999)))
        );
    }

    #[test]
    fn empty_group_matches_nobody() {
        let r = resolver();
        let spec = TargetingSpec {
            include: vec![crate::ast::OrGroup { attributes: vec![] }],
            ..Default::default()
        };
        assert!(evaluate(&r, &spec).unwrap().is_empty());
    }

    #[test]
    fn intersect_audience_equals_audience_intersection() {
        // The algebraic closure property used by inclusion–exclusion:
        // eval(a ∧ b) == eval(a) ∧ eval(b).
        let r = resolver();
        let a = TargetingSpec::builder()
            .any_of([AttributeId(0), AttributeId(1)])
            .gender(Gender::Male)
            .build();
        let b = TargetingSpec::builder().attribute(AttributeId(2)).build();
        let ab = a.intersect(&b).unwrap();
        let ea = evaluate(&r, &a).unwrap();
        let eb = evaluate(&r, &b).unwrap();
        assert_eq!(evaluate(&r, &ab).unwrap(), ea.and(&eb));
    }

    #[test]
    fn normalization_preserves_audience() {
        let r = resolver();
        let spec = TargetingSpec::builder()
            .any_of([AttributeId(1), AttributeId(0), AttributeId(1)])
            .genders([Gender::Male, Gender::Female])
            .exclude([AttributeId(3), AttributeId(3)])
            .build();
        assert_eq!(
            evaluate(&r, &spec).unwrap(),
            evaluate(&r, &spec.normalized()).unwrap()
        );
    }

    #[test]
    fn error_display() {
        let e = EvalError::UnknownAttribute(AttributeId(7));
        assert_eq!(e.to_string(), "unknown attribute #7");
        let e = EvalError::Storage("segment store: gone".into());
        assert_eq!(e.to_string(), "segment store: gone");
    }
}
