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
    /// A shared handle on a cached audience (or on a union the
    /// evaluator built).
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
/// The AND runs smallest operand first so intersections shrink as early
/// as possible; exclusions are resolved and applied only when the
/// included audience is non-empty. Callers that need only the size use
/// [`evaluate_len`], which resolves the same operands and counts them.
pub fn evaluate<R: AttributeResolver + ?Sized>(
    resolver: &R,
    spec: &TargetingSpec,
) -> Result<Bitset, EvalError> {
    let mut include = include_operands(resolver, spec)?;
    include.sort_by_key(|set| set.len());
    let mut operands = include.into_iter();
    let first = operands.next().expect("at least one include operand");
    let mut audience = match operands.next() {
        Some(second) => first.and(&second),
        None => (*first).clone(),
    };
    for set in operands {
        if audience.is_empty() {
            break;
        }
        audience = audience.and(&set);
    }
    if audience.is_empty() {
        return Ok(audience);
    }
    for set in exclude_operands(resolver, spec)? {
        audience = audience.and_not(&set);
        if audience.is_empty() {
            break;
        }
    }
    Ok(audience)
}

/// `evaluate(resolver, spec)?.len()` without building the audience: the
/// operands [`evaluate`] would AND are counted by the k-way kernel
/// [`Bitset::and_not_len`]. Same operands, same resolution order, same
/// errors; exclusions are resolved only when the included count is
/// non-zero, so a lazily loading resolver loads what `evaluate` loads.
pub fn evaluate_len<R: AttributeResolver + ?Sized>(
    resolver: &R,
    spec: &TargetingSpec,
) -> Result<u64, EvalError> {
    let include = include_operands(resolver, spec)?;
    let include: Vec<&Bitset> = include.iter().map(|set| &**set).collect();
    let included = Bitset::and_not_len(&include, &[]);
    if included == 0 || spec.exclude.is_empty() {
        return Ok(included);
    }
    let exclude = exclude_operands(resolver, spec)?;
    let exclude: Vec<&Bitset> = exclude.iter().map(|set| &**set).collect();
    Ok(Bitset::and_not_len(&include, &exclude))
}

/// The OR of `parts`: the resolver's audience when there is one, built
/// once otherwise (empty for none — a group with no attribute matches
/// nobody).
fn any_of<'a>(
    parts: impl IntoIterator<Item = Result<Audience<'a>, EvalError>>,
) -> Result<Audience<'a>, EvalError> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Ok(Audience::Shared(Arc::new(Bitset::new())));
    };
    let first = first?;
    let Some(second) = parts.next() else {
        return Ok(first);
    };
    let mut union = first.or(&*second?);
    for part in parts {
        union = union.or(&*part?);
    }
    Ok(Audience::Shared(Arc::new(union)))
}

/// The sets whose AND is the included audience: one per include group,
/// then one per demographic constraint. Every group and demographic is
/// resolved, in that order, so the first failing one decides the error.
/// `everyone` joins only when there is nothing else to AND: every
/// attribute and demographic audience is a subset of it.
fn include_operands<'r, R: AttributeResolver + ?Sized>(
    resolver: &'r R,
    spec: &TargetingSpec,
) -> Result<Vec<Audience<'r>>, EvalError> {
    let mut operands = Vec::with_capacity(spec.include.len() + 2);
    for group in &spec.include {
        operands.push(any_of(
            group
                .attributes
                .iter()
                .map(|&id| resolver.attribute_audience(id)),
        )?);
    }
    if let Some(genders) = &spec.demographics.genders {
        operands.push(any_of(
            genders.iter().map(|&g| resolver.gender_audience(g)),
        )?);
    }
    if let Some(ages) = &spec.demographics.ages {
        operands.push(any_of(ages.iter().map(|&a| resolver.age_audience(a)))?);
    }
    if operands.is_empty() {
        operands.push(resolver.everyone()?);
    }
    Ok(operands)
}

/// The exclusion audiences, resolved in spec order.
fn exclude_operands<'r, R: AttributeResolver + ?Sized>(
    resolver: &'r R,
    spec: &TargetingSpec,
) -> Result<Vec<Audience<'r>>, EvalError> {
    spec.exclude
        .iter()
        .map(|&id| resolver.attribute_audience(id))
        .collect()
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
            let expected = reference(&r, spec);
            assert_eq!(evaluate(&r, spec).unwrap(), expected, "spec: {spec}");
            assert_eq!(evaluate_len(&r, spec), Ok(expected.len()), "spec: {spec}");
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
        assert_eq!(
            evaluate_len(&r, &spec),
            Err(EvalError::UnknownAttribute(AttributeId(999)))
        );
        // Exclusions are resolved only against a non-empty audience.
        let spec = TargetingSpec {
            include: vec![crate::ast::OrGroup { attributes: vec![] }],
            exclude: vec![AttributeId(999)],
            ..Default::default()
        };
        assert_eq!(evaluate(&r, &spec), Ok(Bitset::new()));
        assert_eq!(evaluate_len(&r, &spec), Ok(0));
    }

    #[test]
    fn empty_group_matches_nobody() {
        let r = resolver();
        let spec = TargetingSpec {
            include: vec![crate::ast::OrGroup { attributes: vec![] }],
            ..Default::default()
        };
        assert!(evaluate(&r, &spec).unwrap().is_empty());
        assert_eq!(evaluate_len(&r, &spec), Ok(0));
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
