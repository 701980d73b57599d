//! Evaluation of targeting specs against a population.
//!
//! [`evaluate`] builds a spec's audience (ground truth, delivery,
//! lookalikes). Size estimates only count: [`evaluate_len_batch`] counts
//! a batch of specs in one pass, resolving each operand once and sharing
//! the AND prefixes neighbouring specs have in common, and
//! [`evaluate_len`] is its one-spec case.

use std::collections::HashMap;
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
    let mut include = operands(spec)
        .map(|op| op.resolve(resolver))
        .collect::<Result<Vec<_>, _>>()?;
    include.sort_by_key(|set| set.len());
    let mut include = include.into_iter();
    let first = include.next().expect("at least one include operand");
    let mut audience = match include.next() {
        Some(second) => first.and(&second),
        None => (*first).clone(),
    };
    for set in include {
        if audience.is_empty() {
            break;
        }
        audience = audience.and(&set);
    }
    if audience.is_empty() {
        return Ok(audience);
    }
    let exclude = spec
        .exclude
        .iter()
        .map(|&id| resolver.attribute_audience(id))
        .collect::<Result<Vec<_>, _>>()?;
    for set in exclude {
        audience = audience.and_not(&set);
        if audience.is_empty() {
            break;
        }
    }
    Ok(audience)
}

/// `evaluate(resolver, spec)?.len()` without building the audience: the
/// one-spec case of [`evaluate_len_batch`].
pub fn evaluate_len<R: AttributeResolver + ?Sized>(
    resolver: &R,
    spec: &TargetingSpec,
) -> Result<u64, EvalError> {
    evaluate_len_batch(resolver, &[spec])
        .pop()
        .expect("one result per spec")
}

/// `evaluate(resolver, spec)?.len()` for every spec of a batch, in
/// order, counted in one pass without building any audience.
///
/// A spec's operands are its include groups in spec order, then its
/// gender constraint, then its age constraint (`everyone` when it has
/// none of these). Each distinct operand is resolved once per batch, so
/// an OR group or a multi-valued demographic is built once however many
/// specs share it. The batch is then sorted by operand list. A spec that
/// shares at least two leading operands with a neighbour in that order
/// starts from a materialised prefix AND, kept on a stack (level k is
/// the AND of the first k operands) whose levels the next spec reuses
/// as far as the two share operands. What remains is counted by the
/// k-way kernel [`Bitset::and_not_len`].
///
/// Every slot equals what [`evaluate`] gives alone: the same operands,
/// resolved in spec order, with the first failing one deciding the
/// error. Exclusions are resolved only when the included count is
/// non-zero, so a lazily loading resolver loads nothing `evaluate` would
/// not.
pub fn evaluate_len_batch<R: AttributeResolver + ?Sized>(
    resolver: &R,
    specs: &[&TargetingSpec],
) -> Vec<Result<u64, EvalError>> {
    let mut pool = OperandPool::new(resolver);
    // Each spec's operands as pool slots, in one list; `spans[i]` is the
    // range of spec `i`'s. Equal operands share a slot, so comparing
    // slot lists compares operand lists.
    let mut slots: Vec<u32> = Vec::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(specs.len());
    let mut results: Vec<Result<u64, EvalError>> = Vec::with_capacity(specs.len());
    let mut live: Vec<usize> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let start = slots.len();
        let resolved = pool.resolve_into(operands(spec), &mut slots);
        if resolved.is_ok() {
            live.push(i);
        }
        spans.push(start..slots.len());
        results.push(resolved.map(|()| 0));
    }
    let ops_of = |i: usize| &slots[spans[i].clone()];
    live.sort_unstable_by(|&a, &b| ops_of(a).cmp(ops_of(b)));

    // `prefixes[j]` is the AND of the first j + 2 operands of the last
    // spec that used a prefix.
    let mut prefixes: Vec<Bitset> = Vec::new();
    let mut shared_prev = 0;
    let mut exclude_slots = Vec::new();
    for (pos, &i) in live.iter().enumerate() {
        let ops = ops_of(i);
        let shared_next = live
            .get(pos + 1)
            .map_or(0, |&next| common_prefix(ops, ops_of(next)));
        let depth = shared_prev.max(shared_next);
        prefixes.truncate(shared_prev.saturating_sub(1));
        shared_prev = shared_next;
        while prefixes.len() + 1 < depth {
            let next = pool.set(ops[prefixes.len() + 1]);
            let level = match prefixes.last() {
                Some(prefix) => prefix.and(next),
                None => pool.set(ops[0]).and(next),
            };
            prefixes.push(level);
        }
        let (head, rest) = match depth {
            0 | 1 => (None, ops),
            _ => (prefixes.last(), &ops[depth..]),
        };
        let included = Bitset::and_not_len(&pool.sets(head, rest), &[]);
        let spec = specs[i];
        if included == 0 || spec.exclude.is_empty() {
            results[i] = Ok(included);
            continue;
        }
        exclude_slots.clear();
        let exclusions = spec
            .exclude
            .iter()
            .map(|id| Operand::Group(std::slice::from_ref(id)));
        results[i] = pool.resolve_into(exclusions, &mut exclude_slots).map(|()| {
            Bitset::and_not_len(&pool.sets(head, rest), &pool.sets(None, &exclude_slots))
        });
    }
    results
}

/// Length of the common prefix of two operand lists.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// One set a spec's included audience is the AND of.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Operand<'s> {
    /// An include group: the OR of its attributes (an exclusion is
    /// resolved as a group of one).
    Group(&'s [AttributeId]),
    /// A gender constraint: the OR of its genders.
    Genders(&'s [Gender]),
    /// An age constraint: the OR of its buckets.
    Ages(&'s [AgeBucket]),
    /// Every user, for a spec with nothing else to AND.
    Everyone,
}

/// The operands whose AND is `spec`'s included audience: one per
/// include group, then one per demographic constraint, in that order.
/// `everyone` joins only when there is nothing else to AND: every
/// attribute and demographic audience is a subset of it.
fn operands(spec: &TargetingSpec) -> impl Iterator<Item = Operand<'_>> {
    let groups = spec
        .include
        .iter()
        .map(|group| Operand::Group(&group.attributes));
    let genders = spec.demographics.genders.as_deref().map(Operand::Genders);
    let ages = spec.demographics.ages.as_deref().map(Operand::Ages);
    let everyone = (spec.include.is_empty() && genders.is_none() && ages.is_none())
        .then_some(Operand::Everyone);
    groups.chain(genders).chain(ages).chain(everyone)
}

impl Operand<'_> {
    /// The operand's audience; the first of its parts that fails to
    /// resolve decides the error.
    fn resolve<'r, R: AttributeResolver + ?Sized>(
        self,
        resolver: &'r R,
    ) -> Result<Audience<'r>, EvalError> {
        match self {
            Operand::Group(ids) => any_of(ids.iter().map(|&id| resolver.attribute_audience(id))),
            Operand::Genders(genders) => {
                any_of(genders.iter().map(|&g| resolver.gender_audience(g)))
            }
            Operand::Ages(ages) => any_of(ages.iter().map(|&a| resolver.age_audience(a))),
            Operand::Everyone => resolver.everyone(),
        }
    }
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

/// A batch's operands, each resolved once: the first resolution of an
/// operand is kept, success or failure, and answers every later use.
struct OperandPool<'s, 'r, R: ?Sized> {
    resolver: &'r R,
    slots: HashMap<Operand<'s>, Result<u32, EvalError>>,
    sets: Vec<Audience<'r>>,
}

impl<'s, 'r, R: AttributeResolver + ?Sized> OperandPool<'s, 'r, R> {
    fn new(resolver: &'r R) -> Self {
        OperandPool {
            resolver,
            slots: HashMap::new(),
            sets: Vec::new(),
        }
    }

    /// The slot holding `op`'s audience, resolving it on first use.
    fn resolve(&mut self, op: Operand<'s>) -> Result<u32, EvalError> {
        let (resolver, sets) = (self.resolver, &mut self.sets);
        self.slots
            .entry(op)
            .or_insert_with(|| {
                let set = op.resolve(resolver)?;
                sets.push(set);
                Ok(sets.len() as u32 - 1)
            })
            .clone()
    }

    /// Resolves `ops` in order, pushing their slots onto `into`; the
    /// first failure stops the walk and is the error.
    fn resolve_into(
        &mut self,
        ops: impl Iterator<Item = Operand<'s>>,
        into: &mut Vec<u32>,
    ) -> Result<(), EvalError> {
        for op in ops {
            into.push(self.resolve(op)?);
        }
        Ok(())
    }

    /// The audience in a resolved slot.
    fn set(&self, slot: u32) -> &Bitset {
        &self.sets[slot as usize]
    }

    /// `head`, when there is one, then the audiences in `slots`.
    fn sets<'a>(&'a self, head: Option<&'a Bitset>, slots: &[u32]) -> Vec<&'a Bitset> {
        head.into_iter()
            .chain(slots.iter().map(|&slot| self.set(slot)))
            .collect()
    }
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
