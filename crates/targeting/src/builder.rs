//! Fluent construction of [`TargetingSpec`]s.

use adcomp_population::{AgeBucket, Gender};

use crate::ast::{AttributeId, Location, OrGroup, TargetingSpec};

/// Fluent builder mirroring how an advertiser fills the targeting UI:
/// demographics first, then include groups, then exclusions.
///
/// ```
/// use adcomp_population::Gender;
/// use adcomp_targeting::{AttributeId, TargetingSpec};
///
/// let spec = TargetingSpec::builder()
///     .genders([Gender::Female])
///     .any_of([AttributeId(1), AttributeId(2)]) // group: 1 OR 2
///     .attribute(AttributeId(9))                // AND attribute 9
///     .exclude([AttributeId(4)])
///     .build();
/// assert_eq!(spec.arity(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpecBuilder {
    spec: TargetingSpec,
}

impl SpecBuilder {
    /// An empty builder (targets everyone).
    pub fn new() -> Self {
        SpecBuilder::default()
    }

    /// Restricts to the given genders.
    pub fn genders(mut self, genders: impl IntoIterator<Item = Gender>) -> Self {
        self.spec.demographics.genders = Some(genders.into_iter().collect());
        self
    }

    /// Restricts to a single gender.
    pub fn gender(self, gender: Gender) -> Self {
        self.genders([gender])
    }

    /// Restricts to the given age buckets.
    pub fn ages(mut self, ages: impl IntoIterator<Item = AgeBucket>) -> Self {
        self.spec.demographics.ages = Some(ages.into_iter().collect());
        self
    }

    /// Restricts to a single age bucket.
    pub fn age(self, age: AgeBucket) -> Self {
        self.ages([age])
    }

    /// Sets the location (currently only the US exists).
    pub fn location(mut self, location: Location) -> Self {
        self.spec.demographics.location = location;
        self
    }

    /// Adds an OR-group: users matching ANY of `attributes`.
    pub fn any_of(mut self, attributes: impl IntoIterator<Item = AttributeId>) -> Self {
        self.spec.include.push(attributes.into_iter().collect());
        self
    }

    /// Adds one singleton group per attribute: users matching ALL of them.
    pub fn all_of(mut self, attributes: impl IntoIterator<Item = AttributeId>) -> Self {
        self.spec
            .include
            .extend(attributes.into_iter().map(OrGroup::single));
        self
    }

    /// Adds a single required attribute (singleton AND-group).
    pub fn attribute(self, attribute: AttributeId) -> Self {
        self.all_of([attribute])
    }

    /// Excludes users holding any of `attributes`.
    pub fn exclude(mut self, attributes: impl IntoIterator<Item = AttributeId>) -> Self {
        self.spec.exclude.extend(attributes);
        self
    }

    /// Finishes, returning the (non-normalised) spec.
    pub fn build(self) -> TargetingSpec {
        self.spec
    }
}

impl From<SpecBuilder> for TargetingSpec {
    fn from(b: SpecBuilder) -> TargetingSpec {
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::DemographicSpec;

    #[test]
    fn builder_mirrors_manual_construction() {
        let via_builder = TargetingSpec::builder()
            .gender(Gender::Male)
            .age(AgeBucket::A55Plus)
            .any_of([AttributeId(5), AttributeId(6)])
            .attribute(AttributeId(7))
            .exclude([AttributeId(8)])
            .build();
        let manual = TargetingSpec {
            demographics: DemographicSpec {
                genders: Some(vec![Gender::Male]),
                ages: Some(vec![AgeBucket::A55Plus]),
                location: Location::UnitedStates,
            },
            include: vec![
                OrGroup {
                    attributes: vec![AttributeId(5), AttributeId(6)],
                },
                OrGroup::single(AttributeId(7)),
            ],
            exclude: vec![AttributeId(8)],
        };
        assert_eq!(via_builder, manual);
    }

    #[test]
    fn all_of_adds_singletons() {
        let s = TargetingSpec::builder()
            .all_of([AttributeId(1), AttributeId(2)])
            .build();
        assert_eq!(s.arity(), 2);
        assert_eq!(s, TargetingSpec::and_of([AttributeId(1), AttributeId(2)]));
    }

    #[test]
    fn built_spec_normalizes_to_deduped_groups() {
        let s = TargetingSpec::builder()
            .any_of([AttributeId(2), AttributeId(1), AttributeId(2)])
            .build()
            .normalized();
        assert_eq!(
            s.include[0].attributes,
            vec![AttributeId(1), AttributeId(2)]
        );
    }

    #[test]
    fn empty_builder_targets_everyone() {
        assert_eq!(SpecBuilder::new().build(), TargetingSpec::everyone());
    }

    #[test]
    fn from_impl_matches_build() {
        let b = TargetingSpec::builder().attribute(AttributeId(1));
        let s1: TargetingSpec = b.clone().into();
        assert_eq!(s1, b.build());
    }
}
