//! The targeting AST and its algebra.

use adcomp_population::{AgeBucket, Gender};

use crate::builder::SpecBuilder;

/// Index of an attribute within a platform's catalog.
///
/// Ids are platform-local: `AttributeId(3)` on Facebook and on LinkedIn
/// name unrelated attributes. The audit never mixes ids across platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeId(pub u32);

/// Targetable locations. The paper measures US-based users only; we keep
/// the dimension explicit so specs read like the real interfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Location {
    /// The United States (the only supported location).
    #[default]
    UnitedStates,
}

/// A logical-OR group of attributes ("users matching ANY of …").
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrGroup {
    /// The alternatives; a user matches the group by holding any one.
    pub attributes: Vec<AttributeId>,
}

impl OrGroup {
    /// A group with a single attribute (the common case in the paper's
    /// compositions, which AND individual attributes).
    pub fn single(attribute: AttributeId) -> Self {
        OrGroup {
            attributes: vec![attribute],
        }
    }

    /// Sorts and dedupes the alternatives.
    pub fn normalize(&mut self) {
        self.attributes.sort_unstable();
        self.attributes.dedup();
    }
}

impl FromIterator<AttributeId> for OrGroup {
    fn from_iter<I: IntoIterator<Item = AttributeId>>(iter: I) -> Self {
        OrGroup {
            attributes: iter.into_iter().collect(),
        }
    }
}

/// Demographic constraints of a spec.
///
/// `None` means "no constraint" (the platform default of all genders /
/// all ages 18+). The restricted interface *forces* `None` for both.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DemographicSpec {
    /// Genders to include, or `None` for all.
    pub genders: Option<Vec<Gender>>,
    /// Age buckets to include, or `None` for all.
    pub ages: Option<Vec<AgeBucket>>,
    /// Targeted location.
    pub location: Location,
}

impl DemographicSpec {
    /// True when no gender or age constraint is present.
    pub fn is_unconstrained(&self) -> bool {
        self.genders.is_none() && self.ages.is_none()
    }

    /// Sorts and dedupes the constraint lists; collapses a complete list
    /// (all genders / all ages) to `None`.
    pub fn normalize(&mut self) {
        if let Some(genders) = &mut self.genders {
            genders.sort_unstable();
            genders.dedup();
            if genders.len() == Gender::ALL.len() {
                self.genders = None;
            }
        }
        if let Some(ages) = &mut self.ages {
            ages.sort_unstable();
            ages.dedup();
            if ages.len() == AgeBucket::ALL.len() {
                self.ages = None;
            }
        }
    }

    /// Intersection of two demographic constraints.
    ///
    /// Returns `None` when the constraints are contradictory (e.g. male ∧
    /// female) — the resulting audience would be empty by construction.
    pub fn intersect(&self, other: &DemographicSpec) -> Option<DemographicSpec> {
        let genders = intersect_option_lists(&self.genders, &other.genders)?;
        let ages = intersect_option_lists(&self.ages, &other.ages)?;
        Some(DemographicSpec {
            genders,
            ages,
            location: self.location,
        })
    }
}

/// Intersects two optional allow-lists; inner `None` = everything.
/// Outer `None` signals an empty (contradictory) intersection.
fn intersect_option_lists<T: Clone + PartialEq>(
    a: &Option<Vec<T>>,
    b: &Option<Vec<T>>,
) -> Option<Option<Vec<T>>> {
    match (a, b) {
        (None, None) => Some(None),
        (Some(x), None) => Some(Some(x.clone())),
        (None, Some(y)) => Some(Some(y.clone())),
        (Some(x), Some(y)) => {
            let both: Vec<T> = x.iter().filter(|v| y.contains(v)).cloned().collect();
            if both.is_empty() {
                None
            } else {
                Some(Some(both))
            }
        }
    }
}

/// A complete targeting specification: demographics ∧ (AND of OR-groups)
/// ∧ ¬(OR of exclusions).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TargetingSpec {
    /// Demographic constraints.
    pub demographics: DemographicSpec,
    /// Inclusion tree: logical AND across groups.
    pub include: Vec<OrGroup>,
    /// Excluded attributes (users holding any are removed).
    pub exclude: Vec<AttributeId>,
}

impl TargetingSpec {
    /// An unconstrained spec: all US users.
    pub fn everyone() -> Self {
        TargetingSpec::default()
    }

    /// Starts a fluent [`SpecBuilder`].
    pub fn builder() -> SpecBuilder {
        SpecBuilder::new()
    }

    /// Convenience: the AND of the given individual attributes (the
    /// paper's "k-way composition").
    pub fn and_of(attributes: impl IntoIterator<Item = AttributeId>) -> Self {
        TargetingSpec {
            include: attributes.into_iter().map(OrGroup::single).collect(),
            ..TargetingSpec::default()
        }
    }

    /// All attributes mentioned anywhere in the spec.
    pub fn referenced_attributes(&self) -> impl Iterator<Item = AttributeId> + '_ {
        self.include
            .iter()
            .flat_map(|g| g.attributes.iter().copied())
            .chain(self.exclude.iter().copied())
    }

    /// Canonicalises the spec: sorted deduped groups and exclusions,
    /// duplicate groups dropped, demographic lists collapsed. Two specs
    /// that are equal audiences *by construction* compare equal afterwards.
    pub fn normalize(&mut self) {
        self.demographics.normalize();
        for g in &mut self.include {
            g.normalize();
        }
        self.include.retain(|g| !g.attributes.is_empty());
        self.include.sort();
        self.include.dedup();
        self.exclude.sort_unstable();
        self.exclude.dedup();
    }

    /// Returns the normalised copy.
    pub fn normalized(&self) -> TargetingSpec {
        let mut s = self.clone();
        s.normalize();
        s
    }

    /// The AND of two specs — the closure property that makes
    /// inclusion–exclusion terms expressible on platforms that only
    /// support AND-of-ORs (paper §4.3, footnote 13).
    ///
    /// Returns `None` when the demographic constraints are contradictory.
    pub fn intersect(&self, other: &TargetingSpec) -> Option<TargetingSpec> {
        let demographics = self.demographics.intersect(&other.demographics)?;
        let mut spec = TargetingSpec {
            demographics,
            include: self.include.iter().chain(&other.include).cloned().collect(),
            exclude: self.exclude.iter().chain(&other.exclude).copied().collect(),
        };
        spec.normalize();
        Some(spec)
    }

    /// Number of AND-ed groups (the "way-ness" of a pure composition).
    pub fn arity(&self) -> usize {
        self.include.len()
    }
}

impl std::fmt::Display for TargetingSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        if let Some(genders) = &self.demographics.genders {
            let names: Vec<String> = genders.iter().map(|g| g.to_string()).collect();
            write!(f, "gender∈{{{}}}", names.join(","))?;
            first = false;
        }
        if let Some(ages) = &self.demographics.ages {
            if !first {
                write!(f, " ∧ ")?;
            }
            let names: Vec<String> = ages.iter().map(|a| a.to_string()).collect();
            write!(f, "age∈{{{}}}", names.join(","))?;
            first = false;
        }
        for group in &self.include {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            if group.attributes.len() == 1 {
                write!(f, "#{}", group.attributes[0].0)?;
            } else {
                let ids: Vec<String> = group
                    .attributes
                    .iter()
                    .map(|a| format!("#{}", a.0))
                    .collect();
                write!(f, "({})", ids.join(" ∨ "))?;
            }
        }
        if !self.exclude.is_empty() {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            let ids: Vec<String> = self.exclude.iter().map(|a| format!("#{}", a.0)).collect();
            write!(f, "¬({})", ids.join(" ∨ "))?;
        }
        if first {
            write!(f, "everyone")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_of_builds_singleton_groups() {
        let s = TargetingSpec::and_of([AttributeId(3), AttributeId(1)]);
        assert_eq!(s.arity(), 2);
        assert!(s.include.iter().all(|g| g.attributes.len() == 1));
    }

    #[test]
    fn normalize_canonicalises() {
        let mut a = TargetingSpec {
            demographics: DemographicSpec {
                genders: Some(vec![Gender::Female, Gender::Male]),
                ages: Some(vec![AgeBucket::A25_34, AgeBucket::A25_34]),
                location: Location::UnitedStates,
            },
            include: vec![
                OrGroup {
                    attributes: vec![AttributeId(2), AttributeId(1), AttributeId(2)],
                },
                OrGroup { attributes: vec![] },
                OrGroup {
                    attributes: vec![AttributeId(1), AttributeId(2)],
                },
            ],
            exclude: vec![AttributeId(9), AttributeId(9), AttributeId(4)],
        };
        a.normalize();
        // Full gender list collapses to None; empty/duplicate groups drop.
        assert_eq!(a.demographics.genders, None);
        assert_eq!(a.demographics.ages, Some(vec![AgeBucket::A25_34]));
        assert_eq!(a.include.len(), 1);
        assert_eq!(
            a.include[0].attributes,
            vec![AttributeId(1), AttributeId(2)]
        );
        assert_eq!(a.exclude, vec![AttributeId(4), AttributeId(9)]);
    }

    #[test]
    fn intersect_concatenates_groups() {
        let a = TargetingSpec::and_of([AttributeId(1)]);
        let b = TargetingSpec::and_of([AttributeId(2)]);
        let ab = a.intersect(&b).unwrap();
        assert_eq!(ab.arity(), 2);
        assert_eq!(
            ab,
            TargetingSpec::and_of([AttributeId(1), AttributeId(2)]).normalized()
        );
    }

    #[test]
    fn intersect_detects_contradictory_demographics() {
        let male = TargetingSpec::builder().genders([Gender::Male]).build();
        let female = TargetingSpec::builder().genders([Gender::Female]).build();
        assert!(male.intersect(&female).is_none());
        let male2 = male.clone();
        let both = male.intersect(&male2).unwrap();
        assert_eq!(both.demographics.genders, Some(vec![Gender::Male]));
    }

    #[test]
    fn intersect_merges_age_constraints() {
        let young = TargetingSpec::builder()
            .ages([AgeBucket::A18_24, AgeBucket::A25_34])
            .build();
        let mid = TargetingSpec::builder()
            .ages([AgeBucket::A25_34, AgeBucket::A35_54])
            .build();
        let m = young.intersect(&mid).unwrap();
        assert_eq!(m.demographics.ages, Some(vec![AgeBucket::A25_34]));
    }

    #[test]
    fn display_is_readable() {
        let s = TargetingSpec {
            demographics: DemographicSpec {
                genders: Some(vec![Gender::Male]),
                ages: None,
                location: Location::UnitedStates,
            },
            include: vec![
                OrGroup::single(AttributeId(7)),
                OrGroup {
                    attributes: vec![AttributeId(1), AttributeId(2)],
                },
            ],
            exclude: vec![AttributeId(9)],
        };
        assert_eq!(s.to_string(), "gender∈{male} ∧ #7 ∧ (#1 ∨ #2) ∧ ¬(#9)");
        assert_eq!(TargetingSpec::everyone().to_string(), "everyone");
    }

    #[test]
    fn referenced_attributes_covers_include_and_exclude() {
        let s = TargetingSpec {
            include: vec![OrGroup {
                attributes: vec![AttributeId(1), AttributeId(2)],
            }],
            exclude: vec![AttributeId(3)],
            ..Default::default()
        };
        let ids: Vec<u32> = s.referenced_attributes().map(|a| a.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
