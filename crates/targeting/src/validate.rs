//! Platform-capability validation of targeting specs.
//!
//! Each simulated platform interface declares a [`Capabilities`] profile;
//! [`validate`] rejects specs the corresponding real interface would have
//! refused. The profiles the audit uses (paper §2):
//!
//! * **Facebook (normal)** — demographics allowed, exclusions allowed,
//!   free AND-of-ORs over one attribute catalog.
//! * **Facebook (restricted)** — no age/gender targeting, no exclusions,
//!   reduced catalog (enforced by the catalog itself), AND-of-ORs allowed.
//! * **Google (Display)** — audience-size statistics are only shown for
//!   compositions that AND options of *different* features (e.g. an
//!   affinity attribute with a placement topic); same-feature combinations
//!   are OR-only (paper §3, footnote 8).
//! * **LinkedIn** — demographics are themselves catalog attributes; the
//!   interface supports AND-of-ORs, exclusions allowed.

use adcomp_population::{AgeBucket, Gender};

use crate::ast::{AttributeId, TargetingSpec};

/// Identifier of a targeting *feature* (a family of options that Google
/// refuses to AND within itself — e.g. "affinity attributes" vs
/// "placement topics").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureId(pub u16);

/// Read-only view of a platform catalog, as needed for validation.
pub trait CatalogView {
    /// Does the attribute exist on this interface?
    fn exists(&self, id: AttributeId) -> bool;
    /// Which feature family the attribute belongs to.
    fn feature_of(&self, id: AttributeId) -> Option<FeatureId>;
}

/// What a platform interface permits.
#[derive(Clone, Debug, PartialEq)]
pub struct Capabilities {
    /// May the advertiser constrain gender?
    pub gender_targeting: bool,
    /// May the advertiser constrain age?
    pub age_targeting: bool,
    /// May the advertiser exclude attribute holders?
    pub exclusions: bool,
    /// May two options of the *same* feature be AND-ed (different groups)?
    /// `false` models Google's display statistics limitation.
    pub same_feature_and: bool,
    /// Maximum number of AND-ed groups (0 = unlimited).
    pub max_groups: usize,
    /// Maximum alternatives within one OR-group (0 = unlimited).
    pub max_group_size: usize,
}

impl Capabilities {
    /// Fully permissive profile (Facebook normal / LinkedIn shape).
    pub fn permissive() -> Self {
        Capabilities {
            gender_targeting: true,
            age_targeting: true,
            exclusions: true,
            same_feature_and: true,
            max_groups: 0,
            max_group_size: 0,
        }
    }

    /// Facebook's restricted (special ad category) profile.
    pub fn restricted() -> Self {
        Capabilities {
            gender_targeting: false,
            age_targeting: false,
            exclusions: false,
            same_feature_and: true,
            max_groups: 0,
            max_group_size: 0,
        }
    }

    /// Google Display profile: cross-feature AND only.
    pub fn cross_feature_only() -> Self {
        Capabilities {
            same_feature_and: false,
            exclusions: false,
            ..Capabilities::permissive()
        }
    }
}

/// Reasons an interface rejects a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Attribute not in this interface's catalog.
    UnknownAttribute(AttributeId),
    /// Gender constraint on an interface that forbids it.
    GenderTargetingNotAllowed(Vec<Gender>),
    /// Age constraint on an interface that forbids it.
    AgeTargetingNotAllowed(Vec<AgeBucket>),
    /// Exclusions on an interface that forbids them.
    ExclusionsNotAllowed,
    /// Two AND-ed groups draw from the same feature on an interface that
    /// only supports cross-feature composition.
    SameFeatureAnd(FeatureId),
    /// A single OR-group mixes features (groups must be homogeneous when
    /// the interface distinguishes features).
    MixedFeatureGroup,
    /// Too many AND-ed groups.
    TooManyGroups {
        /// Number of groups in the spec.
        got: usize,
        /// Interface limit.
        limit: usize,
    },
    /// An OR-group exceeds the size limit.
    GroupTooLarge {
        /// Alternatives in the offending group.
        got: usize,
        /// Interface limit.
        limit: usize,
    },
    /// A group with no attributes.
    EmptyGroup,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnknownAttribute(id) => {
                write!(f, "attribute #{} is not in this interface's catalog", id.0)
            }
            ValidationError::GenderTargetingNotAllowed(_) => {
                write!(f, "this interface does not allow targeting by gender")
            }
            ValidationError::AgeTargetingNotAllowed(_) => {
                write!(f, "this interface does not allow targeting by age")
            }
            ValidationError::ExclusionsNotAllowed => {
                write!(
                    f,
                    "this interface does not allow excluding attribute holders"
                )
            }
            ValidationError::SameFeatureAnd(feat) => write!(
                f,
                "options of the same feature (feature {}) cannot be AND-composed here",
                feat.0
            ),
            ValidationError::MixedFeatureGroup => {
                write!(f, "an OR-group must draw from a single feature")
            }
            ValidationError::TooManyGroups { got, limit } => {
                write!(f, "{got} AND-groups exceed the interface limit of {limit}")
            }
            ValidationError::GroupTooLarge { got, limit } => {
                write!(
                    f,
                    "an OR-group with {got} options exceeds the limit of {limit}"
                )
            }
            ValidationError::EmptyGroup => write!(f, "empty OR-group"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks `spec` against an interface's capabilities and catalog.
/// Returns the first violation found (demographics, then structure, then
/// per-attribute checks) — matching how the real UIs reject input eagerly.
pub fn validate(
    spec: &TargetingSpec,
    caps: &Capabilities,
    catalog: &dyn CatalogView,
) -> Result<(), ValidationError> {
    if let Some(genders) = &spec.demographics.genders {
        if !caps.gender_targeting {
            return Err(ValidationError::GenderTargetingNotAllowed(genders.clone()));
        }
    }
    if let Some(ages) = &spec.demographics.ages {
        if !caps.age_targeting {
            return Err(ValidationError::AgeTargetingNotAllowed(ages.clone()));
        }
    }
    if !spec.exclude.is_empty() && !caps.exclusions {
        return Err(ValidationError::ExclusionsNotAllowed);
    }
    if caps.max_groups != 0 && spec.include.len() > caps.max_groups {
        return Err(ValidationError::TooManyGroups {
            got: spec.include.len(),
            limit: caps.max_groups,
        });
    }

    let mut group_features: Vec<FeatureId> = Vec::with_capacity(spec.include.len());
    for group in &spec.include {
        if group.attributes.is_empty() {
            return Err(ValidationError::EmptyGroup);
        }
        if caps.max_group_size != 0 && group.attributes.len() > caps.max_group_size {
            return Err(ValidationError::GroupTooLarge {
                got: group.attributes.len(),
                limit: caps.max_group_size,
            });
        }
        let mut feature: Option<FeatureId> = None;
        for &id in &group.attributes {
            if !catalog.exists(id) {
                return Err(ValidationError::UnknownAttribute(id));
            }
            let feat = catalog
                .feature_of(id)
                .ok_or(ValidationError::UnknownAttribute(id))?;
            match feature {
                None => feature = Some(feat),
                Some(f) if f != feat && !caps.same_feature_and => {
                    // When features matter, a group must be homogeneous.
                    return Err(ValidationError::MixedFeatureGroup);
                }
                _ => {}
            }
        }
        group_features.push(feature.expect("non-empty group has a feature"));
    }

    if !caps.same_feature_and {
        let mut seen = group_features.clone();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(ValidationError::SameFeatureAnd(w[0]));
            }
        }
    }

    for &id in &spec.exclude {
        if !catalog.exists(id) {
            return Err(ValidationError::UnknownAttribute(id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::OrGroup;

    /// A toy catalog: ids 0..100 exist; feature = id / 50 (so 0..50 are
    /// feature 0, 50..100 feature 1).
    struct ToyCatalog;
    impl CatalogView for ToyCatalog {
        fn exists(&self, id: AttributeId) -> bool {
            id.0 < 100
        }
        fn feature_of(&self, id: AttributeId) -> Option<FeatureId> {
            (id.0 < 100).then_some(FeatureId((id.0 / 50) as u16))
        }
    }

    fn ok(spec: &TargetingSpec, caps: &Capabilities) {
        assert_eq!(validate(spec, caps, &ToyCatalog), Ok(()), "{spec}");
    }

    fn err(spec: &TargetingSpec, caps: &Capabilities, want: ValidationError) {
        assert_eq!(validate(spec, caps, &ToyCatalog), Err(want), "{spec}");
    }

    #[test]
    fn permissive_accepts_everything_wellformed() {
        let caps = Capabilities::permissive();
        ok(&TargetingSpec::everyone(), &caps);
        ok(
            &TargetingSpec::builder()
                .gender(Gender::Female)
                .age(AgeBucket::A18_24)
                .any_of([AttributeId(1), AttributeId(60)])
                .exclude([AttributeId(2)])
                .build(),
            &caps,
        );
    }

    #[test]
    fn restricted_rejects_demographics_and_exclusions() {
        let caps = Capabilities::restricted();
        err(
            &TargetingSpec::builder().gender(Gender::Male).build(),
            &caps,
            ValidationError::GenderTargetingNotAllowed(vec![Gender::Male]),
        );
        err(
            &TargetingSpec::builder().age(AgeBucket::A55Plus).build(),
            &caps,
            ValidationError::AgeTargetingNotAllowed(vec![AgeBucket::A55Plus]),
        );
        err(
            &TargetingSpec::builder().exclude([AttributeId(1)]).build(),
            &caps,
            ValidationError::ExclusionsNotAllowed,
        );
        // Attribute composition itself is allowed.
        ok(
            &TargetingSpec::and_of([AttributeId(1), AttributeId(2)]),
            &caps,
        );
    }

    #[test]
    fn cross_feature_only_enforced() {
        let caps = Capabilities::cross_feature_only();
        // Same feature AND (two groups in feature 0) rejected.
        err(
            &TargetingSpec::and_of([AttributeId(1), AttributeId(2)]),
            &caps,
            ValidationError::SameFeatureAnd(FeatureId(0)),
        );
        // Cross-feature AND accepted.
        ok(
            &TargetingSpec::and_of([AttributeId(1), AttributeId(60)]),
            &caps,
        );
        // Same-feature OR accepted (single group).
        ok(
            &TargetingSpec::builder()
                .any_of([AttributeId(1), AttributeId(2)])
                .build(),
            &caps,
        );
        // Mixed-feature OR-group rejected.
        err(
            &TargetingSpec::builder()
                .any_of([AttributeId(1), AttributeId(60)])
                .build(),
            &caps,
            ValidationError::MixedFeatureGroup,
        );
    }

    #[test]
    fn unknown_attributes_rejected_everywhere() {
        let caps = Capabilities::permissive();
        err(
            &TargetingSpec::and_of([AttributeId(100)]),
            &caps,
            ValidationError::UnknownAttribute(AttributeId(100)),
        );
        err(
            &TargetingSpec::builder().exclude([AttributeId(500)]).build(),
            &caps,
            ValidationError::UnknownAttribute(AttributeId(500)),
        );
    }

    #[test]
    fn structural_limits() {
        let caps = Capabilities {
            max_groups: 2,
            max_group_size: 2,
            ..Capabilities::permissive()
        };
        err(
            &TargetingSpec::and_of([AttributeId(1), AttributeId(2), AttributeId(3)]),
            &caps,
            ValidationError::TooManyGroups { got: 3, limit: 2 },
        );
        err(
            &TargetingSpec::builder()
                .any_of([AttributeId(1), AttributeId(2), AttributeId(3)])
                .build(),
            &caps,
            ValidationError::GroupTooLarge { got: 3, limit: 2 },
        );
        err(
            &TargetingSpec {
                include: vec![OrGroup { attributes: vec![] }],
                ..Default::default()
            },
            &Capabilities::permissive(),
            ValidationError::EmptyGroup,
        );
    }

    #[test]
    fn error_messages_render() {
        let msgs = [
            ValidationError::UnknownAttribute(AttributeId(3)).to_string(),
            ValidationError::SameFeatureAnd(FeatureId(1)).to_string(),
            ValidationError::TooManyGroups { got: 5, limit: 2 }.to_string(),
        ];
        assert!(msgs[0].contains("#3"));
        assert!(msgs[1].contains("feature 1"));
        assert!(msgs[2].contains('5') && msgs[2].contains('2'));
    }
}
