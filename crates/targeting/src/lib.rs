//! The targeting expression language shared by all simulated platforms.
//!
//! Advertisers on the 2020-era platforms the paper studies express an
//! audience as:
//!
//! * **demographics** — location (always the US in this reproduction, as in
//!   the paper), optionally a set of genders and age buckets;
//! * **inclusions** — a *logical AND of logical-OR groups* over catalog
//!   attributes ("detailed targeting" on Facebook, "AND-OR targeting" on
//!   LinkedIn);
//! * **exclusions** — attributes whose holders are removed from the
//!   audience (disallowed on Facebook's restricted interface).
//!
//! This crate provides the typed AST ([`TargetingSpec`]), a canonical
//! normal form ([`TargetingSpec::normalize`]), platform-capability
//! validation ([`validate`]), and evaluation against a synthetic
//! population ([`evaluate`], and [`evaluate_len_batch`] /
//! [`evaluate_len`] when only sizes are needed).
//!
//! A key algebraic property the audit relies on: the intersection of two
//! AND-of-OR specs is again an AND-of-OR spec
//! ([`TargetingSpec::intersect`]). Platforms support AND-of-ORs but *not*
//! OR-of-ANDs, which is why the paper must estimate union recall via the
//! inclusion–exclusion principle — each inclusion–exclusion term is an
//! intersection, hence expressible.
//!
//! ```
//! use adcomp_targeting::{AttributeId, TargetingSpec};
//!
//! // (cars OR sedans) AND (electrical engineering)
//! let spec = TargetingSpec::builder()
//!     .any_of([AttributeId(10), AttributeId(11)])
//!     .all_of([AttributeId(42)])
//!     .build();
//! assert_eq!(spec.include.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod builder;
mod eval;
mod validate;

pub use ast::{AttributeId, DemographicSpec, Location, OrGroup, TargetingSpec};
pub use builder::SpecBuilder;
pub use eval::{
    evaluate, evaluate_len, evaluate_len_batch, AttributeResolver, Audience, EvalError,
};
pub use validate::{validate, Capabilities, CatalogView, FeatureId, ValidationError};
