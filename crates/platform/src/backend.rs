//! Where a platform's audiences live.
//!
//! A [`Platform`](crate::Platform) computes every estimate and every
//! reach-oracle answer against an [`AudienceBackend`]: a sequence of
//! segments over disjoint user-id ranges, each of which hands its
//! audiences to the one evaluator as an [`AttributeResolver`]: estimates
//! count through `adcomp_targeting::evaluate_len_batch`, one call per
//! segment for a whole batch of requests, and only ground-truth callers
//! build sets with `adcomp_targeting::evaluate`. Counts sum over
//! segments, so a spec's length is the same however the users are
//! split. A [`Resident`] universe, with
//! every catalog audience materialised in memory, is the one-segment
//! case; a [`SegmentStore`](adcomp_population::SegmentStore) streams its
//! segments from disk (`crate::segmented`).

use std::sync::Arc;

use adcomp_bitset::Bitset;
use adcomp_population::{AgeBucket, Gender, InferredView, Universe};
use adcomp_targeting::{AttributeId, AttributeResolver, Audience, EvalError};

/// A population split into segments, each a resolver over its own users.
pub trait AudienceBackend: Send + Sync {
    /// One segment's audiences.
    type Segment<'a>: AttributeResolver
    where
        Self: 'a;

    /// Users in the whole population.
    fn n_users(&self) -> u64;

    /// Real users each simulated user stands for.
    fn scale(&self) -> f64;

    /// Number of segments (at least one).
    fn n_segments(&self) -> u32;

    /// The audiences of segment `seg` (`seg < n_segments()`).
    fn segment(&self, seg: u32) -> Self::Segment<'_>;
}

/// A universe held in memory, with every catalog audience materialised
/// (index = attribute id). Audiences are shared handles, so a derived
/// interface reuses its parent's instead of copying them.
pub struct Resident {
    pub(crate) universe: Arc<Universe>,
    pub(crate) audiences: Vec<Arc<Bitset>>,
    /// When present, demographic constraints resolve against this
    /// *inferred* view of the universe instead of ground truth — the
    /// platform classifies users rather than asking them. The oracle
    /// universe itself is untouched; only constraint resolution changes.
    pub(crate) inferred: Option<Arc<InferredView>>,
}

impl AudienceBackend for Resident {
    type Segment<'a> = &'a Resident;

    fn n_users(&self) -> u64 {
        u64::from(self.universe.n_users())
    }

    fn scale(&self) -> f64 {
        self.universe.scale()
    }

    fn n_segments(&self) -> u32 {
        1
    }

    fn segment(&self, _seg: u32) -> &Resident {
        self
    }
}

impl AttributeResolver for &Resident {
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError> {
        self.audiences
            .get(id.0 as usize)
            .map(|a| Audience::Borrowed(a))
            .ok_or(EvalError::UnknownAttribute(id))
    }

    fn everyone(&self) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.universe.everyone()))
    }

    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match &self.inferred {
            Some(view) => view.gender_audience(gender),
            None => self.universe.gender_audience(gender),
        }))
    }

    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match &self.inferred {
            Some(view) => view.age_audience(age),
            None => self.universe.age_audience(age),
        }))
    }
}
