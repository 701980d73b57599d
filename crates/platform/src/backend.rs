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
//! split. A [`Resident`] universe, with every catalog audience
//! materialised in memory on first use, is the one-segment case; a
//! [`SegmentStore`](adcomp_population::SegmentStore) streams its
//! segments from disk (`crate::segmented`).

use std::sync::{Arc, OnceLock};

use adcomp_bitset::Bitset;
use adcomp_population::{
    AgeBucket, AttributeInference, AttributeModel, Gender, InferredView, Universe, UniverseConfig,
};
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

    /// Builds now what the first [`segment`](AudienceBackend::segment)
    /// call would otherwise build. Default: nothing is built lazily.
    fn materialize(&self) {}
}

/// A universe held in memory with every catalog audience materialised
/// (index = attribute id), built on first use.
///
/// Construction keeps only what building needs: the universe (or the
/// config that generates it), the catalog's audience models and an
/// optional inference model. The first call that reads an audience
/// ([`segment`](AudienceBackend::segment), and through it estimates, the
/// reach oracle and the ground-truth accessors) generates the universe,
/// draws every audience with [`Universe::materialize_all`] and applies
/// the inference model, once, under a [`OnceLock`]; concurrent first
/// callers wait for that one build. A platform that is only described,
/// validated against or asked for its totals never builds. A derived
/// interface shares its parent's state and resolves its ids through a
/// map onto the parent's, so whichever interface asks first builds both.
pub struct Resident {
    shared: Arc<Lazy>,
    /// For a derived interface: each attribute's index among the
    /// audiences `shared` builds.
    ids: Option<Vec<AttributeId>>,
}

/// A resident population's recipe and, once built, its audiences.
struct Lazy {
    population: Population,
    models: Vec<AttributeModel>,
    inference: Option<AttributeInference>,
    built: OnceLock<Built>,
}

/// Where a resident universe comes from.
pub(crate) enum Population {
    /// Generated from this config on first use.
    Config(UniverseConfig),
    /// Already generated by the caller.
    Universe(Arc<Universe>),
}

/// A built resident population.
pub(crate) struct Built {
    pub(crate) universe: Arc<Universe>,
    pub(crate) audiences: Vec<Bitset>,
    /// When present, demographic constraints resolve against this
    /// *inferred* view of the universe instead of ground truth — the
    /// platform classifies users rather than asking them. The oracle
    /// universe itself is untouched; only constraint resolution changes.
    pub(crate) inferred: Option<Arc<InferredView>>,
}

impl Resident {
    /// A resident population with one audience per model.
    pub(crate) fn new(population: Population, models: Vec<AttributeModel>) -> Resident {
        Resident {
            shared: Arc::new(Lazy {
                population,
                models,
                inference: None,
                built: OnceLock::new(),
            }),
            ids: None,
        }
    }

    /// A derived population over the same state as `parent`, where
    /// attribute `i` is the parent's attribute `parent_ids[i]`.
    pub(crate) fn derived(parent: &Resident, parent_ids: &[AttributeId]) -> Resident {
        let ids = parent_ids
            .iter()
            .map(|pid| match &parent.ids {
                Some(ids) => ids[pid.0 as usize],
                None => *pid,
            })
            .collect();
        Resident {
            shared: parent.shared.clone(),
            ids: Some(ids),
        }
    }

    /// Attaches an inference model, applied when the population is built
    /// (or now, if it already is).
    ///
    /// # Panics
    /// If another interface already shares this population.
    pub(crate) fn set_inference(&mut self, model: AttributeInference) {
        let lazy = Arc::get_mut(&mut self.shared)
            .expect("inference is attached before an interface is derived");
        if let Some(built) = lazy.built.get_mut() {
            built.inferred = Some(Arc::new(model.view(&built.universe)));
        }
        lazy.inference = Some(model);
    }

    /// The built population, building it on the first call.
    pub(crate) fn built(&self) -> &Built {
        let lazy = &*self.shared;
        lazy.built.get_or_init(|| {
            let universe = match &lazy.population {
                Population::Config(config) => Arc::new(Universe::generate(config)),
                Population::Universe(universe) => universe.clone(),
            };
            let audiences = universe.materialize_all(&lazy.models);
            let inferred = lazy.inference.map(|model| Arc::new(model.view(&universe)));
            Built {
                universe,
                audiences,
                inferred,
            }
        })
    }

    /// Whether the population has been built.
    pub(crate) fn is_built(&self) -> bool {
        self.shared.built.get().is_some()
    }

    fn config(&self) -> &UniverseConfig {
        match &self.shared.population {
            Population::Config(config) => config,
            Population::Universe(universe) => universe.config(),
        }
    }
}

impl AudienceBackend for Resident {
    type Segment<'a> = ResidentView<'a>;

    fn n_users(&self) -> u64 {
        u64::from(self.config().n_users)
    }

    fn scale(&self) -> f64 {
        self.config().scale
    }

    fn n_segments(&self) -> u32 {
        1
    }

    fn segment(&self, _seg: u32) -> ResidentView<'_> {
        ResidentView {
            built: self.built(),
            ids: self.ids.as_deref(),
        }
    }

    fn materialize(&self) {
        self.built();
    }
}

/// A built resident population as one interface sees it.
#[derive(Clone, Copy)]
pub struct ResidentView<'a> {
    pub(crate) built: &'a Built,
    pub(crate) ids: Option<&'a [AttributeId]>,
}

impl<'a> ResidentView<'a> {
    /// The audience of attribute `id`, if the catalog has one.
    pub(crate) fn audience(self, id: AttributeId) -> Option<&'a Bitset> {
        let idx = match self.ids {
            Some(ids) => ids.get(id.0 as usize)?.0,
            None => id.0,
        };
        self.built.audiences.get(idx as usize)
    }
}

impl AttributeResolver for ResidentView<'_> {
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError> {
        self.audience(id)
            .map(Audience::Borrowed)
            .ok_or(EvalError::UnknownAttribute(id))
    }

    fn everyone(&self) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.built.universe.everyone()))
    }

    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match &self.built.inferred {
            Some(view) => view.gender_audience(gender),
            None => self.built.universe.gender_audience(gender),
        }))
    }

    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match &self.built.inferred {
            Some(view) => view.age_audience(age),
            None => self.built.universe.age_audience(age),
        }))
    }
}
