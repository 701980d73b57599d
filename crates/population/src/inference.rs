//! The inferred-attribute channel: what an auditor *without* ground
//! truth sees.
//!
//! Real audits rarely hold true sensitive attributes — they infer them
//! (from names, photos, voter files) with per-group error rates, and
//! their panels have holes that are usually *not* random (arXiv
//! 2410.23394, 2605.12273). An [`AttributeInference`] reproduces both
//! corruptions deterministically on top of an oracle [`Universe`],
//! without mutating it:
//!
//! * **confusion matrices** — per-true-group probabilities of each
//!   observed label, for gender and age independently;
//! * **missingness masks** — a per-user drop probability, optionally
//!   *missing-not-at-random*: the logit of the drop probability shifts
//!   with one of the user's latent factors, so missingness correlates
//!   with exactly the interests that correlate with demographics.
//!
//! Every draw is a pure function of `(inference seed, user)` through
//! the same stateless hash streams the universe generator uses (fresh
//! stream domains, disjoint from generation), so the observed view is
//! byte-identical however it is computed — monolithic, chunked, or
//! segment-at-a-time — and the same `Universe`/`SegmentStore` serves
//! the oracle and any number of inferred views at once.

use adcomp_bitset::Bitset;

use crate::demographics::{AgeBucket, Demographics, Gender};
use crate::hash::{mix, uniform_f64};
use crate::latent::LATENT_DIMS;
use crate::universe::Universe;

/// Stream domains for inference draws. Disjoint from the universe
/// generator's domains (gender `0x01`, age `0x02`, latent `0x10..`) —
/// and the seed itself is salted through [`mix`] first, so inference
/// streams never collide with generation streams even at equal seeds.
mod stream {
    /// Missingness draw.
    pub const MISS: u64 = 0x30;
    /// Observed-gender draw.
    pub const GENDER: u64 = 0x31;
    /// Observed-age draw.
    pub const AGE: u64 = 0x32;
}

/// Salt mixed into the inference seed to decouple it from every other
/// consumer of the universe's hash streams.
const INFERENCE_SALT: u64 = 0x1FE2;

/// A deterministic, seeded model of attribute inference error and
/// panel missingness. `Copy`, so it rides inside experiment configs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttributeInference {
    /// Seed of the inference draws (independent of the universe seed).
    pub seed: u64,
    /// `gender_confusion[t][o]` = P(observed gender `o` | true gender
    /// `t`), rows indexed by [`Gender::index`]. Rows must sum to 1.
    pub gender_confusion: [[f64; 2]; 2],
    /// `age_confusion[t][o]` = P(observed bucket `o` | true bucket
    /// `t`), rows indexed by [`AgeBucket::index`]. Rows must sum to 1.
    pub age_confusion: [[f64; 4]; 4],
    /// Baseline per-user missingness probability. `<= 0` disables
    /// missingness entirely (every user is observed).
    pub missing_base: f64,
    /// Latent dimension steering missing-not-at-random. Ignored when
    /// `mnar_scale == 0`.
    pub mnar_dim: usize,
    /// Shift of the missingness logit per unit of `latent[mnar_dim]`:
    /// `P(miss) = sigmoid(logit(missing_base) + mnar_scale · z)`.
    pub mnar_scale: f64,
}

impl AttributeInference {
    /// A perfect classifier over a complete panel: identity confusion,
    /// no missingness. Its view is byte-identical to the oracle's.
    pub fn oracle(seed: u64) -> AttributeInference {
        let mut age_confusion = [[0.0; 4]; 4];
        for (t, row) in age_confusion.iter_mut().enumerate() {
            row[t] = 1.0;
        }
        AttributeInference {
            seed,
            gender_confusion: [[1.0, 0.0], [0.0, 1.0]],
            age_confusion,
            missing_base: 0.0,
            mnar_dim: 0,
            mnar_scale: 0.0,
        }
    }

    /// A symmetric-error classifier: each gender flips with probability
    /// `gender_error`; each age bucket is swapped (uniformly into the
    /// other three) with probability `age_error`.
    pub fn noisy(seed: u64, gender_error: f64, age_error: f64) -> AttributeInference {
        let mut inference = AttributeInference::oracle(seed);
        inference.gender_confusion = [
            [1.0 - gender_error, gender_error],
            [gender_error, 1.0 - gender_error],
        ];
        for (t, row) in inference.age_confusion.iter_mut().enumerate() {
            for (o, cell) in row.iter_mut().enumerate() {
                *cell = if o == t {
                    1.0 - age_error
                } else {
                    age_error / 3.0
                };
            }
        }
        inference
    }

    /// Adds missingness: baseline probability `base`, with the logit
    /// shifted by `scale · latent[dim]` per user (missing-not-at-random
    /// when `scale != 0` — latent factors correlate with demographics,
    /// so the holes do too).
    pub fn with_missingness(mut self, base: f64, dim: usize, scale: f64) -> AttributeInference {
        self.missing_base = base;
        self.mnar_dim = dim;
        self.mnar_scale = scale;
        self
    }

    /// Whether this inference is error-free and complete (its view is
    /// the oracle view).
    pub fn is_oracle(&self) -> bool {
        self.missing_base <= 0.0
            && self.gender_confusion == [[1.0, 0.0], [0.0, 1.0]]
            && self.age_confusion.iter().enumerate().all(|(t, row)| {
                row.iter()
                    .enumerate()
                    .all(|(o, p)| if o == t { *p == 1.0 } else { *p == 0.0 })
            })
    }

    /// P(observed = true) for gender class `g` — the sensitivity the
    /// auditor's misclassification correction assumes.
    pub fn gender_sensitivity(&self, g: Gender) -> f64 {
        self.gender_confusion[g.index()][g.index()]
    }

    /// The range of P(observed in bucket `o` | true bucket ≠ `o`)
    /// across the other true buckets — the false-positive-rate interval
    /// a collapsed (bucket vs rest) correction must carry, since the
    /// exact rate depends on the unknown composition of "rest".
    pub fn age_false_positive_range(&self, o: AgeBucket) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for t in AgeBucket::ALL {
            if t == o {
                continue;
            }
            let p = self.age_confusion[t.index()][o.index()];
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }

    /// The per-user draw seed (pure function of the inference seed and
    /// the universe seed, so distinct universes decorrelate).
    fn draw_seed(&self, universe: &Universe) -> u64 {
        mix(self.seed, INFERENCE_SALT, universe.config().seed)
    }

    /// What the auditor observes for `user`: `None` if the user is
    /// missing from the panel, otherwise the (possibly mislabelled)
    /// demographics. A pure function of `(self, universe, user)`.
    pub fn observe(&self, universe: &Universe, user: u32) -> Option<Demographics> {
        let seed = self.draw_seed(universe);
        let truth = universe.demographics(user);
        if self.missing_base > 0.0 {
            let mut p = self.missing_base.min(1.0);
            if self.mnar_scale != 0.0 {
                let z = f64::from(universe.latent(user)[self.mnar_dim % LATENT_DIMS]);
                let logit = (p / (1.0 - p).max(f64::MIN_POSITIVE)).ln() + self.mnar_scale * z;
                p = 1.0 / (1.0 + (-logit).exp());
            }
            if uniform_f64(seed, u64::from(user), stream::MISS) < p {
                return None;
            }
        }
        let gender = {
            let u = uniform_f64(seed, u64::from(user), stream::GENDER);
            if u < self.gender_confusion[truth.gender.index()][Gender::Male.index()] {
                Gender::Male
            } else {
                Gender::Female
            }
        };
        let age = {
            let u = uniform_f64(seed, u64::from(user), stream::AGE);
            let row = &self.age_confusion[truth.age.index()];
            let mut cdf = 0.0;
            let mut chosen = AgeBucket::from_index(3);
            for o in AgeBucket::ALL {
                cdf += row[o.index()];
                if u < cdf {
                    chosen = o;
                    break;
                }
            }
            chosen
        };
        Some(Demographics { gender, age })
    }

    /// Materializes the full inferred view of `universe`.
    pub fn view(&self, universe: &Universe) -> InferredView {
        self.view_of_range(universe, 0, universe.n_users())
    }

    /// The inferred view restricted to users in `[start, end)` — the
    /// chunk-at-a-time form. Because [`observe`](Self::observe) is a
    /// pure per-user function, the union of chunked views over a
    /// partition of the id space is byte-identical to the monolithic
    /// view (property-tested), and a user masked as missing is masked
    /// in every chunking.
    pub fn view_of_range(&self, universe: &Universe, start: u32, end: u32) -> InferredView {
        let end = end.min(universe.n_users());
        let mut observed: Vec<u32> = Vec::new();
        let mut by_gender: [Vec<u32>; 2] = Default::default();
        let mut by_age: [Vec<u32>; 4] = Default::default();
        for user in start..end {
            let Some(d) = self.observe(universe, user) else {
                continue;
            };
            observed.push(user);
            by_gender[d.gender.index()].push(user);
            by_age[d.age.index()].push(user);
        }
        let build = |ids: Vec<u32>| {
            let mut set = Bitset::from_sorted_iter(ids);
            set.run_optimize();
            set
        };
        InferredView {
            universe_users: universe.n_users(),
            observed: build(observed),
            by_gender: by_gender.map(build),
            by_age: by_age.map(build),
        }
    }
}

/// The materialized audiences of one inference over one universe: who
/// is observed at all, and the observed gender/age audiences. Missing
/// users belong to *no* demographic audience (a demographically
/// constrained query undercounts them; unconstrained queries still see
/// them — the platform knows the user exists, the auditor just cannot
/// label them).
#[derive(Clone, Debug, PartialEq)]
pub struct InferredView {
    universe_users: u32,
    observed: Bitset,
    by_gender: [Bitset; 2],
    by_age: [Bitset; 4],
}

impl InferredView {
    /// Users present in the panel (not masked as missing).
    pub fn observed(&self) -> &Bitset {
        &self.observed
    }

    /// The observed audience of a gender label.
    pub fn gender_audience(&self, gender: Gender) -> &Bitset {
        &self.by_gender[gender.index()]
    }

    /// The observed audience of an age label.
    pub fn age_audience(&self, age: AgeBucket) -> &Bitset {
        &self.by_age[age.index()]
    }

    /// Number of users masked as missing.
    pub fn missing_count(&self) -> u64 {
        u64::from(self.universe_users) - self.observed.len()
    }

    /// Merges a chunked view into this one (chunks must cover disjoint
    /// id ranges; used by segment-at-a-time construction and the
    /// resurrection property tests).
    pub fn merge(&mut self, other: &InferredView) {
        self.observed = self.observed.or(&other.observed);
        for g in Gender::ALL {
            self.by_gender[g.index()] = self.by_gender[g.index()].or(&other.by_gender[g.index()]);
        }
        for a in AgeBucket::ALL {
            self.by_age[a.index()] = self.by_age[a.index()].or(&other.by_age[a.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::DemographicProfile;
    use crate::universe::UniverseConfig;

    fn universe(seed: u64) -> Universe {
        Universe::generate(&UniverseConfig {
            n_users: 8_000,
            seed,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        })
    }

    #[test]
    fn oracle_view_matches_universe_audiences() {
        let u = universe(11);
        let view = AttributeInference::oracle(99).view(&u);
        assert_eq!(view.observed(), u.everyone());
        assert_eq!(view.missing_count(), 0);
        for g in Gender::ALL {
            assert_eq!(view.gender_audience(g), u.gender_audience(g), "{g:?}");
        }
        for a in AgeBucket::ALL {
            assert_eq!(view.age_audience(a), u.age_audience(a), "{a:?}");
        }
        assert!(AttributeInference::oracle(99).is_oracle());
        assert!(!AttributeInference::noisy(99, 0.1, 0.1).is_oracle());
    }

    #[test]
    fn noise_flips_about_the_configured_rate() {
        let u = universe(12);
        let inference = AttributeInference::noisy(5, 0.2, 0.3);
        let mut gender_flips = 0u32;
        let mut age_flips = 0u32;
        for user in 0..u.n_users() {
            let truth = u.demographics(user);
            let obs = inference.observe(&u, user).expect("no missingness");
            gender_flips += u32::from(obs.gender != truth.gender);
            age_flips += u32::from(obs.age != truth.age);
        }
        let n = u.n_users() as f64;
        let g = f64::from(gender_flips) / n;
        let a = f64::from(age_flips) / n;
        assert!((g - 0.2).abs() < 0.02, "gender flip rate {g}");
        assert!((a - 0.3).abs() < 0.02, "age flip rate {a}");
    }

    #[test]
    fn mnar_missingness_correlates_with_latent() {
        let u = universe(13);
        // Latent dim 0 is gender-correlated; positive scale drops
        // high-z users more often.
        let inference = AttributeInference::oracle(7).with_missingness(0.3, 0, 2.0);
        let view = inference.view(&u);
        assert!(view.missing_count() > 0);
        let mut missing_z = 0.0f64;
        let mut observed_z = 0.0f64;
        let (mut n_miss, mut n_obs) = (0u32, 0u32);
        for user in 0..u.n_users() {
            let z = f64::from(u.latent(user)[0]);
            if view.observed().contains(user) {
                observed_z += z;
                n_obs += 1;
            } else {
                missing_z += z;
                n_miss += 1;
            }
        }
        let miss_mean = missing_z / f64::from(n_miss);
        let obs_mean = observed_z / f64::from(n_obs);
        assert!(
            miss_mean > obs_mean + 0.2,
            "missing users should have higher latent[0]: {miss_mean} vs {obs_mean}"
        );
        // MCAR control: scale 0 keeps the means close.
        let mcar = AttributeInference::oracle(7).with_missingness(0.3, 0, 0.0);
        let view = mcar.view(&u);
        let mut diff = 0.0f64;
        let mut n = 0u32;
        for user in 0..u.n_users() {
            let z = f64::from(u.latent(user)[0]);
            if !view.observed().contains(user) {
                diff += z;
                n += 1;
            }
        }
        assert!((diff / f64::from(n)).abs() < 0.15, "MCAR mean {diff}");
    }

    #[test]
    fn missing_users_are_in_no_audience() {
        let u = universe(14);
        let inference = AttributeInference::noisy(3, 0.1, 0.1).with_missingness(0.25, 1, 1.0);
        let view = inference.view(&u);
        assert!(view.missing_count() > 0);
        for user in 0..u.n_users() {
            if view.observed().contains(user) {
                continue;
            }
            for g in Gender::ALL {
                assert!(!view.gender_audience(g).contains(user));
            }
            for a in AgeBucket::ALL {
                assert!(!view.age_audience(a).contains(user));
            }
        }
        // Observed users are in exactly one gender and one age audience.
        let g_total: u64 = Gender::ALL
            .iter()
            .map(|g| view.gender_audience(*g).len())
            .sum();
        let a_total: u64 = AgeBucket::ALL
            .iter()
            .map(|a| view.age_audience(*a).len())
            .sum();
        assert_eq!(g_total, view.observed().len());
        assert_eq!(a_total, view.observed().len());
    }

    #[test]
    fn chunked_view_is_byte_identical_to_monolithic() {
        let u = universe(15);
        let inference = AttributeInference::noisy(9, 0.15, 0.2).with_missingness(0.2, 2, 1.5);
        let full = inference.view(&u);
        let mut merged = inference.view_of_range(&u, 0, 1_000);
        let mut start = 1_000;
        for step in [511u32, 2_048, 64, 5_000] {
            let end = (start + step).min(u.n_users());
            merged.merge(&inference.view_of_range(&u, start, end));
            start = end;
        }
        merged.merge(&inference.view_of_range(&u, start, u.n_users()));
        assert_eq!(merged, full);
    }
}
