//! The latent-factor interest model.
//!
//! A user's interests are summarised by a `LATENT_DIMS`-dimensional vector
//! `z`. Dimension 0 is correlated with gender, dimension 1 with age, and
//! the remaining dimensions are demographic-neutral "topic" axes. An
//! attribute's audience is a Bernoulli draw per user:
//!
//! ```text
//! P(u ∈ audience(a)) = σ( bias_a + w_a · z_u + g_u·γ_a + α_a[age_u] )
//! ```
//!
//! where `σ` is the logistic function, `w_a` the attribute's latent
//! loadings, `γ_a` a direct gender bias and `α_a` direct age biases.
//!
//! Why this reproduces the paper's composition effect: conditioning on
//! membership in one attribute that loads on the gender axis shifts the
//! posterior over `z₀`; conditioning on a *second* such attribute shifts it
//! further, so the AND-audience is more gender-skewed than either
//! individual audience. Attributes with loadings on shared neutral axes
//! also amplify each other when those axes are themselves reachable from
//! demographics — matching the paper's observation that even "facially
//! neutral" combinations skew.

use serde::{Deserialize, Serialize};

use crate::demographics::Demographics;

/// Number of latent interest dimensions.
///
/// Dimension 0 is gender-correlated, dimension 1 age-correlated, the rest
/// neutral topic axes. Twelve dimensions give enough topic diversity for
/// thousands of attributes without making dot products expensive.
pub const LATENT_DIMS: usize = 12;

/// Generative model of one targeting attribute's audience.
///
/// Constructed with a builder-style API; every field has a neutral default
/// so platforms can specify only what matters:
///
/// ```
/// use adcomp_population::AttributeModel;
/// let m = AttributeModel::new(1)
///     .popularity(0.05)
///     .gender_bias(1.2)           // male-skewed
///     .loading(2, 0.9)            // loads on topic axis 2
///     .age_biases([0.3, 0.1, -0.1, -0.3]); // skews young
/// assert_eq!(m.seed, 1);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttributeModel {
    /// Seed of the attribute's private Bernoulli stream. Must be unique per
    /// attribute within a universe.
    pub seed: u64,
    /// Intercept. Set via [`popularity`](AttributeModel::popularity): the
    /// approximate marginal membership probability for an average user.
    pub bias: f32,
    /// Loadings onto the latent dimensions.
    pub loadings: [f32; LATENT_DIMS],
    /// Direct gender bias: positive = male-skewed (gender signal is +1 for
    /// male users).
    pub gender_bias: f32,
    /// Direct per-age-bucket biases, youngest first.
    pub age_biases: [f32; 4],
}

impl AttributeModel {
    /// A neutral attribute with ~50 % popularity and no skew.
    pub fn new(seed: u64) -> Self {
        AttributeModel {
            seed,
            bias: 0.0,
            loadings: [0.0; LATENT_DIMS],
            gender_bias: 0.0,
            age_biases: [0.0; 4],
        }
    }

    /// Sets the intercept so that an average user (z = 0, no demographic
    /// bias) has membership probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`.
    pub fn popularity(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "popularity must be in (0, 1), got {p}");
        self.bias = (p / (1.0 - p)).ln() as f32;
        self
    }

    /// Sets the loading on latent dimension `dim`.
    pub fn loading(mut self, dim: usize, weight: f32) -> Self {
        self.loadings[dim] = weight;
        self
    }

    /// Replaces all loadings.
    pub fn loadings(mut self, loadings: [f32; LATENT_DIMS]) -> Self {
        self.loadings = loadings;
        self
    }

    /// Sets the direct gender bias (positive = male-skewed).
    pub fn gender_bias(mut self, bias: f32) -> Self {
        self.gender_bias = bias;
        self
    }

    /// Sets the direct age biases, youngest bucket first.
    pub fn age_biases(mut self, biases: [f32; 4]) -> Self {
        self.age_biases = biases;
        self
    }

    /// Log-odds of membership for a user with latent vector `z` and
    /// demographics `demo`.
    #[inline]
    pub fn logit(&self, z: &[f32], demo: Demographics) -> f32 {
        debug_assert_eq!(z.len(), LATENT_DIMS);
        let mut acc = self.bias;
        for (w, zi) in self.loadings.iter().zip(z) {
            acc += w * zi;
        }
        acc + demo.gender.signal() * self.gender_bias + self.age_biases[demo.age.index()]
    }

    /// [`logit`](Self::logit) of a run of `out.len()` users, accumulated
    /// one latent dimension at a time across the run so the loops
    /// vectorise. Per user the operations and their order are exactly
    /// `logit`'s (no fused multiply-add), so every value is bit-identical.
    ///
    /// `demos` holds the run's packed demographics; user `i`'s value on
    /// dimension `d` is `latent[d * stride + i]`.
    pub(crate) fn logits(&self, demos: &[u8], latent: &[f32], stride: usize, out: &mut [f32]) {
        out.fill(self.bias);
        for (d, w) in self.loadings.iter().enumerate() {
            let column = &latent[d * stride..][..out.len()];
            for (acc, zi) in out.iter_mut().zip(column) {
                *acc += w * zi;
            }
        }
        // Both demographic terms per packed demographic code.
        let shifts: [(f32, f32); 8] = std::array::from_fn(|packed| {
            let demo = Demographics::unpack(packed as u8);
            (
                demo.gender.signal() * self.gender_bias,
                self.age_biases[demo.age.index()],
            )
        });
        for (acc, &packed) in out.iter_mut().zip(demos) {
            let (gender, age) = shifts[usize::from(packed & 7)];
            *acc = *acc + gender + age;
        }
    }

    /// Membership probability for a user (logistic link).
    #[inline]
    pub fn probability(&self, z: &[f32], demo: Demographics) -> f64 {
        sigmoid(self.logit(z, demo) as f64)
    }
}

/// Numerically stable logistic function.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::{AgeBucket, Gender};

    fn demo(gender: Gender, age: AgeBucket) -> Demographics {
        Demographics { gender, age }
    }

    #[test]
    fn popularity_sets_matching_intercept() {
        for p in [0.001, 0.1, 0.5, 0.9, 0.999] {
            let m = AttributeModel::new(0).popularity(p);
            let q = m.probability(&[0.0; LATENT_DIMS], demo(Gender::Male, AgeBucket::A25_34));
            // Male gender bias is 0 here so demographics don't move it.
            assert!((q - p).abs() < 1e-6, "p={p} q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "popularity must be in (0, 1)")]
    fn popularity_rejects_one() {
        let _ = AttributeModel::new(0).popularity(1.0);
    }

    #[test]
    fn gender_bias_moves_probability_directionally() {
        let m = AttributeModel::new(0).popularity(0.2).gender_bias(1.0);
        let z = [0.0; LATENT_DIMS];
        let pm = m.probability(&z, demo(Gender::Male, AgeBucket::A35_54));
        let pf = m.probability(&z, demo(Gender::Female, AgeBucket::A35_54));
        assert!(pm > 0.2 && pf < 0.2 && pm > pf);
    }

    #[test]
    fn age_bias_selects_bucket() {
        let m = AttributeModel::new(0)
            .popularity(0.2)
            .age_biases([2.0, 0.0, 0.0, -2.0]);
        let z = [0.0; LATENT_DIMS];
        let young = m.probability(&z, demo(Gender::Male, AgeBucket::A18_24));
        let mid = m.probability(&z, demo(Gender::Male, AgeBucket::A25_34));
        let old = m.probability(&z, demo(Gender::Male, AgeBucket::A55Plus));
        assert!(young > mid && mid > old);
    }

    #[test]
    fn loadings_contribute_linearly() {
        let m = AttributeModel::new(0).loading(3, 2.0);
        let mut z = [0.0f32; LATENT_DIMS];
        z[3] = 1.5;
        assert_eq!(m.logit(&z, demo(Gender::Male, AgeBucket::A25_34)), 3.0);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        // Symmetry σ(x) + σ(−x) = 1.
        for x in [-5.0, -0.3, 0.7, 4.2] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
