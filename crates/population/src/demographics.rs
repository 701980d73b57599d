//! Sensitive demographic attributes and per-platform priors.
//!
//! The paper studies gender and age because "ad platforms typically have
//! access to these and offer options to explicitly target these
//! attributes" (§3). The age buckets are the most granular ranges common
//! to all three platforms.

/// Binary gender as modelled by the 2020-era targeting interfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Gender {
    /// Male users.
    Male,
    /// Female users.
    Female,
}

impl Gender {
    /// Both genders, in canonical order.
    pub const ALL: [Gender; 2] = [Gender::Male, Gender::Female];

    /// The other gender (the `RA₋ₛ` population of the metric).
    pub fn other(self) -> Gender {
        match self {
            Gender::Male => Gender::Female,
            Gender::Female => Gender::Male,
        }
    }

    /// Signed signal used by the latent model: male = +1, female = −1.
    /// Positive gender loadings therefore mean "male-skewed".
    pub fn signal(self) -> f32 {
        match self {
            Gender::Male => 1.0,
            Gender::Female => -1.0,
        }
    }

    /// Stable dense index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            Gender::Male => 0,
            Gender::Female => 1,
        }
    }
}

impl std::fmt::Display for Gender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Gender::Male => "male",
            Gender::Female => "female",
        })
    }
}

/// Age ranges — "the most granular targeting options common to the three ad
/// platforms we study" (paper §3, footnote 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AgeBucket {
    /// Ages 18–24.
    A18_24,
    /// Ages 25–34.
    A25_34,
    /// Ages 35–54.
    A35_54,
    /// Ages 55 and above.
    A55Plus,
}

impl AgeBucket {
    /// All buckets, youngest first.
    pub const ALL: [AgeBucket; 4] = [
        AgeBucket::A18_24,
        AgeBucket::A25_34,
        AgeBucket::A35_54,
        AgeBucket::A55Plus,
    ];

    /// Stable dense index (0..4).
    pub fn index(self) -> usize {
        match self {
            AgeBucket::A18_24 => 0,
            AgeBucket::A25_34 => 1,
            AgeBucket::A35_54 => 2,
            AgeBucket::A55Plus => 3,
        }
    }

    /// Bucket from its dense index.
    ///
    /// # Panics
    /// Panics when `index >= 4`.
    pub fn from_index(index: usize) -> AgeBucket {
        AgeBucket::ALL[index]
    }

    /// Signed signal for the latent model's age axis, youngest = −1.5 …
    /// oldest = +1.5. Positive age loadings therefore mean "skewed old".
    pub fn signal(self) -> f32 {
        match self {
            AgeBucket::A18_24 => -1.5,
            AgeBucket::A25_34 => -0.5,
            AgeBucket::A35_54 => 0.5,
            AgeBucket::A55Plus => 1.5,
        }
    }
}

impl std::fmt::Display for AgeBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AgeBucket::A18_24 => "18-24",
            AgeBucket::A25_34 => "25-34",
            AgeBucket::A35_54 => "35-54",
            AgeBucket::A55Plus => "55+",
        })
    }
}

/// One user's sensitive attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Demographics {
    /// The user's gender.
    pub gender: Gender,
    /// The user's age bucket.
    pub age: AgeBucket,
}

impl Demographics {
    /// Packs into 3 bits (1 gender + 2 age) for the universe's per-user
    /// demographic array.
    pub(crate) fn pack(self) -> u8 {
        (self.gender.index() as u8) | ((self.age.index() as u8) << 1)
    }

    /// Inverse of [`Demographics::pack`].
    pub(crate) fn unpack(bits: u8) -> Demographics {
        Demographics {
            gender: if bits & 1 == 0 {
                Gender::Male
            } else {
                Gender::Female
            },
            age: AgeBucket::from_index(((bits >> 1) & 0b11) as usize),
        }
    }
}

/// Demographic priors of a platform's user base, plus the strength with
/// which demographics shift the latent interest space.
#[derive(Clone, Debug, PartialEq)]
pub struct DemographicProfile {
    /// Fraction of users that are male.
    pub male_fraction: f64,
    /// Relative weights of the four age buckets (normalised internally).
    pub age_weights: [f64; 4],
    /// How strongly gender shifts the gender-correlated latent dimension.
    pub gender_signal: f32,
    /// How strongly age shifts the age-correlated latent dimension.
    pub age_signal: f32,
}

impl DemographicProfile {
    /// A 50/50, uniform-age profile with unit demographic signals.
    pub fn balanced() -> Self {
        DemographicProfile {
            male_fraction: 0.5,
            age_weights: [0.25, 0.25, 0.25, 0.25],
            gender_signal: 1.0,
            age_signal: 1.0,
        }
    }

    /// Cumulative age distribution used for sampling.
    pub(crate) fn age_cdf(&self) -> [f64; 4] {
        let total: f64 = self.age_weights.iter().sum();
        assert!(total > 0.0, "age_weights must not all be zero");
        let mut cdf = [0.0; 4];
        let mut acc = 0.0;
        for (i, w) in self.age_weights.iter().enumerate() {
            assert!(*w >= 0.0, "age weights must be non-negative");
            acc += w / total;
            cdf[i] = acc;
        }
        cdf[3] = 1.0; // guard against rounding
        cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for gender in Gender::ALL {
            for age in AgeBucket::ALL {
                let d = Demographics { gender, age };
                assert_eq!(Demographics::unpack(d.pack()), d);
            }
        }
    }

    #[test]
    fn gender_other_is_involution() {
        for g in Gender::ALL {
            assert_eq!(g.other().other(), g);
            assert_ne!(g.other(), g);
        }
    }

    #[test]
    fn age_index_roundtrip_and_order() {
        for (i, a) in AgeBucket::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(AgeBucket::from_index(i), *a);
        }
        // Signals are increasing with age and symmetric around zero.
        let signals: Vec<f32> = AgeBucket::ALL.iter().map(|a| a.signal()).collect();
        assert!(signals.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(signals.iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn age_cdf_normalises() {
        let p = DemographicProfile {
            age_weights: [2.0, 1.0, 1.0, 4.0],
            ..DemographicProfile::balanced()
        };
        let cdf = p.age_cdf();
        assert!((cdf[0] - 0.25).abs() < 1e-12);
        assert!((cdf[1] - 0.375).abs() < 1e-12);
        assert!((cdf[2] - 0.5).abs() < 1e-12);
        assert_eq!(cdf[3], 1.0);
    }

    #[test]
    #[should_panic(expected = "age_weights must not all be zero")]
    fn zero_age_weights_rejected() {
        let p = DemographicProfile {
            age_weights: [0.0; 4],
            ..DemographicProfile::balanced()
        };
        let _ = p.age_cdf();
    }

    #[test]
    fn display_strings_match_paper() {
        assert_eq!(AgeBucket::A18_24.to_string(), "18-24");
        assert_eq!(AgeBucket::A55Plus.to_string(), "55+");
        assert_eq!(Gender::Male.to_string(), "male");
    }
}
