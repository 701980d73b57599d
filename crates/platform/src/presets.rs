//! Calibrated platform presets.
//!
//! One constructor per studied interface, with demographic priors, catalog
//! composition and scale factors chosen so the *shape* of the paper's
//! findings reproduces (see DESIGN.md §5 for the calibration targets):
//!
//! * Facebook: 667 attributes, user base slightly female-skewed, total
//!   ≈ 220 M US users at paper scale.
//! * FB-restricted: the 393 least demographically loaded of Facebook's
//!   attributes, same user base, restricted capabilities.
//! * Google: 873 affinity attributes + 2 424 placement topics (two
//!   features; AND only across features), impressions estimates, total
//!   in the billions of monthly impressions.
//! * LinkedIn: 552 attributes, male- and older-skewed professional user
//!   base, ≈ 170 M US members.

use std::sync::Arc;

use adcomp_population::{AttributeInference, DemographicProfile, UniverseConfig};
use adcomp_targeting::{Capabilities, FeatureId};

use crate::catalog::{Catalog, CategorySpec, SkewProfile};
use crate::estimate::{EstimateKind, RoundingRule};
use crate::interface::{AdPlatform, InterfaceKind, PlatformConfig};
use crate::objective::Objective;

/// How big a simulation to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimScale {
    /// Small universes and catalogs for unit/integration tests
    /// (hundreds of attributes, tens of thousands of users).
    Test,
    /// Full paper-scale catalogs (393/667, 873+2424, 552) and universes
    /// large enough for stable tail percentiles.
    Paper,
}

impl SimScale {
    fn catalog_factor(self) -> f64 {
        match self {
            SimScale::Test => 0.12,
            SimScale::Paper => 1.0,
        }
    }

    fn users(self, paper_users: u32) -> u32 {
        match self {
            SimScale::Test => (paper_users / 10).max(10_000),
            SimScale::Paper => paper_users,
        }
    }

    /// Scale factor preserving the platform-range totals regardless of
    /// simulated user count.
    fn scale(self, paper_users: u32, per_user: f64) -> f64 {
        paper_users as f64 * per_user / self.users(paper_users) as f64
    }
}

fn scaled(count: u32, factor: f64) -> u32 {
    ((count as f64 * factor).round() as u32).max(4)
}

/// The full four-interface simulation the experiments run against.
pub struct Simulation {
    /// Facebook's normal interface.
    pub facebook: Arc<AdPlatform>,
    /// Facebook's restricted (special ad category) interface; shares
    /// Facebook's universe and maps attributes onto it via
    /// [`AdPlatform::parent_id`].
    pub facebook_restricted: Arc<AdPlatform>,
    /// Google Display.
    pub google: Arc<AdPlatform>,
    /// LinkedIn.
    pub linkedin: Arc<AdPlatform>,
}

impl Simulation {
    /// All four interfaces, deterministically from one seed. Only their
    /// catalogs are built here; each universe and its audiences are
    /// built on the interface's first query (see
    /// [`Resident`](crate::Resident)), so an audit that never queries an
    /// interface never pays for it.
    pub fn build(seed: u64, scale: SimScale) -> Simulation {
        Simulation::build_inferred(seed, scale, None)
    }

    /// All four interfaces, optionally attaching a demographic-inference
    /// model to each (built, like the audiences, on first use).
    ///
    /// With `Some(inference)`, every platform classifies its own universe
    /// through the inference model (each draws from streams salted by its
    /// universe seed, so the per-platform noise realisations are
    /// independent), and demographic targeting resolves against the
    /// resulting noisy/missing labels. The restricted interface inherits
    /// Facebook's view, mirroring how it shares Facebook's universe. With
    /// `None` this is exactly [`Simulation::build`].
    pub fn build_inferred(
        seed: u64,
        scale: SimScale,
        inference: Option<&AttributeInference>,
    ) -> Simulation {
        let attach = |platform: AdPlatform| match inference {
            Some(model) => platform.with_inference(*model),
            None => platform,
        };
        let facebook = Arc::new(attach(build_facebook(seed, scale)));
        // Derived *after* the view is attached so it inherits it.
        let facebook_restricted = Arc::new(build_facebook_restricted(&facebook, scale));
        let google = Arc::new(attach(build_google(seed ^ 0x6006, scale)));
        let linkedin = Arc::new(attach(build_linkedin(seed ^ 0x11, scale)));
        Simulation {
            facebook,
            facebook_restricted,
            google,
            linkedin,
        }
    }

    /// The platform simulating `kind`.
    pub fn platform(&self, kind: InterfaceKind) -> &Arc<AdPlatform> {
        match kind {
            InterfaceKind::FacebookNormal => &self.facebook,
            InterfaceKind::FacebookRestricted => &self.facebook_restricted,
            InterfaceKind::GoogleDisplay => &self.google,
            InterfaceKind::LinkedIn => &self.linkedin,
        }
    }

    /// The four interfaces in the paper's presentation order.
    pub fn interfaces(&self) -> [&Arc<AdPlatform>; 4] {
        [
            &self.facebook_restricted,
            &self.facebook,
            &self.google,
            &self.linkedin,
        ]
    }
}

/// Paper-scale Facebook user count (≈ US monthly actives, 2020).
const FB_USERS: u32 = 220_000;
/// Paper-scale Google user count.
const GOOGLE_USERS: u32 = 250_000;
/// Paper-scale LinkedIn member count.
const LINKEDIN_USERS: u32 = 170_000;

/// Facebook's normal interface: 667 attributes over a slightly
/// female-skewed user base of ≈ 220 M.
pub fn build_facebook(seed: u64, scale: SimScale) -> AdPlatform {
    let universe = UniverseConfig {
        n_users: scale.users(FB_USERS),
        seed: seed ^ 0xFB,
        scale: scale.scale(FB_USERS, 1_000.0),
        profile: DemographicProfile {
            male_fraction: 0.46,
            age_weights: [0.22, 0.28, 0.30, 0.20],
            gender_signal: 0.55,
            age_signal: 0.65,
        },
    };
    let f = scale.catalog_factor();
    let feat = FeatureId(0);
    let n = SkewProfile::neutral;
    let specs = [
        CategorySpec {
            name: "Interests",
            domain: "interests",
            feature: feat,
            count: scaled(100, f),
            skew: n(),
        },
        CategorySpec {
            name: "Games",
            domain: "games",
            feature: feat,
            count: scaled(55, f),
            skew: n().lean_male(0.5).lean_old(-0.25),
        },
        CategorySpec {
            name: "Industries",
            domain: "industries",
            feature: feat,
            count: scaled(70, f),
            skew: n().lean_male(0.18),
        },
        CategorySpec {
            name: "Beauty",
            domain: "beauty",
            feature: feat,
            count: scaled(45, f),
            skew: n().lean_male(-0.6),
        },
        CategorySpec {
            name: "Shopping",
            domain: "shopping",
            feature: feat,
            count: scaled(55, f),
            skew: n().lean_male(-0.4),
        },
        CategorySpec {
            name: "Family and relationships",
            domain: "family",
            feature: feat,
            count: scaled(50, f),
            skew: n().lean_male(-0.3).lean_old(0.1),
        },
        CategorySpec {
            name: "Vehicles",
            domain: "vehicles",
            feature: feat,
            count: scaled(50, f),
            skew: n().lean_male(0.5),
        },
        CategorySpec {
            name: "Consumer electronics",
            domain: "tech",
            feature: feat,
            count: scaled(50, f),
            skew: n().lean_male(0.45).lean_old(-0.15),
        },
        CategorySpec {
            name: "Sports",
            domain: "sports",
            feature: feat,
            count: scaled(45, f),
            skew: n().lean_male(0.3).lean_old(-0.1),
        },
        CategorySpec {
            name: "Entertainment",
            domain: "media",
            feature: feat,
            count: scaled(27, f),
            skew: n(),
        },
        CategorySpec {
            name: "Finance",
            domain: "finance",
            feature: feat,
            count: scaled(40, f),
            skew: n().lean_old(0.35),
        },
        CategorySpec {
            name: "Education",
            domain: "education",
            feature: feat,
            count: scaled(30, f),
            skew: n().lean_old(-0.35),
        },
        CategorySpec {
            name: "Lifestyle",
            domain: "lifestyle",
            feature: feat,
            count: scaled(50, f),
            skew: n().lean_old(0.18),
        },
    ];
    let catalog = Catalog::generate(seed ^ 0xCAFB, &specs);
    AdPlatform::generated(
        PlatformConfig {
            kind: InterfaceKind::FacebookNormal,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![
                Objective::Reach,
                Objective::Traffic,
                Objective::Conversions,
            ],
            default_objective: Objective::Reach,
        },
        universe,
        catalog,
    )
}

/// Facebook's restricted interface, derived from the normal one: the 393
/// least demographically loaded attributes (paper-scale), no age/gender
/// targeting, no exclusions.
pub fn build_facebook_restricted(facebook: &AdPlatform, scale: SimScale) -> AdPlatform {
    // Keep the same sanitisation ratio the real interfaces had
    // (393 of 667 ≈ 59 %).
    let keep = match scale {
        SimScale::Paper => 393.min(facebook.catalog().len()),
        SimScale::Test => (facebook.catalog().len() * 393).div_euclid(667),
    };
    let (catalog, parents) = facebook.catalog().sanitized(keep);
    AdPlatform::derived(
        PlatformConfig {
            kind: InterfaceKind::FacebookRestricted,
            capabilities: Capabilities::restricted(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach, Objective::Traffic],
            default_objective: Objective::Reach,
        },
        facebook,
        catalog,
        parents,
    )
}

/// Google Display: 873 affinity attributes (feature 0) + 2 424 placement
/// topics (feature 1); impressions estimates; composition only across
/// features.
pub fn build_google(seed: u64, scale: SimScale) -> AdPlatform {
    let universe = UniverseConfig {
        n_users: scale.users(GOOGLE_USERS),
        seed: seed ^ 0x600613,
        // Per-user multiplier 9600 puts totals in the billions of monthly
        // impressions, matching the magnitudes in the paper's Fig. 5.
        scale: scale.scale(GOOGLE_USERS, 9_600.0),
        profile: DemographicProfile {
            male_fraction: 0.49,
            age_weights: [0.16, 0.24, 0.33, 0.27],
            gender_signal: 0.5,
            age_signal: 0.7,
        },
    };
    let f = scale.catalog_factor();
    let attrs = FeatureId(0);
    let topics = FeatureId(1);
    let n = SkewProfile::neutral;
    let specs = [
        // Affinity attributes (873 at paper scale).
        CategorySpec {
            name: "Gamers",
            domain: "games",
            feature: attrs,
            count: scaled(120, f),
            skew: n().lean_male(0.55).lean_old(-0.1),
        },
        CategorySpec {
            name: "Makeup & Cosmetics",
            domain: "beauty",
            feature: attrs,
            count: scaled(90, f),
            skew: n().lean_male(-0.6).lean_old(0.1),
        },
        CategorySpec {
            name: "Autos & Vehicles",
            domain: "vehicles",
            feature: attrs,
            count: scaled(110, f),
            skew: n().lean_male(0.55).lean_old(0.15),
        },
        CategorySpec {
            name: "Sports & Fitness",
            domain: "sports",
            feature: attrs,
            count: scaled(100, f),
            skew: n().lean_male(0.25),
        },
        CategorySpec {
            name: "Food & Dining",
            domain: "food",
            feature: attrs,
            count: scaled(110, f),
            skew: n().lean_male(-0.2).lean_old(0.18),
        },
        CategorySpec {
            name: "Crafts",
            domain: "crafts",
            feature: attrs,
            count: scaled(80, f),
            skew: n().lean_male(-0.45).lean_old(0.28),
        },
        CategorySpec {
            name: "Computers & Electronics",
            domain: "tech",
            feature: attrs,
            count: scaled(100, f),
            skew: n().lean_male(0.45).lean_old(-0.05),
        },
        CategorySpec {
            name: "Education",
            domain: "education",
            feature: attrs,
            count: scaled(60, f),
            skew: n().lean_old(-0.25),
        },
        CategorySpec {
            name: "Lifestyles & Hobbies",
            domain: "lifestyle",
            feature: attrs,
            count: scaled(103, f),
            skew: n().lean_old(0.35),
        },
        // Placement topics (2424 at paper scale).
        CategorySpec {
            name: "Topics/Arts & Entertainment",
            domain: "media",
            feature: topics,
            count: scaled(300, f),
            skew: n().lean_old(0.15),
        },
        CategorySpec {
            name: "Topics/Food & Drink",
            domain: "food",
            feature: topics,
            count: scaled(300, f),
            skew: n().lean_male(-0.15).lean_old(0.18),
        },
        CategorySpec {
            name: "Topics/Computers",
            domain: "tech",
            feature: topics,
            count: scaled(324, f),
            skew: n().lean_male(0.4),
        },
        CategorySpec {
            name: "Topics/Sports",
            domain: "sports",
            feature: topics,
            count: scaled(300, f),
            skew: n().lean_male(0.3).lean_old(0.07),
        },
        CategorySpec {
            name: "Topics/Autos",
            domain: "vehicles",
            feature: topics,
            count: scaled(300, f),
            skew: n().lean_male(0.5).lean_old(0.18),
        },
        CategorySpec {
            name: "Topics/Finance",
            domain: "finance",
            feature: topics,
            count: scaled(300, f),
            skew: n().lean_old(0.42),
        },
        CategorySpec {
            name: "Topics/Hobbies & Leisure",
            domain: "crafts",
            feature: topics,
            count: scaled(250, f),
            skew: n().lean_male(-0.3).lean_old(0.32),
        },
        CategorySpec {
            name: "Topics/Games",
            domain: "games",
            feature: topics,
            count: scaled(350, f),
            skew: n().lean_male(0.5).lean_old(-0.15),
        },
    ];
    let catalog = Catalog::generate(seed ^ 0xCA60, &specs);
    AdPlatform::generated(
        PlatformConfig {
            kind: InterfaceKind::GoogleDisplay,
            capabilities: Capabilities::cross_feature_only(),
            rounding: RoundingRule::google(),
            estimate_kind: EstimateKind::Impressions,
            supported_objectives: vec![Objective::BrandAwarenessAndReach, Objective::Traffic],
            default_objective: Objective::BrandAwarenessAndReach,
        },
        universe,
        catalog,
    )
}

/// LinkedIn: 552 attributes over a male- and older-skewed professional
/// member base of ≈ 170 M.
pub fn build_linkedin(seed: u64, scale: SimScale) -> AdPlatform {
    let universe = UniverseConfig {
        n_users: scale.users(LINKEDIN_USERS),
        seed: seed ^ 0x11D1,
        scale: scale.scale(LINKEDIN_USERS, 1_000.0),
        profile: DemographicProfile {
            male_fraction: 0.56,
            age_weights: [0.20, 0.33, 0.32, 0.15],
            gender_signal: 0.65,
            age_signal: 0.7,
        },
    };
    let f = scale.catalog_factor();
    let feat = FeatureId(0);
    let n = SkewProfile::neutral;
    let specs = [
        CategorySpec {
            name: "Job Functions",
            domain: "jobs",
            feature: feat,
            count: scaled(90, f),
            skew: n().lean_male(0.25).lean_old(0.1),
        },
        CategorySpec {
            name: "Industries",
            domain: "industries",
            feature: feat,
            count: scaled(80, f),
            skew: n().lean_male(0.3).lean_old(0.07),
        },
        CategorySpec {
            name: "Job Seniorities",
            domain: "seniority",
            feature: feat,
            count: scaled(40, f),
            skew: n().lean_male(0.35).lean_old(0.5),
        },
        CategorySpec {
            name: "Education",
            domain: "education",
            feature: feat,
            count: scaled(50, f),
            skew: n().lean_old(-0.15),
        },
        CategorySpec {
            name: "Technology",
            domain: "tech",
            feature: feat,
            count: scaled(70, f),
            skew: n().lean_male(0.55).lean_old(-0.05),
        },
        CategorySpec {
            name: "Corporate Finance",
            domain: "finance",
            feature: feat,
            count: scaled(60, f),
            skew: n().lean_male(0.18).lean_old(0.35),
        },
        CategorySpec {
            name: "Member Traits",
            domain: "lifestyle",
            feature: feat,
            count: scaled(82, f),
            skew: n().lean_old(0.07),
        },
        CategorySpec {
            name: "Interests",
            domain: "media",
            feature: feat,
            count: scaled(40, f),
            skew: n(),
        },
        CategorySpec {
            name: "Consumer Goods",
            domain: "shopping",
            feature: feat,
            count: scaled(40, f),
            skew: n().lean_male(-0.4),
        },
    ];
    let catalog = Catalog::generate(seed ^ 0xCA11, &specs);
    AdPlatform::generated(
        PlatformConfig {
            kind: InterfaceKind::LinkedIn,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::linkedin(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::BrandAwareness, Objective::Traffic],
            default_objective: Objective::BrandAwareness,
        },
        universe,
        catalog,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_population::Gender;
    use adcomp_targeting::TargetingSpec;

    use crate::interface::EstimateRequest;

    #[test]
    fn test_scale_builds_all_interfaces() {
        let sim = Simulation::build(1, SimScale::Test);
        assert_eq!(sim.facebook.kind(), InterfaceKind::FacebookNormal);
        assert_eq!(
            sim.facebook_restricted.kind(),
            InterfaceKind::FacebookRestricted
        );
        assert_eq!(sim.google.kind(), InterfaceKind::GoogleDisplay);
        assert_eq!(sim.linkedin.kind(), InterfaceKind::LinkedIn);
        // Restricted shares Facebook's universe.
        assert_eq!(
            sim.facebook_restricted.universe().n_users(),
            sim.facebook.universe().n_users()
        );
        // Sanitisation ratio ≈ 393/667.
        let ratio =
            sim.facebook_restricted.catalog().len() as f64 / sim.facebook.catalog().len() as f64;
        assert!((ratio - 393.0 / 667.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn catalog_sizes_at_paper_scale_match_the_paper() {
        // Only constructing catalogs (not platforms) keeps this fast.
        let f = SimScale::Paper.catalog_factor();
        assert_eq!(f, 1.0);
        // Facebook: 667 total.
        let fb: u32 = [100, 55, 70, 45, 55, 50, 50, 50, 45, 27, 40, 30, 50]
            .iter()
            .sum();
        assert_eq!(fb, 667);
        // Google: 873 attributes + 2424 topics.
        let ga: u32 = [120, 90, 110, 100, 110, 80, 100, 60, 103].iter().sum();
        let gt: u32 = [300, 300, 324, 300, 300, 300, 250, 350].iter().sum();
        assert_eq!(ga, 873);
        assert_eq!(gt, 2424);
        // LinkedIn: 552.
        let li: u32 = [90, 80, 40, 50, 70, 60, 82, 40, 40].iter().sum();
        assert_eq!(li, 552);
    }

    #[test]
    fn platform_demographic_leans_match_paper_direction() {
        let sim = Simulation::build(2, SimScale::Test);
        // LinkedIn's member base is male-skewed, Facebook's female-skewed.
        let male_frac = |p: &AdPlatform| {
            p.universe().gender_audience(Gender::Male).len() as f64 / p.universe().n_users() as f64
        };
        assert!(male_frac(&sim.linkedin) > 0.53);
        assert!(male_frac(&sim.facebook) < 0.48);
        // Google/LinkedIn user bases skew older than Facebook's.
        let young_frac = |p: &AdPlatform| {
            p.universe()
                .age_audience(adcomp_population::AgeBucket::A18_24)
                .len() as f64
                / p.universe().n_users() as f64
        };
        assert!(young_frac(&sim.google) < young_frac(&sim.facebook));
    }

    #[test]
    fn inferred_views_change_demographic_resolution_only() {
        let oracle = Simulation::build(5, SimScale::Test);
        let inference = AttributeInference::noisy(9, 0.2, 0.2).with_missingness(0.3, 2, 1.0);
        let inferred = Simulation::build_inferred(5, SimScale::Test, Some(&inference));
        // The restricted interface inherits Facebook's attached view.
        assert!(inferred.facebook.inferred_view().is_some());
        assert!(inferred.facebook_restricted.inferred_view().is_some());
        for (a, b) in oracle.interfaces().iter().zip(inferred.interfaces().iter()) {
            // Unconstrained totals are untouched: the platform still
            // serves every user, classified or not.
            let everyone =
                EstimateRequest::new(TargetingSpec::everyone(), a.config().default_objective);
            assert_eq!(
                a.reach_estimate(&everyone).unwrap(),
                b.reach_estimate(&everyone).unwrap(),
                "{} total drifted under inference",
                a.label()
            );
        }
        // Demographically constrained reach shrinks under missingness:
        // unobserved users match no gender constraint.
        let spec = TargetingSpec::builder().gender(Gender::Female).build();
        let req = EstimateRequest::new(spec, Objective::Reach);
        let truth = oracle.facebook.reach_estimate(&req).unwrap().value;
        let noisy = inferred.facebook.reach_estimate(&req).unwrap().value;
        assert!(noisy < truth, "inferred {noisy} vs oracle {truth}");
        // A zero-error inference is indistinguishable from ground truth.
        let identity = AttributeInference::oracle(9);
        let same = Simulation::build_inferred(5, SimScale::Test, Some(&identity));
        assert_eq!(same.facebook.reach_estimate(&req).unwrap().value, truth);
    }

    #[test]
    fn default_objectives_work_everywhere() {
        let sim = Simulation::build(3, SimScale::Test);
        for p in sim.interfaces() {
            let req = EstimateRequest::new(TargetingSpec::everyone(), p.config().default_objective);
            let est = p.reach_estimate(&req).unwrap();
            assert!(est.value > 0, "{} returned zero reach", p.label());
        }
    }

    #[test]
    fn totals_land_in_platform_range() {
        let sim = Simulation::build(4, SimScale::Test);
        let total = |p: &AdPlatform| {
            p.reach_estimate(&EstimateRequest::new(
                TargetingSpec::everyone(),
                p.config().default_objective,
            ))
            .unwrap()
            .value
        };
        let fb = total(&sim.facebook);
        assert!(
            (150_000_000..=300_000_000).contains(&fb),
            "facebook total {fb}"
        );
        let go = total(&sim.google);
        assert!(go > 1_000_000_000, "google impressions total {go}");
        let li = total(&sim.linkedin);
        assert!(
            (100_000_000..=250_000_000).contains(&li),
            "linkedin total {li}"
        );
    }
}
