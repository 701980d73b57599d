//! Campaign objectives and Google's frequency capping.
//!
//! The paper selects the objective with the broadest reach on each
//! platform ("Reach" on Facebook, "Brand awareness and reach" on Google,
//! "Brand awareness" on LinkedIn) and pins Google's frequency cap to its
//! most restrictive value so that the impressions estimate approximates a
//! user count (§3, "Measuring audience sizes").

/// Campaign objectives across the three platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Facebook "Reach".
    Reach,
    /// Google "Brand awareness and reach" (Display).
    BrandAwarenessAndReach,
    /// LinkedIn "Brand awareness".
    BrandAwareness,
    /// Facebook/Google "Traffic" (narrower delivery; supported but not
    /// used by the audit).
    Traffic,
    /// Facebook "Conversions" (narrower delivery).
    Conversions,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Objective::Reach => "Reach",
            Objective::BrandAwarenessAndReach => "Brand awareness and reach",
            Objective::BrandAwareness => "Brand awareness",
            Objective::Traffic => "Traffic",
            Objective::Conversions => "Conversions",
        })
    }
}

/// Google's per-user frequency capping setting: how many times the same
/// user may see the ad per month. The impressions estimate scales with
/// it; the paper pins it to 1 ("one impression across the campaign every
/// month per-user") so the estimate approximates unique users.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrequencyCap {
    /// Max impressions per user per month.
    pub per_month: u32,
}

impl FrequencyCap {
    /// The paper's setting: one impression per user per month.
    pub fn most_restrictive() -> Self {
        FrequencyCap { per_month: 1 }
    }

    /// Multiplier applied to the unique-user count to obtain the
    /// theoretical impressions estimate.
    pub fn impressions_multiplier(&self) -> f64 {
        self.per_month as f64
    }
}

impl Default for FrequencyCap {
    fn default() -> Self {
        FrequencyCap::most_restrictive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_ui_labels() {
        assert_eq!(Objective::Reach.to_string(), "Reach");
        assert_eq!(
            Objective::BrandAwarenessAndReach.to_string(),
            "Brand awareness and reach"
        );
        assert_eq!(Objective::BrandAwareness.to_string(), "Brand awareness");
    }

    #[test]
    fn frequency_cap_scales_impressions() {
        assert_eq!(
            FrequencyCap::most_restrictive().impressions_multiplier(),
            1.0
        );
        assert!(
            FrequencyCap { per_month: 12 }.impressions_multiplier()
                > FrequencyCap::most_restrictive().impressions_multiplier()
        );
        assert_eq!(FrequencyCap::default(), FrequencyCap::most_restrictive());
    }
}
