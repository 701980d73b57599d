//! The paper's metrics: representation ratio, recall, four-fifths rule.
//!
//! All quantities are computed from **rounded** platform estimates, as in
//! the paper (Equation 1, §3):
//!
//! ```text
//!                     |TA ∧ RAₛ| / |RAₛ|
//! rep_ratioₛ(TA, RA) = ─────────────────────
//!                     |TA ∧ RA₋ₛ| / |RA₋ₛ|
//! ```
//!
//! where `RA` is all US users of the platform and `RA₋ₛ` aggregates every
//! other value of the sensitive attribute. `recall` is `|TA ∧ RAₛ|` when
//! including class `s` (and `|TA ∧ RA₋ₛ|` when excluding it).

use adcomp_platform::RoundingRule;
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::TargetingSpec;

use crate::source::{AuditTarget, SensitiveClass, SourceError};

/// *The* four-fifths threshold (Biddle; EEOC practice): a selection rate
/// below four fifths of the most-favoured group's is treated as evidence
/// of adverse impact. Every `0.8` in the codebase is this constant; the
/// band edges below are derived from it.
pub const FOUR_FIFTHS_THRESHOLD: f64 = 0.8;
/// Lower edge of the four-fifths band: a ratio below it under-represents
/// the class.
pub const FOUR_FIFTHS_LOW: f64 = FOUR_FIFTHS_THRESHOLD;
/// Upper edge of the four-fifths band (`1/0.8 = 1.25`): a ratio above it
/// over-represents the class.
pub const FOUR_FIFTHS_HIGH: f64 = 1.0 / FOUR_FIFTHS_THRESHOLD;

/// Where a ratio falls relative to the four-fifths band.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SkewBand {
    /// Ratio < 0.8: the class is under-represented.
    Under,
    /// 0.8 ≤ ratio ≤ 1.25: within the accepted band.
    Within,
    /// Ratio > 1.25: the class is over-represented.
    Over,
}

/// Classifies a ratio against the four-fifths band.
pub fn four_fifths_band(ratio: f64) -> SkewBand {
    if ratio < FOUR_FIFTHS_LOW {
        SkewBand::Under
    } else if ratio > FOUR_FIFTHS_HIGH {
        SkewBand::Over
    } else {
        SkewBand::Within
    }
}

/// Per-class measurements of one targeting: everything the audit needs to
/// compute ratios and recalls for any sensitive class, obtained with the
/// paper's seven queries (total, two genders, four ages).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMeasurement {
    /// `|TA|` (rounded estimate).
    pub total: u64,
    /// `|TA ∧ gender|`, indexed by [`Gender::index`].
    pub by_gender: [u64; 2],
    /// `|TA ∧ age|`, indexed by [`AgeBucket::index`].
    pub by_age: [u64; 4],
}

impl SpecMeasurement {
    /// The class slice `|TA ∧ RAₛ|`.
    pub fn class_count(&self, class: SensitiveClass) -> u64 {
        match class {
            SensitiveClass::Gender(g) => self.by_gender[g.index()],
            SensitiveClass::Age(a) => self.by_age[a.index()],
        }
    }

    /// The complement `|TA ∧ RA₋ₛ|`, aggregated over the other values of
    /// the same sensitive attribute (paper: `Σ_{s'≠s} |TA ∧ RA_{s'}|`).
    pub fn complement_count(&self, class: SensitiveClass) -> u64 {
        match class {
            SensitiveClass::Gender(g) => self.by_gender[g.other().index()],
            SensitiveClass::Age(a) => AgeBucket::ALL
                .iter()
                .filter(|b| **b != a)
                .map(|b| self.by_age[b.index()])
                .sum(),
        }
    }
}

/// Measures a targeting through an [`AuditTarget`]: one total query plus
/// one per class value (7 rounded estimates), mirroring §3, submitted as
/// one batch — the one-spec case of [`measure_spec_batch`].
pub fn measure_spec(
    target: &AuditTarget,
    spec: &TargetingSpec,
) -> Result<SpecMeasurement, SourceError> {
    let mut measured = measure_spec_batch(target, std::slice::from_ref(spec))?;
    Ok(measured.pop().expect("one measurement per spec"))
}

/// Number of estimate queries one [`measure_spec`] issues (total + two
/// genders + four ages).
pub const QUERIES_PER_SPEC: usize = 7;

/// Measures every spec with the seven queries per spec — total, both
/// genders, all four ages, in that order — submitted as one batch: a
/// platform counts the batch in one pass, and a scheduled measurement
/// interface ([`ScheduledSource`](crate::distributed::ScheduledSource))
/// spreads it across its endpoints. On error, the first failure in
/// submission order is returned.
pub fn measure_spec_batch(
    target: &AuditTarget,
    specs: &[TargetingSpec],
) -> Result<Vec<SpecMeasurement>, SourceError> {
    let mut queries: Vec<TargetingSpec> = Vec::with_capacity(specs.len() * QUERIES_PER_SPEC);
    for spec in specs {
        let translated = target.translate(spec);
        queries.push(translated.as_ref().clone());
        for g in Gender::ALL {
            queries.push(SensitiveClass::Gender(g).constrain(&translated));
        }
        for a in AgeBucket::ALL {
            queries.push(SensitiveClass::Age(a).constrain(&translated));
        }
    }
    let mut results = target.measurement.estimate_batch(&queries).into_iter();
    let mut out = Vec::with_capacity(specs.len());
    for _ in specs {
        let mut next = || results.next().expect("one result per query");
        let total = next()?;
        let mut by_gender = [0u64; 2];
        for g in Gender::ALL {
            by_gender[g.index()] = next()?;
        }
        let mut by_age = [0u64; 4];
        for a in AgeBucket::ALL {
            by_age[a.index()] = next()?;
        }
        out.push(SpecMeasurement {
            total,
            by_gender,
            by_age,
        });
    }
    Ok(out)
}

/// Representation ratio from the four estimate counts (Equation 1).
/// `None` when a denominator is zero (the paper's recall filter removes
/// such niche targetings before ratios are interpreted).
pub fn rep_ratio(ta_s: u64, ta_not_s: u64, ra_s: u64, ra_not_s: u64) -> Option<f64> {
    if ra_s == 0 || ra_not_s == 0 || ta_not_s == 0 {
        return None;
    }
    let num = ta_s as f64 / ra_s as f64;
    let den = ta_not_s as f64 / ra_not_s as f64;
    Some(num / den)
}

/// Representation ratio of a measured targeting for a class, given the
/// base-population measurement (`RA`, i.e. the measurement of
/// [`TargetingSpec::everyone`]).
pub fn rep_ratio_of(
    measurement: &SpecMeasurement,
    base: &SpecMeasurement,
    class: SensitiveClass,
) -> Option<f64> {
    rep_ratio(
        measurement.class_count(class),
        measurement.complement_count(class),
        base.class_count(class),
        base.complement_count(class),
    )
}

/// Recall (paper §3): the count of the sensitive population reached when
/// the targeting *includes* the class.
pub fn recall_of(measurement: &SpecMeasurement, class: SensitiveClass) -> u64 {
    measurement.class_count(class)
}

/// Interval of representation ratios consistent with the rounding of the
/// four inputs — the paper's robustness check that conclusions hold "even
/// allowing for the representation ratios to take their least skewed
/// values (subject to the rounding ranges)".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatioBounds {
    /// Smallest ratio any consistent exact counts could give.
    pub lo: f64,
    /// Largest ratio any consistent exact counts could give.
    pub hi: f64,
}

impl RatioBounds {
    /// The value in the interval closest to 1 — the "least skewed"
    /// consistent ratio.
    pub fn least_skewed(&self) -> f64 {
        if self.lo > 1.0 {
            self.lo
        } else if self.hi < 1.0 {
            self.hi
        } else {
            1.0
        }
    }
}

/// Computes [`RatioBounds`] for a class from rounded measurements and the
/// platform's rounding rule.
///
/// The ratio is monotone increasing in `ta_s` and `ra_not_s` and
/// decreasing in `ta_not_s` and `ra_s`, so the extremes come from the
/// interval endpoints. Returns `None` when any required inverse interval
/// is undefined or a bound's denominator collapses to zero.
pub fn ratio_bounds(
    measurement: &SpecMeasurement,
    base: &SpecMeasurement,
    class: SensitiveClass,
    rounding: &RoundingRule,
) -> Option<RatioBounds> {
    let ta_s = rounding.inverse_interval(measurement.class_count(class))?;
    let ta_not_s = rounding.inverse_interval(measurement.complement_count(class))?;
    let ra_s = rounding.inverse_interval(base.class_count(class))?;
    let ra_not_s = rounding.inverse_interval(base.complement_count(class))?;

    let ratio = |ts: u64, tns: u64, rs: u64, rns: u64| rep_ratio(ts, tns, rs, rns);
    let lo = ratio(ta_s.0, ta_not_s.1, ra_s.1, ra_not_s.0)?;
    let hi = ratio(ta_s.1, ta_not_s.0.max(1), ra_s.0.max(1), ra_not_s.1)?;
    Some(RatioBounds { lo, hi })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(total: u64, male: u64, female: u64, ages: [u64; 4]) -> SpecMeasurement {
        SpecMeasurement {
            total,
            by_gender: [male, female],
            by_age: ages,
        }
    }

    const MALE: SensitiveClass = SensitiveClass::Gender(Gender::Male);
    const YOUNG: SensitiveClass = SensitiveClass::Age(AgeBucket::A18_24);

    #[test]
    fn rep_ratio_balanced_population() {
        // 60k males vs 40k females targeted out of 1M each: ratio 1.5.
        assert_eq!(rep_ratio(60_000, 40_000, 1_000_000, 1_000_000), Some(1.5));
        // Zero denominators are undefined.
        assert_eq!(rep_ratio(1, 0, 10, 10), None);
        assert_eq!(rep_ratio(1, 1, 0, 10), None);
        assert_eq!(rep_ratio(1, 1, 10, 0), None);
        // Zero numerator is a valid (fully excluding) ratio.
        assert_eq!(rep_ratio(0, 10, 100, 100), Some(0.0));
    }

    #[test]
    fn rep_ratio_accounts_for_base_rates() {
        // Population is 2:1 male; targeting 2:1 male is ratio 1.0.
        let r = rep_ratio(2_000, 1_000, 200_000, 100_000).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn class_and_complement_counts() {
        let m = meas(100, 60, 40, [10, 20, 30, 40]);
        assert_eq!(m.class_count(MALE), 60);
        assert_eq!(m.complement_count(MALE), 40);
        assert_eq!(m.class_count(YOUNG), 10);
        assert_eq!(
            m.complement_count(YOUNG),
            90,
            "sum of the other three buckets"
        );
    }

    #[test]
    fn rep_ratio_of_uses_base() {
        let base = meas(200, 100, 100, [50, 50, 50, 50]);
        let ta = meas(30, 20, 10, [3, 9, 9, 9]);
        let r = rep_ratio_of(&ta, &base, MALE).unwrap();
        assert!((r - 2.0).abs() < 1e-12);
        let r = rep_ratio_of(&ta, &base, YOUNG).unwrap();
        // (3/50) / (27/150) = 0.06 / 0.18.
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_of(&ta, MALE), 20);
    }

    #[test]
    fn four_fifths_banding() {
        assert_eq!(four_fifths_band(0.79), SkewBand::Under);
        assert_eq!(four_fifths_band(0.8), SkewBand::Within);
        assert_eq!(four_fifths_band(1.0), SkewBand::Within);
        assert_eq!(four_fifths_band(1.25), SkewBand::Within);
        assert_eq!(four_fifths_band(1.26), SkewBand::Over);
    }

    #[test]
    fn ratio_bounds_contain_point_estimate_and_are_ordered() {
        let rule = RoundingRule::facebook();
        // Exact values 63_400 male / 41_200 female in a 100M/110M base.
        let exact = meas(104_600, 63_400, 41_200, [26_000, 26_000, 26_000, 26_600]);
        let rounded = meas(
            rule.apply(exact.total),
            rule.apply(63_400),
            rule.apply(41_200),
            [26_000, 26_000, 26_000, 27_000],
        );
        let base = meas(
            210_000_000,
            rule.apply(100_000_000),
            rule.apply(110_000_000),
            [52_000_000, 52_000_000, 52_000_000, 54_000_000],
        );
        let b = ratio_bounds(&rounded, &base, MALE, &rule).unwrap();
        assert!(b.lo <= b.hi);
        let point = rep_ratio_of(&rounded, &base, MALE).unwrap();
        assert!(b.lo <= point && point <= b.hi);
        // The exact-data ratio is in the interval too.
        let exact_ratio = rep_ratio(63_400, 41_200, 100_000_000, 110_000_000).unwrap();
        assert!(b.lo <= exact_ratio && exact_ratio <= b.hi);
    }

    #[test]
    fn least_skewed_projects_onto_one() {
        assert_eq!(RatioBounds { lo: 1.2, hi: 2.0 }.least_skewed(), 1.2);
        assert_eq!(RatioBounds { lo: 0.2, hi: 0.6 }.least_skewed(), 0.6);
        assert_eq!(RatioBounds { lo: 0.9, hi: 1.1 }.least_skewed(), 1.0);
    }

    /// `adcomp-infer` is dependency-free and restates the band edges;
    /// this pins the two definitions together.
    #[test]
    fn infer_band_edges_match_core() {
        assert_eq!(adcomp_infer::FOUR_FIFTHS_LOW, FOUR_FIFTHS_LOW);
        assert_eq!(adcomp_infer::FOUR_FIFTHS_HIGH, FOUR_FIFTHS_HIGH);
    }

    #[test]
    fn bounds_with_exact_rule_collapse_to_point() {
        let rule = RoundingRule::Exact;
        let base = meas(200, 100, 100, [50, 50, 50, 50]);
        let ta = meas(30, 20, 10, [3, 9, 9, 9]);
        let b = ratio_bounds(&ta, &base, MALE, &rule).unwrap();
        let point = rep_ratio_of(&ta, &base, MALE).unwrap();
        assert!((b.lo - point).abs() < 1e-12 && (b.hi - point).abs() < 1e-12);
    }
}
