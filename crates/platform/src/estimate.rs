//! Audience-size estimate rounding, reproducing each platform's ladder.
//!
//! The paper characterises the granularity of the size estimates the
//! targeting UIs return (§3, "Understanding size estimates"):
//!
//! * **Facebook** — two significant digits, minimum returned value 1 000;
//! * **Google** — one significant digit up to 100 000, two significant
//!   digits thereafter, minimum 40, `0` below the minimum;
//! * **LinkedIn** — two significant digits starting at 300, `0` below.
//!
//! The audit pipeline computes all of its metrics from these *rounded*
//! values only, exactly as the paper had to; the granularity probe
//! (`adcomp-core`) re-infers these ladders black-box as a self-check.

/// What a platform's estimate counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimateKind {
    /// Count of eligible users (Facebook, LinkedIn).
    Users,
    /// Theoretical impressions (Google Display); depends on the campaign's
    /// frequency-capping setting.
    Impressions,
}

/// A rounded audience-size estimate as shown to advertisers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SizeEstimate {
    /// Rounded value at platform scale.
    pub value: u64,
    /// Users or impressions.
    pub kind: EstimateKind,
}

/// A platform's rounding ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundingRule {
    /// Fixed number of significant digits with a floor: values below
    /// `minimum` are *clamped up* to it (Facebook's behaviour — the UI
    /// never shows less than 1 000 for a non-empty audience).
    SignificantClamped {
        /// Number of significant digits.
        digits: u32,
        /// Smallest value ever returned for a non-empty audience.
        minimum: u64,
    },
    /// Significant digits that switch at a threshold, with `0` returned
    /// below a minimum (Google: 1 digit below `switch_at`, 2 at or above;
    /// LinkedIn is expressed with equal digit counts).
    SignificantTiered {
        /// Digits below `switch_at`.
        digits_low: u32,
        /// Digits at or above `switch_at`.
        digits_high: u32,
        /// Tier boundary.
        switch_at: u64,
        /// Values below this round to 0.
        minimum: u64,
    },
    /// No rounding (ground-truth mode for ablations).
    Exact,
}

impl RoundingRule {
    /// Facebook's ladder.
    pub fn facebook() -> Self {
        RoundingRule::SignificantClamped {
            digits: 2,
            minimum: 1_000,
        }
    }

    /// Google's ladder.
    pub fn google() -> Self {
        RoundingRule::SignificantTiered {
            digits_low: 1,
            digits_high: 2,
            switch_at: 100_000,
            minimum: 40,
        }
    }

    /// LinkedIn's ladder.
    pub fn linkedin() -> Self {
        RoundingRule::SignificantTiered {
            digits_low: 2,
            digits_high: 2,
            switch_at: 300,
            minimum: 300,
        }
    }

    /// Rounds an exact platform-scale value.
    pub fn apply(&self, exact: u64) -> u64 {
        match *self {
            RoundingRule::Exact => exact,
            RoundingRule::SignificantClamped { digits, minimum } => {
                if exact == 0 {
                    0
                } else if exact < minimum {
                    minimum
                } else {
                    round_significant(exact, digits)
                }
            }
            RoundingRule::SignificantTiered {
                digits_low,
                digits_high,
                switch_at,
                minimum,
            } => {
                if exact < minimum {
                    0
                } else {
                    let digits = if exact < switch_at {
                        digits_low
                    } else {
                        digits_high
                    };
                    round_significant(exact, digits)
                }
            }
        }
    }

    /// The interval of exact values that would round to `rounded`
    /// (inclusive bounds), used by the rounding-robustness analysis: the
    /// paper confirms skew conclusions hold "even allowing for the
    /// representation ratios to take their least skewed values (subject to
    /// the rounding ranges)".
    ///
    /// Computed by binary search over [`RoundingRule::apply`], which is
    /// monotone, so the result is exact for every ladder — including the
    /// asymmetric preimages at decade and tier boundaries (e.g. Facebook's
    /// 10 000 000 collects [9 950 000, 10 499 999]).
    ///
    /// Returns `None` for values this rule can never return.
    pub fn inverse_interval(&self, rounded: u64) -> Option<(u64, u64)> {
        // A value is producible iff it is a fixed point of `apply`…
        if self.apply(rounded) != rounded {
            // …except the clamped minimum, whose bucket also swallows the
            // values below it (and 0 is always producible as "empty").
            if let RoundingRule::SignificantClamped { minimum, .. } = *self {
                if rounded == minimum {
                    // handled below
                } else {
                    return None;
                }
            } else {
                return None;
            }
        }
        // Monotone predicate boundaries via binary search.
        let first_geq = |target: u64| -> u64 {
            let (mut lo, mut hi) = (0u64, target.saturating_mul(2).max(1024));
            while self.apply(hi) < target {
                hi = hi.saturating_mul(2).max(hi + 1);
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.apply(mid) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        let lo = first_geq(rounded);
        if self.apply(lo) != rounded {
            return None;
        }
        let hi = match rounded.checked_add(1) {
            Some(next) => first_geq(next).saturating_sub(1),
            None => u64::MAX,
        };
        Some((lo, hi))
    }
}

/// Rounds to `digits` significant (decimal) digits, half away from zero.
pub fn round_significant(value: u64, digits: u32) -> u64 {
    assert!(digits > 0, "need at least one significant digit");
    if value == 0 {
        return 0;
    }
    let magnitude = (value as f64).log10().floor() as u32;
    if magnitude < digits {
        return value;
    }
    let scale = 10u64.pow(magnitude + 1 - digits);
    let half = scale / 2;
    (value + half) / scale * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_significant_basics() {
        assert_eq!(round_significant(0, 2), 0);
        assert_eq!(round_significant(7, 2), 7);
        assert_eq!(round_significant(99, 2), 99);
        assert_eq!(round_significant(123, 2), 120);
        assert_eq!(round_significant(125, 2), 130); // half away from zero
        assert_eq!(round_significant(999, 2), 1000);
        assert_eq!(round_significant(123_456, 1), 100_000);
        assert_eq!(round_significant(987_654, 2), 990_000);
        assert_eq!(round_significant(123_456, 3), 123_000);
    }

    #[test]
    fn facebook_ladder() {
        let r = RoundingRule::facebook();
        assert_eq!(r.apply(0), 0);
        assert_eq!(r.apply(1), 1_000);
        assert_eq!(r.apply(999), 1_000);
        assert_eq!(r.apply(1_000), 1_000);
        assert_eq!(r.apply(1_449), 1_400);
        assert_eq!(r.apply(1_450), 1_500);
        assert_eq!(r.apply(5_200_000), 5_200_000);
        assert_eq!(r.apply(5_234_567), 5_200_000);
    }

    #[test]
    fn google_ladder() {
        let r = RoundingRule::google();
        assert_eq!(r.apply(0), 0);
        assert_eq!(r.apply(39), 0);
        assert_eq!(r.apply(40), 40);
        assert_eq!(r.apply(44), 40);
        assert_eq!(r.apply(45), 50);
        assert_eq!(r.apply(94_999), 90_000);
        assert_eq!(r.apply(95_000), 100_000); // 1 digit below 100k rounds up
        assert_eq!(r.apply(123_456), 120_000); // 2 digits at/above 100k
        assert_eq!(r.apply(1_700_000), 1_700_000);
    }

    #[test]
    fn linkedin_ladder() {
        let r = RoundingRule::linkedin();
        assert_eq!(r.apply(299), 0);
        assert_eq!(r.apply(300), 300);
        assert_eq!(r.apply(304), 300);
        assert_eq!(r.apply(305), 310);
        assert_eq!(r.apply(46_123), 46_000);
    }

    #[test]
    fn exact_rule_is_identity() {
        let r = RoundingRule::Exact;
        for v in [0u64, 1, 999, 123_456_789] {
            assert_eq!(r.apply(v), v);
            assert_eq!(r.inverse_interval(v), Some((v, v)));
        }
    }

    #[test]
    fn inverse_interval_contains_exactly_the_preimage() {
        // Exhaustive check over a range for each ladder.
        for rule in [
            RoundingRule::facebook(),
            RoundingRule::google(),
            RoundingRule::linkedin(),
        ] {
            for exact in 0u64..5_000 {
                let rounded = rule.apply(exact);
                let (lo, hi) = rule
                    .inverse_interval(rounded)
                    .unwrap_or_else(|| panic!("{rule:?} produced unmapped {rounded}"));
                assert!(
                    (lo..=hi).contains(&exact),
                    "{rule:?}: {exact} -> {rounded}, interval [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn inverse_interval_rejects_impossible_values() {
        let fb = RoundingRule::facebook();
        assert_eq!(fb.inverse_interval(1_234), None); // 3 sig digits
        assert_eq!(fb.inverse_interval(500), None); // below minimum
        let go = RoundingRule::google();
        assert_eq!(go.inverse_interval(41), None); // 2 sig digits below switch
        assert_eq!(go.inverse_interval(125_000), None); // 3 sig digits above
    }

    #[test]
    fn interval_tightness_spot_checks() {
        let fb = RoundingRule::facebook();
        // 1_400 at two digits: scale 100, half 50 -> [1350, 1449].
        assert_eq!(fb.inverse_interval(1_400), Some((1_350, 1_449)));
        // Minimum bucket swallows everything below.
        assert_eq!(fb.inverse_interval(1_000), Some((1, 1_049)));
        let go = RoundingRule::google();
        assert_eq!(go.inverse_interval(0), Some((0, 39)));
    }

    #[test]
    #[should_panic(expected = "at least one significant digit")]
    fn zero_digits_rejected() {
        let _ = round_significant(5, 0);
    }
}
