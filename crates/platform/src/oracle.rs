//! Ground-truth reach oracles for bounded composition search.
//!
//! The greedy discovery of `adcomp-core` measures every sampled candidate
//! with seven estimate queries and then discards the ones below the
//! min-reach floor. Most of that work is wasted when the floor is high:
//! `|A ∧ B| ≤ min(|A|, |B|)`, so a candidate whose smallest member is
//! already below the floor can never pass, and a thresholded intersection
//! can decide the reach test without materialising the intersection or
//! touching demographics at all.
//!
//! [`ReachOracle`] is that decision surface. It answers three questions —
//! an attribute's exact audience size, the audience size a given rounded
//! estimate requires, and whether an AND of attributes reaches a size
//! threshold — and nothing else, so the search in `adcomp-core` stays
//! byte-identical to the greedy scan: the oracle only *rules out*
//! candidates that the measurement filter would rule out anyway, and
//! every surviving candidate is still measured through the ordinary
//! estimate path.
//!
//! Implementations must be **consistent with the platform's estimates**:
//! `and_reaches(attrs, min_len_for_estimate(m))` must be `true` exactly
//! when the platform's rounded estimate of `AND(attrs)` is `≥ m`. The one
//! implementation here, for every [`Platform`] whatever its backend,
//! reads the same segment audiences and the same rounding ladder
//! (`estimate_for_len`) as the estimate pipeline, so the equivalence is
//! structural. When an oracle cannot decide (unknown attribute, storage
//! failure), it must err on the side of `true` — an over-approximation
//! only costs a measurement, never an output difference; this one counts
//! each such answer in `adcomp_platform_oracle_undecidable_total`.

use adcomp_bitset::Bitset;
use adcomp_targeting::{AttributeId, AttributeResolver, EvalError};

use crate::backend::AudienceBackend;
use crate::interface::{estimate_for_len, Platform, PlatformConfig};
use crate::objective::FrequencyCap;

/// Answers reach-threshold questions about AND-compositions from ground
/// truth, without issuing advertiser-visible estimate queries.
pub trait ReachOracle: Send + Sync {
    /// Exact audience size of a single catalog attribute, or `None` for
    /// an unknown id.
    fn attribute_len(&self, id: AttributeId) -> Option<u64>;

    /// The smallest exact audience length whose advertiser-visible
    /// estimate is `≥ min_estimate` (under the platform's default
    /// request settings). Returns `n_users + 1` when no length qualifies.
    fn min_len_for_estimate(&self, min_estimate: u64) -> u64;

    /// Whether `|AND(attrs)| ≥ threshold_len`. Must return `true` when
    /// undecidable (unknown attribute, storage failure).
    fn and_reaches(&self, attrs: &[AttributeId], threshold_len: u64) -> bool;
}

/// The estimate the audit's default request
/// ([`FrequencyCap::most_restrictive`]) gets for an exact length.
fn default_estimate(config: &PlatformConfig, scale: f64, len: u64) -> u64 {
    estimate_for_len(config, scale, len, FrequencyCap::most_restrictive()).1
}

/// Smallest length in `0..=n_users` whose estimate is `≥ min_estimate`,
/// or `n_users + 1` when even the full universe falls short. Binary
/// search is exact because [`estimate_for_len`] is monotone in `len`
/// (positive scale, monotone rounding ladder).
fn min_len_reaching(config: &PlatformConfig, scale: f64, n_users: u64, min_estimate: u64) -> u64 {
    if default_estimate(config, scale, n_users) < min_estimate {
        return n_users + 1;
    }
    let (mut lo, mut hi) = (0u64, n_users);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if default_estimate(config, scale, mid) >= min_estimate {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl<B: AudienceBackend> ReachOracle for Platform<B> {
    fn attribute_len(&self, id: AttributeId) -> Option<u64> {
        (0..self.backend.n_segments())
            .map(|seg| self.backend.segment(seg).attribute_len(id).ok())
            .sum()
    }

    fn min_len_for_estimate(&self, min_estimate: u64) -> u64 {
        min_len_reaching(
            self.config(),
            self.backend.scale(),
            self.backend.n_users(),
            min_estimate,
        )
    }

    fn and_reaches(&self, attrs: &[AttributeId], threshold_len: u64) -> bool {
        scan(&self.backend, attrs, threshold_len).unwrap_or_else(|_| {
            // Undecidable: let measurement decide.
            self.metrics.oracle_undecidable.inc();
            true
        })
    }
}

/// Whether `|AND(attrs)| ≥ threshold_len`: one biggest-bound-first
/// thresholded scan over per-segment bounds. Errs when undecidable.
fn scan<B: AudienceBackend>(
    backend: &B,
    attrs: &[AttributeId],
    threshold_len: u64,
) -> Result<bool, EvalError> {
    if attrs.is_empty() {
        return Ok(backend.n_users() >= threshold_len);
    }
    // Phase 1, from sizes alone: per-segment upper bounds
    // (`|∧| ≤ min over attrs of the segment's audience size`).
    let n_segments = backend.n_segments();
    let mut bounds = Vec::with_capacity(n_segments as usize);
    let mut total_bound = 0u64;
    for seg in 0..n_segments {
        let view = backend.segment(seg);
        let mut bound = u64::MAX;
        for &id in attrs {
            bound = bound.min(view.attribute_len(id)?);
        }
        bounds.push((seg, bound));
        total_bound = total_bound.saturating_add(bound);
    }
    // A single attribute's bound is its exact size.
    if total_bound < threshold_len || attrs.len() == 1 {
        return Ok(total_bound >= threshold_len);
    }
    // Phase 2: exact per-segment counts, biggest bound first so the
    // accumulator crosses the threshold (or the residual bound falls
    // below it) as early as possible.
    bounds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut acc = 0u64;
    let mut remaining = total_bound;
    for (seg, bound) in bounds {
        if bound == 0 {
            break; // sorted: the rest are empty too
        }
        remaining -= bound;
        let view = backend.segment(seg);
        let mut audiences = Vec::with_capacity(attrs.len());
        for &id in attrs {
            audiences.push(view.attribute_audience(id)?);
        }
        let sets: Vec<&Bitset> = audiences.iter().map(|set| &**set).collect();
        if remaining == 0 {
            // No later segment can contribute: this one decides.
            let needed = threshold_len - acc;
            return Ok(match sets[..] {
                [a, b] => a.intersection_len_at_least(b, needed),
                _ => Bitset::and_not_len(&sets, &[]) >= needed,
            });
        }
        acc += Bitset::and_not_len(&sets, &[]);
        if acc >= threshold_len {
            return Ok(true);
        }
        if acc.saturating_add(remaining) < threshold_len {
            return Ok(false);
        }
    }
    Ok(acc >= threshold_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CategorySpec, SkewProfile};
    use crate::estimate::{EstimateKind, RoundingRule};
    use crate::interface::{AdPlatform, InterfaceKind};
    use crate::objective::Objective;
    use adcomp_population::{DemographicProfile, Universe, UniverseConfig};
    use adcomp_targeting::{Capabilities, FeatureId, TargetingSpec};
    use std::sync::Arc;

    fn platform(rounding: RoundingRule, scale: f64) -> AdPlatform {
        let universe = Arc::new(Universe::generate(&UniverseConfig {
            n_users: 30_000,
            seed: 11,
            scale,
            profile: DemographicProfile::balanced(),
        }));
        let catalog = Catalog::generate(
            11,
            &[CategorySpec {
                name: "Games",
                domain: "games",
                feature: FeatureId(0),
                count: 12,
                skew: SkewProfile::neutral().lean_male(0.5),
            }],
        );
        AdPlatform::new(
            PlatformConfig {
                kind: InterfaceKind::FacebookNormal,
                capabilities: Capabilities::permissive(),
                rounding,
                estimate_kind: EstimateKind::Users,
                supported_objectives: vec![Objective::Reach],
                default_objective: Objective::Reach,
            },
            universe,
            catalog,
        )
    }

    #[test]
    fn threshold_inverts_the_estimate_exactly() {
        for (rounding, scale) in [
            (RoundingRule::facebook(), 1_000.0),
            (RoundingRule::google(), 37.5),
            (RoundingRule::linkedin(), 250.0),
            (RoundingRule::Exact, 1.0),
        ] {
            let p = platform(rounding, scale);
            let n = p.universe().n_users() as u64;
            for min_estimate in [1u64, 300, 10_000, 1_000_000, u64::MAX / 2] {
                let t = p.min_len_for_estimate(min_estimate);
                // t is the exact boundary: len ≥ t ⟺ estimate ≥ min.
                if t > 0 && t <= n {
                    assert!(
                        default_estimate(p.config(), scale, t - 1) < min_estimate,
                        "{rounding:?} min {min_estimate}: t={t} not minimal"
                    );
                }
                if t <= n {
                    assert!(
                        default_estimate(p.config(), scale, t) >= min_estimate,
                        "{rounding:?} min {min_estimate}: t={t} does not reach"
                    );
                } else {
                    assert!(default_estimate(p.config(), scale, n) < min_estimate);
                }
            }
        }
    }

    #[test]
    fn and_reaches_handles_degenerate_inputs() {
        let p = platform(RoundingRule::facebook(), 1_000.0);
        let n = p.universe().n_users() as u64;
        assert!(p.and_reaches(&[], n));
        assert!(!p.and_reaches(&[], n + 1));
        let single = [AttributeId(0)];
        let len = p.attribute_len(AttributeId(0)).unwrap();
        assert!(p.and_reaches(&single, len));
        assert!(!p.and_reaches(&single, len + 1));
        // Triples count through the k-way kernel.
        let triple = [AttributeId(0), AttributeId(1), AttributeId(2)];
        let exact = p
            .exact_audience(&TargetingSpec::and_of(triple))
            .unwrap()
            .len();
        assert!(p.and_reaches(&triple, exact));
        assert!(!p.and_reaches(&triple, exact + 1));
    }

    #[test]
    fn undecidable_answers_are_true_and_counted() {
        let p = platform(RoundingRule::facebook(), 1_000.0);
        let before = p.metrics.oracle_undecidable.get();
        // Unknown attribute: undecidable, must not prune.
        assert!(p.and_reaches(&[AttributeId(0), AttributeId(9_999)], u64::MAX));
        assert_eq!(p.metrics.oracle_undecidable.get(), before + 1);
        // A decidable question leaves the counter alone.
        assert!(!p.and_reaches(&[AttributeId(0), AttributeId(1)], u64::MAX));
        assert_eq!(p.metrics.oracle_undecidable.get(), before + 1);
    }
}
