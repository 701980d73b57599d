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
//! threshold, one candidate or a batch at a time — and nothing else, so
//! the search in `adcomp-core` stays byte-identical to the greedy scan:
//! the oracle only *rules out* candidates that the measurement filter
//! would rule out anyway, and every surviving candidate is still
//! measured through the ordinary estimate path.
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
//! each such answer in `adcomp_platform_oracle_undecidable_total`, one
//! per undecidable candidate.
//!
//! The platform answers a whole batch with one scan (`and_reaches` is
//! the one-candidate batch). Per-segment size bounds from the manifest
//! decide most candidates without I/O. The rest are counted one segment
//! at a time: candidates are sorted by their attributes, so those sharing
//! a lead attribute sit together, each lead is resolved once per segment
//! and every pair partner is counted against it in one
//! [`Bitset::intersection_lens`] call (longer ANDs go through
//! [`Bitset::and_not_len`]). A candidate leaves the scan as soon as its
//! count reaches the threshold or its count plus its remaining bound
//! cannot.

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

    /// [`and_reaches`](ReachOracle::and_reaches) for every combo of a
    /// batch, answers in batch order. The provided body asks one combo
    /// at a time; an oracle that can share work across combos (one scan
    /// for the whole batch) overrides it.
    fn and_reaches_batch(&self, combos: &[&[AttributeId]], threshold_len: u64) -> Vec<bool> {
        combos
            .iter()
            .map(|attrs| self.and_reaches(attrs, threshold_len))
            .collect()
    }
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
        self.and_reaches_batch(&[attrs], threshold_len)[0]
    }

    fn and_reaches_batch(&self, combos: &[&[AttributeId]], threshold_len: u64) -> Vec<bool> {
        scan(&self.backend, combos, threshold_len)
            .into_iter()
            .map(|answer| {
                answer.unwrap_or_else(|_| {
                    // Undecidable: let measurement decide.
                    self.metrics.oracle_undecidable.inc();
                    true
                })
            })
            .collect()
    }
}

/// A candidate the per-segment bounds left open.
struct Open {
    /// Index of the candidate in the batch.
    slot: usize,
    /// Its attributes, sorted and deduplicated: the lead is `attrs[0]`.
    attrs: Vec<AttributeId>,
    /// Per segment, `min over attrs` of the segment's audience sizes.
    bounds: Vec<u64>,
    /// Exact count over the segments counted so far.
    acc: u64,
    /// Bound over the segments not counted yet.
    remaining: u64,
}

/// Whether `|AND(combo)| ≥ threshold_len`, for every combo of a batch:
/// per-segment bounds first, then one thresholded pass over the
/// segments. Errs for a combo that is undecidable.
fn scan<B: AudienceBackend>(
    backend: &B,
    combos: &[&[AttributeId]],
    threshold_len: u64,
) -> Vec<Result<bool, EvalError>> {
    let mut answers = vec![Ok(false); combos.len()];
    // Phase 1, from sizes alone: `|∧| ≤ min over attrs` per segment.
    let mut open = Vec::new();
    for (slot, combo) in combos.iter().enumerate() {
        let mut attrs = combo.to_vec();
        attrs.sort_unstable();
        attrs.dedup();
        if attrs.is_empty() {
            answers[slot] = Ok(backend.n_users() >= threshold_len);
            continue;
        }
        let bounds = (0..backend.n_segments())
            .map(|seg| {
                let view = backend.segment(seg);
                attrs.iter().try_fold(
                    u64::MAX,
                    |bound, &id| Ok(bound.min(view.attribute_len(id)?)),
                )
            })
            .collect::<Result<Vec<u64>, EvalError>>();
        let bounds = match bounds {
            Ok(bounds) => bounds,
            Err(e) => {
                answers[slot] = Err(e);
                continue;
            }
        };
        let total = bounds.iter().fold(0u64, |sum, &b| sum.saturating_add(b));
        // A single attribute's bound is its exact size, and every AND
        // reaches a zero threshold.
        if total < threshold_len || attrs.len() == 1 || threshold_len == 0 {
            answers[slot] = Ok(total >= threshold_len);
        } else {
            open.push(Open {
                slot,
                attrs,
                bounds,
                acc: 0,
                remaining: total,
            });
        }
    }
    // Phase 2: exact counts, one segment at a time for the whole batch.
    // Candidates sharing a lead sit together, so each lead is resolved
    // once per segment and every pair partner is counted against it in
    // one kernel call; a candidate leaves as soon as its count reaches
    // the threshold or its count plus the remaining bound cannot.
    open.sort_by(|a, b| a.attrs.cmp(&b.attrs));
    for seg in 0..backend.n_segments() {
        if open.is_empty() {
            break;
        }
        let view = backend.segment(seg);
        let mut counts = Vec::with_capacity(open.len());
        for group in open.chunk_by(|a, b| a.attrs[0] == b.attrs[0]) {
            counts.extend(segment_counts(&view, seg as usize, group));
        }
        let mut counts = counts.into_iter();
        open.retain_mut(|cand| {
            let bound = cand.bounds[seg as usize];
            let verdict = match counts.next().expect("one count per open candidate") {
                Err(e) => Some(Err(e)),
                Ok(_) if bound == 0 => None,
                Ok(n) => {
                    cand.remaining -= bound;
                    cand.acc += n;
                    if cand.acc >= threshold_len {
                        Some(Ok(true))
                    } else if cand.acc + cand.remaining < threshold_len {
                        Some(Ok(false))
                    } else {
                        None
                    }
                }
            };
            match verdict {
                Some(answer) => {
                    answers[cand.slot] = answer;
                    false
                }
                None => true,
            }
        });
    }
    // Every bound is spent after the last segment, so nothing is left
    // open: `acc + 0 < threshold` decided whatever had not passed.
    debug_assert!(open.is_empty());
    answers
}

/// One segment's exact counts for a group of open candidates sharing a
/// lead (`0` where the candidate's bound there is `0`): pairs through one
/// [`Bitset::intersection_lens`] call against the lead, longer ANDs
/// through [`Bitset::and_not_len`].
fn segment_counts(
    view: &impl AttributeResolver,
    seg: usize,
    group: &[Open],
) -> Vec<Result<u64, EvalError>> {
    let mut counts: Vec<Result<u64, EvalError>> = vec![Ok(0); group.len()];
    let live: Vec<usize> = (0..group.len())
        .filter(|&k| group[k].bounds[seg] > 0)
        .collect();
    if live.is_empty() {
        return counts;
    }
    let lead = match view.attribute_audience(group[0].attrs[0]) {
        Ok(lead) => lead,
        Err(e) => {
            for &k in &live {
                counts[k] = Err(e.clone());
            }
            return counts;
        }
    };
    let mut pairs = Vec::new();
    let mut partners = Vec::new();
    for &k in &live {
        let rest = &group[k].attrs[1..];
        let sets = rest
            .iter()
            .map(|&id| view.attribute_audience(id))
            .collect::<Result<Vec<_>, EvalError>>();
        match sets {
            Err(e) => counts[k] = Err(e),
            Ok(mut sets) if sets.len() == 1 => {
                pairs.push(k);
                partners.push(sets.pop().expect("one partner"));
            }
            Ok(sets) => {
                let mut all: Vec<&Bitset> = vec![&lead];
                all.extend(sets.iter().map(|set| &**set));
                counts[k] = Ok(Bitset::and_not_len(&all, &[]));
            }
        }
    }
    let partners: Vec<&Bitset> = partners.iter().map(|set| &**set).collect();
    for (k, n) in pairs.into_iter().zip(lead.intersection_lens(&partners)) {
        counts[k] = Ok(n);
    }
    counts
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
