//! Audience overlap and union-recall estimation.
//!
//! Platforms support a logical-AND of OR-groups but **not** a logical-OR
//! of ANDs, so an advertiser (and the paper) cannot directly query the
//! union of several compositions. §4.3 therefore:
//!
//! 1. measures *pairwise overlaps* between skewed composition audiences
//!    (each intersection is itself an AND-of-ORs, hence queryable), and
//! 2. estimates the union's recall via the **inclusion–exclusion
//!    principle**, adding higher-order intersection terms until the
//!    estimate converges (footnote 13 and Appendix A).
//!
//! Overlaps are "conservatively measured by comparing the size of the
//! intersection to the size of the smaller set in the pair"
//! (footnote 12).

use crate::source::{AuditTarget, Selector, SourceError};
use adcomp_targeting::TargetingSpec;

/// Pairwise overlap of two composition audiences restricted to a class:
/// `|A ∧ B ∧ s| / min(|A ∧ s|, |B ∧ s|)` — `None` when either class
/// audience is empty (below the platform's reporting floor).
pub fn pairwise_overlap(
    target: &AuditTarget,
    a: &TargetingSpec,
    b: &TargetingSpec,
    selector: Selector,
) -> Result<Option<f64>, SourceError> {
    let size_a = target.selector_estimate(a, selector)?;
    let size_b = target.selector_estimate(b, selector)?;
    let smaller = size_a.min(size_b);
    if smaller == 0 {
        return Ok(None);
    }
    let both = match a.intersect(b) {
        Some(ab) => target.selector_estimate(&ab, selector)?,
        None => 0,
    };
    Ok(Some(both as f64 / smaller as f64))
}

/// Median pairwise overlap among the first `limit` specs (the paper uses
/// the top 100 most skewed compositions). Pairs whose smaller audience is
/// below the reporting floor are skipped.
///
/// The queries are [`pairwise_overlap`]'s for every pair, sent as two
/// batches: first both class sizes of every pair, then `a ∧ b` for each
/// pair whose smaller size is non-zero and whose demographics are
/// compatible. The set of queries is the serial loop's, and so is the
/// error: the first failure in the serial loop's order.
pub fn median_pairwise_overlap(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    selector: Selector,
    limit: usize,
) -> Result<Option<f64>, SourceError> {
    let specs = &specs[..specs.len().min(limit)];
    let pairs: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|i| (i + 1..specs.len()).map(move |j| (i, j)))
        .collect();
    let constrained: Vec<TargetingSpec> = specs
        .iter()
        .map(|spec| selector.constrain(&target.translate(spec)))
        .collect();
    let size_queries: Vec<TargetingSpec> = pairs
        .iter()
        .flat_map(|&(i, j)| [constrained[i].clone(), constrained[j].clone()])
        .collect();
    let mut sizes = target.measurement.estimate_batch(&size_queries).into_iter();
    // Per pair up to the first failing size (the serial loop stops
    // there): the smaller size, and whether `a ∧ b` is queried.
    let mut measured: Vec<(u64, bool)> = Vec::with_capacity(pairs.len());
    let mut both_queries: Vec<TargetingSpec> = Vec::new();
    let mut size_error = None;
    for &(i, j) in &pairs {
        let mut next = || sizes.next().expect("one result per query");
        let smaller = match (next(), next()) {
            (Ok(a), Ok(b)) => a.min(b),
            (Err(e), _) | (Ok(_), Err(e)) => {
                size_error = Some(e);
                break;
            }
        };
        let both = (smaller > 0)
            .then(|| specs[i].intersect(&specs[j]))
            .flatten();
        measured.push((smaller, both.is_some()));
        if let Some(ab) = both {
            both_queries.push(selector.constrain(&target.translate(&ab)));
        }
    }
    let mut boths = target.measurement.estimate_batch(&both_queries).into_iter();
    let mut overlaps = Vec::new();
    for (smaller, queried) in measured {
        if smaller == 0 {
            continue;
        }
        let both = if queried {
            boths.next().expect("one result per query")?
        } else {
            0
        };
        overlaps.push(both as f64 / smaller as f64);
    }
    if let Some(e) = size_error {
        return Err(e);
    }
    Ok(crate::stats::median(&overlaps))
}

/// Result of an inclusion–exclusion union estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct UnionEstimate {
    /// The final estimate (last partial sum, clamped at 0).
    pub recall: u64,
    /// Partial sums after each order (order 1 = sum of singles, …),
    /// recorded so callers can check convergence as the paper did
    /// ("we confirmed that the estimated recalls converged as we
    /// successively added the higher-order terms").
    pub partial_sums: Vec<i128>,
    /// Number of estimate queries spent.
    pub queries: u64,
}

impl UnionEstimate {
    /// Largest change between the last two partial sums, as a fraction of
    /// the final estimate (0 when fewer than two orders were computed).
    pub fn final_correction(&self) -> f64 {
        match self.partial_sums.len() {
            0 | 1 => 0.0,
            n => {
                let last = self.partial_sums[n - 1] as f64;
                let prev = self.partial_sums[n - 2] as f64;
                if last == 0.0 {
                    0.0
                } else {
                    ((last - prev) / last).abs()
                }
            }
        }
    }
}

/// Estimates `|A₁ ∨ … ∨ A_k ∧ class|` by inclusion–exclusion over
/// AND-queries, up to `max_order` (use `specs.len()` for the exact
/// expansion; the paper combines the top 10 compositions, i.e. up to
/// 2¹⁰ − 1 queries).
///
/// Intersections with contradictory demographics contribute zero without
/// spending a query.
pub fn union_recall(
    target: &AuditTarget,
    specs: &[TargetingSpec],
    selector: Selector,
    max_order: usize,
) -> Result<UnionEstimate, SourceError> {
    let k = specs.len();
    assert!(k > 0, "union of zero audiences");
    assert!(
        k <= 20,
        "inclusion–exclusion over {k} sets is 2^{k} queries; cap is 20"
    );
    let max_order = max_order.min(k);

    let mut partial_sums = Vec::with_capacity(max_order);
    let mut acc: i128 = 0;
    let mut queries = 0u64;
    for order in 1..=max_order {
        let sign: i128 = if order % 2 == 1 { 1 } else { -1 };
        // Collect every non-contradictory intersection of this order,
        // then measure them as one batch — the same queries, in the same
        // enumeration order, the serial loop issued one at a time; a
        // scheduled measurement interface spreads each order across its
        // endpoints.
        let mut order_queries: Vec<TargetingSpec> = Vec::new();
        let mut subset: Vec<usize> = (0..order).collect();
        loop {
            // Intersect the subset's specs.
            let mut spec = specs[subset[0]].clone();
            let mut contradictory = false;
            for &idx in &subset[1..] {
                match spec.intersect(&specs[idx]) {
                    Some(s) => spec = s,
                    None => {
                        contradictory = true;
                        break;
                    }
                }
            }
            if !contradictory {
                order_queries.push(selector.constrain(&target.translate(&spec)));
            }
            if !next_combination(&mut subset, k) {
                break;
            }
        }
        queries += order_queries.len() as u64;
        let mut order_total: i128 = 0;
        for result in target.measurement.estimate_batch(&order_queries) {
            order_total += result? as i128;
        }
        acc += sign * order_total;
        partial_sums.push(acc);
    }
    Ok(UnionEstimate {
        recall: acc.max(0) as u64,
        partial_sums,
        queries,
    })
}

/// Advances `subset` to the next `|subset|`-combination of `0..k` in
/// lexicographic order; `false` when `subset` was the last one.
fn next_combination(subset: &mut [usize], k: usize) -> bool {
    let order = subset.len();
    let mut i = order;
    while i > 0 {
        i -= 1;
        if subset[i] != i + k - order {
            subset[i] += 1;
            for j in i + 1..order {
                subset[j] = subset[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{rank_individuals, survey_individuals, Direction, DEFAULT_MIN_REACH};
    use crate::source::AuditTarget;
    use adcomp_platform::{SimScale, Simulation};
    use adcomp_population::Gender;
    use adcomp_targeting::AttributeId;
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(43, SimScale::Test))
    }

    const FEMALE: Selector = Selector::Class(crate::source::SensitiveClass::Gender(Gender::Female));

    #[test]
    fn overlap_of_identical_specs_is_one() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let spec = TargetingSpec::and_of([AttributeId(0)]);
        let o = pairwise_overlap(&target, &spec, &spec, FEMALE)
            .unwrap()
            .unwrap();
        assert!((o - 1.0).abs() < 1e-9, "overlap {o}");
    }

    #[test]
    fn overlap_is_at_most_one_and_nonnegative() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        for (a, b) in [(0u32, 1u32), (2, 3), (4, 10)] {
            let sa = TargetingSpec::and_of([AttributeId(a)]);
            let sb = TargetingSpec::and_of([AttributeId(b)]);
            if let Some(o) = pairwise_overlap(&target, &sa, &sb, FEMALE).unwrap() {
                // Rounding can push the measured intersection slightly past
                // the smaller rounded side; allow a small margin.
                assert!((0.0..=1.05).contains(&o), "overlap {o} for ({a},{b})");
            }
        }
    }

    #[test]
    fn batched_median_overlap_matches_the_serial_pair_loop() {
        use crate::source::SensitiveClass;
        use adcomp_population::AgeBucket;
        // A simulation of its own: the query counts are compared.
        let sim = Simulation::build(44, SimScale::Test);
        let not_young = Selector::Complement(SensitiveClass::Age(AgeBucket::A18_24));
        let mut specs: Vec<TargetingSpec> = (0..5)
            .map(|i| TargetingSpec::and_of([AttributeId(i), AttributeId(i + 7)]))
            .collect();
        // A niche composition, two with contradictory genders, and one
        // past the limit.
        specs.push(TargetingSpec::and_of((20..26).map(AttributeId)));
        for (id, gender) in [(3, Gender::Male), (4, Gender::Female)] {
            let spec = TargetingSpec::builder()
                .attribute(AttributeId(id))
                .gender(gender)
                .build();
            specs.push(spec);
        }
        specs.push(TargetingSpec::and_of([AttributeId(1)]));
        let limit = specs.len() - 1;
        for (platform, selector) in [
            (&sim.facebook, FEMALE),
            (&sim.facebook, not_young),
            (&sim.facebook_restricted, not_young),
            (&sim.linkedin, FEMALE),
        ] {
            let target = AuditTarget::for_platform(platform, &sim);
            let measured = || sim.facebook.stats().estimates + sim.linkedin.stats().estimates;
            let start = measured();
            let batched = median_pairwise_overlap(&target, &specs, selector, limit).unwrap();
            let batch_queries = measured() - start;
            let mut serial = Vec::new();
            for i in 0..limit {
                for j in i + 1..limit {
                    if let Some(v) =
                        pairwise_overlap(&target, &specs[i], &specs[j], selector).unwrap()
                    {
                        serial.push(v);
                    }
                }
            }
            let serial_queries = measured() - start - batch_queries;
            assert_eq!(batched, crate::stats::median(&serial), "{selector}");
            assert!(batched.is_some());
            assert_eq!(batch_queries, serial_queries, "{selector}");
        }
    }

    #[test]
    fn union_recall_two_sets_matches_manual_ie() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let a = TargetingSpec::and_of([AttributeId(0)]);
        let b = TargetingSpec::and_of([AttributeId(1)]);
        let est = union_recall(&target, &[a.clone(), b.clone()], FEMALE, 2).unwrap();
        let sa = target.selector_estimate(&a, FEMALE).unwrap();
        let sb = target.selector_estimate(&b, FEMALE).unwrap();
        let sab = target
            .selector_estimate(&a.intersect(&b).unwrap(), FEMALE)
            .unwrap();
        assert_eq!(est.recall as i128, sa as i128 + sb as i128 - sab as i128);
        assert_eq!(est.partial_sums.len(), 2);
        assert_eq!(est.queries, 3);
    }

    #[test]
    fn union_recall_converges_with_order() {
        // Union over several skewed compositions: successive partial sums
        // oscillate toward the final value (alternating-series behaviour).
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let survey = survey_individuals(&target).unwrap();
        let female_class = crate::source::SensitiveClass::Gender(Gender::Female);
        let ranked = rank_individuals(&survey, female_class, Direction::Toward, DEFAULT_MIN_REACH);
        let specs: Vec<TargetingSpec> = ranked
            .iter()
            .take(5)
            .map(|&i| survey.entries[i].spec.clone())
            .collect();
        let full = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        assert!(full.recall > 0);
        // The exact expansion's final correction is small relative to the
        // total (convergence), and partial sums bracket the final value.
        assert!(
            full.final_correction() < 0.35,
            "correction {}",
            full.final_correction()
        );
        let final_sum = *full.partial_sums.last().unwrap();
        let odd = full.partial_sums[0];
        assert!(odd >= final_sum, "order-1 overestimates the union");
    }

    #[test]
    fn union_recall_at_least_max_single_and_at_most_sum() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let specs: Vec<TargetingSpec> = (0..4)
            .map(|i| TargetingSpec::and_of([AttributeId(i)]))
            .collect();
        let singles: Vec<u64> = specs
            .iter()
            .map(|s| target.selector_estimate(s, FEMALE).unwrap())
            .collect();
        let est = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        let max_single = *singles.iter().max().unwrap();
        let sum: u64 = singles.iter().sum();
        // Rounded estimates make exact bracketing approximate; allow 5 %.
        assert!(
            est.recall as f64 >= max_single as f64 * 0.95,
            "union {} below max single {max_single}",
            est.recall
        );
        assert!(est.recall <= sum, "union {} above sum {sum}", est.recall);
    }

    #[test]
    fn combination_enumeration_counts() {
        for (k, order, expect) in [(5usize, 2usize, 10), (6, 3, 20), (4, 4, 1), (10, 1, 10)] {
            let mut subset: Vec<usize> = (0..order).collect();
            let mut n = 1;
            while super::next_combination(&mut subset, k) {
                n += 1;
            }
            assert_eq!(n, expect, "C({k},{order})");
        }
    }

    #[test]
    #[should_panic(expected = "union of zero audiences")]
    fn empty_union_panics() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let _ = union_recall(&target, &[], FEMALE, 1);
    }
}
