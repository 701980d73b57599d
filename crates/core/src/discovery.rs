//! Targeting-set construction: individuals, random compositions, and the
//! paper's greedy discovery of the most skewed compositions.
//!
//! The greedy method (§3, "Discovering the most skewed compositions"):
//! rank individual attributes by representation ratio for the class under
//! study, take the smallest prefix whose pairwise (triple-wise, …)
//! combinations number at least `top_k` (46 individuals → 1 035 pairs for
//! `top_k` = 1 000), randomly sample `top_k` combinations, and measure
//! them. Niche targetings (reach below 10 000) are excluded. On Google,
//! where only cross-feature ANDs have size statistics, combinations are
//! restricted to composable pairs and the prefix is grown until enough
//! composable combinations exist (footnote 9).

use std::collections::HashMap;

use adcomp_platform::ReachOracle;
use adcomp_targeting::{AttributeId, TargetingSpec};
use rand::Rng;

use crate::metrics::{measure_spec, measure_spec_batch, rep_ratio_of, SpecMeasurement};
use crate::source::{AuditTarget, SensitiveClass, SourceError};

/// Deterministic RNG used throughout the audit.
pub type AuditRng = rand::rngs::StdRng;

/// Whether a discovery looks for compositions skewed *toward* a class
/// (high ratio; the paper's "Top") or *against* it (low ratio; "Bottom").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Most skewed toward the class ("Top k-way").
    Toward,
    /// Most skewed against the class ("Bottom k-way").
    Against,
}

impl Direction {
    /// Both directions, Top first.
    pub const BOTH: [Direction; 2] = [Direction::Toward, Direction::Against];

    /// Figure label prefix.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Toward => "Top",
            Direction::Against => "Bottom",
        }
    }
}

/// A targeting together with its seven-estimate measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredTargeting {
    /// The spec (targeting-interface ids).
    pub spec: TargetingSpec,
    /// The composed individual attributes (empty for non-compositional
    /// specs).
    pub attrs: Vec<AttributeId>,
    /// The rounded measurements.
    pub measurement: SpecMeasurement,
}

impl MeasuredTargeting {
    /// Representation ratio for a class given the base measurement.
    pub fn ratio(&self, base: &SpecMeasurement, class: SensitiveClass) -> Option<f64> {
        rep_ratio_of(&self.measurement, base, class)
    }
}

/// All individual attributes of a target, measured, plus the base
/// population measurement `RA`.
#[derive(Clone, Debug)]
pub struct IndividualSurvey {
    /// One measured targeting per catalog attribute (index = id).
    pub entries: Vec<MeasuredTargeting>,
    /// Measurement of [`TargetingSpec::everyone`] — the denominators of
    /// Equation 1.
    pub base: SpecMeasurement,
}

/// Measures every individual attribute on the target (7 estimates each,
/// plus 7 for the base population) — the audit's most query-hungry step,
/// matching the paper's per-platform crawls.
pub fn survey_individuals(target: &AuditTarget) -> Result<IndividualSurvey, SourceError> {
    // One batch: the base population first, then every attribute — the
    // exact query list (and order) of the old serial loop, so query
    // accounting is unchanged and a scheduled measurement interface
    // changes nothing but wall-clock.
    let ids: Vec<AttributeId> = (0..target.targeting.catalog_len())
        .map(AttributeId)
        .collect();
    let mut specs = Vec::with_capacity(ids.len() + 1);
    specs.push(TargetingSpec::everyone());
    specs.extend(ids.iter().map(|&id| TargetingSpec::and_of([id])));
    let mut measurements = measure_spec_batch(target, &specs)?.into_iter();
    let base = measurements.next().expect("base measurement");
    let entries = ids
        .into_iter()
        .zip(specs.into_iter().skip(1))
        .zip(measurements)
        .map(|((id, spec), measurement)| MeasuredTargeting {
            spec,
            attrs: vec![id],
            measurement,
        })
        .collect();
    Ok(IndividualSurvey { entries, base })
}

/// The paper's niche-targeting floor: targetings whose total reach is
/// below 10 000 are excluded everywhere (§3). Every experiment that
/// filters by reach shares this constant.
pub const DEFAULT_MIN_REACH: u64 = 10_000;

/// Discovery parameters (paper defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiscoveryConfig {
    /// Number of compositions to discover (paper: 1 000).
    pub top_k: usize,
    /// Minimum total reach for a targeting to be considered (paper:
    /// 10 000).
    pub min_reach: u64,
    /// Composition arity (paper: 2, and 3 for the restricted-interface
    /// scaling experiment).
    pub arity: usize,
    /// RNG seed for the sampling steps.
    pub seed: u64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            top_k: 1_000,
            min_reach: DEFAULT_MIN_REACH,
            arity: 2,
            seed: 0x5EED,
        }
    }
}

/// Ranks eligible individuals most-skewed-first for `class`/`direction`.
/// Eligible = reach ≥ `min_reach` and a defined ratio. Returns indices
/// into `survey.entries`.
pub fn rank_individuals(
    survey: &IndividualSurvey,
    class: SensitiveClass,
    direction: Direction,
    min_reach: u64,
) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = survey
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.measurement.total >= min_reach)
        .filter_map(|(i, e)| e.ratio(&survey.base, class).map(|r| (i, r)))
        .collect();
    // `total_cmp` instead of a panicking `partial_cmp`: a NaN ratio (it
    // should not happen, but estimates come from outside) sorts to the
    // extreme instead of aborting a multi-hour audit mid-run.
    ranked.sort_by(|a, b| match direction {
        Direction::Toward => b.1.total_cmp(&a.1),
        Direction::Against => a.1.total_cmp(&b.1),
    });
    ranked.into_iter().map(|(i, _)| i).collect()
}

/// Composes `attrs` into an AND spec and measures it.
pub fn compose_and_measure(
    target: &AuditTarget,
    attrs: &[AttributeId],
) -> Result<MeasuredTargeting, SourceError> {
    let spec = TargetingSpec::and_of(attrs.iter().copied());
    let measurement = measure_spec(target, &spec)?;
    Ok(MeasuredTargeting {
        spec,
        attrs: attrs.to_vec(),
        measurement,
    })
}

/// Enumerates every `arity`-subset of `ids` whose members are pairwise
/// composable on the target's interface, in lexicographic position
/// order, without materializing them: `visit` sees each subset through a
/// transient stack slice.
fn visit_composable_subsets<F: FnMut(&[AttributeId])>(
    target: &AuditTarget,
    ids: &[AttributeId],
    arity: usize,
    visit: &mut F,
) {
    fn recurse<F: FnMut(&[AttributeId])>(
        target: &AuditTarget,
        ids: &[AttributeId],
        start: usize,
        arity: usize,
        stack: &mut Vec<AttributeId>,
        visit: &mut F,
    ) {
        if stack.len() == arity {
            visit(stack);
            return;
        }
        for i in start..ids.len() {
            let candidate = ids[i];
            if stack
                .iter()
                .all(|&prev| target.targeting.can_compose(prev, candidate))
            {
                stack.push(candidate);
                recurse(target, ids, i + 1, arity, stack, visit);
                stack.pop();
            }
        }
    }
    let mut stack: Vec<AttributeId> = Vec::with_capacity(arity);
    recurse(target, ids, 0, arity, &mut stack, visit);
}

/// Number of composable `arity`-subsets of `ids` (no allocation).
fn count_composable_subsets(target: &AuditTarget, ids: &[AttributeId], arity: usize) -> usize {
    let mut n = 0;
    visit_composable_subsets(target, ids, arity, &mut |_| n += 1);
    n
}

/// Samples `min(top_k, n)` composable subsets with output **identical**
/// to materializing all `n`, running `[T]::shuffle` seeded with `seed`,
/// and truncating to `top_k` — without ever materializing the full list.
///
/// The Fisher–Yates walk the shuffle performs over the virtual array of
/// enumeration indices `0..n` is replayed sparsely: only entries still
/// in motion live in a map (a swap inserts one and retires one, so the
/// map tracks displacements, not the array), and only the `top_k`
/// surviving subsets are materialized in a second enumeration pass.
/// `n` is `count_composable_subsets` of the same arguments, passed in
/// because every caller has already computed it.
fn sample_composable_subsets(
    target: &AuditTarget,
    ids: &[AttributeId],
    arity: usize,
    top_k: usize,
    seed: u64,
    n: usize,
) -> Vec<Vec<AttributeId>> {
    if n == 0 || top_k == 0 {
        return Vec::new();
    }
    let k = top_k.min(n);
    let mut rng = crate::stats::seeded_rng(seed);
    // `displaced[p]` = value currently at virtual position `p`, when it
    // differs from `p` and `p` is not yet finalized.
    let mut displaced: HashMap<usize, usize> = HashMap::new();
    // `selected[p]` = enumeration index that ends up at position `p`.
    let mut selected: Vec<usize> = (0..k).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        let vi = displaced.get(&i).copied().unwrap_or(i);
        let vj = displaced.get(&j).copied().unwrap_or(j);
        displaced.insert(j, vi);
        // Position `i` is final after this swap (later iterations only
        // touch positions < i); record it if it survives the truncate.
        displaced.remove(&i);
        if i < k {
            selected[i] = vj;
        }
    }
    selected[0] = displaced.get(&0).copied().unwrap_or(0);
    // Second pass: materialize exactly the chosen subsets, each into its
    // final slot. A permutation never selects an index twice.
    let wanted: HashMap<usize, usize> = selected
        .iter()
        .enumerate()
        .map(|(pos, &index)| (index, pos))
        .collect();
    let mut out: Vec<Vec<AttributeId>> = vec![Vec::new(); k];
    let mut counter = 0usize;
    visit_composable_subsets(target, ids, arity, &mut |subset| {
        if let Some(&pos) = wanted.get(&counter) {
            out[pos] = subset.to_vec();
        }
        counter += 1;
    });
    out
}

/// The paper's greedy discovery: combinations of the most skewed
/// individuals, sampled down to `top_k`, measured, and filtered to
/// `min_reach`. `ranked` is the most-skewed-first index list from
/// [`rank_individuals`] (possibly with a prefix removed, for the removal
/// experiment).
pub fn top_compositions(
    target: &AuditTarget,
    survey: &IndividualSurvey,
    ranked: &[usize],
    cfg: &DiscoveryConfig,
) -> Result<Vec<MeasuredTargeting>, SourceError> {
    let combos = sampled_candidates(target, survey, ranked, cfg);

    // Measure as one batch (parallelized when the target measures
    // through the scheduler; the same queries in the same order either
    // way).
    let specs: Vec<TargetingSpec> = combos
        .iter()
        .map(|attrs| TargetingSpec::and_of(attrs.iter().copied()))
        .collect();
    let measurements = measure_spec_batch(target, &specs)?;
    let mut out = Vec::with_capacity(combos.len());
    for ((attrs, spec), measurement) in combos.into_iter().zip(specs).zip(measurements) {
        if measurement.total >= cfg.min_reach {
            out.push(MeasuredTargeting {
                spec,
                attrs,
                measurement,
            });
        }
    }
    Ok(out)
}

/// The candidate schedule shared by [`top_compositions`] and
/// [`top_compositions_bounded`]: grow the ranked prefix until enough
/// composable combinations exist, then sample `top_k` of them. Both
/// searches consume exactly this list, in exactly this order — that
/// shared schedule is what makes the bounded search's output provably
/// identical to the greedy one's.
fn sampled_candidates(
    target: &AuditTarget,
    survey: &IndividualSurvey,
    ranked: &[usize],
    cfg: &DiscoveryConfig,
) -> Vec<Vec<AttributeId>> {
    assert!(cfg.arity >= 2, "compositions need arity ≥ 2");
    // Grow the prefix until enough composable combinations exist —
    // counting only; nothing is materialized until after sampling.
    let mut m = cfg.arity;
    let mut prefix: Vec<AttributeId> = Vec::new();
    let mut available = 0usize;
    while m <= ranked.len() {
        prefix = ranked[..m]
            .iter()
            .map(|&i| survey.entries[i].attrs[0])
            .collect();
        available = count_composable_subsets(target, &prefix, cfg.arity);
        if available >= cfg.top_k {
            break;
        }
        m += 1;
    }
    // Sample down to top_k (paper: 1 000 of the 1 035 pairs) — same
    // seed, same outputs as shuffling the materialized list, but memory
    // stays O(top_k).
    sample_composable_subsets(target, &prefix, cfg.arity, cfg.top_k, cfg.seed, available)
}

/// [`top_compositions`] with branch-and-bound pruning of the min-reach
/// filter: identical output, far fewer queries when most candidates are
/// niche.
///
/// The greedy scan measures all `top_k` candidates (seven estimates
/// each) and then discards those below `cfg.min_reach`. This variant
/// decides the reach test *before* measuring, using a
/// [`ReachOracle`] over the audited platform's ground truth:
///
/// 1. `threshold_len = oracle.min_len_for_estimate(cfg.min_reach)`
///    converts the rounded-estimate floor into an exact audience-length
///    floor (exact, because the estimate is monotone in the length).
/// 2. Every candidate gets the upper bound
///    `min over members of |attr|` — since `|A ∧ B| ≤ min(|A|, |B|)`,
///    a candidate bounded below `threshold_len` can never pass. The
///    candidates are visited best-bound-first, so the first bound below
///    the floor prunes the entire remaining tail without touching a
///    single bitset.
/// 3. Survivors of the bound go to the oracle as one batch
///    ([`ReachOracle::and_reaches_batch`]), still best bound first: one
///    thresholded pass over the platform's segments with two-sided early
///    exit per candidate — no materialized intersection, no demographic
///    queries.
/// 4. Only candidates the oracle confirms are measured (one estimate
///    batch, in the original sampled order), and the measured filter is
///    still applied, so even an over-approximating oracle cannot change
///    the output.
///
/// Output equality with [`top_compositions`] holds when the oracle is
/// backed by the same platform the target measures on — a *direct*
/// fault-free target (no id translation, deterministic estimates). The
/// oracle errs toward `true` when undecidable, which costs a
/// measurement, never a result.
pub fn top_compositions_bounded(
    target: &AuditTarget,
    survey: &IndividualSurvey,
    ranked: &[usize],
    cfg: &DiscoveryConfig,
    oracle: &dyn ReachOracle,
) -> Result<Vec<MeasuredTargeting>, SourceError> {
    let combos = sampled_candidates(target, survey, ranked, cfg);
    let threshold_len = oracle.min_len_for_estimate(cfg.min_reach);

    // Best-first over the min-of-members upper bound. Unknown lens get
    // an infinite bound: never pruned by the bound, decided downstream.
    let mut order: Vec<(usize, u64)> = combos
        .iter()
        .enumerate()
        .map(|(i, attrs)| {
            let bound = attrs
                .iter()
                .map(|&a| oracle.attribute_len(a).unwrap_or(u64::MAX))
                .min()
                .unwrap_or(u64::MAX);
            (i, bound)
        })
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Bounds are sorted descending: the first candidate bounded below
    // the floor prunes the whole tail. The rest go to the oracle as one
    // batch, best bound first.
    let asked: Vec<usize> = order
        .iter()
        .take_while(|&&(_, bound)| bound >= threshold_len)
        .map(|&(i, _)| i)
        .collect();
    let questions: Vec<&[AttributeId]> = asked.iter().map(|&i| &combos[i][..]).collect();
    let mut survives = vec![false; combos.len()];
    for (i, reaches) in asked
        .into_iter()
        .zip(oracle.and_reaches_batch(&questions, threshold_len))
    {
        survives[i] = reaches;
    }

    // Measure only the confirmed candidates — in sampled order, one
    // batch, with the measured filter kept as the final arbiter.
    let kept: Vec<usize> = (0..combos.len()).filter(|&i| survives[i]).collect();
    let specs: Vec<TargetingSpec> = kept
        .iter()
        .map(|&i| TargetingSpec::and_of(combos[i].iter().copied()))
        .collect();
    let measurements = measure_spec_batch(target, &specs)?;
    let mut out = Vec::with_capacity(kept.len());
    for ((i, spec), measurement) in kept.into_iter().zip(specs).zip(measurements) {
        if measurement.total >= cfg.min_reach {
            out.push(MeasuredTargeting {
                spec,
                attrs: combos[i].clone(),
                measurement,
            });
        }
    }
    Ok(out)
}

/// Draws per [`draw_unit_rng`] stream: candidate attempt `a` draws from
/// stream `a / DRAW_UNIT`, so the random-composition schedule is a pure
/// function of `(seed, attempt index)` — a distributed run shards
/// attempts into units and every shard reproduces its slice of the
/// schedule locally, no matter which endpoint serves which unit.
pub const DRAW_UNIT: usize = 64;

/// Stream domain separating candidate draws from every other
/// counter-partitioned stream in the workspace (see
/// [`crate::stats::unit_rng`]).
const DRAW_DOMAIN: u64 = 0x52A4D;

/// The RNG stream for candidate-draw unit `unit` of the
/// [`random_compositions`] schedule seeded with `seed`.
pub fn draw_unit_rng(seed: u64, unit: u64) -> AuditRng {
    crate::stats::unit_rng(seed, DRAW_DOMAIN, unit)
}

/// Random `arity`-way compositions over the whole catalog (the paper's
/// "Random 2-way" set): distinct, composable, measured; reach-filtered.
pub fn random_compositions(
    target: &AuditTarget,
    cfg: &DiscoveryConfig,
) -> Result<Vec<MeasuredTargeting>, SourceError> {
    let n = target.targeting.catalog_len();
    assert!(n as usize >= cfg.arity, "catalog smaller than arity");
    let mut rng = draw_unit_rng(cfg.seed, 0);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(cfg.top_k);
    // Bounded attempts so a tiny/incomposable catalog cannot loop forever.
    let attempt_limit = cfg.top_k * 50;
    let mut attempts = 0;
    // Rounds of draw-then-measure. Candidate drawing consumes per-unit
    // RNG streams (see [`draw_unit_rng`]) advanced purely by the attempt
    // counter — never by measurement results — so measuring a round as
    // one batch (or sharding it across endpoints) leaves the candidate
    // schedule, the dedup set, and therefore the output bit-identical to
    // the serial single-endpoint loop.
    while out.len() < cfg.top_k && attempts < attempt_limit {
        let needed = cfg.top_k - out.len();
        let mut round: Vec<Vec<AttributeId>> = Vec::with_capacity(needed);
        while round.len() < needed && attempts < attempt_limit {
            if attempts > 0 && attempts % DRAW_UNIT == 0 {
                rng = draw_unit_rng(cfg.seed, (attempts / DRAW_UNIT) as u64);
            }
            attempts += 1;
            let mut attrs: Vec<AttributeId> = Vec::with_capacity(cfg.arity);
            while attrs.len() < cfg.arity {
                let candidate = AttributeId(rng.gen_range(0..n));
                if attrs
                    .iter()
                    .all(|&prev| target.targeting.can_compose(prev, candidate))
                {
                    attrs.push(candidate);
                } else {
                    break;
                }
            }
            if attrs.len() != cfg.arity {
                continue;
            }
            attrs.sort_unstable();
            if !seen.insert(attrs.clone()) {
                continue;
            }
            round.push(attrs);
        }
        if round.is_empty() {
            break;
        }
        let specs: Vec<TargetingSpec> = round
            .iter()
            .map(|attrs| TargetingSpec::and_of(attrs.iter().copied()))
            .collect();
        let measurements = measure_spec_batch(target, &specs)?;
        for ((attrs, spec), measurement) in round.into_iter().zip(specs).zip(measurements) {
            if measurement.total >= cfg.min_reach {
                out.push(MeasuredTargeting {
                    spec,
                    attrs,
                    measurement,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{SimScale, Simulation};
    use adcomp_population::Gender;
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(41, SimScale::Test))
    }

    fn cfg(top_k: usize) -> DiscoveryConfig {
        DiscoveryConfig {
            top_k,
            min_reach: DEFAULT_MIN_REACH,
            arity: 2,
            seed: 7,
        }
    }

    const MALE: SensitiveClass = SensitiveClass::Gender(Gender::Male);

    #[test]
    fn survey_measures_every_attribute() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let survey = survey_individuals(&target).unwrap();
        assert_eq!(survey.entries.len() as u32, target.targeting.catalog_len());
        assert!(survey.base.total > 0);
        for e in &survey.entries {
            assert_eq!(e.attrs.len(), 1);
            assert!(e.measurement.total <= survey.base.total);
        }
    }

    #[test]
    fn ranking_is_monotone_and_eligible() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let survey = survey_individuals(&target).unwrap();
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, DEFAULT_MIN_REACH);
        assert!(!ranked.is_empty());
        let ratios: Vec<f64> = ranked
            .iter()
            .map(|&i| survey.entries[i].ratio(&survey.base, MALE).unwrap())
            .collect();
        assert!(
            ratios.windows(2).all(|w| w[0] >= w[1]),
            "descending for Toward"
        );
        for &i in &ranked {
            assert!(survey.entries[i].measurement.total >= DEFAULT_MIN_REACH);
        }
        let ranked_against = rank_individuals(&survey, MALE, Direction::Against, DEFAULT_MIN_REACH);
        let r2: Vec<f64> = ranked_against
            .iter()
            .map(|&i| survey.entries[i].ratio(&survey.base, MALE).unwrap())
            .collect();
        assert!(r2.windows(2).all(|w| w[0] <= w[1]), "ascending for Against");
    }

    #[test]
    fn top_compositions_beat_individuals_on_average() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let survey = survey_individuals(&target).unwrap();
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, DEFAULT_MIN_REACH);
        let top = top_compositions(&target, &survey, &ranked, &cfg(60)).unwrap();
        assert!(!top.is_empty());
        let top_median = {
            let mut r: Vec<f64> = top
                .iter()
                .filter_map(|t| t.ratio(&survey.base, MALE))
                .collect();
            r.sort_by(f64::total_cmp);
            r[r.len() / 2]
        };
        let individual_median = {
            let mut r: Vec<f64> = ranked
                .iter()
                .map(|&i| survey.entries[i].ratio(&survey.base, MALE).unwrap())
                .collect();
            r.sort_by(f64::total_cmp);
            r[r.len() / 2]
        };
        assert!(
            top_median > individual_median,
            "top compositions ({top_median:.2}) must out-skew individuals ({individual_median:.2})"
        );
        // All compositions have the configured arity and reach.
        for t in &top {
            assert_eq!(t.attrs.len(), 2);
            assert!(t.measurement.total >= DEFAULT_MIN_REACH);
        }
    }

    #[test]
    fn google_compositions_are_cross_feature() {
        let target = AuditTarget::for_platform(&sim().google, sim());
        let survey = survey_individuals(&target).unwrap();
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, DEFAULT_MIN_REACH);
        let top = top_compositions(&target, &survey, &ranked, &cfg(40)).unwrap();
        assert!(!top.is_empty(), "google must find composable pairs");
        for t in &top {
            let fa = target.targeting.attribute_feature(t.attrs[0]).unwrap();
            let fb = target.targeting.attribute_feature(t.attrs[1]).unwrap();
            assert_ne!(fa, fb, "google pairs must span features");
        }
    }

    #[test]
    fn random_compositions_are_distinct_and_valid() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let random = random_compositions(&target, &cfg(50)).unwrap();
        assert!(random.len() >= 40, "got {}", random.len());
        let mut seen = std::collections::HashSet::new();
        for t in &random {
            assert_eq!(t.attrs.len(), 2);
            assert!(seen.insert(t.attrs.clone()), "duplicate pair {:?}", t.attrs);
            assert!(t.measurement.total >= DEFAULT_MIN_REACH);
            assert!(target.targeting.check(&t.spec).is_ok());
        }
    }

    #[test]
    fn draw_unit_streams_deterministic_and_decorrelated() {
        // Same (seed, unit) → identical stream: a shard can reproduce
        // its slice of the candidate schedule in isolation.
        let draws = |seed: u64, unit: u64| -> Vec<u32> {
            let mut rng = draw_unit_rng(seed, unit);
            (0..16).map(|_| rng.gen_range(0..1_000_000)).collect()
        };
        assert_eq!(draws(7, 3), draws(7, 3));
        // Different units (and different seeds) diverge.
        assert_ne!(draws(7, 3), draws(7, 4));
        assert_ne!(draws(7, 3), draws(8, 3));
        // Consecutive base seeds must not alias consecutive units.
        assert_ne!(draws(7, 1), draws(8, 0));
    }

    #[test]
    fn random_compositions_deterministic_across_runs() {
        let target = AuditTarget::for_platform(&sim().facebook, sim());
        let a = random_compositions(&target, &cfg(50)).unwrap();
        let b = random_compositions(&target, &cfg(50)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_subsets_match_materialized_shuffle_exactly() {
        // The O(top_k) sampler must replay `[T]::shuffle` + `truncate`
        // bit-for-bit, for any top_k and arity.
        use rand::seq::SliceRandom;
        let target = AuditTarget::for_platform(&sim().google, sim());
        let ids: Vec<AttributeId> = (0..12).map(AttributeId).collect();
        for arity in [2usize, 3] {
            for top_k in [1usize, 5, 64, 10_000] {
                for seed in [0u64, 7, 0x5EED] {
                    let mut all: Vec<Vec<AttributeId>> = Vec::new();
                    visit_composable_subsets(&target, &ids, arity, &mut |s| all.push(s.to_vec()));
                    let n = all.len();
                    assert_eq!(n, count_composable_subsets(&target, &ids, arity));
                    let mut rng = crate::stats::seeded_rng(seed);
                    all.shuffle(&mut rng);
                    all.truncate(top_k);
                    assert_eq!(
                        sample_composable_subsets(&target, &ids, arity, top_k, seed, n),
                        all,
                        "arity {arity}, top_k {top_k}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn discovery_is_deterministic_in_seed() {
        let target = AuditTarget::for_platform(&sim().linkedin, sim());
        let survey = survey_individuals(&target).unwrap();
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, DEFAULT_MIN_REACH);
        let a = top_compositions(&target, &survey, &ranked, &cfg(30)).unwrap();
        let b = top_compositions(&target, &survey, &ranked, &cfg(30)).unwrap();
        let pa: Vec<_> = a.iter().map(|t| t.attrs.clone()).collect();
        let pb: Vec<_> = b.iter().map(|t| t.attrs.clone()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn bounded_search_matches_greedy_exactly() {
        // The branch-and-bound search must be byte-identical to the
        // greedy scan on direct targets, for both directions and for
        // cross-feature-only composition rules.
        for platform in [&sim().linkedin, &sim().facebook, &sim().google] {
            let target = AuditTarget::for_platform(platform, sim());
            let survey = survey_individuals(&target).unwrap();
            for direction in Direction::BOTH {
                let ranked = rank_individuals(&survey, MALE, direction, DEFAULT_MIN_REACH);
                let c = cfg(60);
                let greedy = top_compositions(&target, &survey, &ranked, &c).unwrap();
                let bounded =
                    top_compositions_bounded(&target, &survey, &ranked, &c, platform.as_ref())
                        .unwrap();
                assert_eq!(greedy, bounded, "{} {direction:?}", platform.label());
            }
        }
    }

    #[test]
    fn bounded_search_prunes_queries_under_a_high_floor() {
        use crate::metrics::QUERIES_PER_SPEC;
        // A private simulation so query counters aren't shared with
        // concurrently running tests.
        let local = Simulation::build(43, SimScale::Test);
        let platform = &local.linkedin;
        let target = AuditTarget::for_platform(platform, &local);
        let survey = survey_individuals(&target).unwrap();
        // Floor at the median individual reach: plenty of eligible
        // individuals, but most pairwise intersections fall below it.
        let mut totals: Vec<u64> = survey.entries.iter().map(|e| e.measurement.total).collect();
        totals.sort_unstable();
        let mut c = cfg(60);
        c.min_reach = totals[totals.len() / 2].max(DEFAULT_MIN_REACH);
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, c.min_reach);
        assert!(ranked.len() >= 2, "need at least one candidate pair");

        let before = platform.stats().estimates;
        let greedy = top_compositions(&target, &survey, &ranked, &c).unwrap();
        let greedy_queries = platform.stats().estimates - before;

        let before = platform.stats().estimates;
        let bounded =
            top_compositions_bounded(&target, &survey, &ranked, &c, platform.as_ref()).unwrap();
        let bounded_queries = platform.stats().estimates - before;

        assert_eq!(greedy, bounded, "pruning must not change the output");
        // The oracle is exact on a deterministic direct target, so the
        // bounded search measures precisely the passing candidates.
        assert_eq!(
            bounded_queries,
            (QUERIES_PER_SPEC * greedy.len()) as u64,
            "bounded search must measure exactly the survivors"
        );
        assert!(
            bounded_queries < greedy_queries,
            "a median floor must prune some candidates \
             (bounded {bounded_queries} vs greedy {greedy_queries})"
        );
    }

    #[test]
    fn three_way_composition_on_restricted() {
        let target = AuditTarget::for_platform(&sim().facebook_restricted, sim());
        let survey = survey_individuals(&target).unwrap();
        let ranked = rank_individuals(&survey, MALE, Direction::Toward, DEFAULT_MIN_REACH);
        let mut c = cfg(20);
        c.arity = 3;
        let top = top_compositions(&target, &survey, &ranked, &c).unwrap();
        assert!(!top.is_empty());
        for t in &top {
            assert_eq!(t.attrs.len(), 3);
            assert_eq!(t.spec.arity(), 3);
        }
    }
}
