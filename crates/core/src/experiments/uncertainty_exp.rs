//! Uncertainty-aware audits: the paper's tables re-run as an auditor
//! who does *not* hold ground-truth demographics would have to run them.
//!
//! The paper's audits (and this repo's other experiment drivers) treat
//! the platform's demographic breakdowns as exact. Real external audits
//! never have that: demographics are *inferred* (names, photos, voter
//! files) with known error rates, panels have holes that are usually
//! missing-not-at-random, and the platform's estimates are rounded. Each
//! of those turns a point representation ratio into a *set* of ratios
//! consistent with the observation. This driver measures the paper's
//! headline quantities across a family of observation scenarios —
//! oracle, inferred, inferred-with-MNAR-missingness — and reports every
//! ratio as a [`ConfidentRatio`]: a point, an interval folding all three
//! slack sources, and a four-valued verdict whose fourth value,
//! [`RatioVerdict::Indeterminate`], replaces the silent wrong answer a
//! point audit would give.
//!
//! The interval has two parts, hulled together:
//!
//! * **systematic** — interval arithmetic through Equation 1: the
//!   rounding ladder's inverse image ([`RoundingRule::inverse_interval`])
//!   on every count, the unclassified (panel-missing) mass added to the
//!   *upper* endpoint of each cell (the partial-identification "all the
//!   holes could be here" direction), and the Rogan–Gladen
//!   misclassification correction ([`deconvolve_share`]) intervalised
//!   over the per-group confusion rates;
//! * **stochastic** — a seeded, counter-driven bootstrap
//!   ([`resample_counts`]): replicate `r` is a pure function of
//!   `(seed, r)`, so the fan-out is byte-identical whether the audit's
//!   measurement queries run serially, through the scheduler, or in a
//!   recorded-then-resumed audit.
//!
//! The replicates run as a plain loop over `r`: one replicate is a
//! handful of binomial draws, far too little work to pay for a worker
//! pool. Replicate evaluation is derived data — it issues no platform
//! queries, so recorded runs replay with zero re-issued queries.
//!
//! [`RoundingRule::inverse_interval`]: adcomp_platform::RoundingRule::inverse_interval

use adcomp_delivery::{deliver, DeliveryConfig, DeliverySetup};
use adcomp_infer::{
    deconvolve_share, percentile_interval, rep_ratio_interval, resample_counts, splitmix64,
    ConfidentRatio, CountRange, Interval, RatioVerdict,
};
use adcomp_platform::{InterfaceKind, RoundingRule, SimScale};
use adcomp_population::{AttributeInference, Gender};
use adcomp_targeting::TargetingSpec;

use crate::discovery::{rank_individuals, top_compositions, Direction, MeasuredTargeting};
use crate::metrics::{four_fifths_band, measure_spec_batch, rep_ratio, SkewBand, SpecMeasurement};
use crate::mitigation::{PreflightConfig, PreflightGate, PreflightVerdict};
use crate::source::{SensitiveClass, SourceError};

use super::delivery_exp::{interface_salt, paired_campaigns, PairedAdConfig};
use super::{ExperimentConfig, ExperimentContext};

/// The interfaces the uncertainty table covers: the paper's main
/// Facebook surface and the most coarsely rounded one (LinkedIn), where
/// the rounding component of the interval does the most work.
pub const UNCERTAINTY_INTERFACES: [InterfaceKind; 2] =
    [InterfaceKind::FacebookNormal, InterfaceKind::LinkedIn];

/// One observation scenario: a name for the tables and the inference
/// model the auditor sees the population through (`None` = oracle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario label ("oracle", "inferred", "missing").
    pub name: &'static str,
    /// The observation channel; `None` is ground truth.
    pub inference: Option<AttributeInference>,
}

/// Salt separating the scenario family's inference seeds from the
/// simulation seed they are derived from.
const SCENARIO_SALT: u64 = 0x1A7E5;

/// The scenario family every uncertainty experiment runs over:
///
/// 1. **oracle** — ground-truth demographics, complete panel; only
///    rounding and resampling noise remain, and verdicts must reduce to
///    the point verdicts;
/// 2. **inferred** — a symmetric-error classifier (8% gender flips, 12%
///    age swaps), complete panel;
/// 3. **missing** — the same classifier over a panel with 25% baseline
///    missingness, missing-not-at-random along latent dimension 3.
pub fn scenario_family(seed: u64) -> [Scenario; 3] {
    let noisy = AttributeInference::noisy(seed ^ SCENARIO_SALT, 0.08, 0.12);
    [
        Scenario {
            name: "oracle",
            inference: None,
        },
        Scenario {
            name: "inferred",
            inference: Some(noisy),
        },
        Scenario {
            name: "missing",
            inference: Some(noisy.with_missingness(0.25, 3, 0.8)),
        },
    ]
}

/// Bootstrap sizing for the uncertainty table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UncertaintyConfig {
    /// Bootstrap replicates per cell.
    pub replicates: u32,
    /// Two-sided coverage of every reported interval.
    pub confidence: f64,
}

impl UncertaintyConfig {
    /// Per-scale defaults: enough replicates for a stable 95% percentile
    /// interval at paper scale, fewer (but still > 1/α) in tests.
    pub fn for_scale(scale: SimScale) -> UncertaintyConfig {
        UncertaintyConfig {
            replicates: match scale {
                SimScale::Paper => 200,
                SimScale::Test => 48,
            },
            confidence: 0.95,
        }
    }
}

/// Which audit stage a cell reports on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A discovered skewed composition (Table-1-style).
    Targeting,
    /// A delivered audience (delivery-skew audit).
    Delivery,
    /// The outcome-based mitigation gate's evidence.
    Preflight,
}

impl Stage {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Targeting => "targeting",
            Stage::Delivery => "delivery",
            Stage::Preflight => "preflight",
        }
    }
}

/// The misclassification channel of one sensitive class under one
/// inference model, collapsed to class-vs-rest: the sensitivity and
/// specificity intervals the Rogan–Gladen correction needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassChannel {
    /// `P(labelled s | truly s)`.
    pub sensitivity: Interval,
    /// `P(labelled ¬s | truly ¬s)`.
    pub specificity: Interval,
}

impl ClassChannel {
    /// A perfect classifier: observations need no correction.
    pub fn identity() -> ClassChannel {
        ClassChannel {
            sensitivity: Interval::point(1.0),
            specificity: Interval::point(1.0),
        }
    }

    /// The channel `class` is observed through under `inference`.
    ///
    /// Gender collapses exactly (two groups, so specificity is the other
    /// row's diagonal). An age bucket's false-positive rate depends on
    /// the unknown composition of "rest", so its specificity is the
    /// *range* over the other true buckets — an interval, which the
    /// correction propagates instead of guessing a mixture.
    pub fn for_class(
        inference: Option<&AttributeInference>,
        class: SensitiveClass,
    ) -> ClassChannel {
        let Some(model) = inference else {
            return ClassChannel::identity();
        };
        if model.is_oracle() {
            return ClassChannel::identity();
        }
        match class {
            SensitiveClass::Gender(g) => ClassChannel {
                sensitivity: Interval::point(model.gender_sensitivity(g)),
                specificity: Interval::point(model.gender_sensitivity(g.other())),
            },
            SensitiveClass::Age(a) => {
                let (fp_lo, fp_hi) = model.age_false_positive_range(a);
                ClassChannel {
                    sensitivity: Interval::point(model.age_confusion[a.index()][a.index()]),
                    specificity: Interval::new(1.0 - fp_hi, 1.0 - fp_lo),
                }
            }
        }
    }

    /// Whether the channel is the identity (no correction applied).
    pub fn is_identity(&self) -> bool {
        self.sensitivity == Interval::point(1.0) && self.specificity == Interval::point(1.0)
    }

    /// Interval Rogan–Gladen correction of an observed-share interval.
    fn deconvolve(&self, observed: Interval) -> Option<Interval> {
        if self.is_identity() {
            return Some(observed);
        }
        deconvolve_share(observed, self.sensitivity, self.specificity)
    }

    /// Point Rogan–Gladen correction at the channel's midpoint rates
    /// (what each bootstrap replicate applies).
    fn deconvolve_point(&self, observed: f64) -> Option<f64> {
        if self.is_identity() {
            return Some(observed);
        }
        let sens = (self.sensitivity.lo + self.sensitivity.hi) / 2.0;
        let spec = (self.specificity.lo + self.specificity.hi) / 2.0;
        let denom = sens + spec - 1.0;
        if denom <= 0.0 {
            return None;
        }
        Some(((observed - (1.0 - spec)) / denom).clamp(0.0, 1.0))
    }
}

/// One side of Equation 1 as the auditor observed it: the class and
/// complement counts, the mass the observation could not classify
/// (panel-missing users reached by the targeting), and the rounding
/// ladder the counts came through (`Exact` for delivery tallies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredPair {
    /// `|TA ∧ RAₛ|` as observed.
    pub class_count: u64,
    /// `|TA ∧ RA₋ₛ|` as observed.
    pub complement_count: u64,
    /// Reached users with no demographic label; could belong to either
    /// cell, so it widens both upper endpoints.
    pub unclassified: u64,
    /// Rounding applied to the two counts before the auditor saw them.
    pub rounding: RoundingRule,
}

impl MeasuredPair {
    /// The pair of a measured targeting for `class`, through the
    /// interface's rounding ladder. The unclassified mass is the gap
    /// between the total estimate and the demographic cells — zero at
    /// the oracle up to rounding, the missing panel otherwise.
    pub fn of(m: &SpecMeasurement, class: SensitiveClass, rounding: RoundingRule) -> MeasuredPair {
        let class_count = m.class_count(class);
        let complement_count = m.complement_count(class);
        MeasuredPair {
            class_count,
            complement_count,
            unclassified: m.total.saturating_sub(class_count + complement_count),
            rounding,
        }
    }

    /// An exact (unrounded) pair — delivery tallies, resampled counts.
    pub fn exact(class_count: u64, complement_count: u64, unclassified: u64) -> MeasuredPair {
        MeasuredPair {
            class_count,
            complement_count,
            unclassified,
            rounding: RoundingRule::Exact,
        }
    }

    /// The count ranges consistent with the observation: each cell's
    /// rounding inverse image, widened upward by the unclassified mass.
    /// `None` when a count is outside the ladder's image.
    fn ranges(&self) -> Option<(CountRange, CountRange)> {
        let range = |v: u64| {
            self.rounding
                .inverse_interval(v)
                .map(|(lo, hi)| CountRange::new(lo, hi).widen_hi(self.unclassified))
        };
        Some((range(self.class_count)?, range(self.complement_count)?))
    }

    /// The observed class share, `None` when nothing was classified.
    fn share_point(&self) -> Option<f64> {
        let classified = self.class_count + self.complement_count;
        if classified == 0 {
            return None;
        }
        Some(self.class_count as f64 / classified as f64)
    }
}

/// The interval of observed class shares consistent with the two count
/// ranges (monotone: the share grows with `s` and shrinks with `not`).
fn share_interval(s: CountRange, not: CountRange) -> Option<Interval> {
    let hi_den = s.hi.checked_add(not.lo)?;
    if hi_den == 0 {
        return None;
    }
    let lo_den = s.lo + not.hi;
    let lo = if lo_den == 0 {
        0.0
    } else {
        s.lo as f64 / lo_den as f64
    };
    Some(Interval::new(lo, s.hi as f64 / hi_den as f64))
}

/// `p / (1 - p)` over an interval of shares. `None` when the share can
/// reach 1 — the odds are then unbounded and the ratio unidentified.
fn odds(share: Interval) -> Option<Interval> {
    if share.hi >= 1.0 {
        return None;
    }
    let lo = share.lo.max(0.0);
    Some(Interval::new(lo / (1.0 - lo), share.hi / (1.0 - share.hi)))
}

/// The corrected point ratio: Equation 1 on the observed counts when
/// the channel is the identity, otherwise the odds ratio of the
/// point-deconvolved shares (the same quantity — the representation
/// ratio *is* the odds ratio of the class shares).
fn point_ratio(target: &MeasuredPair, base: &MeasuredPair, channel: &ClassChannel) -> Option<f64> {
    if channel.is_identity() {
        return rep_ratio(
            target.class_count,
            target.complement_count,
            base.class_count,
            base.complement_count,
        );
    }
    let pt = channel.deconvolve_point(target.share_point()?)?;
    let pb = channel.deconvolve_point(base.share_point()?)?;
    if pt >= 1.0 || pb >= 1.0 || pb <= 0.0 {
        return None;
    }
    Some((pt / (1.0 - pt)) / (pb / (1.0 - pb)))
}

/// The systematic interval: every ratio consistent with the rounding
/// inverse images, the unclassified mass, and the misclassification
/// rates. `None` when the ratio is unidentified (a denominator can
/// vanish, the correction's denominator touches zero, or a share can
/// reach 1).
fn systematic_interval(
    target: &MeasuredPair,
    base: &MeasuredPair,
    channel: &ClassChannel,
) -> Option<Interval> {
    let (ts, tn) = target.ranges()?;
    let (bs, bn) = base.ranges()?;
    if channel.is_identity() {
        // Direct endpoint arithmetic on Equation 1 — identical to the
        // share→odds path below (a unit test pins the equivalence), but
        // without the detour through floating-point shares.
        return rep_ratio_interval(ts, tn, bs, bn);
    }
    let pt = channel.deconvolve(share_interval(ts, tn)?)?;
    let pb = channel.deconvolve(share_interval(bs, bn)?)?;
    odds(pt)?.div(odds(pb)?)
}

/// Stream salts decorrelating the target-side and base-side resamples
/// of one cell.
const TARGET_RESAMPLE_SALT: u64 = 0x7A47;
const BASE_RESAMPLE_SALT: u64 = 0xBA5E;

/// The bootstrap sample vector of one cell: `replicates` corrected
/// ratios in replicate order, degenerate replicates dropped. Replicate
/// `r` is a pure function of `(seed, r)` via [`resample_counts`]'s
/// counter streams.
pub fn bootstrap_ratios(
    seed: u64,
    target: &MeasuredPair,
    base: &MeasuredPair,
    channel: &ClassChannel,
    replicates: u32,
) -> Vec<f64> {
    let target = [target.class_count, target.complement_count];
    let base = [base.class_count, base.complement_count];
    (0..u64::from(replicates))
        .filter_map(|r| {
            let t = resample_counts(seed ^ TARGET_RESAMPLE_SALT, r, &target);
            let b = resample_counts(seed ^ BASE_RESAMPLE_SALT, r, &base);
            // Resampling covers sampling noise only; rounding and missing
            // mass are systematic and already in the interval's other leg.
            let tp = MeasuredPair::exact(t[0], t[1], 0);
            let bp = MeasuredPair::exact(b[0], b[1], 0);
            point_ratio(&tp, &bp, channel).filter(|v| v.is_finite())
        })
        .collect()
}

/// The full uncertainty-aware ratio of one observed pair against its
/// base: corrected point, systematic interval hulled with the bootstrap
/// percentile interval, and identification status. Unidentified ratios
/// (`None` anywhere in the systematic pipeline) come back as
/// [`ConfidentRatio::unidentified`] — verdict [`RatioVerdict::Indeterminate`],
/// never a silent band.
pub fn confident_rep_ratio(
    target: &MeasuredPair,
    base: &MeasuredPair,
    channel: &ClassChannel,
    seed: u64,
    ucfg: &UncertaintyConfig,
) -> ConfidentRatio {
    let point = point_ratio(target, base, channel);
    let systematic = systematic_interval(target, base, channel);
    let (Some(point), Some(systematic)) = (point, systematic) else {
        // Report the raw observed ratio for context where it exists.
        let raw = rep_ratio(
            target.class_count,
            target.complement_count,
            base.class_count,
            base.complement_count,
        );
        return ConfidentRatio::unidentified(point.or(raw).unwrap_or(0.0), ucfg.confidence);
    };
    let samples = bootstrap_ratios(seed, target, base, channel, ucfg.replicates);
    let stochastic = percentile_interval(&samples, ucfg.confidence, point);
    ConfidentRatio::new(point, systematic.hull(stochastic), ucfg.confidence)
}

/// One row of the uncertainty table.
#[derive(Clone, Debug)]
pub struct UncertaintyCell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Audit stage.
    pub stage: Stage,
    /// Interface label.
    pub interface: String,
    /// The sensitive class audited.
    pub class: SensitiveClass,
    /// Which creative a delivery row audits (`"job"` for the loaded
    /// ad, `"baseline"` for the neutral one); `None` elsewhere.
    pub creative: Option<&'static str>,
    /// The uncertainty-aware ratio.
    pub ratio: ConfidentRatio,
    /// What a point-only audit would have concluded.
    pub point_band: SkewBand,
    /// The preflight gate's verdict (preflight rows only).
    pub gate: Option<String>,
}

impl UncertaintyCell {
    /// The interval verdict against the four-fifths band.
    pub fn verdict(&self) -> RatioVerdict {
        self.ratio.verdict()
    }
}

/// Per-cell bootstrap seed: a pure function of the experiment seed and
/// the cell's coordinates, so serial, scheduled, and recorded-then-resumed
/// runs derive identical replicate streams.
fn cell_seed(seed: u64, scenario: &str, stage: Stage, interface: &str, unit: &str) -> u64 {
    let fold = |acc: u64, s: &str| {
        s.bytes()
            .fold(acc, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(b)))
    };
    splitmix64(fold(
        fold(fold(fold(seed, scenario), stage.label()), interface),
        unit,
    ))
}

/// The uncertainty cells of one scenario's context: per interface a
/// Table-1-style targeting row (the most female-skewed discovered
/// composition) and two delivery-skew rows (the loaded job ad and its
/// neutral baseline, each delivered audience re-classified through the
/// scenario's observation channel), plus one preflight-mitigation row
/// on Facebook.
pub fn uncertainty_cells(
    ctx: &ExperimentContext,
    scenario: &Scenario,
    ucfg: &UncertaintyConfig,
) -> Result<Vec<UncertaintyCell>, SourceError> {
    let _span = adcomp_obs::trace::Tracer::global().span_with(
        "experiment:uncertainty",
        &[("scenario", scenario.name.to_string())],
    );
    let class = SensitiveClass::Gender(Gender::Female);
    let channel = ClassChannel::for_class(ctx.config.inference.as_ref(), class);
    let mut cells = Vec::new();
    let mut facebook_top: Option<MeasuredTargeting> = None;

    for kind in UNCERTAINTY_INTERFACES {
        let platform = ctx.simulation.platform(kind);
        let rounding = platform.config().rounding;
        let target = ctx.target(kind);

        // Targeting row: discovery runs on what the auditor *observes*
        // (the context's demographic queries resolve against the
        // scenario's inferred view), so the "most skewed" composition
        // itself can differ between scenarios — as it would in the field.
        let survey = ctx.survey(kind)?;
        let ranked = rank_individuals(
            survey,
            class,
            Direction::Against,
            ctx.config.discovery.min_reach,
        );
        let mut compositions = top_compositions(&target, survey, &ranked, &ctx.config.discovery)?;
        compositions.sort_by(|a, b| {
            let ra = a.ratio(&survey.base, class).unwrap_or(f64::INFINITY);
            let rb = b.ratio(&survey.base, class).unwrap_or(f64::INFINITY);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        });
        if let Some(top) = compositions.into_iter().next() {
            let pair = MeasuredPair::of(&top.measurement, class, rounding);
            let base = MeasuredPair::of(&survey.base, class, rounding);
            let seed = cell_seed(
                ctx.config.seed,
                scenario.name,
                Stage::Targeting,
                kind.label(),
                "",
            );
            let ratio = confident_rep_ratio(&pair, &base, &channel, seed, ucfg);
            cells.push(UncertaintyCell {
                scenario: scenario.name,
                stage: Stage::Targeting,
                interface: kind.label().to_string(),
                class,
                creative: None,
                point_band: four_fifths_band(ratio.point),
                ratio,
                gate: None,
            });
            if kind == InterfaceKind::FacebookNormal {
                facebook_top = Some(top);
            }
        }

        // Delivery row: the delivery run itself is a platform-side
        // process on ground truth (inference is the *auditor's*
        // limitation), but the audit of its outcome is not — the
        // delivered users are re-classified through the scenario's
        // observation channel, and panel-missing users become
        // unclassified mass.
        let spec = TargetingSpec::everyone();
        let base_measurement = measure_spec_batch(&target, std::slice::from_ref(&spec))?
            .pop()
            .expect("one spec in, one measurement out");
        let paired = PairedAdConfig::for_scale(ctx.config.scale);
        let delivery_seed = ctx.config.seed ^ interface_salt(kind);
        let setup = DeliverySetup::for_platform(platform, paired_campaigns(delivery_seed, &paired))
            .map_err(SourceError::Platform)?;
        let universe = platform.universe();
        let outcome = deliver(
            universe,
            universe.everyone(),
            &setup,
            &DeliveryConfig::new(paired.rounds, delivery_seed)
                .window(paired.window)
                .label(kind.label()),
        );
        let base = MeasuredPair::of(&base_measurement, class, rounding);
        // Two cells per interface: the loaded job ad (campaign 0) and
        // its neutral baseline (campaign 1). The baseline is the
        // degradation witness — near parity under oracle attributes,
        // it is exactly the cell a high-error channel must refuse to
        // call clean.
        for (index, creative) in [(0usize, "job"), (1, "baseline")] {
            let users = outcome.delivered_users(index, &setup);
            let delivered = match platform.inferred_view() {
                Some(view) => {
                    let f = users.intersection_len(view.gender_audience(Gender::Female));
                    let m = users.intersection_len(view.gender_audience(Gender::Male));
                    MeasuredPair::exact(f, m, users.len().saturating_sub(f + m))
                }
                None => MeasuredPair::exact(
                    users.intersection_len(universe.gender_audience(Gender::Female)),
                    users.intersection_len(universe.gender_audience(Gender::Male)),
                    0,
                ),
            };
            let seed = cell_seed(
                ctx.config.seed,
                scenario.name,
                Stage::Delivery,
                kind.label(),
                creative,
            );
            let ratio = confident_rep_ratio(&delivered, &base, &channel, seed, ucfg);
            cells.push(UncertaintyCell {
                scenario: scenario.name,
                stage: Stage::Delivery,
                interface: kind.label().to_string(),
                class,
                creative: Some(creative),
                point_band: four_fifths_band(ratio.point),
                ratio,
                gate: None,
            });
        }
    }

    // Preflight row: the outcome-based mitigation gate, fed the same
    // observed data — how well §5's proposal holds up when the platform
    // or auditor running it has inferred/missing demographics.
    if let Some(top) = facebook_top {
        let kind = InterfaceKind::FacebookNormal;
        let target = ctx.target(kind);
        let gate = PreflightGate::new(&target, PreflightConfig::default())?;
        let verdict = gate.check_measurement(&top.measurement);
        let rounding = ctx.simulation.platform(kind).config().rounding;
        let pair = MeasuredPair::of(&top.measurement, class, rounding);
        let base = MeasuredPair::of(gate.base(), class, rounding);
        let seed = cell_seed(
            ctx.config.seed,
            scenario.name,
            Stage::Preflight,
            kind.label(),
            "",
        );
        let ratio = confident_rep_ratio(&pair, &base, &channel, seed, ucfg);
        cells.push(UncertaintyCell {
            scenario: scenario.name,
            stage: Stage::Preflight,
            interface: kind.label().to_string(),
            class,
            creative: None,
            point_band: four_fifths_band(ratio.point),
            ratio,
            gate: Some(preflight_label(&verdict)),
        });
    }
    Ok(cells)
}

/// Compact gate-verdict label for the TSV.
fn preflight_label(verdict: &PreflightVerdict) -> String {
    match verdict {
        PreflightVerdict::Accept => "accept".to_string(),
        PreflightVerdict::Flag { violations } => format!("flag({})", violations.len()),
        PreflightVerdict::TooSmall { reach } => format!("too-small({reach})"),
    }
}

/// The full uncertainty table: one context per scenario (each sees the
/// same simulation seed through its own observation channel), cells in
/// scenario-family order. `make_ctx` builds each scenario's context —
/// the hook equivalence tests use to wrap scenarios in per-scenario
/// recording stores or to measure through the scheduler.
pub fn uncertainty_table_with<F>(
    base: ExperimentConfig,
    ucfg: &UncertaintyConfig,
    make_ctx: F,
) -> Result<Vec<UncertaintyCell>, SourceError>
where
    F: Fn(&Scenario, ExperimentConfig) -> ExperimentContext,
{
    let mut cells = Vec::new();
    for scenario in scenario_family(base.seed) {
        let mut config = base;
        config.inference = scenario.inference;
        let ctx = make_ctx(&scenario, config);
        cells.extend(uncertainty_cells(&ctx, &scenario, ucfg)?);
    }
    Ok(cells)
}

/// [`uncertainty_table_with`] with plain per-scenario contexts, serial
/// measurement, and per-scale bootstrap sizing.
pub fn uncertainty_table(base: ExperimentConfig) -> Result<Vec<UncertaintyCell>, SourceError> {
    uncertainty_table_with(
        base,
        &UncertaintyConfig::for_scale(base.scale),
        |_, config| ExperimentContext::new(config),
    )
}

/// TSV rendering with fixed-width numeric formatting, so byte-equality
/// of two tables is the equivalence criterion the determinism tests
/// compare.
pub fn uncertainty_tsv(cells: &[UncertaintyCell]) -> String {
    let mut out = String::from(
        "scenario\tstage\tinterface\tcreative\tclass\tpoint\tlo\thi\tconfidence\tverdict\t\
         point_band\tgate\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.2}\t{}\t{:?}\t{}\n",
            c.scenario,
            c.stage.label(),
            c.interface,
            c.creative.unwrap_or("-"),
            c.class.label(),
            c.ratio.point,
            c.ratio.interval.lo,
            c.ratio.interval.hi,
            c.ratio.confidence,
            c.verdict().label(),
            c.point_band,
            c.gate.as_deref().unwrap_or("-"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(s: u64, not: u64) -> MeasuredPair {
        MeasuredPair::exact(s, not, 0)
    }

    #[test]
    fn scenario_family_is_oracle_inferred_missing() {
        let family = scenario_family(2020);
        assert_eq!(family.map(|s| s.name), ["oracle", "inferred", "missing"]);
        assert!(family[0].inference.is_none());
        let inferred = family[1].inference.unwrap();
        assert!(!inferred.is_oracle() && inferred.missing_base <= 0.0);
        let missing = family[2].inference.unwrap();
        assert!(missing.missing_base > 0.0 && missing.mnar_scale > 0.0);
    }

    /// With an identity channel the share→odds pipeline and the direct
    /// endpoint arithmetic on Equation 1 are the same function.
    #[test]
    fn share_path_matches_direct_interval_at_identity() {
        let ts = CountRange::new(900, 1_100);
        let tn = CountRange::new(1_900, 2_100);
        let bs = CountRange::new(9_500, 10_500);
        let bn = CountRange::new(19_000, 21_000);
        let direct = rep_ratio_interval(ts, tn, bs, bn).unwrap();
        let via_shares = odds(share_interval(ts, tn).unwrap())
            .unwrap()
            .div(odds(share_interval(bs, bn).unwrap()).unwrap())
            .unwrap();
        assert!(
            (direct.lo - via_shares.lo).abs() < 1e-12,
            "{direct:?} vs {via_shares:?}"
        );
        assert!(
            (direct.hi - via_shares.hi).abs() < 1e-12,
            "{direct:?} vs {via_shares:?}"
        );
    }

    /// Acceptance: at zero inference error and zero slack the confident
    /// verdict is exactly the point verdict.
    #[test]
    fn zero_uncertainty_reduces_to_point_verdict() {
        let ucfg = UncertaintyConfig {
            replicates: 0,
            confidence: 0.95,
        };
        let channel = ClassChannel::identity();
        for (t, want) in [
            ((600u64, 1_400u64), RatioVerdict::Under),
            ((1_000, 1_000), RatioVerdict::Within),
            ((1_800, 200), RatioVerdict::Over),
        ] {
            let r = confident_rep_ratio(&pair(t.0, t.1), &pair(5_000, 5_000), &channel, 7, &ucfg);
            assert_eq!(r.verdict(), want, "{t:?}");
            assert_eq!(r.interval, Interval::point(r.point), "{t:?}");
            let band = four_fifths_band(r.point);
            let label = match band {
                SkewBand::Under => RatioVerdict::Under,
                SkewBand::Within => RatioVerdict::Within,
                SkewBand::Over => RatioVerdict::Over,
            };
            assert_eq!(r.verdict(), label, "{t:?}");
        }
    }

    /// Acceptance: at error rates approaching one half the verdict
    /// degrades to Indeterminate — never a silent band.
    #[test]
    fn high_error_degrades_to_indeterminate() {
        let ucfg = UncertaintyConfig {
            replicates: 16,
            confidence: 0.95,
        };
        // sens + spec - 1 = 0: the observation is pure noise.
        let unidentified = ClassChannel {
            sensitivity: Interval::point(0.5),
            specificity: Interval::point(0.5),
        };
        let r = confident_rep_ratio(
            &pair(600, 1_400),
            &pair(5_000, 5_000),
            &unidentified,
            7,
            &ucfg,
        );
        assert!(!r.identified);
        assert_eq!(r.verdict(), RatioVerdict::Indeterminate);

        // Near-half error: still identified, but the correction divides
        // by `sens + spec - 1 = 0.1`, amplifying resampling noise
        // tenfold — a parity-looking observation must come back
        // Indeterminate, not a silent Within.
        let noisy = ClassChannel {
            sensitivity: Interval::point(0.55),
            specificity: Interval::point(0.55),
        };
        let r = confident_rep_ratio(&pair(1_000, 1_000), &pair(5_000, 5_000), &noisy, 7, &ucfg);
        assert!((r.point - 1.0).abs() < 1e-9, "parity point survives, {r:?}");
        assert_eq!(r.verdict(), RatioVerdict::Indeterminate, "{r:?}");
    }

    /// The bootstrap fan-out yields one sample per replicate, and its
    /// interval contains the point.
    #[test]
    fn bootstrap_spreads_and_contains_point() {
        let channel = ClassChannel::identity();
        let target = pair(6_000, 14_000);
        let base = pair(50_000, 50_000);
        let samples = bootstrap_ratios(42, &target, &base, &channel, 64);
        assert_eq!(samples.len(), 64, "no degenerate replicates at this size");
        let point = point_ratio(&target, &base, &channel).unwrap();
        let interval = percentile_interval(&samples, 0.95, point);
        assert!(interval.contains(point));
        assert!(interval.width() > 0.0, "resampling must spread the ratio");
    }

    /// Unclassified mass widens the interval but never moves the point.
    #[test]
    fn missing_mass_widens_the_interval() {
        let ucfg = UncertaintyConfig {
            replicates: 0,
            confidence: 0.95,
        };
        let channel = ClassChannel::identity();
        let base = pair(5_000, 5_000);
        let complete = confident_rep_ratio(&pair(600, 1_400), &base, &channel, 7, &ucfg);
        let holey = confident_rep_ratio(
            &MeasuredPair::exact(600, 1_400, 300),
            &base,
            &channel,
            7,
            &ucfg,
        );
        assert_eq!(complete.point, holey.point);
        assert!(holey.interval.width() > complete.interval.width());
        assert!(holey.interval.contains(complete.point));
    }

    /// The gender channel collapses exactly; the age channel's
    /// specificity is an interval over the other buckets' rates.
    #[test]
    fn class_channels_match_the_inference_model() {
        let model = AttributeInference::noisy(5, 0.1, 0.3);
        let g = ClassChannel::for_class(Some(&model), SensitiveClass::Gender(Gender::Female));
        assert_eq!(g.sensitivity, Interval::point(0.9));
        assert_eq!(g.specificity, Interval::point(0.9));
        let a = ClassChannel::for_class(
            Some(&model),
            SensitiveClass::Age(adcomp_population::AgeBucket::A18_24),
        );
        assert_eq!(a.sensitivity, Interval::point(0.7));
        assert!((a.specificity.lo - 0.9).abs() < 1e-12);
        assert!(
            ClassChannel::for_class(None, SensitiveClass::Gender(Gender::Female)).is_identity()
        );
        assert!(ClassChannel::for_class(
            Some(&AttributeInference::oracle(5)),
            SensitiveClass::Gender(Gender::Female)
        )
        .is_identity());
    }
}
