//! Delivery-skew audit: the Imana-style paired job-ad vs neutral-ad
//! experiment (arXiv 2104.04502), separating *platform-induced delivery
//! skew* from audience composition.
//!
//! The paper audits the targeting stage; this driver audits the stage
//! after it. Two ads run simultaneously with an **identical, neutral
//! targeting spec** ([`TargetingSpec::everyone`]) against the same
//! competitor campaigns:
//!
//! * the **job ad**, whose creative the delivery optimizer has learned a
//!   demographic load for (a positive gender bias — think "lumberjack
//!   wanted", per Imana et al.'s job-ad corpus);
//! * the **baseline ad**, demographically neutral but otherwise
//!   identical (same topic loading, budget, bid, cap).
//!
//! Because both ads face the same audience, the same auctions, and the
//! same pacing, any demographic difference between their *delivered*
//! audiences is attributable to the platform's relevance scoring — not
//! to audience composition and not to the advertiser's targeting. Each
//! [`DeliveryCell`] therefore reports three representation ratios:
//!
//! 1. **targeting-stage** — the ratio of the (neutral) spec, measured
//!    through the audited estimate pipeline exactly like every other
//!    experiment (and therefore ≈ 1: the advertiser did nothing wrong);
//! 2. **delivery-stage** — the ratio of each ad's unique delivered users
//!    against the platform's measured base rates;
//! 3. **paired skew** — job over baseline, the Imana-style difference
//!    that controls for everything but the creative.
//!
//! The measurement side runs through [`ExperimentContext::target`], so
//! delivery audits inherit recording/replay, resilience and scheduling
//! unchanged; the delivery simulation itself is a pure function of
//! `(seed, campaigns, universe)` (see `adcomp-delivery`), so serial and
//! scheduled runs stay byte-identical.

use std::sync::Arc;

use adcomp_delivery::{
    deliver, Campaign, CampaignId, DeliveredTally, DeliveryConfig, DeliverySetup,
};
use adcomp_platform::{AdPlatform, InterfaceKind, SimScale};
use adcomp_population::{AttributeModel, Gender, LATENT_DIMS};
use adcomp_targeting::TargetingSpec;

use crate::metrics::{
    four_fifths_band, measure_spec_batch, rep_ratio, rep_ratio_of, SkewBand, SpecMeasurement,
};
use crate::source::{AuditTarget, SensitiveClass, SourceError};

use super::ExperimentContext;

/// The interfaces the delivery table covers. The restricted Facebook
/// interface is omitted: delivery is a platform-side process, so its row
/// would be the Facebook row behind a narrower targeting surface —
/// which is precisely Imana et al.'s point that targeting restrictions
/// do not reach the delivery stage.
pub const DELIVERY_INTERFACES: [InterfaceKind; 3] = [
    InterfaceKind::FacebookNormal,
    InterfaceKind::GoogleDisplay,
    InterfaceKind::LinkedIn,
];

/// Parameters of the paired-ad experiment.
#[derive(Clone, Copy, Debug)]
pub struct PairedAdConfig {
    /// Ad opportunities per interface.
    pub rounds: u64,
    /// Pacing-window length in rounds.
    pub window: u64,
    /// Competitor campaigns auctioned against the pair.
    pub competitors: usize,
    /// Per-user frequency cap for every campaign.
    pub frequency_cap: u32,
    /// Gender load of the job ad's creative (positive = male-leaning).
    pub gender_load: f32,
    /// Budget per campaign in micros, sized so pacing engages.
    pub budget_micros: u64,
    /// Maximum bid per impression in micros.
    pub max_bid_micros: u64,
}

impl PairedAdConfig {
    /// Per-scale defaults: enough rounds for stable delivered-audience
    /// demographics, budgets tight enough that pacing has work to do.
    pub fn for_scale(scale: SimScale) -> PairedAdConfig {
        match scale {
            SimScale::Paper => PairedAdConfig {
                rounds: 240_000,
                window: 4_000,
                competitors: 6,
                frequency_cap: 3,
                gender_load: 1.0,
                budget_micros: 960_000_000,
                max_bid_micros: 100_000,
            },
            SimScale::Test => PairedAdConfig {
                rounds: 24_000,
                window: 1_000,
                competitors: 6,
                frequency_cap: 3,
                gender_load: 1.0,
                budget_micros: 96_000_000,
                max_bid_micros: 100_000,
            },
        }
    }
}

/// One interface's paired-ad result.
#[derive(Clone, Debug)]
pub struct DeliveryCell {
    /// Interface label.
    pub target: String,
    /// The disadvantaged class the ratios are computed for.
    pub class: SensitiveClass,
    /// Representation ratio of the (neutral) targeting spec, measured
    /// through the audited estimate pipeline.
    pub targeting_ratio: f64,
    /// Representation ratio of the job ad's delivered audience.
    pub job_delivery_ratio: f64,
    /// Representation ratio of the baseline ad's delivered audience.
    pub baseline_delivery_ratio: f64,
    /// Job over baseline — the paired, composition-controlled skew.
    pub paired_skew: f64,
    /// Four-fifths verdict at the targeting stage.
    pub targeting_band: SkewBand,
    /// Four-fifths verdict at the delivery stage (job ad).
    pub delivery_band: SkewBand,
    /// Who the job ad reached.
    pub job: DeliveredTally,
    /// Who the baseline ad reached.
    pub baseline: DeliveredTally,
    /// Opportunities no campaign bid on.
    pub unfilled: u64,
    /// Pacing throttles across all campaigns.
    pub throttles: u64,
    /// Frequency-cap suppressions across all campaigns.
    pub cap_hits: u64,
    /// Digest of the full impression log and settlement state — byte
    /// identity of the delivery run itself.
    pub log_digest: u64,
}

/// Stable per-interface salt so each platform gets its own opportunity
/// stream from one experiment seed. Shared with the uncertainty
/// experiment, whose delivery rows must replay the exact same runs.
pub(crate) fn interface_salt(kind: InterfaceKind) -> u64 {
    kind.label().bytes().fold(0xD311u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    })
}

/// The paired roster: job ad (id 0), baseline ad (id 1), and
/// `cfg.competitors` background campaigns — all with the same neutral
/// targeting spec, so delivery alone decides who sees what.
pub fn paired_campaigns(seed: u64, cfg: &PairedAdConfig) -> Vec<Campaign> {
    let creative_seed = |slot: u64| seed.wrapping_mul(0x0100_0000_01B3).wrapping_add(slot);
    let base_campaign = |id: u32, name: &str, creative: AttributeModel| Campaign {
        id: CampaignId(id),
        name: name.to_string(),
        targeting: TargetingSpec::everyone(),
        creative,
        budget_micros: cfg.budget_micros,
        max_bid_micros: cfg.max_bid_micros,
        frequency_cap: cfg.frequency_cap,
    };
    let mut campaigns = vec![
        base_campaign(
            0,
            "job-ad",
            AttributeModel::new(creative_seed(0))
                .popularity(0.5)
                .loading(4, 0.8)
                .gender_bias(cfg.gender_load),
        ),
        base_campaign(
            1,
            "baseline-ad",
            AttributeModel::new(creative_seed(1))
                .popularity(0.5)
                .loading(4, 0.8),
        ),
    ];
    for i in 0..cfg.competitors {
        // Mildly varied background demand: different topic axes, small
        // alternating gender leans — the ambient auction pressure a real
        // campaign pair competes against.
        let lean = [0.3f32, -0.3, 0.15, -0.15, 0.0, 0.0][i % 6];
        let topic = 2 + (i % (LATENT_DIMS - 2));
        campaigns.push(base_campaign(
            2 + i as u32,
            &format!("competitor-{i}"),
            AttributeModel::new(creative_seed(2 + i as u64))
                .popularity(0.45)
                .loading(topic, 0.9)
                .gender_bias(lean),
        ));
    }
    campaigns
}

/// Runs the paired-ad experiment against an explicit audit target and
/// backing platform — the building block `examples/delivery_audit.rs`
/// uses to audit over a faulty wire transport.
pub fn paired_ad_cell_for(
    target: &AuditTarget,
    platform: &Arc<AdPlatform>,
    seed: u64,
    cfg: &PairedAdConfig,
) -> Result<DeliveryCell, SourceError> {
    let kind = platform.config().kind;
    let _span = adcomp_obs::trace::Tracer::global().span_with(
        "experiment:delivery",
        &[("platform", kind.label().to_string())],
    );
    let class = SensitiveClass::Gender(Gender::Female);
    let spec = TargetingSpec::everyone();

    // Targeting stage: the advertiser-visible measurement, through the
    // full audited pipeline (scheduler, recording, resilience —
    // whatever the target is wrapped in).
    let base: SpecMeasurement = measure_spec_batch(target, std::slice::from_ref(&spec))?
        .pop()
        .expect("one spec in, one measurement out");
    let targeting_ratio = rep_ratio_of(&base, &base, class).unwrap_or(1.0);

    // Delivery stage: the platform-internal simulation.
    let delivery_seed = seed ^ interface_salt(kind);
    let setup = DeliverySetup::for_platform(platform, paired_campaigns(delivery_seed, cfg))
        .map_err(SourceError::Platform)?;
    let universe = platform.universe();
    let outcome = deliver(
        universe,
        universe.everyone(),
        &setup,
        &DeliveryConfig::new(cfg.rounds, delivery_seed)
            .window(cfg.window)
            .label(kind.label()),
    );
    let job = outcome.delivered(0, &setup, universe);
    let baseline = outcome.delivered(1, &setup, universe);

    // Delivered-audience ratios against the *measured* (rounded) base
    // rates — same denominators the targeting audit uses.
    let female = Gender::Female.index();
    let male = Gender::Male.index();
    let delivery_ratio = |tally: &DeliveredTally| {
        rep_ratio(
            tally.by_gender[female],
            tally.by_gender[male],
            base.by_gender[female],
            base.by_gender[male],
        )
        .unwrap_or(1.0)
    };
    let job_delivery_ratio = delivery_ratio(&job);
    let baseline_delivery_ratio = delivery_ratio(&baseline);

    Ok(DeliveryCell {
        target: kind.label().to_string(),
        class,
        targeting_ratio,
        job_delivery_ratio,
        baseline_delivery_ratio,
        paired_skew: job_delivery_ratio / baseline_delivery_ratio,
        targeting_band: four_fifths_band(targeting_ratio),
        delivery_band: four_fifths_band(job_delivery_ratio),
        job,
        baseline,
        unfilled: outcome.unfilled,
        throttles: outcome.throttles.iter().sum(),
        cap_hits: outcome.cap_hits.iter().sum(),
        log_digest: outcome.digest(),
    })
}

/// One interface's cell through an [`ExperimentContext`]: the
/// measurement side runs on whatever target the context builds
/// (serial, scheduled, recorded, replayed).
pub fn paired_ad_cell(
    ctx: &ExperimentContext,
    kind: InterfaceKind,
) -> Result<DeliveryCell, SourceError> {
    paired_ad_cell_for(
        &ctx.target(kind),
        ctx.simulation.platform(kind),
        ctx.config.seed,
        &PairedAdConfig::for_scale(ctx.config.scale),
    )
}

/// The full paired-ad table over [`DELIVERY_INTERFACES`].
pub fn delivery_table(ctx: &ExperimentContext) -> Result<Vec<DeliveryCell>, SourceError> {
    DELIVERY_INTERFACES
        .iter()
        .map(|&kind| paired_ad_cell(ctx, kind))
        .collect()
}

/// TSV rendering. Includes the impression-log digest, so byte-equality
/// of two tables implies byte-equality of the underlying delivery runs.
pub fn delivery_table_tsv(cells: &[DeliveryCell]) -> String {
    let mut out = String::from(
        "interface\tclass\ttargeting_ratio\tjob_delivery_ratio\tbaseline_delivery_ratio\t\
         paired_skew\tjob_unique\tbaseline_unique\tunfilled\tlog_digest\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{}\t{}\t{}\t{:016x}\n",
            c.target,
            c.class.label(),
            c.targeting_ratio,
            c.job_delivery_ratio,
            c.baseline_delivery_ratio,
            c.paired_skew,
            c.job.unique_users,
            c.baseline.unique_users,
            c.unfilled,
            c.log_digest,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;
    use crate::metrics::FOUR_FIFTHS_THRESHOLD;
    use std::sync::OnceLock;

    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| ExperimentContext::new(ExperimentConfig::test(2020)))
    }

    /// ISSUE 9 acceptance: a neutral targeting spec with a
    /// demographically loaded creative passes the four-fifths test at
    /// the targeting stage and fails it at the delivery stage.
    #[test]
    fn paired_experiment_separates_targeting_from_delivery() {
        let cell = paired_ad_cell(ctx(), InterfaceKind::FacebookNormal).unwrap();
        assert!(
            cell.targeting_ratio >= FOUR_FIFTHS_THRESHOLD,
            "neutral targeting must clear the four-fifths line, got {}",
            cell.targeting_ratio
        );
        assert_eq!(cell.targeting_band, SkewBand::Within);
        assert!(
            cell.job_delivery_ratio < FOUR_FIFTHS_THRESHOLD,
            "loaded creative must push delivery under the line, got {}",
            cell.job_delivery_ratio
        );
        assert_eq!(cell.delivery_band, SkewBand::Under);
        assert!(
            cell.paired_skew < 1.0,
            "job ad must under-deliver to women relative to its own baseline, got {}",
            cell.paired_skew
        );
    }

    /// The paired design isolates the creative: the baseline ad never
    /// *under*-delivers to women, while the job ad always delivers to
    /// fewer of them than its own baseline. (Competitive spillover —
    /// the job ad winning male users' auctions — can push the baseline
    /// *above* parity, which is exactly why the paired ratio, not the
    /// absolute one, is the attribution signal.)
    #[test]
    fn baseline_ad_delivers_unskewed() {
        for kind in DELIVERY_INTERFACES {
            let cell = paired_ad_cell(ctx(), kind).unwrap();
            assert_ne!(
                four_fifths_band(cell.baseline_delivery_ratio),
                SkewBand::Under,
                "{}: baseline ratio {}",
                cell.target,
                cell.baseline_delivery_ratio
            );
            assert!(
                cell.job_delivery_ratio < cell.baseline_delivery_ratio,
                "{}: job {} vs baseline {}",
                cell.target,
                cell.job_delivery_ratio,
                cell.baseline_delivery_ratio
            );
            assert!(cell.paired_skew < 1.0);
            assert!(cell.job.unique_users > 0 && cell.baseline.unique_users > 0);
        }
    }

    #[test]
    fn table_is_deterministic_and_tsv_complete() {
        let a = delivery_table_tsv(&delivery_table(ctx()).unwrap());
        let fresh = ExperimentContext::new(ExperimentConfig::test(2020));
        let b = delivery_table_tsv(&delivery_table(&fresh).unwrap());
        assert_eq!(a, b, "same seed must reproduce the table byte-identically");
        assert_eq!(a.lines().count(), 1 + DELIVERY_INTERFACES.len());
        for kind in DELIVERY_INTERFACES {
            assert!(a.contains(kind.label()), "missing {}", kind.label());
        }
    }
}
