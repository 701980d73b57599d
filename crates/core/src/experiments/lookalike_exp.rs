//! Lookalike/Special-Ad-Audience skew experiment (extension of §2.2).
//!
//! For each interface, take the most gender-skewed attribute audiences
//! as advertiser seeds, expand each with a regular lookalike and with
//! the Special-Ad-Audience (no-demographic-features) variant, and
//! measure the ground-truth representation ratio of all three sets. The
//! question mirrors the paper's thesis: does removing demographic
//! *features* fix demographic *outcomes*? (No: behavioural similarity
//! leaks the seed's demographics.)

use adcomp_platform::{AdPlatform, InterfaceKind, LookalikeConfig};
use adcomp_population::Gender;

use adcomp_bitset::Bitset;

use crate::metrics::rep_ratio;
use crate::source::SourceError;

use super::ExperimentContext;

/// One seed's expansion outcome.
#[derive(Clone, Debug)]
pub struct LookalikeRow {
    /// Interface label.
    pub target: String,
    /// Name of the seed attribute.
    pub seed_name: String,
    /// Ground-truth male representation ratio of the seed audience.
    pub seed_ratio: f64,
    /// Ratio of the regular lookalike.
    pub lookalike_ratio: f64,
    /// Ratio of the Special Ad Audience expansion.
    pub saa_ratio: f64,
    /// Seed size (simulated users).
    pub seed_size: u64,
}

impl LookalikeRow {
    /// TSV row.
    pub fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
            self.target,
            self.seed_name,
            self.seed_size,
            self.seed_ratio,
            self.lookalike_ratio,
            self.saa_ratio
        )
    }

    /// TSV header.
    pub fn tsv_header() -> &'static str {
        "interface\tseed\tseed_size\tseed_ratio\tlookalike_ratio\tsaa_ratio"
    }
}

/// Ground-truth male ratio of an arbitrary audience on a platform.
fn male_ratio(platform: &AdPlatform, set: &Bitset) -> Option<f64> {
    let u = platform.universe();
    let males = u.gender_audience(Gender::Male);
    let females = u.gender_audience(Gender::Female);
    rep_ratio(
        set.intersection_len(males),
        set.intersection_len(females),
        males.len(),
        females.len(),
    )
}

/// Runs the experiment on one interface with its `seeds` most male-skewed
/// attribute audiences.
pub fn lookalike_for(
    ctx: &ExperimentContext,
    kind: InterfaceKind,
    seeds: usize,
) -> Result<Vec<LookalikeRow>, SourceError> {
    let platform: &AdPlatform = ctx.simulation.platform(kind);
    // Rank attribute audiences by ground-truth male ratio (this is an
    // advertiser's seed choice, not an estimate-API query).
    let mut candidates: Vec<(usize, f64)> = (0..platform.catalog().len())
        .filter_map(|idx| {
            let audience = platform.attribute_audience_raw(idx)?;
            if audience.len() < adcomp_platform::MIN_SEED * 2 {
                return None;
            }
            Some((idx, male_ratio(platform, audience)?))
        })
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    candidates.truncate(seeds);

    let mut rows = Vec::with_capacity(candidates.len());
    for (idx, seed_ratio) in candidates {
        let seed = platform
            .attribute_audience_raw(idx)
            .expect("ranked audience")
            .clone();
        let regular = platform
            .lookalike(&seed, &LookalikeConfig::default())
            .expect("seed size was checked");
        let saa = platform
            .lookalike(&seed, &LookalikeConfig::special_ad_audience())
            .expect("seed size was checked");
        rows.push(LookalikeRow {
            target: platform.label().to_string(),
            seed_name: platform
                .catalog()
                .get(adcomp_targeting::AttributeId(idx as u32))
                .expect("catalog entry")
                .name
                .clone(),
            seed_ratio,
            // A perfectly single-gender expansion has an undefined ratio
            // (zero complement); report it as infinite skew.
            lookalike_ratio: male_ratio(platform, &regular).unwrap_or(f64::INFINITY),
            saa_ratio: male_ratio(platform, &saa).unwrap_or(f64::INFINITY),
            seed_size: seed.len(),
        });
    }
    Ok(rows)
}

/// The full experiment: top seeds on every interface.
pub fn lookalike_experiment(
    ctx: &ExperimentContext,
    seeds_per_interface: usize,
) -> Result<Vec<LookalikeRow>, SourceError> {
    let _span = adcomp_obs::trace::Tracer::global().span("experiment:lookalike");
    let mut rows = Vec::new();
    for kind in super::INTERFACE_ORDER {
        rows.extend(lookalike_for(ctx, kind, seeds_per_interface)?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ExperimentConfig, ExperimentContext};
    use std::sync::OnceLock;

    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| ExperimentContext::new(ExperimentConfig::test(67)))
    }

    #[test]
    fn saa_reduces_but_rarely_fixes_skew() {
        let rows = lookalike_for(ctx(), InterfaceKind::FacebookNormal, 4).unwrap();
        assert_eq!(rows.len(), 4);
        let mut still_violating = 0;
        for r in &rows {
            assert!(r.seed_ratio >= 1.0, "seeds are male-skewed");
            assert!(
                r.saa_ratio <= r.lookalike_ratio + 1e-9,
                "adjustment must not add skew: {r:?}"
            );
            if r.saa_ratio > crate::metrics::FOUR_FIFTHS_HIGH {
                still_violating += 1;
            }
        }
        assert!(
            still_violating >= rows.len() / 2,
            "behavioural leakage should keep most SAAs skewed ({still_violating}/{})",
            rows.len()
        );
    }

    #[test]
    fn experiment_covers_all_interfaces() {
        let rows = lookalike_experiment(ctx(), 2).unwrap();
        let interfaces: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.target.as_str()).collect();
        assert_eq!(interfaces.len(), 4);
        let cols = LookalikeRow::tsv_header().split('\t').count();
        for r in &rows {
            assert_eq!(r.tsv().split('\t').count(), cols);
        }
    }
}
