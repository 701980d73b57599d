//! Distribution summaries for the paper's box plots.
//!
//! Every figure in the paper reports a distribution of representation
//! ratios or recalls as a box plot with the median, the 25th/75th
//! percentiles (box), and the 10th/90th percentiles (whiskers).
//! [`BoxStats`] captures exactly those five numbers plus the extremes.

use crate::discovery::AuditRng;
use rand::SeedableRng;

/// Seeded stateful RNG for audit-side sampling (subset sampling, probe
/// schedules). One definition so every sampler derives its stream the
/// same way; the seed maps straight onto the generator, preserving the
/// historical draw sequences bit for bit.
pub fn seeded_rng(seed: u64) -> AuditRng {
    AuditRng::seed_from_u64(seed)
}

/// Seeded RNG for unit `unit` of the counter-partitioned stream
/// `(seed, domain)`.
///
/// The per-unit seed is [`adcomp_infer::stream_seed`] — the same
/// splitmix64 derivation the bootstrap's [`counter_rng`] streams and the
/// delivery simulator use — so any fan-out (discovery draw units,
/// bootstrap replicates, auction rounds) reproduces its slice of the
/// schedule independently of how units are sharded across workers.
pub fn unit_rng(seed: u64, domain: u64, unit: u64) -> AuditRng {
    AuditRng::seed_from_u64(adcomp_infer::stream_seed(seed, domain, unit))
}

/// Counter-driven RNG for unit `unit` of stream `(seed, domain)` — the
/// stateless flavour of [`unit_rng`], used by the bootstrap resampler
/// where byte-identity across thread counts is load-bearing.
pub fn counter_rng(seed: u64, domain: u64, unit: u64) -> adcomp_infer::CounterRng {
    adcomp_infer::CounterRng::stream(seed, domain, unit)
}

/// Linear-interpolated percentile of a sorted slice, `p ∈ [0, 100]`.
///
/// Uses the same convention as NumPy's default (`linear`): rank
/// `p/100 · (n−1)` interpolated between neighbours.
///
/// # Panics
/// Panics when `sorted` is empty or `p` outside `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The five-number summary the paper's box plots show, plus extremes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 10th percentile (lower whisker).
    pub p10: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 90th percentile (upper whisker).
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Summarises a sample (need not be sorted). Returns `None` for an
    /// empty sample.
    pub fn from_samples(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        Some(BoxStats {
            n: sorted.len(),
            min: sorted[0],
            p10: percentile(&sorted, 10.0),
            p25: percentile(&sorted, 25.0),
            median: percentile(&sorted, 50.0),
            p75: percentile(&sorted, 75.0),
            p90: percentile(&sorted, 90.0),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Tab-separated row (used by the experiment binaries' TSV output).
    pub fn tsv(&self) -> String {
        format!(
            "{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
            self.n, self.min, self.p10, self.p25, self.median, self.p75, self.p90, self.max
        )
    }

    /// Header matching [`BoxStats::tsv`].
    pub fn tsv_header() -> &'static str {
        "n\tmin\tp10\tp25\tmedian\tp75\tp90\tmax"
    }
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    BoxStats::from_samples(values).map(|b| b.median)
}

/// Fraction of samples outside `[lo, hi]` (the paper reports the share of
/// compositions violating the four-fifths band).
pub fn fraction_outside(values: &[f64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v < lo || v > hi).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 10.0) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn box_stats_orders_unsorted_input() {
        let b = BoxStats::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(b.n, 3);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 2.0);
        assert_eq!(b.max, 3.0);
        assert!(b.p10 <= b.p25 && b.p25 <= b.median);
        assert!(b.median <= b.p75 && b.p75 <= b.p90);
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(BoxStats::from_samples(&[]).is_none());
        assert!(median(&[]).is_none());
    }

    #[test]
    fn fraction_outside_band() {
        let v = [0.5, 0.9, 1.0, 1.3, 2.0];
        // 0.5 < 0.8 and 1.3, 2.0 > 1.25 → 3/5.
        assert!((fraction_outside(&v, 0.8, 1.25) - 0.6).abs() < 1e-12);
        assert_eq!(fraction_outside(&[], 0.8, 1.25), 0.0);
    }

    #[test]
    fn tsv_roundtrip_shape() {
        let b = BoxStats::from_samples(&[1.0, 2.0]).unwrap();
        let row = b.tsv();
        assert_eq!(
            row.split('\t').count(),
            BoxStats::tsv_header().split('\t').count()
        );
    }
}
