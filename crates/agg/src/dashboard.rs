//! The `adcomp_top` view: a deterministic terminal dashboard over
//! Prometheus text.
//!
//! [`Scrape::parse`] is a minimal parser for the exposition format this
//! workspace renders (`name{label="v",…} value` lines, `# TYPE`
//! comments) — enough to read back what `render_prometheus` wrote,
//! not a general Prometheus client. [`Dashboard`] folds successive
//! scrapes into a rendered frame: fleet rates (epochs/s, lease churn)
//! from counter deltas against the injected [`Clock`], latency
//! quantiles (p50/p95/p99) recovered from histogram buckets, and the
//! alert roll. Time is injected, so tests drive frames by hand and the
//! rendering is byte-deterministic for a given scrape sequence.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Clock, HistogramData};

/// One parsed sample: name, sorted labels, value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// Sample value (Prometheus values are floats).
    pub value: f64,
}

impl Sample {
    /// The label's value, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text document.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    /// Every sample line, in document order.
    pub samples: Vec<Sample>,
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = rest[..eq].trim_start_matches(',').to_string();
        rest = &rest[eq + 2..];
        // Values this workspace writes never contain escaped quotes.
        let end = rest.find('"')?;
        labels.push((key, rest[..end].to_string()));
        rest = &rest[end + 1..];
    }
    Some(labels)
}

impl Scrape {
    /// Parses an exposition document, skipping comments and anything
    /// malformed.
    pub fn parse(text: &str) -> Scrape {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match series.split_once('{') {
                Some((name, body)) => {
                    let body = body.strip_suffix('}').unwrap_or(body);
                    let Some(labels) = parse_labels(body) else {
                        continue;
                    };
                    (name.to_string(), labels)
                }
                None => (series.to_string(), Vec::new()),
            };
            samples.push(Sample {
                name,
                labels,
                value,
            });
        }
        Scrape { samples }
    }

    /// The value of the unlabelled (fleet) series `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Sum of every series named `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Per-series latency quantiles recovered from `<name>_bucket`
    /// cumulative counts: `(series label, p50, p95, p99, count)`,
    /// sorted by series label. The quantile rule is
    /// [`HistogramData::quantile`], the one the registry reports with.
    pub fn quantiles(&self, name: &str) -> Vec<(String, u64, u64, u64, u64)> {
        let bucket_name = format!("{name}_bucket");
        // Group by the label set minus `le`.
        let mut groups: BTreeMap<String, Vec<(Option<u64>, u64)>> = BTreeMap::new();
        for sample in self.samples.iter().filter(|s| s.name == bucket_name) {
            let le = match sample.label("le") {
                Some("+Inf") => None,
                Some(b) => match b.parse::<u64>() {
                    Ok(b) => Some(b),
                    Err(_) => continue,
                },
                None => continue,
            };
            let series: Vec<String> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            groups
                .entry(series.join(","))
                .or_default()
                .push((le, sample.value as u64));
        }
        let mut out = Vec::new();
        for (series, mut cumulative) in groups {
            cumulative.sort_by_key(|(le, _)| le.unwrap_or(u64::MAX));
            // Back to per-bucket counts, with a +Inf bucket last.
            let mut data = HistogramData::default();
            let mut seen = 0;
            for (le, cum) in cumulative {
                data.bounds.extend(le);
                data.buckets.push(cum.saturating_sub(seen));
                seen = seen.max(cum);
            }
            if data.buckets.len() == data.bounds.len() {
                data.buckets.push(0);
            }
            let count = data.count();
            if count == 0 {
                continue;
            }
            let q = |q: f64| data.quantile(q).unwrap_or(u64::MAX);
            out.push((series, q(0.50), q(0.95), q(0.99), count));
        }
        out
    }
}

/// Folds successive scrapes into rendered dashboard frames.
pub struct Dashboard {
    clock: Arc<dyn Clock>,
    last: Option<(Duration, Scrape)>,
}

/// Counter families shown as per-second rates, `(label, metric)`.
const RATES: &[(&str, &str)] = &[
    ("epochs/s", "adcomp_serve_epochs_total"),
    ("lease churn/s", "adcomp_sched_lease_expired_total"),
    ("requeues/s", "adcomp_sched_units_requeued"),
    ("pushes/s", "adcomp_agg_pushes_total"),
];

/// Histogram families shown with quantiles.
const LATENCIES: &[&str] = &["adcomp_wire_rtt_us", "adcomp_sched_unit_latency_us"];

impl Dashboard {
    /// A dashboard on `clock`; the first frame has no rates (no delta
    /// yet).
    pub fn new(clock: Arc<dyn Clock>) -> Dashboard {
        Dashboard { clock, last: None }
    }

    /// Ingests one scrape and renders the frame it implies.
    pub fn observe(&mut self, text: &str) -> String {
        use std::fmt::Write as _;
        let now = self.clock.now();
        let scrape = Scrape::parse(text);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "adcomp top — fleet @ {:>8.1}s   sources={} pushes={} alerts={}",
            now.as_secs_f64(),
            scrape.value("adcomp_agg_sources").unwrap_or(0.0) as u64,
            scrape.value("adcomp_agg_pushes_total").unwrap_or(0.0) as u64,
            scrape.value("adcomp_agg_alerts_total").unwrap_or(0.0) as u64,
        );

        let _ = writeln!(out, "── rates ──");
        for (label, metric) in RATES {
            let current = scrape.value(metric).unwrap_or(0.0);
            let rate = match &self.last {
                Some((at, prev)) if now > *at => {
                    let dt = (now - *at).as_secs_f64();
                    (current - prev.value(metric).unwrap_or(0.0)).max(0.0) / dt
                }
                _ => 0.0,
            };
            let _ = writeln!(out, "  {label:<16} {rate:>10.2}   (total {current:.0})");
        }

        let _ = writeln!(out, "── latency (µs) ──");
        let mut any = false;
        for family in LATENCIES {
            for (series, p50, p95, p99, count) in scrape.quantiles(family) {
                let tag = if series.is_empty() {
                    format!("{family} (fleet)")
                } else {
                    format!("{family}{{{series}}}")
                };
                let _ = writeln!(
                    out,
                    "  {tag:<52} p50≤{p50:<8} p95≤{p95:<8} p99≤{p99:<8} n={count}"
                );
                any = true;
            }
        }
        if !any {
            let _ = writeln!(out, "  (no latency histograms yet)");
        }

        let alerts: Vec<&Sample> = scrape
            .samples
            .iter()
            .filter(|s| s.name == "adcomp_agg_alert")
            .collect();
        if !alerts.is_empty() {
            let _ = writeln!(out, "── four-fifths alerts ──");
            for alert in alerts {
                let _ = writeln!(
                    out,
                    "  [{}] epoch {}: {} crossing(s)",
                    alert.label("source").unwrap_or("?"),
                    alert.label("epoch").unwrap_or("?"),
                    alert.value as u64,
                );
            }
        }

        self.last = Some((now, scrape));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::ManualClock;

    const FRAME_A: &str = "\
# TYPE adcomp_serve_epochs_total counter
adcomp_serve_epochs_total 4
adcomp_serve_epochs_total{source=\"a\"} 4
# TYPE adcomp_wire_rtt_us histogram
adcomp_wire_rtt_us_bucket{le=\"100\"} 6
adcomp_wire_rtt_us_bucket{le=\"1000\"} 9
adcomp_wire_rtt_us_bucket{le=\"+Inf\"} 10
adcomp_wire_rtt_us_sum 4000
adcomp_wire_rtt_us_count 10
adcomp_agg_sources 1
adcomp_agg_pushes_total 2
adcomp_agg_alerts_total 1
adcomp_agg_alert{source=\"a\",epoch=\"3\"} 2
";

    const FRAME_B: &str = "\
adcomp_serve_epochs_total 10
adcomp_agg_sources 1
adcomp_agg_pushes_total 4
adcomp_agg_alerts_total 1
";

    #[test]
    fn scrape_parses_labels_and_values() {
        let scrape = Scrape::parse(FRAME_A);
        assert_eq!(scrape.value("adcomp_serve_epochs_total"), Some(4.0));
        assert_eq!(scrape.sum("adcomp_serve_epochs_total"), 8.0);
        let alert = scrape
            .samples
            .iter()
            .find(|s| s.name == "adcomp_agg_alert")
            .unwrap();
        assert_eq!(alert.label("source"), Some("a"));
        assert_eq!(alert.label("epoch"), Some("3"));
    }

    #[test]
    fn quantiles_come_from_buckets() {
        let scrape = Scrape::parse(FRAME_A);
        let q = scrape.quantiles("adcomp_wire_rtt_us");
        assert_eq!(q.len(), 1);
        let (series, p50, p95, p99, count) = &q[0];
        assert_eq!(series, "");
        assert_eq!(*p50, 100); // rank 5 of 10 falls in the first bucket
        assert_eq!(*p95, 1000); // rank 9.5 needs the +Inf bucket? no: cum 9 < 9.5 → +Inf → top finite
        assert_eq!(*p99, 1000);
        assert_eq!(*count, 10);
    }

    #[test]
    fn frames_are_deterministic_and_rates_use_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut dash = Dashboard::new(clock.clone());
        let first = dash.observe(FRAME_A);
        assert!(first.contains("epochs/s"), "{first}");
        assert!(first.contains("p50≤100"), "{first}");
        assert!(first.contains("[a] epoch 3: 2 crossing(s)"), "{first}");

        clock.advance(Duration::from_secs(2));
        let second = dash.observe(FRAME_B);
        // (10 - 4) epochs over 2 s.
        assert!(second.contains("3.00"), "{second}");

        // Same scrape sequence, same clock → byte-identical frames.
        let clock2 = Arc::new(ManualClock::new());
        let mut dash2 = Dashboard::new(clock2.clone());
        let first2 = dash2.observe(FRAME_A);
        clock2.advance(Duration::from_secs(2));
        let second2 = dash2.observe(FRAME_B);
        assert_eq!(first, first2);
        assert_eq!(second, second2);
    }
}
