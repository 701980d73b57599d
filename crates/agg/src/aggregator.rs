//! Fleet state: per-source frames, merged totals, alert dedup.
//!
//! An [`Aggregator`] is the in-memory model behind the `adcomp_agg`
//! daemon. Ingest is last-wins per source for metric frames (a frame is
//! full state, so replacing an older frame can never double-count),
//! exactly-once per `(source, epoch)` for drift alerts (a daemon that
//! dies between journaling an alert and pushing it re-pushes on resume;
//! the dedup set here is what turns that at-least-once delivery into
//! exactly-once observation), and a bounded ring for trace events.
//!
//! Rendering produces one Prometheus text document with every series
//! twice: fleet-wide (the sum / bucketwise merge across sources) without
//! a `source` label, then per source with one — so a dashboard can show
//! both the fleet and any straggler from one scrape. Each block is the
//! `adcomp-obs` [`Exposition`] of one snapshot, the renderer a process
//! uses for its own registry.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use adcomp_obs::lock;
use adcomp_obs::metrics::{Exposition, MetricKey, MetricValue, Snapshot};
use adcomp_obs::trace::TraceEvent;
use adcomp_obs::RunReport;

use crate::telemetry::{AlertFrame, Telemetry};

/// A drift alert attributed to the source that pushed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetAlert {
    /// Pushing daemon's source name.
    pub source: String,
    /// Epoch the alert is for.
    pub epoch: u64,
    /// Ratios that crossed the four-fifths threshold.
    pub crossings: u32,
    /// Human-readable detail.
    pub detail: String,
}

#[derive(Default)]
struct SourceState {
    snapshot: Snapshot,
    pushes: u64,
    last_seq: u64,
}

#[derive(Default)]
struct Inner {
    sources: BTreeMap<String, SourceState>,
    alerts: Vec<FleetAlert>,
    alert_seen: BTreeSet<(String, u64)>,
    traces: VecDeque<TraceEvent>,
    pushes_total: u64,
    stale_pushes: u64,
    duplicate_alerts: u64,
    rejected: u64,
}

/// Capacity of the fleet trace ring.
pub const TRACE_RING_CAPACITY: usize = 8_192;

/// Thread-safe fleet telemetry state.
#[derive(Default)]
pub struct Aggregator {
    inner: Mutex<Inner>,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Aggregator {
        Aggregator::default()
    }

    /// Ingests one pushed record. Returns `false` when the record was
    /// dropped as stale (metric frame with a sequence number at or
    /// below the source's last accepted one) or as a duplicate alert;
    /// the push is still acked either way — dedup is the point, not an
    /// error.
    pub fn ingest(&self, source: &str, seq: u64, telemetry: Telemetry) -> bool {
        let mut inner = lock(&self.inner);
        inner.pushes_total += 1;
        match telemetry {
            Telemetry::Metrics(snapshot) => {
                let state = inner.sources.entry(source.to_string()).or_default();
                state.pushes += 1;
                let stale = state.pushes > 1 && seq <= state.last_seq;
                if stale {
                    // A retried or reordered frame: the state we hold is
                    // at least as new.
                    inner.stale_pushes += 1;
                    return false;
                }
                state.last_seq = seq;
                state.snapshot = snapshot;
                true
            }
            Telemetry::Alert(AlertFrame {
                epoch,
                crossings,
                detail,
            }) => {
                if !inner.alert_seen.insert((source.to_string(), epoch)) {
                    inner.duplicate_alerts += 1;
                    return false;
                }
                inner.alerts.push(FleetAlert {
                    source: source.to_string(),
                    epoch,
                    crossings,
                    detail,
                });
                true
            }
            Telemetry::Trace(trace) => {
                for line in &trace.lines {
                    let Some(event) = TraceEvent::from_json(line) else {
                        inner.rejected += 1;
                        continue;
                    };
                    if inner.traces.len() == TRACE_RING_CAPACITY {
                        inner.traces.pop_front();
                    }
                    inner.traces.push_back(event);
                }
                true
            }
        }
    }

    /// The merged fleet snapshot: counters and gauges summed,
    /// histograms merged bucketwise, across every source.
    pub fn fleet(&self) -> Snapshot {
        fleet(&lock(&self.inner))
    }

    /// Every alert accepted so far, in arrival order.
    pub fn alerts(&self) -> Vec<FleetAlert> {
        lock(&self.inner).alerts.clone()
    }

    /// The fleet trace ring's current contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        lock(&self.inner).traces.iter().cloned().collect()
    }

    /// Sources seen so far.
    pub fn sources(&self) -> Vec<String> {
        lock(&self.inner).sources.keys().cloned().collect()
    }

    /// Total pushes ingested (including stale and duplicate ones).
    pub fn pushes_total(&self) -> u64 {
        lock(&self.inner).pushes_total
    }

    /// One status line for the wire status probe.
    pub fn status_line(&self) -> String {
        let inner = lock(&self.inner);
        format!(
            "agg: sources={} pushes={} alerts={} stale={} duplicate_alerts={}",
            inner.sources.len(),
            inner.pushes_total,
            inner.alerts.len(),
            inner.stale_pushes,
            inner.duplicate_alerts,
        )
    }

    /// The whole fleet as one Prometheus text document: fleet series
    /// unlabelled, then each source's series labelled `source="…"`,
    /// then the aggregator's own meta-series.
    pub fn render_prometheus(&self) -> String {
        let inner = lock(&self.inner);
        let mut doc = Exposition::default();
        doc.push(&fleet(&inner), None);
        for (source, state) in &inner.sources {
            doc.push(&state.snapshot, Some(("source", source)));
        }
        let counter = |name: &str, n: u64| (MetricKey::new(name, &[]), MetricValue::Counter(n));
        let meta = [
            (
                MetricKey::new("adcomp_agg_sources", &[]),
                MetricValue::Gauge(inner.sources.len() as i64),
            ),
            counter("adcomp_agg_pushes_total", inner.pushes_total),
            counter("adcomp_agg_alerts_total", inner.alerts.len() as u64),
            counter("adcomp_agg_stale_pushes_total", inner.stale_pushes),
            counter("adcomp_agg_duplicate_alerts_total", inner.duplicate_alerts),
        ];
        let alerts = inner.alerts.iter().map(|alert| {
            let epoch = alert.epoch.to_string();
            let labels = [("source", alert.source.as_str()), ("epoch", epoch.as_str())];
            (
                MetricKey::new("adcomp_agg_alert", &labels),
                MetricValue::Gauge(i64::from(alert.crossings)),
            )
        });
        doc.push(&meta.into_iter().chain(alerts).collect(), None);
        doc.into_text()
    }

    /// The fleet as a human-readable [`RunReport`]: one note per source,
    /// a degradation per alert.
    pub fn report(&self) -> RunReport {
        let inner = lock(&self.inner);
        let mut report = RunReport::new("fleet telemetry");
        for (source, state) in &inner.sources {
            report.note(format!(
                "{source}: {} push(es), {} series",
                state.pushes,
                state.snapshot.series().len()
            ));
        }
        for alert in &inner.alerts {
            report.degradation(format!("[{}] {}", alert.source, alert.detail));
        }
        report
    }
}

/// Every source's snapshot merged into one.
fn fleet(inner: &Inner) -> Snapshot {
    let mut fleet = Snapshot::default();
    for state in inner.sources.values() {
        fleet.merge(&state.snapshot);
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(epochs: u64) -> Telemetry {
        let key = MetricKey::new("adcomp_serve_epochs_total", &[]);
        Telemetry::Metrics([(key, MetricValue::Counter(epochs))].into_iter().collect())
    }

    #[test]
    fn fleet_counters_sum_across_sources() {
        let agg = Aggregator::new();
        assert!(agg.ingest("a", 1, frame(3)));
        assert!(agg.ingest("b", 1, frame(4)));
        // A newer frame from `a` replaces, never adds.
        assert!(agg.ingest("a", 2, frame(5)));
        assert_eq!(agg.fleet().counter("adcomp_serve_epochs_total"), 9);
        let text = agg.render_prometheus();
        assert!(text.contains("adcomp_serve_epochs_total 9"), "{text}");
        assert!(
            text.contains("adcomp_serve_epochs_total{source=\"a\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("adcomp_serve_epochs_total{source=\"b\"} 4"),
            "{text}"
        );
    }

    #[test]
    fn stale_frames_are_dropped_not_merged() {
        let agg = Aggregator::new();
        assert!(agg.ingest("a", 5, frame(10)));
        // A retry of an older push arrives late.
        assert!(!agg.ingest("a", 4, frame(8)));
        assert_eq!(agg.fleet().counter("adcomp_serve_epochs_total"), 10);
        assert!(agg
            .render_prometheus()
            .contains("adcomp_agg_stale_pushes_total 1"));
    }

    #[test]
    fn alerts_dedup_by_source_and_epoch() {
        let agg = Aggregator::new();
        let alert = Telemetry::Alert(AlertFrame {
            epoch: 3,
            crossings: 1,
            detail: "epoch 3 crossed".into(),
        });
        assert!(agg.ingest("a", 1, alert.clone()));
        // Redelivery after a daemon resume: observed exactly once.
        assert!(!agg.ingest("a", 2, alert.clone()));
        // The same epoch from a different daemon is a different alert.
        assert!(agg.ingest("b", 1, alert));
        let alerts = agg.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].source, "a");
        assert_eq!(alerts[1].source, "b");
        assert!(agg
            .render_prometheus()
            .contains("adcomp_agg_duplicate_alerts_total 1"));
    }

    /// `line` with `source="…"` appended to its labels, before `le`.
    fn with_source(line: &str, source: &str) -> String {
        let label = format!("source=\"{source}\"");
        let (series, value) = line.rsplit_once(' ').unwrap();
        let le = ["{le=\"", ",le=\""].iter().find_map(|p| series.find(p));
        let series = match (le, series.strip_suffix('}')) {
            (Some(at), _) => format!("{}{label},{}", &series[..=at], &series[at + 1..]),
            (None, Some(open)) => format!("{open},{label}}}"),
            (None, None) => format!("{series}{{{label}}}"),
        };
        format!("{series} {value}")
    }

    #[test]
    fn per_source_lines_are_the_registry_rendering_with_a_source_label() {
        // Kinds interleave in key order, as in a delivery run's dump.
        let registry = adcomp_obs::Registry::new();
        registry.counter("adcomp_delivery_auctions_total").add(5);
        let price = registry.histogram("adcomp_delivery_price_micros", vec![10, 100]);
        for v in [5, 50, 500] {
            price.observe(v);
        }
        registry
            .gauge_with("adcomp_delivery_pacing", &[("campaign", "c1")])
            .set(-2);
        registry
            .histogram_with(
                "adcomp_platform_estimate_size",
                &[("platform", "x")],
                vec![10],
            )
            .observe(7);
        registry.counter("adcomp_platform_estimates_total").inc();
        let own = registry.render_prometheus();

        let agg = Aggregator::new();
        assert!(agg.ingest("a", 1, Telemetry::Metrics(registry.snapshot())));
        assert!(agg.ingest("b", 1, frame(3)));
        let text = agg.render_prometheus();
        let from_a: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("source=\"a\""))
            .collect();
        let expected: Vec<String> = own
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| with_source(l, "a"))
            .collect();
        assert_eq!(from_a, expected, "{text}");
        assert!(from_a.contains(&"adcomp_delivery_price_micros_bucket{source=\"a\",le=\"+Inf\"} 3"));

        // Every histogram's `_count` equals its `+Inf` bucket.
        for doc in [&own, &text] {
            let scrape = crate::Scrape::parse(doc);
            let counts = scrape.samples.iter().filter(|s| s.name.ends_with("_count"));
            let mut checked = 0;
            for count in counts {
                let family = count.name.strip_suffix("_count").unwrap();
                let inf = scrape.samples.iter().find(|s| {
                    s.name == format!("{family}_bucket")
                        && s.label("le") == Some("+Inf")
                        && s.labels
                            .iter()
                            .filter(|(k, _)| k != "le")
                            .eq(count.labels.iter())
                });
                assert_eq!(inf.map(|s| s.value), Some(count.value), "{doc}");
                checked += 1;
            }
            assert!(checked >= 2, "{doc}");
        }
    }

    #[test]
    fn trace_ring_is_bounded_and_parses_lines() {
        let agg = Aggregator::new();
        let lines: Vec<String> = (0..4)
            .map(|i| format!("{{\"seq\":{i},\"ts_us\":1,\"kind\":\"event\",\"name\":\"x\"}}"))
            .collect();
        assert!(agg.ingest(
            "a",
            1,
            Telemetry::Trace(crate::telemetry::TraceFrame { lines })
        ));
        let events = agg.trace_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].seq, 3);
    }
}
