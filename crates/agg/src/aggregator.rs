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
//! twice: per-source with a `source` label, and fleet-wide (the sum /
//! bucketwise merge across sources) without one — so a dashboard can
//! show both the fleet and any straggler from one scrape.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

use adcomp_obs::lock;
use adcomp_obs::trace::TraceEvent;
use adcomp_obs::RunReport;

use crate::telemetry::{AlertFrame, MetricsFrame, Telemetry};

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
    frame: MetricsFrame,
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
            Telemetry::Metrics(frame) => {
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
                state.frame = frame;
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

    /// The merged fleet frame: counters and gauges summed, histograms
    /// merged bucketwise, across every source.
    pub fn fleet(&self) -> MetricsFrame {
        let inner = lock(&self.inner);
        let mut fleet = MetricsFrame::default();
        for state in inner.sources.values() {
            fleet.merge(&state.frame);
        }
        fleet
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

    /// The whole fleet as one Prometheus text document: per-source
    /// series labelled `source="…"`, fleet series unlabelled, plus the
    /// aggregator's own meta-series.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let inner = lock(&self.inner);
        let mut out = String::new();
        let mut typed: BTreeSet<String> = BTreeSet::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if typed.insert(name.to_string()) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
            }
        };

        // Fleet totals first — the series a dashboard scrapes.
        let mut fleet = MetricsFrame::default();
        for state in inner.sources.values() {
            fleet.merge(&state.frame);
        }
        let mut render_frame = |out: &mut String, frame: &MetricsFrame, source: Option<&str>| {
            for (key, value) in &frame.counters {
                type_line(out, &key.name, "counter");
                let series = match source {
                    Some(s) => key.render_with(("source", s)),
                    None => key.render(),
                };
                let _ = writeln!(out, "{series} {value}");
            }
            for (key, value) in &frame.gauges {
                type_line(out, &key.name, "gauge");
                let series = match source {
                    Some(s) => key.render_with(("source", s)),
                    None => key.render(),
                };
                let _ = writeln!(out, "{series} {value}");
            }
            for (key, data) in &frame.histograms {
                type_line(out, &key.name, "histogram");
                let bucket_key = adcomp_obs::metrics::MetricKey {
                    name: format!("{}_bucket", key.name),
                    labels: match source {
                        Some(s) => {
                            let mut labels = key.labels.clone();
                            labels.push(("source".to_string(), s.to_string()));
                            labels
                        }
                        None => key.labels.clone(),
                    },
                };
                for (bound, cum) in data.cumulative() {
                    let le = match bound {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(out, "{} {cum}", bucket_key.render_with(("le", &le)));
                }
                let series = match source {
                    Some(s) => key.render_with(("source", s)),
                    None => key.render(),
                };
                let (name, labels) = match series.split_once('{') {
                    Some((n, l)) => (n.to_string(), format!("{{{l}")),
                    None => (series.clone(), String::new()),
                };
                let _ = writeln!(out, "{name}_sum{labels} {}", data.sum);
                let _ = writeln!(out, "{name}_count{labels} {}", data.count);
            }
        };
        render_frame(&mut out, &fleet, None);
        for (source, state) in &inner.sources {
            render_frame(&mut out, &state.frame, Some(source));
        }

        // Aggregator meta-series.
        let _ = writeln!(out, "# TYPE adcomp_agg_sources gauge");
        let _ = writeln!(out, "adcomp_agg_sources {}", inner.sources.len());
        let _ = writeln!(out, "# TYPE adcomp_agg_pushes_total counter");
        let _ = writeln!(out, "adcomp_agg_pushes_total {}", inner.pushes_total);
        let _ = writeln!(out, "# TYPE adcomp_agg_alerts_total counter");
        let _ = writeln!(out, "adcomp_agg_alerts_total {}", inner.alerts.len());
        let _ = writeln!(out, "# TYPE adcomp_agg_stale_pushes_total counter");
        let _ = writeln!(out, "adcomp_agg_stale_pushes_total {}", inner.stale_pushes);
        let _ = writeln!(out, "# TYPE adcomp_agg_duplicate_alerts_total counter");
        let _ = writeln!(
            out,
            "adcomp_agg_duplicate_alerts_total {}",
            inner.duplicate_alerts
        );
        for alert in &inner.alerts {
            let _ = writeln!(
                out,
                "adcomp_agg_alert{{source=\"{}\",epoch=\"{}\"}} {}",
                alert.source, alert.epoch, alert.crossings
            );
        }
        out
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
                state.frame.counters.len()
                    + state.frame.gauges.len()
                    + state.frame.histograms.len()
            ));
        }
        for alert in &inner.alerts {
            report.degradation(format!("[{}] {}", alert.source, alert.detail));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_obs::metrics::MetricKey;

    fn frame(epochs: u64) -> Telemetry {
        Telemetry::Metrics(MetricsFrame {
            counters: vec![(MetricKey::new("adcomp_serve_epochs_total", &[]), epochs)],
            ..MetricsFrame::default()
        })
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
