//! Drift-alert delivery: the [`AlertSink`] fan-out.
//!
//! The journal's `AlertRaised` record is the daemon's *durable*
//! exactly-once truth (see [`crate::daemon`]); sinks are how an alert
//! leaves the process. Delivery is at-least-once: a daemon killed
//! between journaling an alert and delivering it re-delivers on
//! resume, so sinks must tolerate duplicates —
//!
//! * [`JournalAlertSink`] appends one JSON line per delivery to an
//!   `alerts.jsonl` file beside the journal (duplicates are visible,
//!   `grep`-able, and harmless);
//! * [`PushAlertSink`] forwards to a fleet aggregator through a
//!   [`TelemetryPusher`], where the `(source, epoch)` dedup turns
//!   at-least-once delivery into exactly-once observation.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use adcomp_agg::{AlertFrame, Telemetry, TelemetryPusher};

/// One four-fifths drift alert, as handed to sinks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftAlert {
    /// Epoch whose drift crossed the threshold.
    pub epoch: u64,
    /// How many representation ratios crossed.
    pub crossings: u32,
    /// Of those crossings, how many are low-confidence: the ratio's
    /// rounding-slack interval straddles a four-fifths edge, so the
    /// crossing could be an artifact of the platform's rounding ladder
    /// rather than a real shift. Recomputed from the epoch stores on
    /// every delivery (never journaled), so resumed re-deliveries stay
    /// byte-identical to the original.
    pub low_confidence: u32,
    /// The journaled detail line.
    pub detail: String,
}

/// Receives drift alerts as they are raised (and re-raised on resume).
pub trait AlertSink: Send + Sync {
    /// Delivers one alert. Must not block the epoch lifecycle for long
    /// and must tolerate duplicate deliveries of the same epoch.
    fn deliver(&self, alert: &DriftAlert);
}

/// Appends alerts as JSON lines to a file (one object per delivery).
pub struct JournalAlertSink {
    path: PathBuf,
    lock: Mutex<()>,
}

impl JournalAlertSink {
    /// A sink appending to `path` (created on first delivery).
    pub fn new(path: impl Into<PathBuf>) -> JournalAlertSink {
        JournalAlertSink {
            path: path.into(),
            lock: Mutex::new(()),
        }
    }
}

impl AlertSink for JournalAlertSink {
    fn deliver(&self, alert: &DriftAlert) {
        let _guard = adcomp_obs::lock(&self.lock);
        let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        else {
            adcomp_obs::warn!("alert sink: cannot open {}", self.path.display());
            return;
        };
        let detail = alert
            .detail
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = writeln!(
            file,
            "{{\"epoch\":{},\"crossings\":{},\"low_confidence\":{},\"detail\":\"{}\"}}",
            alert.epoch, alert.crossings, alert.low_confidence, detail
        );
    }
}

/// Forwards alerts to a fleet aggregator; never blocks (the pusher's
/// queue drops on overflow).
pub struct PushAlertSink {
    pusher: std::sync::Arc<TelemetryPusher>,
}

impl PushAlertSink {
    /// A sink pushing through `pusher`.
    pub fn new(pusher: std::sync::Arc<TelemetryPusher>) -> PushAlertSink {
        PushAlertSink { pusher }
    }
}

impl AlertSink for PushAlertSink {
    fn deliver(&self, alert: &DriftAlert) {
        // `low_confidence` is deliberately not forwarded: `AlertFrame`
        // is a frozen wire format shared with deployed aggregators.
        self.pusher.push(Telemetry::Alert(AlertFrame {
            epoch: alert.epoch,
            crossings: alert.crossings,
            detail: alert.detail.clone(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_sink_appends_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "adcomp-alert-sink-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let sink = JournalAlertSink::new(&path);
        let alert = DriftAlert {
            epoch: 3,
            crossings: 2,
            low_confidence: 1,
            detail: "epoch 3: 2 four-fifths crossing(s) \"quoted\"".into(),
        };
        sink.deliver(&alert);
        sink.deliver(&alert); // duplicates are visible, not fatal
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"epoch\":3"), "{text}");
        assert!(lines[0].contains("\"low_confidence\":1"), "{text}");
        assert!(lines[0].contains("\\\"quoted\\\""), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
