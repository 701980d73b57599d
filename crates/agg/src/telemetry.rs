//! The telemetry records daemons push and the aggregator ingests.
//!
//! A [`Telemetry`] value is what rides inside the opaque `payload` of an
//! `adcomp-wire` `Request::TelemetryPush` frame: a full [`MetricsFrame`]
//! snapshot of a source's instruments, one drift [`AlertFrame`], or a
//! batch of trace JSONL lines ([`TraceFrame`]). The codec lives here —
//! `MetricKey` and `HistogramData` belong to `adcomp-obs`, which knows
//! nothing about wire encodings, so this module encodes them field by
//! field with the same conventions as the wire codec (big-endian ints,
//! length-prefixed strings and vectors).
//!
//! Metric frames are *state*, not deltas: each push carries the source's
//! current counter/gauge/histogram values, and the aggregator keeps the
//! latest frame per source (last-wins by push sequence number). That
//! makes pushes idempotent — a retried or duplicated frame cannot
//! double-count — which is what lets the push path ride the wire
//! client's retry machinery unchanged.

use adcomp_obs::metrics::{HistogramData, MetricKey, Registry};
use adcomp_wire::codec::{CodecError, WireDecode, WireEncode, Writer};

/// One source's full instrument state at a point in time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Counter values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Full histogram state (bounds + buckets, mergeable).
    pub histograms: Vec<(MetricKey, HistogramData)>,
}

impl MetricsFrame {
    /// Captures every instrument in `registry` as one frame.
    pub fn capture(registry: &Registry) -> MetricsFrame {
        let snap = registry.snapshot();
        MetricsFrame {
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: registry.export_histograms(),
        }
    }

    /// The value of a counter, summed across label combinations.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Merges another frame into this one: counters and gauges sum by
    /// key, histograms merge bucketwise (mismatched bounds are skipped
    /// rather than corrupted). The fleet view is a fold of per-source
    /// frames through this.
    pub fn merge(&mut self, other: &MetricsFrame) {
        for (key, value) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v += value,
                None => self.counters.push((key.clone(), *value)),
            }
        }
        for (key, value) in &other.gauges {
            match self.gauges.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v += value,
                None => self.gauges.push((key.clone(), *value)),
            }
        }
        for (key, data) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| k == key) {
                Some((_, mine)) => {
                    let _ = mine.merge(data);
                }
                None => self.histograms.push((key.clone(), data.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// One drift alert, pushed by a serve daemon's wire alert sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertFrame {
    /// Epoch whose drift crossed the four-fifths threshold.
    pub epoch: u64,
    /// How many ratios crossed.
    pub crossings: u32,
    /// Human-readable alert line (matches the journaled detail).
    pub detail: String,
}

/// A batch of trace events, as the JSONL lines the tracer writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceFrame {
    /// `TraceEvent::to_json` lines.
    pub lines: Vec<String>,
}

/// Everything a source can push to the aggregator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Telemetry {
    /// Full metric state (last-wins per source).
    Metrics(MetricsFrame),
    /// One drift alert (deduplicated by `(source, epoch)`).
    Alert(AlertFrame),
    /// Trace events for the fleet trace ring.
    Trace(TraceFrame),
}

fn encode_key(key: &MetricKey, buf: &mut Writer) {
    key.name.encode(buf);
    (key.labels.len() as u32).encode(buf);
    for (k, v) in &key.labels {
        k.encode(buf);
        v.encode(buf);
    }
}

fn decode_key(buf: &mut &[u8]) -> Result<MetricKey, CodecError> {
    let name = String::decode(buf)?;
    let len = u32::decode(buf)?;
    let mut labels = Vec::with_capacity(len.min(64) as usize);
    for _ in 0..len {
        labels.push((String::decode(buf)?, String::decode(buf)?));
    }
    Ok(MetricKey { name, labels })
}

fn encode_hist(data: &HistogramData, buf: &mut Writer) {
    data.bounds.encode(buf);
    data.buckets.encode(buf);
    data.count.encode(buf);
    data.sum.encode(buf);
    data.saturated.encode(buf);
}

fn decode_hist(buf: &mut &[u8]) -> Result<HistogramData, CodecError> {
    Ok(HistogramData {
        bounds: Vec::<u64>::decode(buf)?,
        buckets: Vec::<u64>::decode(buf)?,
        count: u64::decode(buf)?,
        sum: u64::decode(buf)?,
        saturated: u64::decode(buf)?,
    })
}

impl WireEncode for MetricsFrame {
    fn encode(&self, buf: &mut Writer) {
        (self.counters.len() as u32).encode(buf);
        for (key, value) in &self.counters {
            encode_key(key, buf);
            value.encode(buf);
        }
        (self.gauges.len() as u32).encode(buf);
        for (key, value) in &self.gauges {
            encode_key(key, buf);
            // Two's-complement through u64: the codec has no signed ints.
            (*value as u64).encode(buf);
        }
        (self.histograms.len() as u32).encode(buf);
        for (key, data) in &self.histograms {
            encode_key(key, buf);
            encode_hist(data, buf);
        }
    }
}

impl WireDecode for MetricsFrame {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let mut frame = MetricsFrame::default();
        for _ in 0..u32::decode(buf)? {
            frame.counters.push((decode_key(buf)?, u64::decode(buf)?));
        }
        for _ in 0..u32::decode(buf)? {
            frame
                .gauges
                .push((decode_key(buf)?, u64::decode(buf)? as i64));
        }
        for _ in 0..u32::decode(buf)? {
            frame.histograms.push((decode_key(buf)?, decode_hist(buf)?));
        }
        Ok(frame)
    }
}

impl WireEncode for Telemetry {
    fn encode(&self, buf: &mut Writer) {
        match self {
            Telemetry::Metrics(frame) => {
                0u8.encode(buf);
                frame.encode(buf);
            }
            Telemetry::Alert(alert) => {
                1u8.encode(buf);
                alert.epoch.encode(buf);
                alert.crossings.encode(buf);
                alert.detail.encode(buf);
            }
            Telemetry::Trace(trace) => {
                2u8.encode(buf);
                trace.lines.encode(buf);
            }
        }
    }
}

impl WireDecode for Telemetry {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(Telemetry::Metrics(MetricsFrame::decode(buf)?)),
            1 => Ok(Telemetry::Alert(AlertFrame {
                epoch: u64::decode(buf)?,
                crossings: u32::decode(buf)?,
                detail: String::decode(buf)?,
            })),
            2 => Ok(Telemetry::Trace(TraceFrame {
                lines: Vec::<String>::decode(buf)?,
            })),
            tag => Err(CodecError::InvalidTag {
                what: "Telemetry",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_wire::{from_bytes, to_bytes};

    fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey::new(name, labels)
    }

    #[test]
    fn telemetry_roundtrips() {
        let frame = MetricsFrame {
            counters: vec![
                (key("adcomp_serve_epochs_total", &[]), 7),
                (
                    key("adcomp_wire_requests_total", &[("kind", "estimate_batch")]),
                    42,
                ),
            ],
            gauges: vec![(key("adcomp_queue_depth", &[]), -3)],
            histograms: vec![(
                key("adcomp_wire_rtt_us", &[]),
                HistogramData {
                    bounds: vec![100, 1000],
                    buckets: vec![1, 2, 3],
                    count: 6,
                    sum: 4200,
                    saturated: 3,
                },
            )],
        };
        for t in [
            Telemetry::Metrics(frame),
            Telemetry::Alert(AlertFrame {
                epoch: 3,
                crossings: 2,
                detail: "epoch 3: 2 crossings".into(),
            }),
            Telemetry::Trace(TraceFrame {
                lines: vec!["{\"seq\":1}".into()],
            }),
        ] {
            let bytes = to_bytes(&t);
            assert_eq!(from_bytes::<Telemetry>(&bytes).unwrap(), t);
        }
    }

    #[test]
    fn bad_tag_is_an_error_not_a_panic() {
        assert!(from_bytes::<Telemetry>(&[9]).is_err());
        assert!(from_bytes::<Telemetry>(&[]).is_err());
    }

    #[test]
    fn frames_merge_by_key() {
        let mut a = MetricsFrame {
            counters: vec![(key("epochs", &[]), 3), (key("alerts", &[]), 1)],
            gauges: vec![(key("depth", &[]), 2)],
            histograms: vec![(
                key("rtt", &[]),
                HistogramData {
                    bounds: vec![10],
                    buckets: vec![1, 0],
                    count: 1,
                    sum: 5,
                    saturated: 0,
                },
            )],
        };
        let b = MetricsFrame {
            counters: vec![(key("epochs", &[]), 4)],
            gauges: vec![(key("depth", &[]), -1)],
            histograms: vec![(
                key("rtt", &[]),
                HistogramData {
                    bounds: vec![10],
                    buckets: vec![0, 2],
                    count: 2,
                    sum: 40,
                    saturated: 2,
                },
            )],
        };
        a.merge(&b);
        assert_eq!(a.counter("epochs"), 7);
        assert_eq!(a.counter("alerts"), 1);
        assert_eq!(a.gauges[0].1, 1);
        let hist = &a.histograms[0].1;
        assert_eq!(hist.buckets, vec![1, 2]);
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, 45);
        assert_eq!(hist.saturated, 2);
    }
}
