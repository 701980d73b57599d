//! The telemetry records daemons push and the aggregator ingests.
//!
//! A [`Telemetry`] value is what rides inside the opaque `payload` of an
//! `adcomp-wire` `Request::TelemetryPush` frame: a full
//! [`Snapshot`] of a source's instruments, one drift [`AlertFrame`], or
//! a batch of trace JSONL lines ([`TraceFrame`]). The codec lives here,
//! as free functions over the snapshot — `Snapshot` belongs to
//! `adcomp-obs`, which knows nothing about wire encodings — with the
//! same conventions as the wire codec (big-endian ints, length-prefixed
//! strings and vectors). Decoding refuses what no registry produces:
//! unsorted labels, and histograms whose bounds are empty or not
//! strictly increasing or whose bucket count is not bounds + 1.
//!
//! Metric snapshots are *state*, not deltas: each push carries the
//! source's current counter/gauge/histogram values, and the aggregator
//! keeps the latest snapshot per source (last-wins by push sequence
//! number). That makes pushes idempotent — a retried or duplicated
//! frame cannot double-count — which is what lets the push path ride
//! the wire client's retry machinery unchanged.

use adcomp_obs::metrics::{HistogramData, MetricKey, MetricValue, Snapshot};
use adcomp_wire::codec::{CodecError, WireDecode, WireEncode, Writer};

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
    Metrics(Snapshot),
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
    if !labels.is_sorted() {
        return Err(CodecError::Invalid("metric labels not sorted"));
    }
    Ok(MetricKey { name, labels })
}

fn decode_hist(buf: &mut &[u8]) -> Result<HistogramData, CodecError> {
    let data = HistogramData {
        bounds: Vec::<u64>::decode(buf)?,
        buckets: Vec::<u64>::decode(buf)?,
        sum: u64::decode(buf)?,
    };
    if data.bounds.is_empty() || !data.bounds.is_sorted_by(|a, b| a < b) {
        return Err(CodecError::Invalid(
            "histogram bounds empty or not strictly increasing",
        ));
    }
    if data.buckets.len() != data.bounds.len() + 1 {
        return Err(CodecError::Invalid(
            "histogram bucket count is not bounds + 1",
        ));
    }
    Ok(data)
}

/// A snapshot's series in key order, each as key, kind tag, value.
fn encode_snapshot(snap: &Snapshot, buf: &mut Writer) {
    (snap.series().len() as u32).encode(buf);
    for (key, value) in snap.series() {
        encode_key(key, buf);
        match value {
            MetricValue::Counter(v) => {
                0u8.encode(buf);
                v.encode(buf);
            }
            MetricValue::Gauge(v) => {
                1u8.encode(buf);
                // Two's-complement through u64: the codec has no signed ints.
                (*v as u64).encode(buf);
            }
            MetricValue::Histogram(h) => {
                2u8.encode(buf);
                h.bounds.encode(buf);
                h.buckets.encode(buf);
                h.sum.encode(buf);
            }
        }
    }
}

fn decode_snapshot(buf: &mut &[u8]) -> Result<Snapshot, CodecError> {
    (0..u32::decode(buf)?)
        .map(|_| {
            let key = decode_key(buf)?;
            let value = match u8::decode(buf)? {
                0 => MetricValue::Counter(u64::decode(buf)?),
                1 => MetricValue::Gauge(u64::decode(buf)? as i64),
                2 => MetricValue::Histogram(decode_hist(buf)?),
                tag => {
                    let what = "MetricValue";
                    return Err(CodecError::InvalidTag { what, tag });
                }
            };
            Ok((key, value))
        })
        .collect()
}

impl WireEncode for Telemetry {
    fn encode(&self, buf: &mut Writer) {
        match self {
            Telemetry::Metrics(snap) => {
                0u8.encode(buf);
                encode_snapshot(snap, buf);
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
            0 => Ok(Telemetry::Metrics(decode_snapshot(buf)?)),
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

    fn histogram(bounds: Vec<u64>, buckets: Vec<u64>) -> Telemetry {
        let value = MetricValue::Histogram(HistogramData {
            bounds,
            buckets,
            sum: 4200,
        });
        Telemetry::Metrics(
            [(key("adcomp_wire_rtt_us", &[]), value)]
                .into_iter()
                .collect(),
        )
    }

    #[test]
    fn telemetry_roundtrips() {
        let snap: Snapshot = [
            (
                key("adcomp_serve_epochs_total", &[]),
                MetricValue::Counter(7),
            ),
            (
                key("adcomp_wire_requests_total", &[("kind", "estimate_batch")]),
                MetricValue::Counter(42),
            ),
            (key("adcomp_queue_depth", &[]), MetricValue::Gauge(-3)),
        ]
        .into_iter()
        .collect();
        for t in [
            Telemetry::Metrics(snap),
            histogram(vec![100, 1000], vec![1, 2, 3]),
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
    fn decoder_rejects_what_no_registry_produces() {
        let unsorted = MetricKey {
            name: "x_total".into(),
            labels: vec![("b".into(), "1".into()), ("a".into(), "2".into())],
        };
        let unsorted =
            Telemetry::Metrics([(unsorted, MetricValue::Counter(1))].into_iter().collect());
        for bad in [
            unsorted,
            histogram(vec![], vec![3]),
            histogram(vec![100, 100], vec![1, 2, 3]),
            histogram(vec![1000, 100], vec![1, 2, 3]),
            histogram(vec![10], vec![1, 2, 3]),
            histogram(vec![10, 100], vec![1, 2]),
        ] {
            assert!(
                matches!(
                    from_bytes::<Telemetry>(&to_bytes(&bad)),
                    Err(CodecError::Invalid(_))
                ),
                "{bad:?}"
            );
        }
    }
}
