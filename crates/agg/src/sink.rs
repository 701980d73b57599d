//! The aggregator's wire-facing sink.
//!
//! [`AggService`] implements [`WireService`] so the aggregator rides
//! the same `adcomp-wire` server (draining shutdown, rate limiting,
//! one thread per connection answering in receive order) as every
//! other daemon in the stack:
//!
//! * `Request::TelemetryPush` — decode the opaque payload as a
//!   [`Telemetry`](crate::telemetry::Telemetry) record, ingest, ack by
//!   sequence number (an ack for a deduplicated record is still an ack:
//!   the pusher must stop retrying it);
//! * `Request::Metrics` — the combined fleet Prometheus text;
//! * `Request::Status` — a one-line health summary.
//!
//! Everything else is a `BadRequest`; the aggregator is not a platform.

use std::sync::Arc;

use adcomp_wire::{from_bytes, ErrorCode, Request, Response, WireService};

use crate::aggregator::Aggregator;
use crate::telemetry::Telemetry;

/// [`WireService`] exposing an [`Aggregator`] as a push sink.
pub struct AggService {
    agg: Arc<Aggregator>,
}

impl AggService {
    /// A service ingesting into `agg`.
    pub fn new(agg: Arc<Aggregator>) -> AggService {
        AggService { agg }
    }

    /// The shared aggregator state.
    pub fn aggregator(&self) -> Arc<Aggregator> {
        self.agg.clone()
    }
}

impl WireService for AggService {
    fn handle(&self, request: Request) -> Response {
        match request {
            Request::TelemetryPush {
                source,
                seq,
                payload,
            } => match from_bytes::<Telemetry>(&payload) {
                Ok(telemetry) => {
                    self.agg.ingest(&source, seq, telemetry);
                    Response::TelemetryAck { seq }
                }
                Err(e) => Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("undecodable telemetry payload: {e}"),
                    retry_after: None,
                },
            },
            Request::Metrics => Response::MetricsText {
                text: self.agg.render_prometheus(),
            },
            Request::Status => Response::StatusReport {
                healthy: true,
                body: self.agg.status_line(),
            },
            _ => Response::Error {
                code: ErrorCode::BadRequest,
                message: "the aggregator accepts telemetry pushes and scrapes only".into(),
                retry_after: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::AlertFrame;
    use adcomp_obs::metrics::{MetricKey, MetricValue};
    use adcomp_wire::to_bytes;

    #[test]
    fn pushes_are_acked_and_ingested() {
        let service = AggService::new(Arc::new(Aggregator::new()));
        let key = MetricKey::new("epochs", &[]);
        let frame = Telemetry::Metrics([(key, MetricValue::Counter(2))].into_iter().collect());
        let response = service.handle(Request::TelemetryPush {
            source: "a".into(),
            seq: 9,
            payload: to_bytes(&frame),
        });
        assert_eq!(response, Response::TelemetryAck { seq: 9 });
        assert_eq!(service.aggregator().fleet().counter("epochs"), 2);
    }

    #[test]
    fn duplicate_alert_still_acks() {
        let service = AggService::new(Arc::new(Aggregator::new()));
        let alert = to_bytes(&Telemetry::Alert(AlertFrame {
            epoch: 1,
            crossings: 1,
            detail: "x".into(),
        }));
        for seq in [1, 2] {
            let response = service.handle(Request::TelemetryPush {
                source: "a".into(),
                seq,
                payload: alert.clone(),
            });
            assert_eq!(response, Response::TelemetryAck { seq });
        }
        assert_eq!(service.aggregator().alerts().len(), 1);
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let service = AggService::new(Arc::new(Aggregator::new()));
        let response = service.handle(Request::TelemetryPush {
            source: "a".into(),
            seq: 1,
            payload: vec![0xFF, 0x01],
        });
        assert!(matches!(
            response,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn scrape_and_status_answered_estimate_rejected() {
        let service = AggService::new(Arc::new(Aggregator::new()));
        assert!(matches!(
            service.handle(Request::Metrics),
            Response::MetricsText { .. }
        ));
        assert!(matches!(
            service.handle(Request::Status),
            Response::StatusReport { healthy: true, .. }
        ));
        assert!(matches!(
            service.handle(Request::Describe),
            Response::Error { .. }
        ));
    }
}
