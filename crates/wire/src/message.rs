//! Protocol messages: what the audit's query scripts exchange with a
//! platform endpoint.
//!
//! The shape mirrors what the paper reverse-engineered from the targeting
//! UIs: describe the interface, browse attributes, validate a targeting,
//! and fetch the audience-size estimate for it.

use std::time::Duration;

use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, DemographicSpec, Location, OrGroup, TargetingSpec};

use crate::codec::{decode_seq, CodecError, WireDecode, WireEncode, Writer};
use crate::frame::MAX_FRAME_BYTES;

/// Most specs one [`Request::EstimateBatch`] may carry, and so most
/// answers in one [`Response::Estimates`]. It leaves each answer a
/// kibibyte of the reply frame: an estimate takes 9 bytes and a platform
/// error about a hundred, so a full reply stays well inside
/// [`MAX_FRAME_BYTES`].
pub const MAX_BATCH_SPECS: usize = MAX_FRAME_BYTES as usize / 1024;

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Interface description (label, catalog size, capabilities).
    Describe,
    /// Validate a targeting spec against interface policy.
    Check {
        /// The spec.
        spec: TargetingSpec,
    },
    /// Rounded audience-size estimates for up to [`MAX_BATCH_SPECS`]
    /// specs in one frame — the protocol's only estimate request, a
    /// one-shot query included. Answered by one [`Response::Estimates`]
    /// in slot order. The server admits each spec through its rate
    /// limiter on its own and counts the admitted ones in one pass.
    EstimateBatch {
        /// The specs, in slot order.
        specs: Vec<TargetingSpec>,
    },
    /// Query-counter snapshot.
    Stats,
    /// A page of catalog entries: the protocol's only way to read
    /// attribute names and features.
    CatalogPage {
        /// First attribute id of the page.
        start: u32,
        /// Maximum entries to return (server may cap).
        limit: u32,
    },
    /// Service status: health plus a human-readable body (used by the
    /// continuous-audit daemon's status endpoint; a plain platform
    /// server answers healthy with its label).
    Status,
    /// A request carrying the caller's trace context, so the server
    /// continues the caller's span instead of starting fresh and both
    /// sides' JSONL sinks share one `trace_id`. Wraps the real request
    /// and is only ever a frame's outermost message: the decoder rejects
    /// `Traced` inside `Traced`.
    Traced {
        /// The caller's trace id (the root span's id).
        trace_id: u64,
        /// The caller's span (what the server's span is parented to).
        span_id: u64,
        /// The request to answer.
        inner: Box<Request>,
    },
    /// Full Prometheus registry text of the serving process — what an
    /// aggregator or dashboard scrapes, over the same connection the
    /// audit runs on.
    Metrics,
    /// Pushed telemetry (a metric snapshot, trace events, or a drift
    /// alert) from `source`, addressed to an aggregator sink. `payload`
    /// is an opaque encoded `adcomp-agg` telemetry record: the wire
    /// layer routes it without knowing its shape. `seq` is the pusher's
    /// delivery counter, echoed in [`Response::TelemetryAck`].
    TelemetryPush {
        /// Stable name of the pushing process (daemon label).
        source: String,
        /// Pusher-side delivery sequence number.
        seq: u64,
        /// Encoded telemetry record.
        payload: Vec<u8>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Interface description.
    Described {
        /// Report label ("Facebook", …).
        label: String,
        /// Catalog size.
        catalog_len: u32,
        /// Gender targeting allowed?
        gender_targeting: bool,
        /// Age targeting allowed?
        age_targeting: bool,
        /// Exclusions allowed?
        exclusions: bool,
        /// Same-feature AND allowed?
        same_feature_and: bool,
        /// Estimates are impressions (vs users)?
        impressions: bool,
        /// Id of the serving instance, unique per
        /// [`serve`](crate::serve) call: a client that reconnects checks
        /// it, so a port taken over by another server is never mistaken
        /// for the one it had.
        instance: u64,
    },
    /// Spec passed validation.
    Ok,
    /// The estimate.
    Estimate {
        /// Rounded value at platform scale.
        value: u64,
    },
    /// Answer to a [`Request::EstimateBatch`]: one answer per spec, in
    /// slot order, each an [`Estimate`](Response::Estimate) or an
    /// [`Error`](Response::Error) (the decoder rejects anything else).
    Estimates {
        /// Per-slot answers.
        answers: Vec<Response>,
    },
    /// Counter snapshot.
    Stats {
        /// Successful estimates served.
        estimates: u64,
        /// Validation rejections.
        validation_failures: u64,
        /// Rate-limit rejections.
        rate_limited: u64,
    },
    /// Request failed.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// For `RateLimited`: the server-advertised back-off.
        retry_after: Option<Duration>,
    },
    /// A page of catalog metadata.
    CatalogPage {
        /// First id of the page.
        start: u32,
        /// `(name, feature)` per attribute, ids `start..start+len`.
        entries: Vec<(String, u16)>,
        /// Id to request next, when more entries exist.
        next: Option<u32>,
    },
    /// Answer to [`Request::Status`].
    StatusReport {
        /// Whether the service considers itself healthy.
        healthy: bool,
        /// Human-readable status body (epoch counters, uptime, …).
        body: String,
    },
    /// Answer to a [`Request::Traced`]: the inner answer plus how long
    /// the server spent producing it, so the client can attribute
    /// wire-RTT minus server time to the network.
    Traced {
        /// Server-side handling time in microseconds.
        server_us: u64,
        /// The answer itself (never another `Traced`).
        inner: Box<Response>,
    },
    /// Answer to [`Request::Metrics`]: Prometheus text exposition.
    MetricsText {
        /// The registry rendered in Prometheus text format.
        text: String,
    },
    /// Answer to [`Request::TelemetryPush`], echoing its `seq`.
    TelemetryAck {
        /// The acknowledged delivery sequence number.
        seq: u64,
    },
}

impl WireEncode for (String, u16) {
    fn encode(&self, buf: &mut Writer) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl WireDecode for (String, u16) {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((String::decode(buf)?, u16::decode(buf)?))
    }
}

/// Error codes carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Targeting violates interface policy.
    InvalidTargeting,
    /// Unknown attribute id.
    UnknownAttribute,
    /// Client exceeded the query rate.
    RateLimited,
    /// Malformed request.
    BadRequest,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::InvalidTargeting => 0,
            ErrorCode::UnknownAttribute => 1,
            ErrorCode::RateLimited => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => ErrorCode::InvalidTargeting,
            1 => ErrorCode::UnknownAttribute,
            2 => ErrorCode::RateLimited,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::Internal,
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "ErrorCode",
                    tag,
                })
            }
        })
    }
}

// --- TargetingSpec encoding -------------------------------------------

impl WireEncode for TargetingSpec {
    fn encode(&self, buf: &mut Writer) {
        let genders: Option<Vec<u8>> = self
            .demographics
            .genders
            .as_ref()
            .map(|gs| gs.iter().map(|g| g.index() as u8).collect());
        genders.encode(buf);
        let ages: Option<Vec<u8>> = self
            .demographics
            .ages
            .as_ref()
            .map(|a| a.iter().map(|b| b.index() as u8).collect());
        ages.encode(buf);
        let include: Vec<Vec<u32>> = self
            .include
            .iter()
            .map(|g| g.attributes.iter().map(|a| a.0).collect())
            .collect();
        include.encode(buf);
        let exclude: Vec<u32> = self.exclude.iter().map(|a| a.0).collect();
        exclude.encode(buf);
    }
}

impl WireDecode for TargetingSpec {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let genders: Option<Vec<u8>> = Option::decode(buf)?;
        let genders = genders
            .map(|gs| {
                gs.into_iter()
                    .map(|i| match i {
                        0 => Ok(Gender::Male),
                        1 => Ok(Gender::Female),
                        tag => Err(CodecError::InvalidTag {
                            what: "Gender",
                            tag,
                        }),
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let ages: Option<Vec<u8>> = Option::decode(buf)?;
        let ages = ages
            .map(|a| {
                a.into_iter()
                    .map(|i| {
                        if (i as usize) < AgeBucket::ALL.len() {
                            Ok(AgeBucket::from_index(i as usize))
                        } else {
                            Err(CodecError::InvalidTag {
                                what: "AgeBucket",
                                tag: i,
                            })
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let include: Vec<Vec<u32>> = Vec::decode(buf)?;
        let exclude: Vec<u32> = Vec::decode(buf)?;
        Ok(TargetingSpec {
            demographics: DemographicSpec {
                genders,
                ages,
                location: Location::UnitedStates,
            },
            include: include
                .into_iter()
                .map(|g| OrGroup {
                    attributes: g.into_iter().map(AttributeId).collect(),
                })
                .collect(),
            exclude: exclude.into_iter().map(AttributeId).collect(),
        })
    }
}

// --- Request / Response encoding --------------------------------------

/// Where a message sits in its frame. The legal shapes are
/// `Traced ⊃ plain`, the wrapper optional, and in a reply the answers of
/// an `Estimates`, each an `Estimate` or an `Error`. The decoders reject
/// every other nesting, so however a frame's bytes nest, decoding it
/// recurses at most three messages deep.
///
/// Tags 1, 3 and 6 of a request and 1 and 7 of a response are retired
/// (a per-attribute metadata lookup and its answer, a one-shot estimate,
/// and a correlation-id wrapper and its answer): they decode as
/// [`CodecError::InvalidTag`] and are never reassigned.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Nest {
    /// The frame's outermost message.
    Frame,
    /// Inside a `Traced`: plain messages only.
    Traced,
    /// One answer of an `Estimates`.
    Answer,
}

impl WireEncode for Request {
    fn encode(&self, buf: &mut Writer) {
        match self {
            Request::Describe => 0u8.encode(buf),
            Request::Check { spec } => {
                2u8.encode(buf);
                spec.encode(buf);
            }
            Request::Stats => 4u8.encode(buf),
            Request::CatalogPage { start, limit } => {
                5u8.encode(buf);
                start.encode(buf);
                limit.encode(buf);
            }
            Request::Status => 7u8.encode(buf),
            Request::Traced {
                trace_id,
                span_id,
                inner,
            } => {
                8u8.encode(buf);
                trace_id.encode(buf);
                span_id.encode(buf);
                inner.encode(buf);
            }
            Request::Metrics => 9u8.encode(buf),
            Request::TelemetryPush {
                source,
                seq,
                payload,
            } => {
                10u8.encode(buf);
                source.encode(buf);
                seq.encode(buf);
                payload.encode(buf);
            }
            Request::EstimateBatch { specs } => {
                11u8.encode(buf);
                specs.encode(buf);
            }
        }
    }
}

impl WireDecode for Request {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Request::decode_at(buf, Nest::Frame)
    }
}

impl Request {
    fn decode_at(buf: &mut &[u8], at: Nest) -> Result<Self, CodecError> {
        let tag = u8::decode(buf)?;
        if tag == 8 && at == Nest::Traced {
            return Err(CodecError::InvalidTag {
                what: "nested Request",
                tag,
            });
        }
        Ok(match tag {
            0 => Request::Describe,
            2 => Request::Check {
                spec: TargetingSpec::decode(buf)?,
            },
            4 => Request::Stats,
            5 => Request::CatalogPage {
                start: u32::decode(buf)?,
                limit: u32::decode(buf)?,
            },
            7 => Request::Status,
            8 => Request::Traced {
                trace_id: u64::decode(buf)?,
                span_id: u64::decode(buf)?,
                inner: Box::new(Request::decode_at(buf, Nest::Traced)?),
            },
            9 => Request::Metrics,
            10 => Request::TelemetryPush {
                source: String::decode(buf)?,
                seq: u64::decode(buf)?,
                payload: Vec::decode(buf)?,
            },
            11 => Request::EstimateBatch {
                specs: decode_seq(buf, MAX_BATCH_SPECS, TargetingSpec::decode)?,
            },
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "Request",
                    tag,
                })
            }
        })
    }
}

impl WireEncode for Response {
    fn encode(&self, buf: &mut Writer) {
        match self {
            Response::Described {
                label,
                catalog_len,
                gender_targeting,
                age_targeting,
                exclusions,
                same_feature_and,
                impressions,
                instance,
            } => {
                0u8.encode(buf);
                label.encode(buf);
                catalog_len.encode(buf);
                gender_targeting.encode(buf);
                age_targeting.encode(buf);
                exclusions.encode(buf);
                same_feature_and.encode(buf);
                impressions.encode(buf);
                instance.encode(buf);
            }
            Response::Ok => 2u8.encode(buf),
            Response::Estimate { value } => {
                3u8.encode(buf);
                value.encode(buf);
            }
            Response::Stats {
                estimates,
                validation_failures,
                rate_limited,
            } => {
                4u8.encode(buf);
                estimates.encode(buf);
                validation_failures.encode(buf);
                rate_limited.encode(buf);
            }
            Response::Error {
                code,
                message,
                retry_after,
            } => {
                5u8.encode(buf);
                code.tag().encode(buf);
                message.encode(buf);
                // Carried as whole microseconds: plenty for back-off hints.
                retry_after.map(|d| d.as_micros() as u64).encode(buf);
            }
            Response::CatalogPage {
                start,
                entries,
                next,
            } => {
                6u8.encode(buf);
                start.encode(buf);
                entries.encode(buf);
                next.encode(buf);
            }
            Response::StatusReport { healthy, body } => {
                8u8.encode(buf);
                healthy.encode(buf);
                body.encode(buf);
            }
            Response::Traced { server_us, inner } => {
                9u8.encode(buf);
                server_us.encode(buf);
                inner.encode(buf);
            }
            Response::MetricsText { text } => {
                10u8.encode(buf);
                text.encode(buf);
            }
            Response::TelemetryAck { seq } => {
                11u8.encode(buf);
                seq.encode(buf);
            }
            Response::Estimates { answers } => {
                12u8.encode(buf);
                answers.encode(buf);
            }
        }
    }
}

impl WireDecode for Response {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Response::decode_at(buf, Nest::Frame)
    }
}

impl Response {
    fn decode_at(buf: &mut &[u8], at: Nest) -> Result<Self, CodecError> {
        let tag = u8::decode(buf)?;
        let legal = match (at, tag) {
            (Nest::Answer, tag) => matches!(tag, 3 | 5),
            (at, 9) => at == Nest::Frame,
            _ => true,
        };
        if !legal {
            let what = match at {
                Nest::Answer => "Estimates answer",
                _ => "nested Response",
            };
            return Err(CodecError::InvalidTag { what, tag });
        }
        Ok(match tag {
            0 => Response::Described {
                label: String::decode(buf)?,
                catalog_len: u32::decode(buf)?,
                gender_targeting: bool::decode(buf)?,
                age_targeting: bool::decode(buf)?,
                exclusions: bool::decode(buf)?,
                same_feature_and: bool::decode(buf)?,
                impressions: bool::decode(buf)?,
                instance: u64::decode(buf)?,
            },
            2 => Response::Ok,
            3 => Response::Estimate {
                value: u64::decode(buf)?,
            },
            4 => Response::Stats {
                estimates: u64::decode(buf)?,
                validation_failures: u64::decode(buf)?,
                rate_limited: u64::decode(buf)?,
            },
            5 => Response::Error {
                code: ErrorCode::from_tag(u8::decode(buf)?)?,
                message: String::decode(buf)?,
                retry_after: Option::<u64>::decode(buf)?.map(Duration::from_micros),
            },
            6 => Response::CatalogPage {
                start: u32::decode(buf)?,
                entries: Vec::decode(buf)?,
                next: Option::decode(buf)?,
            },
            8 => Response::StatusReport {
                healthy: bool::decode(buf)?,
                body: String::decode(buf)?,
            },
            9 => Response::Traced {
                server_us: u64::decode(buf)?,
                inner: Box::new(Response::decode_at(buf, Nest::Traced)?),
            },
            10 => Response::MetricsText {
                text: String::decode(buf)?,
            },
            11 => Response::TelemetryAck {
                seq: u64::decode(buf)?,
            },
            12 => Response::Estimates {
                answers: decode_seq(buf, MAX_BATCH_SPECS, |buf| {
                    Response::decode_at(buf, Nest::Answer)
                })?,
            },
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "Response",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    fn roundtrip_req(r: Request) {
        assert_eq!(from_bytes::<Request>(&to_bytes(&r)).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        assert_eq!(from_bytes::<Response>(&to_bytes(&r)).unwrap(), r);
    }

    fn sample_spec() -> TargetingSpec {
        TargetingSpec::builder()
            .genders([Gender::Female])
            .ages([AgeBucket::A18_24, AgeBucket::A55Plus])
            .any_of([AttributeId(1), AttributeId(2)])
            .attribute(AttributeId(9))
            .exclude([AttributeId(4)])
            .build()
    }

    #[test]
    fn catalog_page_roundtrips() {
        roundtrip_req(Request::CatalogPage {
            start: 10,
            limit: 100,
        });
        roundtrip_resp(Response::CatalogPage {
            start: 10,
            entries: vec![
                ("Games — Racing games".into(), 0),
                ("Topics — Manga".into(), 1),
            ],
            next: Some(12),
        });
        roundtrip_resp(Response::CatalogPage {
            start: 0,
            entries: vec![],
            next: None,
        });
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Describe);
        roundtrip_req(Request::Check {
            spec: sample_spec(),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Status);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Described {
            label: "Facebook".into(),
            catalog_len: 667,
            gender_targeting: true,
            age_targeting: true,
            exclusions: true,
            same_feature_and: true,
            impressions: false,
            instance: 0x5EED_0000_0000_0001,
        });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Estimate { value: 5_200_000 });
        roundtrip_resp(Response::Stats {
            estimates: 1,
            validation_failures: 2,
            rate_limited: 3,
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::RateLimited,
            message: "slow down".into(),
            retry_after: Some(Duration::from_millis(250)),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Internal,
            message: "transient".into(),
            retry_after: None,
        });
        roundtrip_resp(Response::StatusReport {
            healthy: true,
            body: "epoch 3/10 · 0 alerts".into(),
        });
        roundtrip_resp(Response::StatusReport {
            healthy: false,
            body: String::new(),
        });
    }

    #[test]
    fn spec_roundtrip_preserves_semantics() {
        let spec = sample_spec();
        let decoded = from_bytes::<TargetingSpec>(&to_bytes(&spec)).unwrap();
        assert_eq!(decoded, spec);
        let everyone = from_bytes::<TargetingSpec>(&to_bytes(&TargetingSpec::everyone())).unwrap();
        assert!(everyone.demographics.is_unconstrained());
    }

    #[test]
    fn bad_gender_tag_rejected() {
        // Hand-craft a spec with gender index 9.
        let mut buf = Vec::new();
        Some(vec![9u8]).encode(&mut buf);
        Option::<Vec<u8>>::None.encode(&mut buf);
        Vec::<Vec<u32>>::new().encode(&mut buf);
        Vec::<u32>::new().encode(&mut buf);
        assert!(matches!(
            from_bytes::<TargetingSpec>(&buf),
            Err(CodecError::InvalidTag {
                what: "Gender",
                tag: 9
            })
        ));
    }

    #[test]
    fn traced_messages_roundtrip() {
        roundtrip_req(Request::Traced {
            trace_id: 0x0042_0000_0000_0001,
            span_id: 0x0042_0000_0000_0007,
            inner: Box::new(Request::Check {
                spec: sample_spec(),
            }),
        });
        roundtrip_resp(Response::Traced {
            server_us: 1_234,
            inner: Box::new(Response::Ok),
        });
    }

    #[test]
    fn telemetry_messages_roundtrip() {
        roundtrip_req(Request::Metrics);
        roundtrip_resp(Response::MetricsText {
            text: "# TYPE x counter\nx 1\n".into(),
        });
        roundtrip_req(Request::TelemetryPush {
            source: "daemon-a".into(),
            seq: 41,
            payload: vec![0, 1, 2, 255],
        });
        roundtrip_req(Request::TelemetryPush {
            source: String::new(),
            seq: 0,
            payload: Vec::new(),
        });
        roundtrip_resp(Response::TelemetryAck { seq: 41 });
    }

    #[test]
    fn batch_messages_roundtrip() {
        roundtrip_req(Request::EstimateBatch {
            specs: vec![sample_spec(), TargetingSpec::everyone()],
        });
        roundtrip_req(Request::EstimateBatch { specs: vec![] });
        roundtrip_req(Request::Traced {
            trace_id: 1,
            span_id: 2,
            inner: Box::new(Request::EstimateBatch {
                specs: vec![sample_spec()],
            }),
        });
        roundtrip_resp(Response::Traced {
            server_us: 12,
            inner: Box::new(Response::Estimates {
                answers: vec![
                    Response::Estimate { value: 1_000 },
                    Response::Error {
                        code: ErrorCode::RateLimited,
                        message: "query rate exceeded".into(),
                        retry_after: Some(Duration::from_millis(3)),
                    },
                ],
            }),
        });
    }

    #[test]
    fn illegal_nesting_is_rejected() {
        let batch = || {
            Box::new(Request::EstimateBatch {
                specs: vec![TargetingSpec::everyone()],
            })
        };
        let traced = |inner| Request::Traced {
            trace_id: 1,
            span_id: 2,
            inner,
        };
        let bad = traced(Box::new(traced(batch())));
        assert!(
            matches!(
                from_bytes::<Request>(&to_bytes(&bad)),
                Err(CodecError::InvalidTag { .. })
            ),
            "{bad:?}"
        );
        let traced = |inner| Response::Traced {
            server_us: 1,
            inner: Box::new(inner),
        };
        let batch = |answer| Response::Estimates {
            answers: vec![Response::Estimate { value: 1 }, answer],
        };
        for bad in [
            traced(traced(Response::Ok)),
            batch(Response::Ok),
            batch(traced(Response::Estimate { value: 2 })),
            batch(batch(Response::Estimate { value: 2 })),
        ] {
            assert!(
                matches!(
                    from_bytes::<Response>(&to_bytes(&bad)),
                    Err(CodecError::InvalidTag { .. })
                ),
                "{bad:?}"
            );
        }
    }

    /// A `Traced` header (`tag` plus `ids` u64 fields) repeated to fill a
    /// maximal frame: wrappers nested 60k–116k deep.
    fn deeply_nested(tag: u8, ids: usize) -> Vec<u8> {
        let mut header = vec![tag];
        for _ in 0..ids {
            header.extend_from_slice(&7u64.to_be_bytes());
        }
        let mut bytes = Vec::new();
        while bytes.len() + header.len() <= MAX_FRAME_BYTES as usize {
            bytes.extend_from_slice(&header);
        }
        bytes
    }

    #[test]
    fn deeply_nested_frames_fail_without_recursing() {
        // A connection thread's default stack: unbounded recursion over
        // this frame overflows it and aborts the whole process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                assert!(matches!(
                    from_bytes::<Request>(&deeply_nested(8, 2)),
                    Err(CodecError::InvalidTag { .. })
                ));
                assert!(matches!(
                    from_bytes::<Response>(&deeply_nested(9, 1)),
                    Err(CodecError::InvalidTag { .. })
                ));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let mut bytes = vec![11u8];
        (MAX_BATCH_SPECS as u32 + 1).encode(&mut bytes);
        assert!(matches!(
            from_bytes::<Request>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
        bytes[0] = 12;
        assert!(matches!(
            from_bytes::<Response>(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn retired_tags_decode_as_invalid_tags() {
        // Request 1 (a per-attribute metadata lookup), 3 (a one-shot
        // estimate) and 6 (a correlation-id wrapper), and response 1 (the
        // lookup's answer) and 7 (the wrapper's answer), each followed by
        // what it used to carry.
        let mut info = vec![1u8];
        42u32.encode(&mut info);
        let mut estimate = vec![3u8];
        TargetingSpec::everyone().encode(&mut estimate);
        let mut tagged = vec![6u8];
        7u64.encode(&mut tagged);
        tagged.push(0);
        for (tag, bytes) in [(1, info), (3, estimate), (6, tagged)] {
            assert!(matches!(
                from_bytes::<Request>(&bytes),
                Err(CodecError::InvalidTag { what: "Request", tag: t }) if t == tag
            ));
        }
        let mut info = vec![1u8];
        "Games — Racing games".to_string().encode(&mut info);
        0u16.encode(&mut info);
        let mut tagged = vec![7u8];
        7u64.encode(&mut tagged);
        tagged.push(2);
        for (tag, bytes) in [(1, info), (7, tagged)] {
            assert!(matches!(
                from_bytes::<Response>(&bytes),
                Err(CodecError::InvalidTag { what: "Response", tag: t }) if t == tag
            ));
        }
    }

    #[test]
    fn unknown_message_tags_rejected() {
        assert!(from_bytes::<Request>(&[99]).is_err());
        assert!(from_bytes::<Response>(&[99]).is_err());
        assert!(matches!(
            ErrorCode::from_tag(200),
            Err(CodecError::InvalidTag {
                what: "ErrorCode",
                tag: 200
            })
        ));
    }
}
