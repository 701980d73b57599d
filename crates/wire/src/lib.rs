//! Wire protocol and transport for the simulated platform APIs.
//!
//! The paper automated the targeting UIs' underlying size-estimate APIs
//! with scripts; this crate is that measurement plumbing for the
//! simulators, built the way the Rust networking guides teach a
//! synchronous stack: explicit framing, a total (never-panicking)
//! decoder, and a thread-per-connection blocking server —
//! no async runtime required at audit query rates.
//!
//! * [`codec`] — length-checked binary encoding of every protocol type;
//! * [`frame`] — u32-length-prefixed frames with a hard size cap, each
//!   sent in one write;
//! * [`message`] — the request/response protocol (describe, browse,
//!   validate, stats, and [`Request::EstimateBatch`], the one estimate
//!   request: a one-shot query is a batch of one);
//! * [`server`] — expose any [`PlatformApi`](adcomp_platform::PlatformApi)
//!   (a plain [`AdPlatform`](adcomp_platform::AdPlatform) or a
//!   fault-injecting wrapper) on a TCP socket, with optional
//!   token-bucket rate limiting and a connection-fault hook; each
//!   connection's thread answers its frames in receive order, so fault
//!   plans remain deterministic and a client may keep several frames in
//!   flight on one connection (pipelining) with no correlation ids;
//! * [`client`] — blocking client with timeouts, automatic reconnect
//!   (checked against the server's instance id once it is known),
//!   retry with backoff, a circuit breaker, and
//!   [`estimate_batch`](Client::estimate_batch) (a sliding window of
//!   batch frames, each answer filed under the oldest frame in flight;
//!   reconnects re-issue only unanswered queries).
//!
//! # Distributed tracing
//!
//! When the calling thread is inside an `adcomp-obs` span, the client
//! wraps its batch frames in [`Request::Traced`] carrying the caller's
//! `TraceContext` (`trace_id` + `span_id`). The
//! server continues that span around its handling and answers with
//! [`Response::Traced`], echoing its handling time — so one estimate
//! yields a single span tree across processes, and wire RTT splits
//! into network and platform segments. Telemetry also rides the same
//! frames: [`Request::Metrics`] scrapes a process's Prometheus text
//! and [`Request::TelemetryPush`] carries opaque `adcomp-agg` records
//! to an aggregator sink.
//!
//! # Loopback example
//!
//! ```
//! use adcomp_platform::{SimScale, Simulation};
//! use adcomp_targeting::TargetingSpec;
//! use adcomp_wire::{serve, Client, ServerConfig};
//!
//! let sim = Simulation::build(7, SimScale::Test);
//! let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let client = Client::connect(handle.addr()).unwrap();
//! assert_eq!(client.describe().unwrap().label, "LinkedIn");
//! let reach = client.estimate(&TargetingSpec::everyone()).unwrap();
//! assert!(reach > 0);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod message;

pub mod client;
pub mod server;

pub use client::{CatalogPage, Client, ClientConfig, ClientError, InterfaceDescription};
pub use codec::{from_bytes, to_bytes, CodecError, WireDecode, WireEncode};
pub use frame::{read_frame, write_frame, write_message, FrameError, MAX_FRAME_BYTES};
pub use message::{ErrorCode, Request, Response, MAX_BATCH_SPECS};
pub use server::{
    serve, serve_service, ConnectionFault, ConnectionFaultHook, CountingHook, FaultPlanHook,
    PlatformService, ServerConfig, ServerHandle, WireService, DRAIN_SUB_BATCH,
};
