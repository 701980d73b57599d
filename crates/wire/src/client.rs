//! Blocking client for the wire protocol, hardened for long audits.
//!
//! The client plays the role of the paper's measurement scripts: a
//! single connection issuing request/response pairs against a platform
//! that throttles, hiccups, and drops connections. Resilience is split
//! across layers — this client owns the *transport*:
//!
//! * connect/read/write timeouts (no audit thread hangs forever);
//! * automatic reconnect when the server drops the connection;
//! * a [`RetryPolicy`] (exponential backoff, deterministic jitter,
//!   server `retry_after` hints honoured) applied to transport failures
//!   and rate-limit rejections;
//! * a [`CircuitBreaker`] that stops hammering a dead endpoint after
//!   consecutive transport failures, surfacing
//!   [`ClientError::CircuitOpen`];
//! * once [`Client::describe`] has seen the server's instance id, a
//!   reconnect that reaches a different server (a killed server's port
//!   handed to another) counts as a transport failure.
//!
//! Application-level failures (invalid targeting, transient platform
//! errors) pass through untouched; the audit layer's `ResilientSource`
//! decides whether to retry, skip, or abort those.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use adcomp_obs::lock;
use adcomp_obs::metrics::{duration_us_buckets, Counter, Gauge, Histogram, Registry};
use adcomp_obs::trace::{current_context, TraceContext, Tracer};
use adcomp_platform::{CircuitBreaker, RetryPolicy};
use adcomp_targeting::TargetingSpec;

use crate::codec::{from_bytes, CodecError, WireEncode};
use crate::frame::{read_frame, write_message, FrameError, MAX_FRAME_BYTES};
use crate::message::{ErrorCode, Request, Response, MAX_BATCH_SPECS};

/// Spec bytes one batch frame may carry: the frame limit less room for
/// the `Traced` and batch headers (22 bytes).
const BATCH_SPEC_BYTES: usize = MAX_FRAME_BYTES as usize - 64;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or framing problem (after exhausting retries).
    Transport(FrameError),
    /// Undecodable response.
    Codec(CodecError),
    /// Server answered with an error.
    Server {
        /// Error code.
        code: ErrorCode,
        /// Detail message.
        message: String,
        /// Server-advertised back-off (rate limiting).
        retry_after: Option<Duration>,
    },
    /// The circuit breaker is open; the endpoint looks dead.
    CircuitOpen {
        /// Time until the breaker admits a probe.
        retry_in: Duration,
    },
    /// Server answered with a response of the wrong kind.
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Server { code, message, .. } => write!(f, "server {code:?}: {message}"),
            ClientError::CircuitOpen { retry_in } => {
                write!(f, "circuit open; retry in {retry_in:?}")
            }
            ClientError::UnexpectedResponse => write!(f, "unexpected response kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Why a pipelined round stopped before every in-flight request was
/// answered.
enum RoundAbort {
    /// The connection failed; unanswered requests are safe to re-issue.
    Transport(FrameError),
    /// Undecodable answer; never retried.
    Fatal(ClientError),
}

/// Transport tuning for [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read/write socket timeout (`None` = block forever).
    pub io_timeout: Option<Duration>,
    /// Retry schedule for transport failures and rate-limit rejections.
    pub retry: RetryPolicy,
    /// Consecutive transport failures before the circuit opens.
    pub breaker_threshold: u32,
    /// How long an open circuit rejects requests before probing.
    pub breaker_cooldown: Duration,
    /// Maximum batch frames in flight on the connection during
    /// [`Client::estimate_batch`] (clamped to at least 1). Each frame
    /// carries up to [`MAX_BATCH_SPECS`] specs, so a window of 1 still
    /// sends a batch of that size as one frame and one reply.
    pub pipeline_window: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::standard(0),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(5),
            pipeline_window: 32,
        }
    }
}

impl ClientConfig {
    /// A config for tests: tiny timeouts and backoffs.
    pub fn fast() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(2)),
            retry: RetryPolicy::fast(5),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(50),
            pipeline_window: 32,
        }
    }
}

/// One page of catalog metadata: the entries plus the next page's start
/// id when more remain.
pub type CatalogPage = (Vec<(String, u16)>, Option<u32>);

/// Interface description returned by [`Client::describe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceDescription {
    /// Report label.
    pub label: String,
    /// Catalog size.
    pub catalog_len: u32,
    /// Gender targeting allowed?
    pub gender_targeting: bool,
    /// Age targeting allowed?
    pub age_targeting: bool,
    /// Exclusions allowed?
    pub exclusions: bool,
    /// Same-feature AND allowed?
    pub same_feature_and: bool,
    /// Estimates are impressions?
    pub impressions: bool,
}

/// Transport instrument handles, resolved once per client.
struct ClientMetrics {
    /// Round-trip time of successful exchanges and of each answered
    /// batch frame.
    rtt_us: Arc<Histogram>,
    /// Connections re-opened after a transport teardown (the initial
    /// connect is not counted).
    reconnects: Arc<Counter>,
    /// Transport-level retries, by reason.
    retries_rate_limited: Arc<Counter>,
    retries_transport: Arc<Counter>,
    /// Timed-out operations, by phase.
    timeouts_connect: Arc<Counter>,
    timeouts_io: Arc<Counter>,
    /// Batch frames currently in flight during a pipelined batch.
    pipeline_inflight: Arc<Gauge>,
}

impl ClientMetrics {
    fn resolve() -> Self {
        let reg = Registry::global();
        ClientMetrics {
            rtt_us: reg.histogram("adcomp_wire_rtt_us", duration_us_buckets()),
            reconnects: reg.counter("adcomp_wire_reconnects_total"),
            retries_rate_limited: reg
                .counter_with("adcomp_wire_retries_total", &[("reason", "rate_limited")]),
            retries_transport: reg
                .counter_with("adcomp_wire_retries_total", &[("reason", "transport")]),
            timeouts_connect: reg.counter_with("adcomp_wire_timeouts_total", &[("op", "connect")]),
            timeouts_io: reg.counter_with("adcomp_wire_timeouts_total", &[("op", "io")]),
            pipeline_inflight: reg.gauge("adcomp_wire_pipeline_inflight"),
        }
    }
}

fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// A blocking protocol client. Internally synchronised, so it can be
/// shared behind an `Arc` by a multi-threaded audit.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Mutex<Option<Conn>>,
    breaker: Mutex<CircuitBreaker>,
    /// Epoch for the breaker's injected clock.
    epoch: Instant,
    metrics: ClientMetrics,
    /// The server's instance id, from the first `Described` answer.
    instance: OnceLock<u64>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a server with default transport tuning.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit transport tuning.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let breaker = CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
        let client = Client {
            addrs,
            config,
            conn: Mutex::new(None),
            breaker: Mutex::new(breaker),
            epoch: Instant::now(),
            metrics: ClientMetrics::resolve(),
            instance: OnceLock::new(),
        };
        // Fail fast on an unreachable endpoint, as `connect` always did.
        let conn = client.open_conn()?;
        *lock(&client.conn) = Some(conn);
        Ok(client)
    }

    /// The transport tuning in effect.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    fn open_conn(&self) -> std::io::Result<Conn> {
        let mut last_err = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(self.config.io_timeout)?;
                    stream.set_write_timeout(self.config.io_timeout)?;
                    let writer = stream.try_clone()?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => {
                    if is_timeout(e.kind()) {
                        self.metrics.timeouts_connect.inc();
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("addrs is non-empty"))
    }

    /// Opens a new connection after a teardown. Once the client knows
    /// its server's instance id, the new connection must answer
    /// `Describe` with that same id: a killed server's port can be handed
    /// to another server, whose answers would otherwise pass for the old
    /// one's. Any other answer is a transport failure, retried like one.
    fn reopen(&self) -> Result<Conn, FrameError> {
        let mut conn = self.open_conn()?;
        if let Some(&expected) = self.instance.get() {
            write_message(&mut conn.writer, &Request::Describe)?;
            let answer = from_bytes::<Response>(&read_frame(&mut conn.reader)?);
            if !matches!(answer, Ok(Response::Described { instance, .. }) if instance == expected) {
                return Err(FrameError::Io(std::io::Error::other(
                    "reconnected to a different server instance",
                )));
            }
        }
        self.metrics.reconnects.inc();
        Ok(conn)
    }

    /// One request/response exchange on the current connection,
    /// reconnecting first if a previous failure tore it down.
    fn exchange(&self, request: &Request) -> Result<Response, ClientError> {
        let mut guard = lock(&self.conn);
        if guard.is_none() {
            *guard = Some(self.reopen()?);
        }
        let conn = guard.as_mut().expect("connection just ensured");
        let started = Instant::now();
        let result = (|| {
            write_message(&mut conn.writer, request)?;
            let payload = read_frame(&mut conn.reader)?;
            Ok(from_bytes::<Response>(&payload)?)
        })();
        match &result {
            Ok(_) => self.metrics.rtt_us.observe_duration(started.elapsed()),
            Err(ClientError::Transport(e)) => {
                if let FrameError::Io(io) = e {
                    if is_timeout(io.kind()) {
                        self.metrics.timeouts_io.inc();
                    }
                }
                // Tear down so the next attempt reconnects.
                *guard = None;
            }
            Err(_) => {}
        }
        result
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn call(&self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            lock(&self.breaker)
                .check(self.now())
                .map_err(|retry_in| ClientError::CircuitOpen { retry_in })?;
            match self.exchange(request) {
                Ok(Response::Error {
                    code: ErrorCode::RateLimited,
                    message,
                    retry_after,
                }) => {
                    // The endpoint is alive — a throttle is not a fault.
                    lock(&self.breaker).record_success();
                    if self.config.retry.should_retry(attempt) {
                        self.metrics.retries_rate_limited.inc();
                        std::thread::sleep(self.config.retry.backoff(attempt, retry_after));
                        attempt += 1;
                    } else {
                        return Ok(Response::Error {
                            code: ErrorCode::RateLimited,
                            message,
                            retry_after,
                        });
                    }
                }
                Ok(response) => {
                    lock(&self.breaker).record_success();
                    return Ok(response);
                }
                Err(ClientError::Transport(e)) => {
                    lock(&self.breaker).record_failure(self.now());
                    if self.config.retry.should_retry(attempt) {
                        self.metrics.retries_transport.inc();
                        std::thread::sleep(self.config.retry.backoff(attempt, None));
                        attempt += 1;
                    } else {
                        return Err(ClientError::Transport(e));
                    }
                }
                // Codec errors are bugs, not weather; don't retry.
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the interface description.
    pub fn describe(&self) -> Result<InterfaceDescription, ClientError> {
        match self.call(&Request::Describe)? {
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
                self.instance.get_or_init(|| instance);
                Ok(InterfaceDescription {
                    label,
                    catalog_len,
                    gender_targeting,
                    age_targeting,
                    exclusions,
                    same_feature_and,
                    impressions,
                })
            }
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches one attribute's name and feature.
    pub fn attribute_info(&self, id: u32) -> Result<(String, u16), ClientError> {
        match self.call(&Request::AttributeInfo { id })? {
            Response::AttributeInfo { name, feature } => Ok((name, feature)),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Validates a spec server-side.
    pub fn check(&self, spec: &TargetingSpec) -> Result<(), ClientError> {
        match self.call(&Request::Check { spec: spec.clone() })? {
            Response::Ok => Ok(()),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Unwraps [`Response::Traced`], echoing the server's handling time
    /// into the trace as a `platform:remote` leaf (latency attribution
    /// splits wire RTT into network and platform time from it).
    fn trace_unwrap(response: Response) -> Response {
        match response {
            Response::Traced { server_us, inner } => {
                Tracer::global()
                    .event("platform:remote", &[("duration_us", server_us.to_string())]);
                *inner
            }
            other => other,
        }
    }

    /// Fetches the rounded audience-size estimate for a spec: a one-slot
    /// [`estimate_batch`](Client::estimate_batch).
    pub fn estimate(&self, spec: &TargetingSpec) -> Result<u64, ClientError> {
        let mut results = self.estimate_batch(std::slice::from_ref(spec));
        results.pop().expect("one result per spec")
    }

    /// Fetches estimates for a batch of specs in batch frames
    /// ([`Request::EstimateBatch`]): the specs are cut into frames that
    /// each hold at most [`MAX_BATCH_SPECS`] specs and fit
    /// [`MAX_FRAME_BYTES`], up to [`ClientConfig::pipeline_window`]
    /// frames ride in flight at once, and since the server answers a
    /// connection's frames in receive order, each answer belongs to the
    /// oldest frame still in flight. A batch that fits one frame costs
    /// one round trip. Inside a span, the frames carry the caller's
    /// [`TraceContext`] so the server's handling joins the caller's
    /// trace.
    ///
    /// Per-query server failures land in that query's slot. A transport
    /// failure tears the connection down, reconnects, and re-issues only
    /// the *unanswered* slots (under the retry policy), so answered
    /// queries are never replayed; rate-limited slots are retried per
    /// policy honouring the server's back-off hint. The connection lock
    /// is held for the whole batch.
    pub fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, ClientError>> {
        // One wire:rtt span covers the whole batch; each frame carries
        // its context so the server parents its per-frame spans under it.
        let span = current_context().map(|_| Tracer::global().span("wire:rtt"));
        let trace = span.as_ref().map(|s| s.context());
        let mut results: Vec<Option<Result<u64, ClientError>>> =
            (0..specs.len()).map(|_| None).collect();
        let mut todo: Vec<usize> = (0..specs.len()).collect();
        let mut rate_limit_attempt: u32 = 0;
        let mut transport_attempt: u32 = 0;
        let mut guard = lock(&self.conn);
        while !todo.is_empty() {
            if let Err(retry_in) = lock(&self.breaker).check(self.now()) {
                for &slot in &todo {
                    results[slot] = Some(Err(ClientError::CircuitOpen { retry_in }));
                }
                break;
            }
            if guard.is_none() {
                match self.reopen() {
                    Ok(conn) => *guard = Some(conn),
                    Err(e) => {
                        lock(&self.breaker).record_failure(self.now());
                        if self.config.retry.should_retry(transport_attempt) {
                            self.metrics.retries_transport.inc();
                            std::thread::sleep(self.config.retry.backoff(transport_attempt, None));
                            transport_attempt += 1;
                            continue;
                        }
                        // Only the first unanswered slot carries the real
                        // error (io::Error does not clone); the rest
                        // report the connection as gone.
                        let mut original = Some(e);
                        for &slot in &todo {
                            results[slot] = Some(Err(ClientError::Transport(
                                original.take().unwrap_or(FrameError::Closed),
                            )));
                        }
                        break;
                    }
                }
            }
            let conn = guard.as_mut().expect("connection just ensured");
            match self.pipeline_round(conn, specs, &todo, &mut results, trace) {
                Ok(rate_limited) => {
                    lock(&self.breaker).record_success();
                    transport_attempt = 0;
                    if rate_limited.is_empty() {
                        break;
                    }
                    if self.config.retry.should_retry(rate_limit_attempt) {
                        self.metrics.retries_rate_limited.inc();
                        let hint = rate_limited.iter().filter_map(|(_, h)| *h).max();
                        std::thread::sleep(self.config.retry.backoff(rate_limit_attempt, hint));
                        rate_limit_attempt += 1;
                    } else {
                        for (slot, retry_after) in rate_limited {
                            results[slot] = Some(Err(ClientError::Server {
                                code: ErrorCode::RateLimited,
                                message: "query rate exceeded".into(),
                                retry_after,
                            }));
                        }
                        break;
                    }
                }
                Err(RoundAbort::Transport(e)) => {
                    if let FrameError::Io(io) = &e {
                        if is_timeout(io.kind()) {
                            self.metrics.timeouts_io.inc();
                        }
                    }
                    // Tear down; the next iteration reconnects and
                    // re-issues only what is still unanswered.
                    *guard = None;
                    lock(&self.breaker).record_failure(self.now());
                    todo.retain(|&slot| results[slot].is_none());
                    if self.config.retry.should_retry(transport_attempt) {
                        self.metrics.retries_transport.inc();
                        std::thread::sleep(self.config.retry.backoff(transport_attempt, None));
                        transport_attempt += 1;
                    } else {
                        let mut original = Some(e);
                        for &slot in &todo {
                            results[slot] = Some(Err(ClientError::Transport(
                                original.take().unwrap_or(FrameError::Closed),
                            )));
                        }
                        break;
                    }
                }
                Err(RoundAbort::Fatal(e)) => {
                    let mut original = Some(e);
                    for &slot in &todo {
                        if results[slot].is_none() {
                            results[slot] = Some(Err(original
                                .take()
                                .unwrap_or(ClientError::UnexpectedResponse)));
                        }
                    }
                    break;
                }
            }
            todo.retain(|&slot| results[slot].is_none());
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(ClientError::UnexpectedResponse)))
            .collect()
    }

    /// One sliding-window pass over `todo` on the current connection:
    /// sends its slots as batch frames, keeps up to the configured window
    /// of frames in flight, and files each answer into `results` under
    /// the oldest frame in flight, recording that frame's round trip.
    /// Rate-limited slots are returned with their back-off hints for the
    /// caller's retry loop.
    fn pipeline_round(
        &self,
        conn: &mut Conn,
        specs: &[TargetingSpec],
        todo: &[usize],
        results: &mut [Option<Result<u64, ClientError>>],
        trace: Option<TraceContext>,
    ) -> Result<Vec<(usize, Option<Duration>)>, RoundAbort> {
        let window = self.config.pipeline_window.max(1);
        let mut rate_limited = Vec::new();
        // Frames sent and not yet answered, oldest first, with the time
        // each was sent.
        let mut in_flight: VecDeque<(&[usize], Instant)> = VecDeque::new();
        let mut frames = batch_frames(specs, todo).into_iter();
        // A failed send stops sending, but the answers to frames already
        // sent may have arrived: read them before giving up, so they are
        // not asked again.
        let mut send_failed = None;
        loop {
            while send_failed.is_none() && in_flight.len() < window {
                let Some(slots) = frames.next() else { break };
                let batch = Request::EstimateBatch {
                    specs: slots.iter().map(|&slot| specs[slot].clone()).collect(),
                };
                let request = match trace {
                    Some(ctx) => Request::Traced {
                        trace_id: ctx.trace_id,
                        span_id: ctx.span_id,
                        inner: Box::new(batch),
                    },
                    None => batch,
                };
                let sent = Instant::now();
                match write_message(&mut conn.writer, &request) {
                    Ok(()) => in_flight.push_back((slots, sent)),
                    Err(e) => send_failed = Some(e),
                }
            }
            self.metrics.pipeline_inflight.set(in_flight.len() as i64);
            let Some((slots, sent)) = in_flight.pop_front() else {
                return match send_failed {
                    Some(e) => Err(RoundAbort::Transport(e)),
                    None => Ok(rate_limited),
                };
            };
            let payload = read_frame(&mut conn.reader)
                .map_err(|e| RoundAbort::Transport(send_failed.take().unwrap_or(e)))?;
            self.metrics.rtt_us.observe_duration(sent.elapsed());
            let response = from_bytes::<Response>(&payload)
                .map_err(|e| RoundAbort::Fatal(ClientError::Codec(e)))?;
            match Self::trace_unwrap(response) {
                Response::Estimates { answers } if answers.len() == slots.len() => {
                    for (&slot, answer) in slots.iter().zip(answers) {
                        file_answer(slot, answer, results, &mut rate_limited);
                    }
                }
                // An error for the frame as a whole (`BadRequest` from a
                // service that does not serve batches) answers each slot;
                // any other shape answers none of them.
                whole @ Response::Error { .. } => {
                    for &slot in slots {
                        file_answer(slot, whole.clone(), results, &mut rate_limited);
                    }
                }
                _ => {
                    for &slot in slots {
                        results[slot] = Some(Err(ClientError::UnexpectedResponse));
                    }
                }
            }
        }
    }

    /// Fetches one page of catalog metadata (`(name, feature)` pairs
    /// starting at id `start`); returns the entries and the next page's
    /// start id when more remain.
    pub fn catalog_page(&self, start: u32, limit: u32) -> Result<CatalogPage, ClientError> {
        match self.call(&Request::CatalogPage { start, limit })? {
            Response::CatalogPage { entries, next, .. } => Ok((entries, next)),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the service's status report (health flag plus a
    /// human-readable body).
    pub fn status(&self) -> Result<(bool, String), ClientError> {
        match self.call(&Request::Status)? {
            Response::StatusReport { healthy, body } => Ok((healthy, body)),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Scrapes the serving process's full Prometheus registry text.
    pub fn metrics(&self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::MetricsText { text } => Ok(text),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Pushes one opaque telemetry record to an aggregator sink,
    /// returning the acknowledged sequence number. Rides the same
    /// retry/backoff/breaker machinery as every other call.
    pub fn telemetry_push(
        &self,
        source: &str,
        seq: u64,
        payload: Vec<u8>,
    ) -> Result<u64, ClientError> {
        let request = Request::TelemetryPush {
            source: source.to_string(),
            seq,
            payload,
        };
        match self.call(&request)? {
            Response::TelemetryAck { seq } => Ok(seq),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the server's query counters.
    pub fn stats(&self) -> Result<(u64, u64, u64), ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats {
                estimates,
                validation_failures,
                rate_limited,
            } => Ok((estimates, validation_failures, rate_limited)),
            Response::Error {
                code,
                message,
                retry_after,
            } => Err(ClientError::Server {
                code,
                message,
                retry_after,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

/// Cuts `todo` into consecutive runs that each fit one batch frame: at
/// most [`MAX_BATCH_SPECS`] specs and [`BATCH_SPEC_BYTES`] of them. A
/// spec too large to share a frame goes alone.
fn batch_frames<'a>(specs: &[TargetingSpec], todo: &'a [usize]) -> Vec<&'a [usize]> {
    let mut frames = Vec::new();
    let mut encoded = Vec::new();
    let (mut start, mut bytes) = (0, 0);
    for (i, &slot) in todo.iter().enumerate() {
        encoded.clear();
        specs[slot].encode(&mut encoded);
        let len = encoded.len();
        if i > start && (i - start == MAX_BATCH_SPECS || bytes + len > BATCH_SPEC_BYTES) {
            frames.push(&todo[start..i]);
            (start, bytes) = (i, 0);
        }
        bytes += len;
    }
    if start < todo.len() {
        frames.push(&todo[start..]);
    }
    frames
}

/// Files one slot's answer: a value, a server error, or a rate-limit
/// refusal left for the caller's retry loop.
fn file_answer(
    slot: usize,
    answer: Response,
    results: &mut [Option<Result<u64, ClientError>>],
    rate_limited: &mut Vec<(usize, Option<Duration>)>,
) {
    let result = match answer {
        Response::Estimate { value } => Ok(value),
        Response::Error {
            code: ErrorCode::RateLimited,
            retry_after,
            ..
        } => {
            rate_limited.push((slot, retry_after));
            return;
        }
        Response::Error {
            code,
            message,
            retry_after,
        } => Err(ClientError::Server {
            code,
            message,
            retry_after,
        }),
        _ => Err(ClientError::UnexpectedResponse),
    };
    results[slot] = Some(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_platform::{SimScale, Simulation};
    use adcomp_targeting::AttributeId;

    #[test]
    fn each_answered_batch_frame_records_its_round_trip() {
        // No other test in this binary runs a client, so the global
        // histogram moves only for these frames.
        let sim = Simulation::build(7, SimScale::Test);
        let handle = crate::serve(
            sim.linkedin.clone(),
            "127.0.0.1:0",
            crate::ServerConfig::default(),
        )
        .unwrap();
        let client = Client::connect_with(
            handle.addr(),
            ClientConfig {
                pipeline_window: 2,
                ..ClientConfig::fast()
            },
        )
        .unwrap();
        let rtt = Registry::global().histogram("adcomp_wire_rtt_us", duration_us_buckets());
        let specs: Vec<TargetingSpec> = (0..2 * MAX_BATCH_SPECS as u32 + 1)
            .map(|i| TargetingSpec::and_of([AttributeId(i % 40)]))
            .collect();
        let before = rtt.count();
        assert!(client.estimate_batch(&specs).iter().all(Result::is_ok));
        assert_eq!(rtt.count() - before, 3, "one round trip per frame");
        assert!(client.estimate(&specs[0]).is_ok());
        assert_eq!(rtt.count() - before, 4);
        handle.shutdown();
    }
}
