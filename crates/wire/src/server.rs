//! Threaded TCP server exposing a platform over the wire protocol.
//!
//! One accept thread plus one thread per connection — the smoltcp-style
//! synchronous event model is plenty for an audit workload of one or a
//! few measurement clients. A connection's thread owns its socket: it
//! reads a frame, answers it and writes the answer (one `write` per
//! frame) before it reads the next, so a connection's answers leave in
//! the order its requests arrived — the one pipelining rule, on which a
//! client with several frames in flight files each answer under the
//! oldest unanswered frame. A batch frame ([`Request::EstimateBatch`])
//! passes the rate limiter one spec at a time and reaches the platform
//! as one [`PlatformApi::reach_estimates`] call. A pipelining client
//! keeps frames queued on the socket, so the thread goes straight from
//! one answer to the next request. Shutdown
//! closes the read half of each socket: a thread answers what its client
//! already sent, reads end-of-stream and exits (see
//! [`ServerHandle::shutdown`]). A shared token-bucket rate limiter
//! models the query throttling real platforms apply (and that the
//! paper's ethics section respected from the client side).
//!
//! The server dispatches to a [`WireService`] — any request handler.
//! [`serve`] wraps a [`PlatformApi`] in the standard [`PlatformService`]
//! so the same transport can expose a plain
//! [`AdPlatform`](adcomp_platform::AdPlatform) or a
//! [`FaultyPlatform`](adcomp_platform::FaultyPlatform), while
//! [`serve_service`] lets non-platform services (the continuous-audit
//! daemon's status endpoint) ride the same frames, rate limiting, and
//! drain path. For
//! *transport-level* faults a [`ConnectionFaultHook`] in [`ServerConfig`]
//! is consulted once per received frame (indexed by a global request
//! counter) and may kill the connection — cleanly between frames, or
//! mid-frame, leaving the client a torn partial payload. Dropped requests
//! are never dispatched to the platform, so the platform's own fault and
//! query counters stay deterministic whatever the transport does.

use std::hash::{BuildHasher, RandomState};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use adcomp_obs::lock;
use adcomp_obs::metrics::{Counter, Registry};
use adcomp_obs::trace::{TraceContext, Tracer};
use adcomp_platform::{
    EstimateRequest, FaultKind, FaultPlan, PlatformApi, PlatformError, TokenBucket,
};
use adcomp_targeting::{TargetingSpec, ValidationError};

use crate::codec::from_bytes;
use crate::frame::{read_frame, write_message};
use crate::message::{ErrorCode, Request, Response};

/// A request handler behind the wire transport.
///
/// The server owns framing, fault injection, rate limiting, pipelining
/// and the shutdown drain; the service only turns one [`Request`] into
/// one [`Response`]. [`PlatformService`] is the standard implementation
/// over a [`PlatformApi`]; the continuous-audit daemon serves its
/// status endpoint through its own implementation.
pub trait WireService: Send + Sync {
    /// Answers one request. Must not block indefinitely.
    fn handle(&self, request: Request) -> Response;

    /// Called when the transport rejects a request for rate (so the
    /// service can keep its own throttling counters).
    fn note_rate_limited(&self) {}
}

/// The standard [`WireService`]: dispatches the full platform protocol
/// (describe/check/estimate/catalog/stats) to a [`PlatformApi`] and
/// answers [`Request::Status`] as healthy with the platform label. Each
/// one has its own instance id, which its `Described` answers carry.
pub struct PlatformService {
    platform: Arc<dyn PlatformApi>,
    instance: u64,
}

impl PlatformService {
    /// Serves `platform` under a fresh instance id. The platform is
    /// built first ([`PlatformApi::materialize`]), so no client waits
    /// out its build.
    pub fn new(platform: Arc<dyn PlatformApi>) -> Self {
        platform.materialize();
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Randomly keyed, so ids from other processes on the host differ
        // too, and counted, so two services here never share one.
        let instance = RandomState::new().hash_one(NEXT.fetch_add(1, Ordering::Relaxed));
        PlatformService { platform, instance }
    }
}

impl WireService for PlatformService {
    fn handle(&self, request: Request) -> Response {
        handle_request(self.platform.as_ref(), self.instance, request)
    }

    fn note_rate_limited(&self) {
        self.platform.note_rate_limited();
    }
}

/// A transport-level fault decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectionFault {
    /// Close the connection instead of answering, at a frame boundary.
    Drop,
    /// Write a torn partial frame (length prefix promising more bytes
    /// than follow), then close.
    DropMidFrame,
}

/// Decides, per received request, whether to kill the connection.
///
/// `index` is a global counter across all connections, incremented once
/// per frame successfully read — so a deterministic hook yields a
/// deterministic fault sequence even across reconnects.
pub trait ConnectionFaultHook: Send + Sync {
    /// The fault (if any) for request number `index`.
    fn fault_for(&self, index: u64) -> Option<ConnectionFault>;
}

/// Adapts a [`FaultPlan`]'s `Drop` rules into a [`ConnectionFaultHook`];
/// platform-level rules in the same plan are ignored here (the
/// [`FaultyPlatform`](adcomp_platform::FaultyPlatform) handles those).
#[derive(Clone, Debug)]
pub struct FaultPlanHook(pub FaultPlan);

impl ConnectionFaultHook for FaultPlanHook {
    fn fault_for(&self, index: u64) -> Option<ConnectionFault> {
        match self.0.action_at(index) {
            Some(FaultKind::Drop { mid_frame: true }) => Some(ConnectionFault::DropMidFrame),
            Some(FaultKind::Drop { mid_frame: false }) => Some(ConnectionFault::Drop),
            _ => None,
        }
    }
}

/// Wraps a hook and counts the frames it is consulted on and the faults
/// it fires, so a test can assert that its injected drops happened
/// rather than passing because the schedule never came due.
#[derive(Debug, Default)]
pub struct CountingHook<H> {
    inner: H,
    frames: AtomicU64,
    fired: AtomicU64,
}

impl<H> CountingHook<H> {
    /// Counts what `inner` sees, starting from zero.
    pub fn new(inner: H) -> Self {
        CountingHook {
            inner,
            frames: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Frames the hook has been consulted on, across all connections.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// Connections the hook has killed.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }
}

impl<H: ConnectionFaultHook> ConnectionFaultHook for CountingHook<H> {
    fn fault_for(&self, index: u64) -> Option<ConnectionFault> {
        self.frames.fetch_add(1, Ordering::SeqCst);
        let fault = self.inner.fault_for(index);
        if fault.is_some() {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }
}

/// Server tuning.
#[derive(Clone)]
pub struct ServerConfig {
    /// Requests per second admitted across all connections; `None`
    /// disables rate limiting.
    pub rate_limit: Option<f64>,
    /// Burst capacity of the limiter (ignored when `rate_limit` is
    /// `None`; must be ≥ 1 otherwise).
    pub burst: f64,
    /// Transport-fault injector, consulted once per received frame.
    pub fault_hook: Option<Arc<dyn ConnectionFaultHook>>,
    /// How long [`ServerHandle::shutdown`] waits for frames clients sent
    /// before it to be answered before force-closing connections. The
    /// service call already running is finished first, so shutdown can
    /// overrun this by up to one request's work: for a batch frame, one
    /// sub-batch of [`DRAIN_SUB_BATCH`] specs.
    pub drain_timeout: Duration,
    /// Tracer that server-side continuation spans ([`Request::Traced`])
    /// are recorded into; `None` uses the process-global tracer. Inject
    /// one to capture a server's half of a distributed trace separately
    /// (tests do, to prove client and server sinks share a `trace_id`).
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            rate_limit: None,
            burst: 50.0,
            fault_hook: None,
            drain_timeout: Duration::from_secs(5),
            tracer: None,
        }
    }
}

impl ServerConfig {
    /// Rate-limited config (requests/second with the given burst).
    pub fn rate_limited(rate: f64, burst: f64) -> Self {
        ServerConfig {
            rate_limit: Some(rate),
            burst,
            ..ServerConfig::default()
        }
    }

    /// Attaches a connection-fault hook (builder style).
    pub fn with_fault_hook(mut self, hook: Arc<dyn ConnectionFaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Sets the shutdown drain window (builder style).
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Records server-side continuation spans into `tracer` instead of
    /// the process-global one (builder style).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("rate_limit", &self.rate_limit)
            .field("burst", &self.burst)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .field("drain_timeout", &self.drain_timeout)
            .field("tracer", &self.tracer.as_ref().map(|_| "…"))
            .finish()
    }
}

/// What every connection thread of one server shares.
struct Shared {
    service: Arc<dyn WireService>,
    limiter: Option<Mutex<(TokenBucket, Instant)>>,
    fault_hook: Option<Arc<dyn ConnectionFaultHook>>,
    /// Where continuation spans go; `None` is the process-global tracer.
    tracer: Option<Arc<Tracer>>,
    /// One counter across all connections: reconnecting does not reset
    /// the fault schedule.
    request_counter: AtomicU64,
    /// Set when a shutdown's drain window has passed: connection threads
    /// answer nothing more.
    drain_expired: AtomicBool,
    /// Frames clients sent that an expired drain left unanswered.
    abandoned: AtomicU64,
}

impl Shared {
    /// Takes one token from the shared limiter. A refusal comes back as
    /// the `RateLimited` answer, already counted by the service.
    fn admit(&self) -> Result<(), Response> {
        let Some(limiter) = &self.limiter else {
            return Ok(());
        };
        let mut guard = lock(limiter);
        let (bucket, epoch) = &mut *guard;
        if bucket.try_acquire(epoch.elapsed()) {
            return Ok(());
        }
        let retry_after = bucket.retry_after(epoch.elapsed());
        drop(guard);
        self.service.note_rate_limited();
        Err(Response::Error {
            code: ErrorCode::RateLimited,
            message: "query rate exceeded".into(),
            retry_after: Some(retry_after),
        })
    }

    fn tracer(&self) -> &Tracer {
        match &self.tracer {
            Some(t) => t.as_ref(),
            None => Tracer::global(),
        }
    }
}

/// A live connection as the shutdown path sees it.
struct ConnReg {
    stream: TcpStream,
    handle: std::thread::JoinHandle<()>,
}

type ConnRegistry = Arc<Mutex<Vec<ConnReg>>>;

/// Handle to a running server; shutting down joins all threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: ConnRegistry,
    shared: Arc<Shared>,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// The bound address (use port 0 to pick a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and **drains**: every frame a client sent before
    /// the call gets its response written (up to the configured
    /// [`drain_timeout`](ServerConfig::drain_timeout)) before
    /// connections are closed and their threads joined. Frames left
    /// unanswered when the window closes are counted in
    /// `adcomp_wire_drain_abandoned`, so a pipelining client can
    /// distinguish a draining endpoint (all sent requests answered)
    /// from a killed one (responses lost mid-window).
    ///
    /// A connection thread checks the window between frames and, inside
    /// a batch frame, between its sub-batches of [`DRAIN_SUB_BATCH`]
    /// specs: the service call already running holds shutdown until it
    /// is done, so shutdown overruns the window by at most one
    /// sub-batch. A batch frame cut short this way is abandoned whole
    /// and counted like any other.
    pub fn shutdown(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.signal_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *lock(&self.conns));
        // Stop reading: a connection thread still gets the bytes already
        // queued on its socket (the frames its client sent), answers
        // them in order, then reads end-of-stream and exits — at once
        // for a client that sent nothing.
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + self.drain_timeout;
        while conns.iter().any(|c| !c.handle.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Past the window, threads still busy stop answering and count
        // what they leave; closing both halves also unblocks a write to
        // a client that stopped reading.
        self.shared.drain_expired.store(true, Ordering::Release);
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in conns {
            let _ = conn.handle.join();
        }
        // A timed-out drain abandons frames a client already sent; that
        // must never pass silently — the client sees lost responses.
        let abandoned = self.shared.abandoned.load(Ordering::Acquire);
        if abandoned > 0 {
            Registry::global()
                .counter("adcomp_wire_drain_abandoned")
                .add(abandoned);
            adcomp_obs::warn!(
                "wire shutdown drain timed out after {:?}: abandoning {abandoned} in-flight \
                 frame(s)",
                self.drain_timeout
            );
        }
    }

    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_now();
        }
    }
}

/// Starts serving `platform` on `addr` (e.g. `"127.0.0.1:0"`) through
/// a new [`PlatformService`], so each call serves under its own
/// instance id.
pub fn serve(
    platform: Arc<dyn PlatformApi>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_service(Arc::new(PlatformService::new(platform)), addr, config)
}

/// Starts serving an arbitrary [`WireService`] on `addr`.
pub fn serve_service(
    service: Arc<dyn WireService>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        service,
        limiter: config
            .rate_limit
            .map(|rate| Mutex::new((TokenBucket::new(rate, config.burst), Instant::now()))),
        fault_hook: config.fault_hook,
        tracer: config.tracer,
        request_counter: AtomicU64::new(0),
        drain_expired: AtomicBool::new(false),
        abandoned: AtomicU64::new(0),
    });
    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));

    let accept_shutdown = shutdown.clone();
    let accept_conns = conns.clone();
    let accept_shared = shared.clone();
    let accept_thread = std::thread::Builder::new()
        .name("adcomp-wire-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Ok(reg_stream) = stream.try_clone() else {
                    continue;
                };
                let shared = accept_shared.clone();
                // Connection threads are not joined here (that would
                // deadlock a shutdown while a client keeps its connection
                // open — the thread blocks in read_frame); the registry
                // keeps their handles so shutdown can drain, close the
                // sockets, and then join.
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
                let mut conns = lock(&accept_conns);
                // Forget connections whose thread is done, or each one
                // would hold its socket open until shutdown.
                conns.retain(|c| !c.handle.is_finished());
                conns.push(ConnReg {
                    stream: reg_stream,
                    handle,
                });
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        conns,
        shared,
        drain_timeout: config.drain_timeout,
    })
}

/// `adcomp_wire_requests_total{kind}` — requests dispatched to the
/// platform, by request kind. Each kind's counter is resolved from the
/// registry once, on its first request.
fn requests_total(request: &Request) -> &'static Counter {
    static COUNTERS: [OnceLock<Arc<Counter>>; 9] = [const { OnceLock::new() }; 9];
    let (slot, kind) = match request {
        Request::Describe => (0, "describe"),
        Request::Check { .. } => (1, "check"),
        Request::EstimateBatch { .. } => (2, "estimate_batch"),
        Request::CatalogPage { .. } => (3, "catalog_page"),
        Request::Stats => (4, "stats"),
        Request::Status => (5, "status"),
        Request::Traced { .. } => (6, "traced"),
        Request::Metrics => (7, "metrics"),
        Request::TelemetryPush { .. } => (8, "telemetry_push"),
    };
    COUNTERS[slot].get_or_init(|| {
        Registry::global().counter_with("adcomp_wire_requests_total", &[("kind", kind)])
    })
}

/// Connections killed by the transport fault hook.
fn conn_drops_total() -> Arc<Counter> {
    Registry::global().counter("adcomp_wire_conn_drops_total")
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let in_hand = answer_frames(&mut reader, &mut writer, shared);
    if shared.drain_expired.load(Ordering::Acquire) {
        // The drain window closed on this connection: count the frame in
        // hand and every complete frame still queued behind it.
        let mut left = u64::from(in_hand);
        while read_frame(&mut reader).is_ok() {
            left += 1;
        }
        shared.abandoned.fetch_add(left, Ordering::AcqRel);
    }
    Ok(())
}

/// Answers frames in receive order until the peer hangs up, the socket
/// fails, the fault hook kills the connection or the drain window
/// closes. Returns whether it stopped holding a frame it had read but
/// not answered.
fn answer_frames(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) -> bool {
    loop {
        let Ok(payload) = read_frame(reader) else {
            return false;
        };
        if shared.drain_expired.load(Ordering::Acquire) {
            return true;
        }
        if let Some(hook) = &shared.fault_hook {
            let index = shared.request_counter.fetch_add(1, Ordering::SeqCst);
            if let Some(fault) = hook.fault_for(index) {
                conn_drops_total().inc();
                if fault == ConnectionFault::DropMidFrame {
                    // Promise a 64-byte frame, deliver 16 bytes, hang up.
                    let mut torn = 64u32.to_be_bytes().to_vec();
                    torn.resize(4 + 16, 0);
                    let _ = writer.write_all(&torn);
                }
                // Hang up now: the shutdown registry's handle on the
                // socket would otherwise keep it open, and the client
                // would only notice at its read timeout.
                let _ = writer.shutdown(Shutdown::Both);
                return false;
            }
        }
        let response = match from_bytes::<Request>(&payload) {
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
                retry_after: None,
            },
            Ok(request) => match answer(request, shared) {
                Some(response) => response,
                // The drain window closed part-way through the frame.
                None => return true,
            },
        };
        if write_message(writer, &response).is_err() {
            return true;
        }
    }
}

/// Answers one decoded request in receive order, or `None` when the
/// drain window closed in the middle of a batch frame. Decoding has
/// enforced the nesting `Traced ⊃ plain`, so this recurses at most once:
/// a `Traced` answer continues the caller's span around the inner answer
/// and reports the time it took, and a plain request passes the rate
/// limiter before the service sees it.
fn answer(request: Request, shared: &Shared) -> Option<Response> {
    match request {
        Request::Traced {
            trace_id,
            span_id,
            inner,
        } => {
            let started = Instant::now();
            let ctx = TraceContext {
                trace_id,
                span_id,
                parent: None,
            };
            let name = match &*inner {
                Request::EstimateBatch { .. } => "platform:estimate_batch",
                Request::Check { .. } => "platform:check",
                _ => "platform:serve",
            };
            let span = shared.tracer().continue_span(ctx, name, &[]);
            let response = answer(*inner, shared)?;
            drop(span);
            Some(Response::Traced {
                server_us: started.elapsed().as_micros() as u64,
                inner: Box::new(response),
            })
        }
        Request::EstimateBatch { specs } => answer_batch(specs, shared),
        request => Some(match shared.admit() {
            Ok(()) => shared.service.handle(request),
            Err(refused) => refused,
        }),
    }
}

/// Admitted specs a batch frame hands the service per call. A frame of
/// more is answered in sub-batches of this many, with the drain window
/// checked between them, so a shutdown waits out at most one sub-batch
/// past [`drain_timeout`](ServerConfig::drain_timeout). The frames a
/// scheduler sends (one work unit's specs, 16 by default) stay one call.
pub const DRAIN_SUB_BATCH: usize = 256;

/// Answers a batch frame, or `None` when the drain window closed before
/// it was done. Each spec takes its own token from the rate limiter, in
/// slot order; a refused spec answers `RateLimited` in its slot, and the
/// admitted ones go to the service in sub-batches of
/// [`DRAIN_SUB_BATCH`].
fn answer_batch(specs: Vec<TargetingSpec>, shared: &Shared) -> Option<Response> {
    let mut answers = Vec::with_capacity(specs.len());
    let mut admitted = Vec::with_capacity(specs.len());
    for spec in specs {
        match shared.admit() {
            Ok(()) => {
                answers.push(None);
                admitted.push(spec);
            }
            Err(refused) => answers.push(Some(refused)),
        }
    }
    let mut served = Vec::with_capacity(admitted.len());
    let mut rest = admitted;
    while !rest.is_empty() {
        // Every sub-batch but the first checks the drain window.
        if !served.is_empty() && shared.drain_expired.load(Ordering::Acquire) {
            return None;
        }
        let tail = rest.split_off(rest.len().min(DRAIN_SUB_BATCH));
        let chunk = std::mem::replace(&mut rest, tail);
        let count = chunk.len();
        match shared
            .service
            .handle(Request::EstimateBatch { specs: chunk })
        {
            Response::Estimates { answers } if answers.len() == count => served.extend(answers),
            // A service that answers the frame as a whole (one that does
            // not serve batches answers `BadRequest`) answers every slot.
            whole => return Some(whole),
        }
    }
    let mut served = served.into_iter();
    Some(Response::Estimates {
        answers: answers
            .into_iter()
            .map(|refused| refused.unwrap_or_else(|| served.next().expect("one per admitted spec")))
            .collect(),
    })
}

fn handle_request(platform: &dyn PlatformApi, instance: u64, request: Request) -> Response {
    requests_total(&request).inc();
    match request {
        Request::Describe => {
            let caps = &platform.config().capabilities;
            Response::Described {
                label: platform.label().to_string(),
                catalog_len: platform.catalog().len() as u32,
                gender_targeting: caps.gender_targeting,
                age_targeting: caps.age_targeting,
                exclusions: caps.exclusions,
                same_feature_and: caps.same_feature_and,
                impressions: platform.config().estimate_kind
                    == adcomp_platform::EstimateKind::Impressions,
                instance,
            }
        }
        Request::Check { spec } => match platform.check(&spec) {
            Ok(()) => Response::Ok,
            Err(e) => platform_error_to_response(e),
        },
        // One `reach_estimates` call: a platform counts the batch in one
        // pass, a fault-injecting one still faults request by request.
        Request::EstimateBatch { specs } => {
            let objective = platform.config().default_objective;
            let requests: Vec<EstimateRequest> = specs
                .into_iter()
                .map(|spec| EstimateRequest::new(spec, objective))
                .collect();
            Response::Estimates {
                answers: platform
                    .reach_estimates(&requests)
                    .into_iter()
                    .map(|answer| match answer {
                        Ok(est) => Response::Estimate { value: est.value },
                        Err(e) => platform_error_to_response(e),
                    })
                    .collect(),
            }
        }
        Request::CatalogPage { start, limit } => {
            // Cap pages to keep frames well under MAX_FRAME_BYTES.
            const PAGE_CAP: u32 = 1_000;
            let total = platform.catalog().len() as u32;
            let start = start.min(total);
            let end = start.saturating_add(limit.min(PAGE_CAP)).min(total);
            let entries: Vec<(String, u16)> = (start..end)
                .map(|id| {
                    let e = platform
                        .catalog()
                        .get(adcomp_targeting::AttributeId(id))
                        .expect("id < total");
                    (e.name.clone(), e.feature.0)
                })
                .collect();
            let next = (end < total).then_some(end);
            Response::CatalogPage {
                start,
                entries,
                next,
            }
        }
        Request::Stats => {
            let s = platform.stats();
            Response::Stats {
                estimates: s.estimates,
                validation_failures: s.validation_failures,
                rate_limited: s.rate_limited,
            }
        }
        // A platform endpoint is healthy iff it is answering at all.
        Request::Status => Response::StatusReport {
            healthy: true,
            body: format!("platform {} serving", platform.label()),
        },
        // The transport unwraps `Traced` before dispatch; one that
        // reaches a service came from a caller that skipped the transport.
        Request::Traced { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "Traced is unwrapped by the transport".into(),
            retry_after: None,
        },
        // The scrape endpoint: whatever this process has recorded.
        Request::Metrics => Response::MetricsText {
            text: Registry::global().render_prometheus(),
        },
        // Platform endpoints answer queries; they do not ingest
        // telemetry. Pushes belong at an adcomp-agg sink.
        Request::TelemetryPush { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "platform endpoints do not accept telemetry pushes".into(),
            retry_after: None,
        },
    }
}

fn platform_error_to_response(e: PlatformError) -> Response {
    let (code, retry_after) = match &e {
        PlatformError::Validation(ValidationError::UnknownAttribute(_)) => {
            (ErrorCode::UnknownAttribute, None)
        }
        PlatformError::Validation(_) => (ErrorCode::InvalidTargeting, None),
        PlatformError::Eval(_) => (ErrorCode::UnknownAttribute, None),
        PlatformError::RateLimited { retry_after } => (ErrorCode::RateLimited, Some(*retry_after)),
        PlatformError::UnsupportedObjective(_) => (ErrorCode::BadRequest, None),
        PlatformError::Transient(_) => (ErrorCode::Internal, None),
    };
    Response::Error {
        code,
        message: e.to_string(),
        retry_after,
    }
}
