//! Threaded TCP server exposing a platform over the wire protocol.
//!
//! One accept thread plus one thread per connection — the smoltcp-style
//! synchronous event model is plenty for an audit workload of one or a
//! few measurement clients. A shared token-bucket rate limiter models the
//! query throttling real platforms apply (and that the paper's ethics
//! section respected from the client side).
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

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use adcomp_obs::lock;
use adcomp_obs::metrics::{Counter, Registry};
use adcomp_obs::trace::{TraceContext, Tracer};
use adcomp_platform::{
    EstimateRequest, FaultKind, FaultPlan, PlatformApi, PlatformError, TokenBucket,
};
use adcomp_targeting::ValidationError;

use crate::codec::{from_bytes, to_bytes};
use crate::frame::{read_frame, write_frame, FrameError};
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
/// answers [`Request::Status`] as healthy with the platform label.
pub struct PlatformService(pub Arc<dyn PlatformApi>);

impl WireService for PlatformService {
    fn handle(&self, request: Request) -> Response {
        handle_request(self.0.as_ref(), request)
    }

    fn note_rate_limited(&self) {
        self.0.note_rate_limited();
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
    /// Executor threads per connection for pipelined
    /// ([`Request::Tagged`]) requests. Fault hooks and rate limiting are
    /// always applied on the read thread in receive order, so they stay
    /// deterministic at any setting; with the default of 1 the platform
    /// itself also sees requests in receive order, which keeps
    /// platform-level fault plans deterministic too. Raise it only when
    /// that ordering does not matter.
    pub executors: usize,
    /// How long [`ServerHandle::shutdown`] waits for in-flight frames
    /// (read but not yet answered) to finish before force-closing
    /// connections.
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
            executors: 1,
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

    /// Sets the per-connection executor count for pipelined requests
    /// (builder style; clamped to at least 1).
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors.max(1);
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
            .field("executors", &self.executors)
            .field("drain_timeout", &self.drain_timeout)
            .field("tracer", &self.tracer.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Per-connection count of frames read off the socket but not yet
/// answered (or dropped by the fault hook). Shutdown drains on this.
struct ConnTracker {
    in_flight: AtomicU64,
}

/// RAII accounting for one read frame: created right after `read_frame`
/// succeeds, dropped once its response is written (the executor side for
/// pipelined requests) or the frame is otherwise disposed of.
struct WorkToken {
    tracker: Arc<ConnTracker>,
}

impl WorkToken {
    fn new(tracker: &Arc<ConnTracker>) -> WorkToken {
        tracker.in_flight.fetch_add(1, Ordering::AcqRel);
        WorkToken {
            tracker: tracker.clone(),
        }
    }
}

impl Drop for WorkToken {
    fn drop(&mut self) {
        self.tracker.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A live connection as the shutdown path sees it.
struct ConnReg {
    stream: TcpStream,
    tracker: Arc<ConnTracker>,
    handle: Option<std::thread::JoinHandle<()>>,
}

type ConnRegistry = Arc<Mutex<Vec<ConnReg>>>;

/// Handle to a running server; shutting down joins all threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: ConnRegistry,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// The bound address (use port 0 to pick a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and **drains**: every frame already read off a
    /// socket gets its response written (up to the configured
    /// [`drain_timeout`](ServerConfig::drain_timeout)) before
    /// connections are closed and their threads joined. No new frames
    /// are read once the signal lands, so a pipelining client can
    /// distinguish a draining endpoint (all admitted requests answered)
    /// from a killed one (responses lost mid-window).
    pub fn shutdown(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.signal_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *lock(&self.conns));
        // Wait for read-but-unanswered frames; the pipeline executors
        // keep writing responses while the read threads idle.
        let deadline = Instant::now() + self.drain_timeout;
        for conn in &conns {
            while conn.tracker.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // A timed-out drain abandons frames a client already sent; that
        // must never pass silently — the client sees lost responses.
        let abandoned: u64 = conns
            .iter()
            .map(|c| c.tracker.in_flight.load(Ordering::Acquire))
            .sum();
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
        // Now actively close: this unblocks read threads parked in
        // `read_frame` on clients that never hang up.
        for conn in &conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for mut conn in conns {
            if let Some(h) = conn.handle.take() {
                let _ = h.join();
            }
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
/// the standard [`PlatformService`].
pub fn serve(
    platform: Arc<dyn PlatformApi>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_service(Arc::new(PlatformService(platform)), addr, config)
}

/// Unwraps [`Request::Traced`] in front of any service: continues the
/// caller's span on the server tracer for the duration of the inner
/// handling and wraps the answer in [`Response::Traced`] with the
/// measured server time. Untraced requests pass through untouched, so
/// the wrapper costs one enum match when tracing is off the wire.
struct TracedService {
    inner: Arc<dyn WireService>,
    tracer: Option<Arc<Tracer>>,
}

impl TracedService {
    fn tracer(&self) -> &Tracer {
        match &self.tracer {
            Some(t) => t.as_ref(),
            None => Tracer::global(),
        }
    }
}

impl WireService for TracedService {
    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Traced {
                trace_id,
                span_id,
                inner,
            } => {
                if matches!(*inner, Request::Traced { .. } | Request::Tagged { .. }) {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "nested Traced/Tagged inside Traced".into(),
                        retry_after: None,
                    };
                }
                let started = Instant::now();
                let ctx = TraceContext {
                    trace_id,
                    span_id,
                    parent: None,
                };
                let name = match &*inner {
                    Request::Estimate { .. } => "platform:estimate",
                    Request::Check { .. } => "platform:check",
                    _ => "platform:serve",
                };
                let span = self.tracer().continue_span(ctx, name, &[]);
                let response = self.inner.handle(*inner);
                drop(span);
                Response::Traced {
                    server_us: started.elapsed().as_micros() as u64,
                    inner: Box::new(response),
                }
            }
            other => self.inner.handle(other),
        }
    }

    fn note_rate_limited(&self) {
        self.inner.note_rate_limited();
    }
}

/// Starts serving an arbitrary [`WireService`] on `addr`.
pub fn serve_service(
    service: Arc<dyn WireService>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let service: Arc<dyn WireService> = Arc::new(TracedService {
        inner: service,
        tracer: config.tracer.clone(),
    });
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let limiter = config.rate_limit.map(|rate| {
        Arc::new(Mutex::new((
            TokenBucket::new(rate, config.burst),
            Instant::now(),
        )))
    });
    let fault_hook = config.fault_hook;
    let executors = config.executors.max(1);
    // One counter across all connections: reconnecting does not reset the
    // fault schedule.
    let request_counter = Arc::new(AtomicU64::new(0));
    let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));

    let accept_shutdown = shutdown.clone();
    let accept_conns = conns.clone();
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
                let service = service.clone();
                let limiter = limiter.clone();
                let fault_hook = fault_hook.clone();
                let request_counter = request_counter.clone();
                let conn_shutdown = accept_shutdown.clone();
                let tracker = Arc::new(ConnTracker {
                    in_flight: AtomicU64::new(0),
                });
                let conn_tracker = tracker.clone();
                // Connection threads are not joined here (that would
                // deadlock a shutdown while a client keeps its connection
                // open — the thread blocks in read_frame); the registry
                // keeps their handles so shutdown can drain in-flight
                // frames, close the sockets, and then join.
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(
                        stream,
                        service,
                        limiter,
                        fault_hook,
                        request_counter,
                        conn_shutdown,
                        executors,
                        conn_tracker,
                    );
                });
                lock(&accept_conns).push(ConnReg {
                    stream: reg_stream,
                    tracker,
                    handle: Some(handle),
                });
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        conns,
        drain_timeout: config.drain_timeout,
    })
}

type SharedLimiter = Arc<Mutex<(TokenBucket, Instant)>>;

/// `adcomp_wire_requests_total{kind}` — requests dispatched to the
/// platform, by request kind.
fn requests_total(kind: &'static str) -> Arc<Counter> {
    Registry::global().counter_with("adcomp_wire_requests_total", &[("kind", kind)])
}

/// Connections killed by the transport fault hook.
fn conn_drops_total() -> Arc<Counter> {
    Registry::global().counter("adcomp_wire_conn_drops_total")
}

/// Per-connection executor pool answering pipelined ([`Request::Tagged`])
/// requests off the read thread. Responses go through a shared writer
/// lock, so they interleave with read-thread writes frame-atomically but
/// may leave in any order — the correlation id is what the client keys on.
struct PipelinePool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// One pipelined request: correlation id, request, in-flight token.
type Job = (u64, Request, WorkToken);

impl PipelinePool {
    fn start(
        executors: usize,
        service: Arc<dyn WireService>,
        writer: Arc<Mutex<TcpStream>>,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..executors.max(1))
            .map(|i| {
                let rx = rx.clone();
                let service = service.clone();
                let writer = writer.clone();
                std::thread::Builder::new()
                    .name(format!("adcomp-wire-exec-{i}"))
                    .spawn(move || loop {
                        // A statement of its own, so the receiver lock is
                        // released before the job runs and the executors
                        // answer concurrently.
                        let job = lock(&rx).recv();
                        let Ok((id, request, token)) = job else {
                            break;
                        };
                        let inner = service.handle(request);
                        let frame = to_bytes(&Response::Tagged {
                            id,
                            inner: Box::new(inner),
                        });
                        // A failed write means the client is gone;
                        // keep draining so shutdown stays clean.
                        let _ = write_frame(&mut *lock(&writer), &frame);
                        // The frame counts as in-flight until its
                        // response hits the socket.
                        drop(token);
                    })
                    .expect("spawn pipeline executor")
            })
            .collect();
        PipelinePool {
            jobs: Some(tx),
            workers,
        }
    }

    fn submit(&self, id: u64, request: Request, token: WorkToken) {
        let _ = self
            .jobs
            .as_ref()
            .expect("pool is running")
            .send((id, request, token));
    }

    fn join(mut self) {
        self.jobs.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    service: Arc<dyn WireService>,
    limiter: Option<SharedLimiter>,
    fault_hook: Option<Arc<dyn ConnectionFaultHook>>,
    request_counter: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    executors: usize,
    tracker: Arc<ConnTracker>,
) -> Result<(), FrameError> {
    stream.set_nodelay(true)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    // Started on the first tagged request, so plain request/response
    // connections never pay for extra threads.
    let mut pipeline: Option<PipelinePool> = None;
    let result = read_loop(
        &mut reader,
        &writer,
        &service,
        &limiter,
        &fault_hook,
        &request_counter,
        &shutdown,
        executors,
        &mut pipeline,
        &tracker,
    );
    if let Some(pool) = pipeline {
        // Drain in-flight work before the connection thread exits.
        pool.join();
    }
    result
}

/// Checks the shared limiter for one request, in receive order on the
/// read thread. Returns the rejection to send when the request is over
/// the rate.
fn rate_limit_check(
    limiter: &Option<SharedLimiter>,
    service: &dyn WireService,
) -> Option<Response> {
    let limiter = limiter.as_ref()?;
    let mut guard = lock(limiter);
    let (bucket, epoch) = &mut *guard;
    if bucket.try_acquire(epoch.elapsed()) {
        return None;
    }
    let retry_after = bucket.retry_after(epoch.elapsed());
    drop(guard);
    service.note_rate_limited();
    Some(Response::Error {
        code: ErrorCode::RateLimited,
        message: "query rate exceeded".into(),
        retry_after: Some(retry_after),
    })
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
    service: &Arc<dyn WireService>,
    limiter: &Option<SharedLimiter>,
    fault_hook: &Option<Arc<dyn ConnectionFaultHook>>,
    request_counter: &Arc<AtomicU64>,
    shutdown: &Arc<AtomicBool>,
    executors: usize,
    pipeline: &mut Option<PipelinePool>,
    tracker: &Arc<ConnTracker>,
) -> Result<(), FrameError> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let payload = match read_frame(reader) {
            Ok(p) => p,
            Err(FrameError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        // From here until its response is on the socket (or the fault
        // hook disposes of it) this frame is in-flight for drain
        // accounting.
        let token = WorkToken::new(tracker);
        if let Some(hook) = fault_hook {
            let index = request_counter.fetch_add(1, Ordering::SeqCst);
            match hook.fault_for(index) {
                Some(ConnectionFault::Drop) => {
                    conn_drops_total().inc();
                    return Ok(());
                }
                Some(ConnectionFault::DropMidFrame) => {
                    conn_drops_total().inc();
                    // Promise a frame, deliver half of it, hang up.
                    let mut w = lock(writer);
                    w.write_all(&64u32.to_be_bytes())?;
                    w.write_all(&[0u8; 16])?;
                    w.flush()?;
                    return Ok(());
                }
                None => {}
            }
        }
        let response = match from_bytes::<Request>(&payload) {
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
                retry_after: None,
            },
            Ok(Request::Tagged { id, inner }) => {
                // Pipelined request: admission control (fault hook above,
                // rate limiter here) runs on the read thread in receive
                // order — determinism is independent of the executor
                // count — and only admitted platform work is dispatched.
                let rejection = if matches!(*inner, Request::Tagged { .. }) {
                    Some(Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "nested Tagged request".into(),
                        retry_after: None,
                    })
                } else {
                    rate_limit_check(limiter, service.as_ref())
                };
                match rejection {
                    Some(error) => Response::Tagged {
                        id,
                        inner: Box::new(error),
                    },
                    None => {
                        pipeline
                            .get_or_insert_with(|| {
                                PipelinePool::start(executors, service.clone(), writer.clone())
                            })
                            .submit(id, *inner, token);
                        continue;
                    }
                }
            }
            Ok(request) => match rate_limit_check(limiter, service.as_ref()) {
                Some(error) => error,
                None => service.handle(request),
            },
        };
        write_frame(&mut *lock(writer), &to_bytes(&response))?;
        // Answered inline on the read thread: retire the frame.
        drop(token);
    }
}

fn handle_request(platform: &dyn PlatformApi, request: Request) -> Response {
    requests_total(match &request {
        Request::Describe => "describe",
        Request::AttributeInfo { .. } => "attribute_info",
        Request::Check { .. } => "check",
        Request::Estimate { .. } => "estimate",
        Request::CatalogPage { .. } => "catalog_page",
        Request::Stats => "stats",
        Request::Status => "status",
        Request::Tagged { .. } => "tagged",
        Request::Traced { .. } => "traced",
        Request::Metrics => "metrics",
        Request::TelemetryPush { .. } => "telemetry_push",
    })
    .inc();
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
            }
        }
        Request::AttributeInfo { id } => {
            match platform.catalog().get(adcomp_targeting::AttributeId(id)) {
                Some(entry) => Response::AttributeInfo {
                    name: entry.name.clone(),
                    feature: entry.feature.0,
                },
                None => Response::Error {
                    code: ErrorCode::UnknownAttribute,
                    message: format!("attribute #{id} not in catalog"),
                    retry_after: None,
                },
            }
        }
        Request::Check { spec } => match platform.check(&spec) {
            Ok(()) => Response::Ok,
            Err(e) => platform_error_to_response(e),
        },
        Request::Estimate { spec } => {
            let req = EstimateRequest::new(spec, platform.config().default_objective);
            match platform.reach_estimate(&req) {
                Ok(est) => Response::Estimate { value: est.value },
                Err(e) => platform_error_to_response(e),
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
        // The read loop unwraps tagging before dispatch; reaching this
        // arm means a nested Tagged slipped through.
        Request::Tagged { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "nested Tagged request".into(),
            retry_after: None,
        },
        // The TracedService wrapper unwraps tracing before dispatch.
        Request::Traced { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "nested Traced request".into(),
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
