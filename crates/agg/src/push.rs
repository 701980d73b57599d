//! The push side: a never-blocking telemetry exporter.
//!
//! [`TelemetryPusher`] sits between an audit daemon's hot path and the
//! aggregator. [`TelemetryPusher::push`] enqueues onto a *bounded*
//! channel with `try_send` — when the queue is full the record is
//! dropped and `adcomp_agg_push_dropped_total` is incremented, but the
//! caller never waits. A background thread drains the queue, lazily
//! connects an `adcomp-wire` [`Client`] (inheriting its reconnect,
//! retry-with-backoff, and circuit-breaker machinery), and pushes each
//! record as a `Request::TelemetryPush` frame.
//!
//! Push sequence numbers start from a wall-clock-derived base, so a
//! restarted daemon's frames outrank its previous incarnation's at the
//! aggregator (which keeps the *latest* frame per source) instead of
//! being dropped as stale replays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use adcomp_obs::metrics::{Counter, Registry};
use adcomp_wire::{to_bytes, Client, ClientConfig};

use crate::telemetry::Telemetry;

/// Tuning for a [`TelemetryPusher`].
#[derive(Clone, Debug)]
pub struct PusherConfig {
    /// Aggregator sink address (`host:port`).
    pub addr: String,
    /// Source name attached to every push (one per daemon).
    pub source: String,
    /// Bounded queue capacity; overflow drops, never blocks.
    pub capacity: usize,
    /// Wire client tuning (timeouts, retry schedule, breaker).
    pub client: ClientConfig,
}

impl PusherConfig {
    /// Defaults: a 64-record queue and the stock client policy.
    pub fn new(addr: impl Into<String>, source: impl Into<String>) -> PusherConfig {
        PusherConfig {
            addr: addr.into(),
            source: source.into(),
            capacity: 64,
            client: ClientConfig::default(),
        }
    }
}

/// Background telemetry exporter; see the module docs.
pub struct TelemetryPusher {
    tx: Option<mpsc::SyncSender<Telemetry>>,
    pending: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    dropped: Arc<Counter>,
    handle: Option<JoinHandle<()>>,
    source: String,
}

impl TelemetryPusher {
    /// Starts the exporter thread. Connection to the aggregator is
    /// lazy: a sink that is down costs nothing until a push is queued,
    /// and failed deliveries count rather than crash.
    pub fn start(config: PusherConfig) -> TelemetryPusher {
        let (tx, rx) = mpsc::sync_channel::<Telemetry>(config.capacity.max(1));
        let pending = Arc::new(AtomicU64::new(0));
        let delivered = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let source = config.source.clone();
        let worker = Worker {
            rx,
            config,
            pending: pending.clone(),
            delivered: delivered.clone(),
            failed: failed.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("adcomp-telemetry-push".into())
            .spawn(move || worker.run())
            .expect("spawn telemetry pusher");
        TelemetryPusher {
            tx: Some(tx),
            pending,
            delivered,
            failed,
            dropped: Registry::global().counter("adcomp_agg_push_dropped_total"),
            handle: Some(handle),
            source,
        }
    }

    /// The source name pushes are attributed to.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Enqueues one record without ever blocking. Returns `false` (and
    /// bumps the drop counter) when the queue is full or the exporter
    /// has shut down.
    pub fn push(&self, telemetry: Telemetry) -> bool {
        let Some(tx) = &self.tx else {
            return false;
        };
        // Count before handing over so `flush` never observes a gap.
        self.pending.fetch_add(1, Ordering::AcqRel);
        match tx.try_send(telemetry) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.dropped.inc();
                false
            }
            Err(TrySendError::Disconnected(_)) => {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                false
            }
        }
    }

    /// Waits (bounded by `timeout`) until every queued record has been
    /// delivered or given up on. Returns `true` when the queue drained.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.pending.load(Ordering::Acquire) > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Records delivered to the aggregator so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }

    /// Records given up on (sink unreachable through the client's whole
    /// retry schedule).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Acquire)
    }

    /// Drains the queue and joins the exporter thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryPusher {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

struct Worker {
    rx: mpsc::Receiver<Telemetry>,
    config: PusherConfig,
    pending: Arc<AtomicU64>,
    delivered: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
}

impl Worker {
    fn run(self) {
        let mut client: Option<Client> = None;
        // Outrank the previous incarnation's frames at the aggregator.
        let mut seq = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1);
        while let Ok(telemetry) = self.rx.recv() {
            seq += 1;
            let payload = to_bytes(&telemetry);
            let mut ok = false;
            // Two rounds: if a held connection went bad, reconnect once
            // and retry — the client itself retries transport errors
            // with backoff inside each attempt.
            for _ in 0..2 {
                if client.is_none() {
                    client = Client::connect_with(&self.config.addr, self.config.client.clone())
                        .map_err(|e| {
                            adcomp_obs::warn!(
                                "telemetry push: cannot reach {} ({e})",
                                self.config.addr
                            );
                        })
                        .ok();
                }
                let Some(c) = &client else { break };
                match c.telemetry_push(&self.config.source, seq, payload.clone()) {
                    Ok(_) => {
                        ok = true;
                        break;
                    }
                    Err(e) => {
                        adcomp_obs::warn!("telemetry push to {} failed: {e}", self.config.addr);
                        client = None;
                    }
                }
            }
            if ok {
                self.delivered.fetch_add(1, Ordering::AcqRel);
            } else {
                self.failed.fetch_add(1, Ordering::AcqRel);
            }
            self.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;
    use crate::sink::AggService;
    use crate::telemetry::{AlertFrame, MetricsFrame};
    use adcomp_obs::metrics::MetricKey;
    use adcomp_wire::{serve_service, ClientConfig, ServerConfig};

    fn frame(n: u64) -> Telemetry {
        Telemetry::Metrics(MetricsFrame {
            counters: vec![(MetricKey::new("pushed", &[]), n)],
            ..MetricsFrame::default()
        })
    }

    #[test]
    fn pushes_reach_the_aggregator_over_the_wire() {
        let agg = Arc::new(Aggregator::new());
        let handle = serve_service(
            Arc::new(AggService::new(agg.clone())),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let pusher = TelemetryPusher::start(PusherConfig::new(handle.addr().to_string(), "unit"));
        assert!(pusher.push(frame(7)));
        assert!(pusher.push(Telemetry::Alert(AlertFrame {
            epoch: 0,
            crossings: 1,
            detail: "x".into(),
        })));
        assert!(pusher.flush(Duration::from_secs(5)));
        assert_eq!(pusher.delivered(), 2);
        assert_eq!(pusher.failed(), 0);
        assert_eq!(agg.fleet().counter("pushed"), 7);
        assert_eq!(agg.alerts().len(), 1);
        pusher.shutdown();
        handle.shutdown();
    }

    #[test]
    fn overflow_drops_without_blocking() {
        // A listener that never accepts: the worker's connect lands in
        // the kernel backlog and its first push blocks on the io
        // timeout, so the 2-slot queue fills deterministically.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut cfg = PusherConfig::new(addr.to_string(), "unit");
        cfg.capacity = 2;
        cfg.client = ClientConfig::fast();
        cfg.client.io_timeout = Some(Duration::from_millis(100));
        cfg.client.retry.max_retries = 0;
        let pusher = TelemetryPusher::start(cfg);
        let before = Registry::global()
            .counter("adcomp_agg_push_dropped_total")
            .get();
        let mut dropped = 0;
        let started = std::time::Instant::now();
        for i in 0..64 {
            if !pusher.push(frame(i)) {
                dropped += 1;
            }
        }
        // try_send never blocks: 64 pushes complete quickly even with a
        // dead sink.
        assert!(started.elapsed() < Duration::from_secs(2));
        assert!(dropped > 0, "a 2-slot queue must overflow");
        let after = Registry::global()
            .counter("adcomp_agg_push_dropped_total")
            .get();
        assert!(after >= before + dropped);
        pusher.shutdown();
    }
}
