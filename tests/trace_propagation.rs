//! Distributed-tracing acceptance: one estimate driven through the
//! scheduler, over the wire, into the platform must leave a *single*
//! connected span tree spanning both processes' tracers — same trace id
//! in the client's and the server's JSONL sinks, server spans parented
//! to client span ids — and the latency attribution computed from the
//! client sink must decompose the observed end-to-end latency into
//! queue-wait / lease / wire segments that sum to within 5% of the
//! total.
//!
//! The scheduler is configured *serially* (one unit, one worker, one
//! endpoint) so that no two spans of the trace overlap in wall time;
//! that is what makes the exact-decomposition assertion meaningful.
//! Concurrent workers attribute overlapping wall-clock honestly but
//! then segments legitimately sum past the root span.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Both tests flip the process-global kill switch and the global
/// tracer's sink; serialize them.
static GLOBAL_TRACER: Mutex<()> = Mutex::new(());

use adcomp_obs::{latency_attribution, EventKind, TraceEvent, Tracer};
use discrimination_via_composition::audit::{EstimateSource, ScheduledSource, SchedulerConfig};
use discrimination_via_composition::platform::{SimScale, Simulation};
use discrimination_via_composition::targeting::{AttributeId, TargetingSpec};
use discrimination_via_composition::wire::{serve, ServerConfig};
use discrimination_via_composition::RemoteSource;

fn sink_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adcomp-trace-{tag}-{}.jsonl", std::process::id()))
}

fn read_events(path: &PathBuf) -> Vec<TraceEvent> {
    let text = fs::read_to_string(path).unwrap_or_default();
    text.lines().filter_map(TraceEvent::from_json).collect()
}

/// A serial scheduler: the whole batch is one unit, claimed by one
/// worker against one endpoint, so spans nest without overlapping.
fn serial_config(batch: usize) -> SchedulerConfig {
    SchedulerConfig {
        unit_size: batch.max(1),
        workers_per_endpoint: 1,
        ..SchedulerConfig::default()
    }
}

#[test]
fn one_estimate_yields_one_cross_process_span_tree() {
    let _serial = adcomp_obs::lock(&GLOBAL_TRACER);
    adcomp_obs::set_enabled(true);
    let client_sink = sink_path("client");
    let server_sink = sink_path("server");
    let _ = fs::remove_file(&client_sink);
    let _ = fs::remove_file(&server_sink);

    // The server records its continuation spans into its *own* tracer —
    // a genuinely separate event stream, as a second process would be.
    let server_tracer = Arc::new(Tracer::new(4096));
    server_tracer.install_jsonl(&server_sink).unwrap();
    Tracer::global().install_jsonl(&client_sink).unwrap();

    let sim = Simulation::build(4242, SimScale::Test);
    let handle = serve(
        sim.linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default().with_tracer(server_tracer.clone()),
    )
    .expect("bind");
    let remote: Arc<dyn EstimateSource> =
        Arc::new(RemoteSource::connect(handle.addr()).expect("connect"));

    let specs: Vec<TargetingSpec> = (0u32..24)
        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
        .collect();
    let scheduled = ScheduledSource::new(vec![remote], serial_config(specs.len()), None);

    let (results, total_us) = {
        let root = Tracer::global().span("audit:estimate");
        let started = std::time::Instant::now();
        let results = scheduled.estimate_batch(&specs);
        let elapsed = started.elapsed().as_micros() as u64;
        drop(root);
        (results, elapsed)
    };
    assert_eq!(results.len(), specs.len());
    assert!(results.iter().all(|r| r.is_ok()), "all estimates answered");
    handle.shutdown();

    Tracer::global().flush();
    server_tracer.flush();
    Tracer::global().remove_sink();
    server_tracer.remove_sink();

    let client_events = read_events(&client_sink);
    let server_events = read_events(&server_sink);
    assert!(!client_events.is_empty(), "client sink captured the audit");
    assert!(
        !server_events.is_empty(),
        "server sink captured continuation spans"
    );

    // One trace id, shared across both processes' sinks.
    let root_trace = client_events
        .iter()
        .find(|e| e.name == "audit:estimate" && e.kind == EventKind::SpanStart)
        .and_then(|e| e.trace_id)
        .expect("root span start in client sink");
    let server_traces: std::collections::BTreeSet<u64> =
        server_events.iter().filter_map(|e| e.trace_id).collect();
    assert_eq!(
        server_traces,
        std::collections::BTreeSet::from([root_trace]),
        "every server-side event belongs to the one client trace"
    );

    // The tree is *connected*: every server continuation span hangs off
    // a span id that exists in the client sink (the wire:rtt spans).
    let client_span_ids: std::collections::BTreeSet<u64> = client_events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .map(|e| e.seq)
        .collect();
    let server_roots: Vec<&TraceEvent> = server_events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name.starts_with("platform:"))
        .collect();
    assert!(!server_roots.is_empty(), "server continued platform spans");
    for span in &server_roots {
        let parent = span.parent.expect("continuation span has a parent");
        assert!(
            client_span_ids.contains(&parent),
            "server span {} parented to unknown client span {parent}",
            span.seq
        );
    }

    // The client sink decomposes the end-to-end latency: queue-wait,
    // lease, and wire RTT segments that sum back to the observed total.
    let attributions = latency_attribution(&client_events);
    let attr = attributions
        .iter()
        .find(|a| a.root == "audit:estimate")
        .expect("attribution entry for the audit root");
    assert_eq!(attr.trace_id, root_trace);
    assert!(
        attr.segment_us("sched") > 0,
        "sched segment present: {}",
        attr.render()
    );
    assert!(
        attr.segment_us("wire") > 0,
        "wire segment present: {}",
        attr.render()
    );
    let attributed = attr.attributed_us();
    let tolerance = (attr.total_us / 20).max(1);
    assert!(
        attributed.abs_diff(attr.total_us) <= tolerance,
        "segments must sum to the root within 5%: attributed={attributed} total={} ({})",
        attr.total_us,
        attr.render()
    );
    // And the root itself covers the wall clock we measured around it.
    assert!(
        attr.total_us <= total_us.saturating_add(total_us / 10 + 2_000),
        "root span ({} µs) tracks observed e2e latency ({total_us} µs)",
        attr.total_us
    );

    fs::remove_file(&client_sink).ok();
    fs::remove_file(&server_sink).ok();
}

#[test]
fn kill_switch_suppresses_trace_frames_entirely() {
    let _serial = adcomp_obs::lock(&GLOBAL_TRACER);
    let sink = sink_path("disabled");
    let _ = fs::remove_file(&sink);

    let sim = Simulation::build(4243, SimScale::Test);
    let server_tracer = Arc::new(Tracer::new(1024));
    server_tracer.install_jsonl(&sink).unwrap();
    let handle = serve(
        sim.facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default().with_tracer(server_tracer.clone()),
    )
    .expect("bind");
    let remote: Arc<dyn EstimateSource> =
        Arc::new(RemoteSource::connect(handle.addr()).expect("connect"));
    let specs: Vec<TargetingSpec> = (0u32..8)
        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
        .collect();

    adcomp_obs::set_enabled(false);
    let scheduled = ScheduledSource::new(vec![remote], serial_config(specs.len()), None);
    let root = Tracer::global().span("audit:disabled");
    let results = scheduled.estimate_batch(&specs);
    drop(root);
    adcomp_obs::set_enabled(true);

    assert!(results.iter().all(|r| r.is_ok()));
    handle.shutdown();
    server_tracer.flush();
    server_tracer.remove_sink();

    // With the kill switch off no Traced frames crossed the wire, so
    // the server tracer saw nothing to continue.
    let events = read_events(&sink);
    assert!(
        events.iter().all(|e| !e.name.starts_with("platform:")),
        "no continuation spans while disabled: {events:?}"
    );
    fs::remove_file(&sink).ok();
}
