//! Remote audit over the wire protocol — including against a *hostile*
//! transport.
//!
//! The paper's measurements went through the platforms' network APIs;
//! this example does the same: it serves a simulated LinkedIn on a local
//! TCP port, connects the audit pipeline through [`RemoteSource`], and
//! verifies the remote audit returns byte-identical estimates to the
//! in-process one. It then re-runs a granularity probe through a server
//! that injects transient errors, rate limits, and dropped connections —
//! and survives a mid-probe "crash" by resuming from a checkpoint.
//!
//! The whole run is observable: a JSONL trace of every phase streams to
//! `results/remote_audit_trace.jsonl`, the global metrics registry is
//! dumped to `results/remote_audit_metrics.prom` (with the retry,
//! rate-limit, and reconnect counters the fault plan must have moved),
//! and an end-of-run report prints what degraded.
//!
//! ```text
//! cargo run --release --example remote_audit
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::{Registry, RunReport, Tracer};

use discrimination_via_composition::audit::{
    rank_individuals, survey_individuals, top_compositions, AuditTarget, Direction,
    DiscoveryConfig, EstimateSource, GranularityProbe, Layers, ProbeCheckpoint, ResilienceConfig,
    SensitiveClass,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::wire::{serve, ClientConfig, FaultPlanHook, ServerConfig};
use discrimination_via_composition::RemoteSource;

fn main() {
    // Stream the structured trace to disk for post-hoc analysis.
    std::fs::create_dir_all("results").expect("results dir");
    let trace_path = Path::new("results/remote_audit_trace.jsonl");
    Tracer::global()
        .install_jsonl(trace_path)
        .expect("install trace sink");

    let sim = Simulation::build(2020, SimScale::Test);

    // Serve LinkedIn on a loopback socket with polite rate limiting.
    let config = ServerConfig::rate_limited(20_000.0, 1_000.0);
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", config).expect("bind");
    println!("serving simulated LinkedIn on {}", handle.addr());

    // The audit connects like the paper's scripts connected to the real
    // APIs — it sees only the wire surface.
    let remote = Arc::new(RemoteSource::connect(handle.addr()).expect("connect"));
    println!(
        "connected: {} ({} catalog attributes, read at connect)",
        remote.label(),
        remote.catalog_len()
    );
    let target = AuditTarget::direct(remote);

    let male = SensitiveClass::Gender(Gender::Male);
    let survey = {
        let _span = Tracer::global().span("remote:survey");
        survey_individuals(&target).expect("remote survey")
    };
    let cfg = DiscoveryConfig {
        top_k: 30,
        ..DiscoveryConfig::default()
    };
    let ranked = rank_individuals(&survey, male, Direction::Toward, cfg.min_reach);
    let top = {
        let _span = Tracer::global().span("remote:discovery");
        top_compositions(&target, &survey, &ranked, &cfg).expect("remote discovery")
    };

    println!("\ntop male-skewed compositions discovered over the wire:");
    for comp in top.iter().take(5) {
        let ratio = comp.ratio(&survey.base, male).unwrap_or(f64::NAN);
        let names: Vec<String> = comp
            .attrs
            .iter()
            .map(|&id| target.targeting.attribute_name(id).unwrap_or_default())
            .collect();
        println!("  ratio {ratio:>6.2}  {}", names.join("  ∧  "));
    }

    // Cross-check: the same audit in-process gives identical estimates.
    let local = AuditTarget::for_platform(&sim.linkedin, &sim);
    let local_survey = survey_individuals(&local).expect("local survey");
    assert_eq!(
        survey.base, local_survey.base,
        "base measurements must match"
    );
    for (r, l) in survey.entries.iter().zip(&local_survey.entries) {
        assert_eq!(r.measurement, l.measurement, "attribute {:?}", r.attrs);
    }
    println!(
        "\nremote audit matches in-process audit on all {} attributes ✓",
        survey.entries.len()
    );
    handle.shutdown();

    // ── Part 2: the same probe against an unreliable platform. ──────────
    //
    // A deterministic fault plan makes the server reject every 29th call
    // transiently, rate-limit every 37th (with a structured retry-after
    // hint), and drop the TCP connection on every 47th request. The
    // resilient client stack retries through all of it, and a checkpoint
    // file turns a hard kill into a resume.
    println!("\n--- fault injection ---");
    let fault_span = Tracer::global().span("remote:fault_probe");
    let plan = FaultPlan::new(7)
        .with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 29,
                offset: 5,
            },
        )
        .with(
            FaultKind::RateLimit {
                retry_after: Duration::from_millis(2),
            },
            Schedule::EveryNth {
                period: 37,
                offset: 11,
            },
        )
        .with(
            FaultKind::Drop { mid_frame: false },
            Schedule::EveryNth {
                period: 47,
                offset: 3,
            },
        );
    let faulty = Arc::new(FaultyPlatform::new(sim.linkedin.clone(), plan.clone()));
    let config = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(faulty.clone(), "127.0.0.1:0", config).expect("bind");

    let client = discrimination_via_composition::wire::Client::connect_with(
        handle.addr(),
        ClientConfig::fast(),
    )
    .expect("connect");
    let remote = Arc::new(RemoteSource::new(client).expect("describe"));
    let target = AuditTarget::direct(remote)
        .layered(Layers {
            resilience: Some(ResilienceConfig::standard(2020)),
            ..Layers::default()
        })
        .expect("no store to write");

    let ckpt = std::env::temp_dir().join("remote_audit_probe.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let mut probe = GranularityProbe::new(2020, 120);
    // Run the first half, checkpoint, then pretend the process died and
    // resume from disk — answered queries are never re-issued.
    let (report, answered) = match probe.run_checkpointed(&target, &ckpt, 25) {
        Ok(report) => (report, probe.observations().len()),
        Err(e) => {
            println!("probe interrupted ({e}); resuming from {}", ckpt.display());
            let mut resumed =
                GranularityProbe::resume(ProbeCheckpoint::load(&ckpt).expect("checkpoint"));
            let report = resumed
                .run_checkpointed(&target, &ckpt, 25)
                .expect("resumed probe");
            (report, resumed.observations().len())
        }
    };
    let injected = faulty.injected();
    println!(
        "granularity probe finished through {} injected faults \
         ({} transient, {} rate-limited): consistent floors across {answered} observations ✓",
        injected.total(),
        injected.transient,
        injected.rate_limited,
    );
    println!(
        "max significant digits observed: {}",
        report.max_significant_digits()
    );
    let _ = std::fs::remove_file(&ckpt);
    handle.shutdown();
    drop(fault_span);

    // ── Part 3: the observability record of everything above. ───────────
    //
    // The fault plan must have left its marks in the global registry:
    // retries absorbed by the resilience layer, rate-limited calls the
    // wire client waited out, and reconnects after dropped connections.
    let registry = Registry::global();
    let metrics_path = Path::new("results/remote_audit_metrics.prom");
    std::fs::write(metrics_path, registry.render_prometheus()).expect("write metrics dump");

    let snap = registry.snapshot();
    let retries = snap.counter("adcomp_retries_total");
    let rate_limited = snap.counter("adcomp_wire_retries_total");
    let reconnects = snap.counter("adcomp_wire_reconnects_total");
    assert!(
        retries > 0,
        "fault plan must have forced resilience retries"
    );
    assert!(
        reconnects > 0,
        "dropped connections must have forced reconnects"
    );
    println!(
        "\nobservability: {retries} resilience retries, {rate_limited} wire retries, \
         {reconnects} reconnects recorded"
    );

    Tracer::global().flush();
    let trace = std::fs::read_to_string(trace_path).expect("read trace");
    for phase in [
        "remote:survey",
        "remote:discovery",
        "remote:fault_probe",
        "probe:granularity",
    ] {
        assert!(
            trace.contains(phase),
            "JSONL trace must cover phase {phase}"
        );
    }
    println!(
        "trace: {} events across all phases → {}",
        trace.lines().count(),
        trace_path.display()
    );
    println!("metrics dump → {}", metrics_path.display());

    let mut report = RunReport::new("remote_audit");
    let skipped = snap.counter("adcomp_skipped_total");
    if skipped > 0 {
        report.degradation(format!("{skipped} spec(s) skipped after exhausted retries"));
    }
    report.note(format!("{} injected faults survived", injected.total()));
    report.note(format!("trace: {}", trace_path.display()));
    print!("\n{}", report.render());
}
