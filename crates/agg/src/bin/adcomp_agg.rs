//! The fleet telemetry aggregator daemon (and its smoke-test pusher).
//!
//! Serve mode (default) binds the wire sink and answers pushes and
//! scrapes until killed — or, with `--expect N`, until `N` pushes have
//! been ingested, then prints the merged Prometheus document and exits
//! (the CI smoke test's rendezvous).
//!
//! Push mode (`adcomp_agg push …`) sends telemetry from *this* process
//! through the real [`TelemetryPusher`] machinery, so a shell script
//! can stand up a multi-process fleet without writing Rust:
//!
//! ```text
//! adcomp_agg --listen 127.0.0.1:7171 --expect 3 &
//! adcomp_agg push --to 127.0.0.1:7171 --source a --counter adcomp_serve_epochs_total=3 --alert 5:2
//! adcomp_agg push --to 127.0.0.1:7171 --source b --counter adcomp_serve_epochs_total=4
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use adcomp_agg::{AggService, Aggregator, AlertFrame, PusherConfig, Telemetry, TelemetryPusher};
use adcomp_obs::metrics::{MetricKey, MetricValue};
use adcomp_wire::{serve_service, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: adcomp_agg [--listen ADDR] [--expect N]\n\
         \x20      adcomp_agg push --to ADDR --source NAME \
         [--counter NAME=V]... [--alert EPOCH[:CROSSINGS]]... [--repeat K]"
    );
    ExitCode::FAILURE
}

fn serve_mode(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:0".to_string();
    let mut expect: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = addr.clone(),
                None => return usage(),
            },
            "--expect" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => expect = Some(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let agg = Arc::new(Aggregator::new());
    let handle = match serve_service(
        Arc::new(AggService::new(agg.clone())),
        listen.as_str(),
        ServerConfig::default(),
    ) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("adcomp_agg: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("adcomp_agg: listening on {}", handle.addr());
    match expect {
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(n) => {
            while agg.pushes_total() < n {
                std::thread::sleep(Duration::from_millis(10));
            }
            print!("{}", agg.render_prometheus());
            handle.shutdown();
            ExitCode::SUCCESS
        }
    }
}

fn push_mode(args: &[String]) -> ExitCode {
    let mut to = None;
    let mut source = None;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut alerts: Vec<(u64, u32)> = Vec::new();
    let mut repeat = 1u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--to" => to = it.next().cloned(),
            "--source" => source = it.next().cloned(),
            "--counter" => match it.next().and_then(|spec| {
                let (name, value) = spec.split_once('=')?;
                Some((name.to_string(), value.parse().ok()?))
            }) {
                Some(pair) => counters.push(pair),
                None => return usage(),
            },
            "--alert" => match it.next().map(|spec| match spec.split_once(':') {
                Some((epoch, crossings)) => {
                    (epoch.parse().unwrap_or(0), crossings.parse().unwrap_or(1))
                }
                None => (spec.parse().unwrap_or(0), 1),
            }) {
                Some(pair) => alerts.push(pair),
                None => return usage(),
            },
            "--repeat" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => repeat = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(to), Some(source)) = (to, source) else {
        return usage();
    };
    let pusher = TelemetryPusher::start(PusherConfig::new(to, source));
    for _ in 0..repeat.max(1) {
        if !counters.is_empty() {
            pusher.push(Telemetry::Metrics(
                counters
                    .iter()
                    .map(|(name, value)| (MetricKey::new(name, &[]), MetricValue::Counter(*value)))
                    .collect(),
            ));
        }
        for (epoch, crossings) in &alerts {
            pusher.push(Telemetry::Alert(AlertFrame {
                epoch: *epoch,
                crossings: *crossings,
                detail: format!("epoch {epoch}: {crossings} four-fifths crossing(s)"),
            }));
        }
    }
    if !pusher.flush(Duration::from_secs(10)) || pusher.failed() > 0 {
        eprintln!("adcomp_agg push: delivery failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("push") => push_mode(&args[1..]),
        Some("--help" | "-h") => usage(),
        _ => serve_mode(&args),
    }
}
