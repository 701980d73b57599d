//! Batch frames against one-at-a-time estimates over a real TCP
//! loopback: a batch answers every slot exactly as a loop of
//! `Client::estimate` does — values, per-slot errors, platform query
//! counters and `adcomp_platform_*` metrics — over a plain platform and
//! over a fault-injecting one, through a rate limiter that admits each
//! spec on its own, and across frames split by encoded size.
//!
//! Each test measures a different interface, so the per-platform metric
//! deltas of one are not disturbed by the others running beside it.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use adcomp_obs::metrics::Registry;
use adcomp_platform::{
    FaultKind, FaultPlan, FaultyPlatform, PlatformApi, RetryPolicy, Schedule, SimScale, Simulation,
};
use adcomp_population::Gender;
use adcomp_targeting::{AttributeId, OrGroup, TargetingSpec};
use adcomp_wire::{
    serve, to_bytes, Client, ClientConfig, ClientError, ErrorCode, Request, ServerConfig,
    MAX_BATCH_SPECS, MAX_FRAME_BYTES,
};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::build(71, SimScale::Test))
}

/// One slot's answer with the parts a caller can see.
type Answer = Result<u64, (ErrorCode, String)>;

fn answer(result: Result<u64, ClientError>) -> Answer {
    result.map_err(|e| match e {
        ClientError::Server { code, message, .. } => (code, message),
        other => panic!("expected a server answer, got {other:?}"),
    })
}

/// Every `adcomp_platform_*` series of the interface `label`, by series
/// name.
fn platform_metrics(label: &str) -> BTreeMap<String, f64> {
    let tag = format!("platform=\"{label}\"");
    Registry::global()
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("adcomp_platform_") && l.contains(&tag))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(series, value)| (series.to_string(), value.parse().unwrap()))
        .collect()
}

/// What one run left behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    answers: Vec<Answer>,
    /// `(estimates, validation_failures, rate_limited)` deltas.
    stats: (u64, u64, u64),
    /// Metric deltas, by series.
    metrics: BTreeMap<String, f64>,
}

/// Serves `api` on a fresh server and asks it for `specs` — as one
/// batch, or one `Client::estimate` at a time.
fn run(
    api: Arc<dyn PlatformApi>,
    specs: &[TargetingSpec],
    batched: bool,
    server: ServerConfig,
    client: ClientConfig,
) -> Outcome {
    let label = api.label();
    let handle = serve(api, "127.0.0.1:0", server).unwrap();
    let client = Client::connect_with(handle.addr(), client).unwrap();
    let stats_before = client.stats().unwrap();
    let before = platform_metrics(label);
    let results = if batched {
        client.estimate_batch(specs)
    } else {
        specs.iter().map(|s| client.estimate(s)).collect()
    };
    // After the counters: under a limiter, the `Stats` call itself may
    // be refused and counted.
    let stats_after = client.stats().unwrap();
    let after = platform_metrics(label);
    handle.shutdown();
    Outcome {
        answers: results.into_iter().map(answer).collect(),
        stats: (
            stats_after.0 - stats_before.0,
            stats_after.1 - stats_before.1,
            stats_after.2 - stats_before.2,
        ),
        metrics: after
            .into_iter()
            .map(|(series, v)| {
                let delta = v - before.get(&series).copied().unwrap_or(0.0);
                (series, delta)
            })
            .filter(|(_, delta)| *delta != 0.0)
            .collect(),
    }
}

#[test]
fn batch_frames_answer_like_one_estimate_at_a_time() {
    let platform = sim().facebook_restricted.clone();
    let catalog = platform.catalog().len() as u32;
    // Over two batch frames: singles, pairs, the everyone spec, an
    // unknown attribute and a policy violation (no gender targeting on
    // the restricted interface), interleaved.
    let specs: Vec<TargetingSpec> = (0..MAX_BATCH_SPECS as u32 + 300)
        .map(|i| match i % 5 {
            0 => TargetingSpec::and_of([AttributeId(i % catalog)]),
            1 => TargetingSpec::and_of([AttributeId(i % catalog), AttributeId((i / 5) % catalog)]),
            2 => TargetingSpec::everyone(),
            3 => TargetingSpec::and_of([AttributeId(900_000 + i)]),
            _ => TargetingSpec::builder()
                .gender(Gender::Female)
                .attribute(AttributeId(i % catalog))
                .build(),
        })
        .collect();
    let client = ClientConfig {
        pipeline_window: 2,
        ..ClientConfig::fast()
    };
    let plain = |batched| {
        run(
            platform.clone(),
            &specs,
            batched,
            ServerConfig::default(),
            client.clone(),
        )
    };
    let batched = plain(true);
    let serial = plain(false);
    assert_eq!(batched, serial);
    for code in [ErrorCode::UnknownAttribute, ErrorCode::InvalidTargeting] {
        assert!(
            batched
                .answers
                .iter()
                .any(|a| matches!(a, Err((c, _)) if *c == code)),
            "the batch must carry {code:?} answers"
        );
    }
    assert!(batched.stats.0 > 0);

    // Per-request faults survive batching: the fault index advances
    // once per spec, in slot order, either way.
    let plan = FaultPlan::new(5).with(
        FaultKind::Transient,
        Schedule::EveryNth {
            period: 7,
            offset: 3,
        },
    );
    let faulty = |batched| {
        let api = Arc::new(FaultyPlatform::new(platform.clone(), plan.clone()));
        let outcome = run(
            api.clone(),
            &specs,
            batched,
            ServerConfig::default(),
            client.clone(),
        );
        (outcome, api.injected())
    };
    let (batched, injected) = faulty(true);
    assert_eq!((batched, injected), faulty(false));
    assert!(injected.transient > 0, "the fault plan must have fired");
}

#[test]
fn rate_limiter_admits_each_spec_of_a_batch_on_its_own() {
    // A batch six times the burst: the first frame admits the burst and
    // refuses every other spec in its own slot; the client retries only
    // those, as the limiter refills.
    const BURST: f64 = 4.0;
    let platform = sim().linkedin.clone();
    let specs: Vec<TargetingSpec> = (0..24)
        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
        .collect();
    let go = |batched| {
        run(
            platform.clone(),
            &specs,
            batched,
            ServerConfig::rate_limited(50.0, BURST),
            ClientConfig {
                retry: RetryPolicy::fast(100),
                ..ClientConfig::fast()
            },
        )
    };
    let batched = go(true);
    let serial = go(false);
    assert_eq!(batched.answers, serial.answers);
    assert!(batched.answers.iter().all(Result::is_ok));
    assert_eq!(batched.stats.0, specs.len() as u64);
    // Counted per refused spec: the first frame alone refuses about 20,
    // where a per-frame count would read one per round.
    let refused = batched.stats.2;
    assert!(
        refused >= 10,
        "rate_limited must count refused specs, read {refused}"
    );
    let series = "adcomp_platform_rate_limited_total{platform=\"LinkedIn\"}";
    assert_eq!(batched.metrics.get(series), Some(&(refused as f64)));
}

#[test]
fn batch_larger_than_a_frame_is_split_by_size_and_fully_answered() {
    // Eight specs of ~200 KB each (one wide OR group): about 1.6 MB in
    // all, so the batch must go out as several frames.
    let platform = sim().google.clone();
    let catalog = platform.catalog().len() as u32;
    let specs: Vec<TargetingSpec> = (0..8)
        .map(|i| {
            let mut spec = TargetingSpec::and_of([AttributeId(i)]);
            spec.include.push(OrGroup {
                attributes: (0..50_000)
                    .map(|a| AttributeId((a + i) % catalog))
                    .collect(),
            });
            spec
        })
        .collect();
    let encoded = to_bytes(&Request::EstimateBatch {
        specs: specs.clone(),
    });
    assert!(encoded.len() > MAX_FRAME_BYTES as usize);
    let go = |batched| {
        run(
            platform.clone(),
            &specs,
            batched,
            ServerConfig::default(),
            ClientConfig::fast(),
        )
    };
    let batched = go(true);
    assert_eq!(batched.answers.len(), specs.len());
    assert_eq!(batched, go(false));
}
