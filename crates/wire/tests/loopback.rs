//! End-to-end tests over a real TCP loopback: server, client, rate
//! limiting, fault injection, error mapping, and concurrent clients.

use std::sync::Arc;

use adcomp_platform::{FaultKind, FaultPlan, Schedule, SimScale, Simulation};
use adcomp_population::Gender;
use adcomp_targeting::{AttributeId, TargetingSpec};
use adcomp_wire::{
    from_bytes, read_frame, serve, serve_service, write_frame, write_message, Client, ClientConfig,
    ClientError, CountingHook, ErrorCode, FaultPlanHook, Request, Response, ServerConfig,
    WireService, MAX_BATCH_SPECS, MAX_FRAME_BYTES,
};

fn sim() -> &'static Simulation {
    use std::sync::OnceLock;
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::build(70, SimScale::Test))
}

#[test]
fn describe_matches_platform() {
    let handle = serve(sim().google.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let desc = client.describe().unwrap();
    assert_eq!(desc.label, "Google");
    assert_eq!(desc.catalog_len as usize, sim().google.catalog().len());
    assert!(
        !desc.same_feature_and,
        "google composes across features only"
    );
    assert!(desc.impressions);
    handle.shutdown();
}

#[test]
fn estimates_match_in_process_values() {
    let handle = serve(
        sim().facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    for spec in [
        TargetingSpec::everyone(),
        TargetingSpec::and_of([AttributeId(0)]),
        TargetingSpec::builder()
            .gender(Gender::Female)
            .attribute(AttributeId(1))
            .build(),
    ] {
        let remote = client.estimate(&spec).unwrap();
        let local = {
            use adcomp_platform::EstimateRequest;
            sim()
                .facebook
                .reach_estimate(&EstimateRequest::new(
                    spec.clone(),
                    sim().facebook.config().default_objective,
                ))
                .unwrap()
                .value
        };
        assert_eq!(remote, local, "spec {spec}");
    }
    handle.shutdown();
}

#[test]
fn attribute_info_and_unknown_ids() {
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let (name, _feature) = client.attribute_info(0).unwrap();
    assert_eq!(
        name,
        sim().linkedin.catalog().get(AttributeId(0)).unwrap().name
    );
    match client.attribute_info(99_999) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownAttribute,
            ..
        }) => {}
        other => panic!("expected UnknownAttribute, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn policy_violations_map_to_invalid_targeting() {
    let handle = serve(
        sim().facebook_restricted.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let spec = TargetingSpec::builder().gender(Gender::Male).build();
    match client.check(&spec) {
        Err(ClientError::Server {
            code: ErrorCode::InvalidTargeting,
            message,
            ..
        }) => {
            assert!(message.contains("gender"), "message: {message}");
        }
        other => panic!("expected InvalidTargeting, got {other:?}"),
    }
    // Valid spec passes.
    client
        .check(&TargetingSpec::and_of([AttributeId(0)]))
        .unwrap();
    handle.shutdown();
}

#[test]
fn stats_are_served() {
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let before = client.stats().unwrap();
    client.estimate(&TargetingSpec::everyone()).unwrap();
    let after = client.stats().unwrap();
    assert!(after.0 > before.0, "estimate counter must advance");
    handle.shutdown();
}

#[test]
fn rate_limited_client_retries_transparently() {
    // 20 req/s with burst 2: a burst of requests trips the limiter, and
    // the client's retry loop absorbs it.
    let config = ServerConfig::rate_limited(20.0, 2.0);
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    for _ in 0..6 {
        client.estimate(&TargetingSpec::everyone()).unwrap();
    }
    let (_, _, rate_limited) = client.stats().unwrap();
    assert!(
        rate_limited > 0,
        "the limiter must have fired at least once"
    );
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let handle = serve(
        sim().facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();
    let spec = TargetingSpec::and_of([AttributeId(2)]);
    let expected = {
        let c = Client::connect(addr).unwrap();
        c.estimate(&spec).unwrap()
    };
    let mut threads = Vec::new();
    for _ in 0..4 {
        let spec = spec.clone();
        threads.push(std::thread::spawn(move || {
            let c = Client::connect(addr).unwrap();
            (0..20)
                .map(|_| c.estimate(&spec).unwrap())
                .collect::<Vec<u64>>()
        }));
    }
    for t in threads {
        for v in t.join().unwrap() {
            assert_eq!(v, expected);
        }
    }
    handle.shutdown();
}

#[test]
fn shared_client_across_threads() {
    let handle = serve(
        sim().facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Arc::new(Client::connect(handle.addr()).unwrap());
    let spec = TargetingSpec::and_of([AttributeId(3)]);
    let expected = client.estimate(&spec).unwrap();
    let mut threads = Vec::new();
    for _ in 0..4 {
        let client = client.clone();
        let spec = spec.clone();
        threads.push(std::thread::spawn(move || client.estimate(&spec).unwrap()));
    }
    for t in threads {
        assert_eq!(t.join().unwrap(), expected);
    }
    handle.shutdown();
}

#[test]
fn server_survives_malformed_frames() {
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    // Send garbage bytes in a valid frame; the server should answer with
    // BadRequest rather than dropping the connection.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let garbage = [0xFFu8, 0x01, 0x02];
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut payload).unwrap();
    let resp: adcomp_wire::Response = adcomp_wire::from_bytes(&payload).unwrap();
    assert!(matches!(
        resp,
        adcomp_wire::Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    // The same platform still serves real clients.
    let client = Client::connect(handle.addr()).unwrap();
    assert!(client.estimate(&TargetingSpec::everyone()).unwrap() > 0);
    handle.shutdown();
}

#[test]
fn client_reconnects_through_dropped_connections() {
    // Every third request the server hangs up instead of answering; the
    // client must reconnect and retry without the caller noticing.
    let plan = FaultPlan::new(11).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::EveryNth {
            period: 3,
            offset: 2,
        },
    );
    let config = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let clean = {
        let plain = serve(
            sim().linkedin.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let c = Client::connect(plain.addr()).unwrap();
        let v = c.estimate(&TargetingSpec::everyone()).unwrap();
        plain.shutdown();
        v
    };
    for _ in 0..10 {
        assert_eq!(client.estimate(&TargetingSpec::everyone()).unwrap(), clean);
    }
    handle.shutdown();
}

#[test]
fn client_survives_a_mid_frame_drop() {
    // One torn frame (length prefix promising more bytes than arrive)
    // followed by a clean connection close.
    let plan = FaultPlan::new(12).with(
        FaultKind::Drop { mid_frame: true },
        Schedule::Once { at: 1 },
    );
    let config = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let first = client.estimate(&TargetingSpec::everyone()).unwrap();
    let second = client.estimate(&TargetingSpec::everyone()).unwrap();
    assert_eq!(first, second);
    handle.shutdown();
}

#[test]
fn circuit_breaker_opens_when_the_endpoint_dies() {
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    client.estimate(&TargetingSpec::everyone()).unwrap();
    handle.shutdown();
    // With the server gone, retries exhaust and the breaker trips
    // (threshold 4 < the 6 attempts of one call) …
    let first = client.estimate(&TargetingSpec::everyone());
    assert!(
        matches!(
            first,
            Err(ClientError::Transport(_)) | Err(ClientError::CircuitOpen { .. })
        ),
        "got {first:?}"
    );
    // … so an immediate follow-up is rejected without touching the wire.
    match client.estimate(&TargetingSpec::everyone()) {
        Err(ClientError::CircuitOpen { retry_in }) => assert!(retry_in > std::time::Duration::ZERO),
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
}

#[test]
fn rate_limit_responses_carry_a_structured_hint() {
    // Drain the burst with a raw connection, then inspect the error the
    // server sends (bypassing the client's transparent retry).
    use std::io::{Read, Write};
    let config = ServerConfig::rate_limited(5.0, 1.0);
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let payload = adcomp_wire::to_bytes(&adcomp_wire::Request::Stats);
    let mut saw_hint = false;
    for _ in 0..4 {
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        raw.write_all(&payload).unwrap();
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).unwrap();
        let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
        raw.read_exact(&mut buf).unwrap();
        if let adcomp_wire::Response::Error {
            code, retry_after, ..
        } = adcomp_wire::from_bytes::<adcomp_wire::Response>(&buf).unwrap()
        {
            assert_eq!(code, ErrorCode::RateLimited);
            let hint = retry_after.expect("rate-limit errors must advertise a back-off");
            assert!(hint > std::time::Duration::ZERO);
            saw_hint = true;
        }
    }
    assert!(
        saw_hint,
        "burst of 1 must trip the limiter within 4 requests"
    );
    handle.shutdown();
}

#[test]
fn catalog_pagination_covers_the_whole_catalog() {
    let handle = serve(sim().google.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let total = sim().google.catalog().len() as u32;

    // Walk pages of 64 and reassemble the catalog.
    let mut start = 0u32;
    let mut all: Vec<(String, u16)> = Vec::new();
    loop {
        let (entries, next) = client.catalog_page(start, 64).unwrap();
        assert!(entries.len() <= 64);
        all.extend(entries);
        match next {
            Some(n) => {
                assert_eq!(n, all.len() as u32, "pages must be contiguous");
                start = n;
            }
            None => break,
        }
    }
    assert_eq!(all.len() as u32, total);
    for (i, (name, feature)) in all.iter().enumerate() {
        let entry = sim().google.catalog().get(AttributeId(i as u32)).unwrap();
        assert_eq!(*name, entry.name);
        assert_eq!(*feature, entry.feature.0);
    }
    // Out-of-range start yields an empty terminal page, not an error.
    let (entries, next) = client.catalog_page(total + 10, 64).unwrap();
    assert!(entries.is_empty());
    assert_eq!(next, None);
    handle.shutdown();
}

#[test]
fn pipelined_batch_matches_serial_estimates() {
    let handle = serve(
        sim().facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            pipeline_window: 8,
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let specs: Vec<TargetingSpec> = (0..20)
        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
        .collect();
    let serial: Vec<u64> = specs.iter().map(|s| client.estimate(s).unwrap()).collect();
    let batched = client.estimate_batch(&specs);
    for (i, (serial, batched)) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(
            batched.as_ref().unwrap(),
            serial,
            "spec {i} differs under pipelining"
        );
    }
    handle.shutdown();
}

#[test]
fn pipelined_batch_files_answers_in_receive_order() {
    // A hand-rolled peer reads a whole pipelined window of batch frames,
    // then answers them in the order it received them, as every server
    // does: the client must file each answer under its own frame. The
    // middle frame gets one bare estimate instead of a batch answer,
    // which must fill none of its slots with that value and must not
    // shift its neighbours' answers.
    use std::collections::HashMap;
    use std::io::BufReader;
    use std::net::TcpListener;

    const FRAMES: usize = 3;
    let specs: Vec<TargetingSpec> = (0..(FRAMES * MAX_BATCH_SPECS) as u32)
        .map(|i| TargetingSpec::and_of([AttributeId(i)]))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let slot_of: HashMap<TargetingSpec, u64> = specs.iter().cloned().zip(0..).collect();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut window = Vec::new();
        for _ in 0..FRAMES {
            let payload = read_frame(&mut reader).unwrap();
            let Request::EstimateBatch { specs } = from_bytes::<Request>(&payload).unwrap() else {
                panic!("expected a batch frame");
            };
            window.push(specs);
        }
        for (frame, specs) in window.into_iter().enumerate() {
            // Each answer names its spec's slot, so a misfiled one shows.
            let answers = specs
                .iter()
                .map(|spec| Response::Estimate {
                    value: 1_000 + slot_of[spec],
                })
                .collect();
            let answer = if frame == 1 {
                Response::Estimate { value: 7 }
            } else {
                Response::Estimates { answers }
            };
            write_message(&mut writer, &answer).unwrap();
        }
    });
    let client = Client::connect_with(
        addr,
        ClientConfig {
            pipeline_window: FRAMES,
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let results = client.estimate_batch(&specs);
    peer.join().unwrap();
    for (slot, result) in results.iter().enumerate() {
        if (MAX_BATCH_SPECS..2 * MAX_BATCH_SPECS).contains(&slot) {
            assert!(
                matches!(result, Err(ClientError::UnexpectedResponse)),
                "slot {slot}: {result:?}"
            );
        } else {
            assert_eq!(
                result.as_ref().unwrap(),
                &(1_000 + slot as u64),
                "slot {slot}"
            );
        }
    }
}

#[test]
fn pipelined_batch_carries_per_query_errors() {
    let handle = serve(
        sim().facebook.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let bogus = TargetingSpec::and_of([AttributeId(999_999)]);
    let specs = vec![
        TargetingSpec::everyone(),
        bogus,
        TargetingSpec::and_of([AttributeId(0)]),
    ];
    let results = client.estimate_batch(&specs);
    assert!(results[0].is_ok());
    assert!(
        matches!(
            results[1],
            Err(ClientError::Server {
                code: ErrorCode::UnknownAttribute,
                ..
            })
        ),
        "got {:?}",
        results[1]
    );
    assert!(results[2].is_ok(), "a bad spec must not poison its batch");
    handle.shutdown();
}

#[test]
fn pipelined_batch_rides_out_rate_limiting() {
    // A tight limiter: the batch trips it, the client backs off per the
    // server's hint, and — given enough retry budget — every query still
    // completes.
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::rate_limited(1_000.0, 3.0),
    )
    .unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            retry: adcomp_platform::RetryPolicy::fast(30),
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let specs = vec![TargetingSpec::everyone(); 12];
    let results = client.estimate_batch(&specs);
    let first = results[0].as_ref().unwrap();
    for r in &results {
        assert_eq!(r.as_ref().unwrap(), first);
    }
    handle.shutdown();
}

/// A platform whose estimates take `delay` each — long enough for a
/// shutdown to land while frames are admitted but unanswered.
struct SlowPlatform {
    inner: Arc<adcomp_platform::AdPlatform>,
    delay: std::time::Duration,
}

impl adcomp_platform::PlatformApi for SlowPlatform {
    fn config(&self) -> &adcomp_platform::PlatformConfig {
        self.inner.config()
    }

    fn catalog(&self) -> &adcomp_platform::Catalog {
        self.inner.catalog()
    }

    fn reach_estimate(
        &self,
        request: &adcomp_platform::EstimateRequest,
    ) -> Result<adcomp_platform::SizeEstimate, adcomp_platform::PlatformError> {
        std::thread::sleep(self.delay);
        self.inner.reach_estimate(request)
    }

    /// One delay per call, so a batch frame costs what one estimate does.
    fn reach_estimates(
        &self,
        requests: &[adcomp_platform::EstimateRequest],
    ) -> Vec<Result<adcomp_platform::SizeEstimate, adcomp_platform::PlatformError>> {
        std::thread::sleep(self.delay);
        self.inner.reach_estimates(requests)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), adcomp_platform::PlatformError> {
        adcomp_platform::AdPlatform::check(&self.inner, spec)
    }

    fn stats(&self) -> adcomp_platform::QueryStats {
        self.inner.stats()
    }

    fn note_rate_limited(&self) {
        adcomp_platform::PlatformApi::note_rate_limited(self.inner.as_ref())
    }
}

#[test]
fn shutdown_drains_in_flight_pipelined_frames() {
    // 16 pipelined batch frames at 30ms each ≈ 480ms of server-side
    // work. Shutdown lands mid-flight, with frames still queued on the
    // socket, and must hold the connection open until every frame sent
    // is answered — before graceful drain, the active close could cut
    // off queued responses.
    let slow = Arc::new(SlowPlatform {
        inner: sim().linkedin.clone(),
        delay: std::time::Duration::from_millis(30),
    });
    let handle = serve(
        slow,
        "127.0.0.1:0",
        ServerConfig::default().with_drain_timeout(std::time::Duration::from_secs(30)),
    )
    .unwrap();
    let expected = {
        use adcomp_platform::EstimateRequest;
        let p = &sim().linkedin;
        p.reach_estimate(&EstimateRequest::new(
            TargetingSpec::everyone(),
            p.config().default_objective,
        ))
        .unwrap()
        .value
    };
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            pipeline_window: 16,
            io_timeout: Some(std::time::Duration::from_secs(30)),
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let batch = std::thread::spawn(move || {
        let specs = vec![TargetingSpec::everyone(); 16 * MAX_BATCH_SPECS];
        client.estimate_batch(&specs)
    });
    // Let the window land server-side so frames are read and queued.
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.shutdown();
    let results = batch.join().unwrap();
    assert_eq!(results.len(), 16 * MAX_BATCH_SPECS);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("drained shutdown answers every frame"),
            &expected,
            "slot {i}"
        );
    }
}

#[test]
fn status_endpoint_reports_platform_health() {
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let (healthy, body) = client.status().unwrap();
    assert!(healthy, "a serving platform reports healthy");
    assert!(body.contains("LinkedIn"), "status body names the platform");
    handle.shutdown();
}

#[test]
fn custom_service_rides_the_wire_transport() {
    // A non-platform service (like the continuous-audit daemon's status
    // endpoint) answers through the same frames and drain path.
    struct Fixed;
    impl WireService for Fixed {
        fn handle(&self, request: Request) -> Response {
            match request {
                Request::Status => Response::StatusReport {
                    healthy: false,
                    body: "degraded: replica 2 down".into(),
                },
                _ => Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "status only".into(),
                    retry_after: None,
                },
            }
        }
    }
    let handle = serve_service(Arc::new(Fixed), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let (healthy, body) = client.status().unwrap();
    assert!(!healthy);
    assert_eq!(body, "degraded: replica 2 down");
    let err = client.stats().unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn expired_drain_is_surfaced_not_silent() {
    // Admitted frames that cannot be answered inside the drain window
    // must be counted, not dropped on the floor. 8 pipelined batch
    // frames at 200ms each against a 20ms drain window guarantees
    // leftovers: the frames still queued behind the one in hand.
    let abandoned = adcomp_obs::metrics::Registry::global().counter("adcomp_wire_drain_abandoned");
    let before = abandoned.get();
    let slow = Arc::new(SlowPlatform {
        inner: sim().linkedin.clone(),
        delay: std::time::Duration::from_millis(200),
    });
    let handle = serve(
        slow,
        "127.0.0.1:0",
        ServerConfig::default().with_drain_timeout(std::time::Duration::from_millis(20)),
    )
    .unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            pipeline_window: 8,
            retry: adcomp_platform::RetryPolicy::none(),
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let batch = std::thread::spawn(move || {
        let specs = vec![TargetingSpec::everyone(); 8 * MAX_BATCH_SPECS];
        client.estimate_batch(&specs)
    });
    // Let the window land server-side so frames are read and queued.
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.shutdown();
    let _ = batch.join().unwrap();
    assert!(
        abandoned.get() >= before + 2,
        "an expired drain must count the queued frames in adcomp_wire_drain_abandoned"
    );
}

#[test]
fn pipelined_batch_reconnects_and_reissues_only_unanswered() {
    // Six batch frames, four in flight; the connection dies at the
    // fourth. The first three are answered, so the client reconnects
    // and re-issues the last three only, and every slot ends up filled
    // and correct.
    let plan = FaultPlan::new(31).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::Once { at: 3 },
    );
    let hook = Arc::new(CountingHook::new(FaultPlanHook(plan)));
    let config = ServerConfig::default().with_fault_hook(hook.clone());
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let client = Client::connect_with(
        handle.addr(),
        ClientConfig {
            pipeline_window: 4,
            ..ClientConfig::fast()
        },
    )
    .unwrap();
    let specs: Vec<TargetingSpec> = (0..6 * MAX_BATCH_SPECS as u32)
        .map(|i| TargetingSpec::and_of([AttributeId(i % 60)]))
        .collect();
    let results = client.estimate_batch(&specs);
    assert_eq!(hook.fired(), 1, "the drop at frame 3 fired");
    assert_eq!(
        hook.frames(),
        4 + 3,
        "frames 0-3, then the three unanswered"
    );
    let clean = client.estimate_batch(&specs);
    for (i, (r, clean)) in results.iter().zip(&clean).enumerate() {
        assert_eq!(r.as_ref().unwrap(), clean.as_ref().unwrap(), "slot {i}");
    }
    handle.shutdown();
}

#[test]
fn reconnect_refuses_another_server_on_the_same_port() {
    // Once the client has described its server, a reconnect checks the
    // server's instance id. A dropped connection to the same server
    // reconnects as before; but once that server is gone and another
    // is given its port, every call fails and the newcomer answers no
    // estimate.
    let plan = FaultPlan::new(13).with(
        FaultKind::Drop { mid_frame: false },
        Schedule::Once { at: 2 },
    );
    let hook = Arc::new(CountingHook::new(FaultPlanHook(plan)));
    let config = ServerConfig::default().with_fault_hook(hook.clone());
    let handle = serve(sim().linkedin.clone(), "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();
    let client = Client::connect_with(addr, ClientConfig::fast()).unwrap();
    assert_eq!(client.describe().unwrap().label, "LinkedIn");
    let everyone = TargetingSpec::everyone();
    let value = client.estimate(&everyone).unwrap();
    // Frame 2 is dropped; the reconnect's `Describe` is frame 3 and
    // the estimate goes again as frame 4.
    assert_eq!(client.estimate(&everyone).unwrap(), value);
    assert_eq!((hook.fired(), hook.frames()), (1, 5));
    handle.shutdown();

    let other = Simulation::build(71, SimScale::Test);
    let newcomer = Arc::new(CountingHook::new(FaultPlanHook(FaultPlan::new(0))));
    let impostor = serve(
        other.google.clone(),
        &addr.to_string(),
        ServerConfig::default().with_fault_hook(newcomer.clone()),
    )
    .unwrap();
    let refused = |r: Result<u64, ClientError>| {
        matches!(
            r,
            Err(ClientError::Transport(_) | ClientError::CircuitOpen { .. })
        )
    };
    assert!(refused(client.estimate(&everyone)));
    assert!(refused(client.describe().map(|d| d.catalog_len.into())));
    assert!(newcomer.frames() > 0, "the client reached the new server");
    assert_eq!(other.google.stats().estimates, 0);
    impostor.shutdown();
}

#[test]
fn deeply_nested_frame_is_refused_and_the_server_keeps_serving() {
    // A maximal frame of `Traced` wrappers nested ~60k deep. Decoding it
    // recursively would overflow the connection thread's stack and abort
    // the whole process; it must come back as one BadRequest instead.
    use std::io::BufReader;
    let handle = serve(
        sim().linkedin.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut nested = Vec::new();
    while nested.len() + 17 <= MAX_FRAME_BYTES as usize {
        nested.push(8u8);
        nested.extend_from_slice(&[7; 16]);
    }
    let raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut &raw, &nested).unwrap();
    let answer = read_frame(&mut BufReader::new(&raw)).unwrap();
    assert!(matches!(
        from_bytes::<Response>(&answer).unwrap(),
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    let client = Client::connect(handle.addr()).unwrap();
    assert!(client.estimate(&TargetingSpec::everyone()).unwrap() > 0);
    handle.shutdown();
}
