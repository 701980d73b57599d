//! The audit must be transport-agnostic: running it through the wire
//! protocol ([`RemoteSource`]) must produce the same measurements as
//! running it in-process.

use std::sync::Arc;
use std::time::Duration;

use discrimination_via_composition::audit::{
    measure_spec, rank_individuals, survey_individuals, top_compositions, AuditTarget, Direction,
    DiscoveryConfig, EstimateSource, SensitiveClass,
};
use discrimination_via_composition::platform::{AdPlatform, FaultPlan, SimScale, Simulation};
use discrimination_via_composition::population::Gender;
use discrimination_via_composition::targeting::{AttributeId, TargetingSpec};
use discrimination_via_composition::wire::{
    serve, serve_service, Client, ClientConfig, ClientError, CountingHook, ErrorCode,
    FaultPlanHook, Request, Response, ServerConfig, WireService,
};
use discrimination_via_composition::RemoteSource;

#[test]
fn remote_audit_equals_in_process_audit() {
    let sim = Simulation::build(555, SimScale::Test);
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = Arc::new(RemoteSource::connect(handle.addr()).unwrap());

    // Source-level equivalence.
    assert_eq!(remote.label(), "LinkedIn");
    assert_eq!(remote.catalog_len() as usize, sim.linkedin.catalog().len());
    assert_eq!(
        remote.attribute_name(AttributeId(3)),
        Some(
            sim.linkedin
                .catalog()
                .get(AttributeId(3))
                .unwrap()
                .name
                .clone()
        )
    );
    assert!(remote.supports_demographics());
    assert!(remote.can_compose(AttributeId(0), AttributeId(1)));
    assert!(!remote.can_compose(AttributeId(0), AttributeId(0)));

    // Measurement-level equivalence on a composed, demographically
    // constrained spec.
    let remote_target = AuditTarget::direct(remote);
    let local_target = AuditTarget::for_platform(&sim.linkedin, &sim);
    let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(5)]);
    assert_eq!(
        measure_spec(&remote_target, &spec).unwrap(),
        measure_spec(&local_target, &spec).unwrap()
    );

    // Pipeline-level equivalence: discovery finds the same compositions
    // with the same measurements.
    let male = SensitiveClass::Gender(Gender::Male);
    let cfg = DiscoveryConfig {
        top_k: 20,
        ..DiscoveryConfig::default()
    };
    let remote_survey = survey_individuals(&remote_target).unwrap();
    let local_survey = survey_individuals(&local_target).unwrap();
    assert_eq!(remote_survey.base, local_survey.base);
    let rr = rank_individuals(&remote_survey, male, Direction::Toward, cfg.min_reach);
    let lr = rank_individuals(&local_survey, male, Direction::Toward, cfg.min_reach);
    assert_eq!(rr, lr, "rankings must be identical");
    let rt = top_compositions(&remote_target, &remote_survey, &rr, &cfg).unwrap();
    let lt = top_compositions(&local_target, &local_survey, &lr, &cfg).unwrap();
    assert_eq!(rt.len(), lt.len());
    for (r, l) in rt.iter().zip(&lt) {
        assert_eq!(r.attrs, l.attrs);
        assert_eq!(r.measurement, l.measurement);
    }

    handle.shutdown();
}

/// Asserts that every metadata answer of `remote` equals the in-process
/// platform's: names, features and the demographics flag for every id,
/// and the composition rule over every 7th id against every 7th id.
fn assert_catalog_matches(remote: &RemoteSource, local: &AdPlatform) {
    let n = EstimateSource::catalog_len(local);
    assert_eq!(remote.catalog_len(), n);
    assert_eq!(
        remote.supports_demographics(),
        EstimateSource::supports_demographics(local)
    );
    for id in (0..n).map(AttributeId) {
        assert_eq!(
            remote.attribute_name(id),
            EstimateSource::attribute_name(local, id)
        );
        assert_eq!(
            remote.attribute_feature(id),
            EstimateSource::attribute_feature(local, id)
        );
    }
    for a in (0..n).step_by(7).map(AttributeId) {
        for b in (0..n).step_by(7).map(AttributeId) {
            assert_eq!(
                remote.can_compose(a, b),
                EstimateSource::can_compose(local, a, b),
                "{a:?} ∧ {b:?}"
            );
        }
    }
}

#[test]
fn catalog_read_at_connect_costs_no_frames_and_outlives_the_server() {
    let sim = Simulation::build(558, SimScale::Test);
    // Facebook allows same-feature AND; Google composes across features
    // only, so its answers depend on the features read at connect.
    for local in [&sim.facebook, &sim.google] {
        let hook = Arc::new(CountingHook::new(FaultPlanHook(FaultPlan::new(0))));
        let config = ServerConfig {
            fault_hook: Some(hook.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(local.clone(), "127.0.0.1:0", config).unwrap();
        let remote = RemoteSource::connect(handle.addr()).unwrap();
        let frames = hook.frames();
        assert_catalog_matches(&remote, local);
        assert_eq!(hook.frames(), frames, "metadata went over the wire");
        handle.shutdown();
        assert_catalog_matches(&remote, local);
    }
}

/// Serves a `catalog_len`-entry catalog whose pages come from `page`.
struct CatalogService {
    catalog_len: u32,
    page: fn(u32) -> Response,
}

impl WireService for CatalogService {
    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Describe => Response::Described {
                label: "Catalog".into(),
                catalog_len: self.catalog_len,
                gender_targeting: true,
                age_targeting: true,
                exclusions: true,
                same_feature_and: false,
                impressions: false,
                instance: 1,
            },
            Request::CatalogPage { start, .. } => (self.page)(start),
            _ => Response::Error {
                code: ErrorCode::BadRequest,
                message: "catalog only".into(),
                retry_after: None,
            },
        }
    }
}

/// Entries `start..end` of a catalog whose attribute `i` is named
/// `attr i` and has feature `i % 3`.
fn entries(start: u32, end: u32) -> Vec<(String, u16)> {
    (start..end)
        .map(|i| (format!("attr {i}"), (i % 3) as u16))
        .collect()
}

/// Connects a [`RemoteSource`] to `service`, failing the test if `new`
/// takes more than a few seconds.
fn connect_to(service: CatalogService) -> Result<RemoteSource, ClientError> {
    let handle = serve_service(Arc::new(service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect_with(handle.addr(), ClientConfig::fast()).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let connecting = std::thread::spawn(move || {
        let _ = tx.send(RemoteSource::new(client));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("RemoteSource::new did not return");
    connecting.join().expect("connecting thread");
    handle.shutdown();
    result
}

#[test]
fn remote_source_refuses_a_catalog_that_does_not_tile() {
    // Three-entry pages, `next` pointing past each: the honest case.
    let honest = connect_to(CatalogService {
        catalog_len: 10,
        page: |start| {
            let end = (start + 3).min(10);
            Response::CatalogPage {
                start,
                entries: entries(start, end),
                next: (end < 10).then_some(end),
            }
        },
    })
    .unwrap();
    assert_eq!(honest.catalog_len(), 10);
    assert_eq!(
        honest.attribute_name(AttributeId(9)).as_deref(),
        Some("attr 9")
    );
    assert!(honest.can_compose(AttributeId(0), AttributeId(4)));
    assert!(!honest.can_compose(AttributeId(0), AttributeId(3)));
    let liars = [
        // `next` names the page's own start: a client that follows it
        // asks for the same page forever.
        CatalogService {
            catalog_len: 10,
            page: |start| Response::CatalogPage {
                start,
                entries: entries(start, start + 2),
                next: Some(start),
            },
        },
        // More entries than the catalog has.
        CatalogService {
            catalog_len: 10,
            page: |start| Response::CatalogPage {
                start,
                entries: entries(start, 11),
                next: None,
            },
        },
        // An empty page long before the claimed end, which is too far
        // off to reserve room for.
        CatalogService {
            catalog_len: u32::MAX,
            page: |start| Response::CatalogPage {
                start,
                entries: Vec::new(),
                next: Some(start),
            },
        },
    ];
    for liar in liars {
        assert!(matches!(
            connect_to(liar),
            Err(ClientError::UnexpectedResponse)
        ));
    }
}

#[test]
fn remote_source_respects_interface_policy() {
    let sim = Simulation::build(556, SimScale::Test);
    let handle = serve(
        sim.facebook_restricted.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let remote = RemoteSource::connect(handle.addr()).unwrap();
    // Restricted interface: no demographics over the wire either.
    assert!(!remote.supports_demographics());
    let gendered = TargetingSpec::builder().gender(Gender::Male).build();
    assert!(remote.check(&gendered).is_err());
    assert!(remote.estimate(&gendered).is_err());
    assert!(remote
        .estimate(&TargetingSpec::and_of([AttributeId(0)]))
        .is_ok());
    handle.shutdown();
}

#[test]
fn remote_google_exposes_cross_feature_rule() {
    let sim = Simulation::build(557, SimScale::Test);
    let handle = serve(sim.google.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = RemoteSource::connect(handle.addr()).unwrap();
    // Find attributes in both features via the wire metadata.
    let mut first_by_feature = std::collections::HashMap::new();
    for id in 0..remote.catalog_len() {
        let id = AttributeId(id);
        if let Some(f) = remote.attribute_feature(id) {
            first_by_feature.entry(f).or_insert(id);
        }
        if first_by_feature.len() == 2 {
            break;
        }
    }
    let ids: Vec<AttributeId> = first_by_feature.values().copied().collect();
    assert_eq!(ids.len(), 2);
    assert!(remote.can_compose(ids[0], ids[1]));
    let same_feature_pair = [AttributeId(0), AttributeId(1)];
    let same_feature = remote.attribute_feature(same_feature_pair[0])
        == remote.attribute_feature(same_feature_pair[1]);
    if same_feature {
        assert!(!remote.can_compose(same_feature_pair[0], same_feature_pair[1]));
    }
    handle.shutdown();
}
