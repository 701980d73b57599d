//! Spawning a *fleet* of wire endpoints over one simulation, so the
//! distributed scheduler ([`adcomp_core::ScheduledSource`]) has real
//! replicas to shard across: every replica is a full wire server
//! ([`adcomp_wire::serve`]) wrapping the **same** `Arc<AdPlatform>`,
//! queried through its own [`RemoteSource`] connection.
//!
//! Because all replicas of an interface share one platform instance,
//! any replica answers any query identically — which is exactly the
//! property the scheduler's determinism guarantee rests on. The fleet
//! is what the paper's audits would look like against a load-balanced
//! ads API: many HTTP frontends, one backing estimate service.
//!
//! Used by the scheduler equivalence test, the `fleet_audit` example
//! and the `sched_throughput` bench; see EXPERIMENTS.md ("Distributed
//! audits") for the topology.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use adcomp_core::experiments::EndpointSetFactory;
use adcomp_core::EstimateSource;
use adcomp_obs::lock;
use adcomp_platform::{InterfaceKind, PlatformApi, Simulation};
use adcomp_wire::{serve, ClientConfig, ServerConfig, ServerHandle};

use crate::RemoteSource;

/// The interfaces [`Fleet::launch`] replicates, in a fixed internal
/// order. [`Fleet::launch_apis`] accepts any roster instead.
const FLEET_INTERFACES: [InterfaceKind; 4] = [
    InterfaceKind::FacebookNormal,
    InterfaceKind::FacebookRestricted,
    InterfaceKind::GoogleDisplay,
    InterfaceKind::LinkedIn,
];

/// `replicas` wire servers per interface plus one connected
/// [`RemoteSource`] client per server.
///
/// Handles are droppable mid-run: [`kill`](Fleet::kill) shuts a single
/// replica down while audits are in flight, which is how the failover
/// tests exercise lease expiry and requeue. Dropping the fleet drains
/// and joins every remaining server.
pub struct Fleet {
    kinds: Vec<InterfaceKind>,
    replicas: usize,
    handles: Mutex<Vec<Option<ServerHandle>>>,
    sources: Vec<Arc<RemoteSource>>,
}

impl Fleet {
    /// Launches `replicas` default-configured servers per interface.
    pub fn launch(sim: &Simulation, replicas: usize) -> std::io::Result<Fleet> {
        Fleet::launch_with(
            sim,
            replicas,
            |_, _| ServerConfig::default(),
            |_, _| ClientConfig::fast(),
        )
    }

    /// Launches with per-replica server and client configs (attach a
    /// fault hook to one replica, stretch another's socket timeout so a
    /// kill exercises lease expiry instead of fail-fast requeue, …).
    pub fn launch_with(
        sim: &Simulation,
        replicas: usize,
        server_config: impl FnMut(InterfaceKind, usize) -> ServerConfig,
        client_config: impl FnMut(InterfaceKind, usize) -> ClientConfig,
    ) -> std::io::Result<Fleet> {
        let apis = FLEET_INTERFACES
            .iter()
            .map(|&kind| (kind, sim.platform(kind).clone() as Arc<dyn PlatformApi>))
            .collect();
        Fleet::launch_apis(apis, replicas, server_config, client_config)
    }

    /// Launches `replicas` servers per entry of an arbitrary platform
    /// roster — any [`PlatformApi`], not just the in-memory simulators.
    /// This is how a disk-backed
    /// [`SegmentedPlatform`](adcomp_platform::SegmentedPlatform) (or a
    /// fault-wrapped platform) joins a fleet: the wire protocol only
    /// sees the trait.
    ///
    /// Each entry's [`InterfaceKind`] is the key later passed to
    /// [`endpoints`](Fleet::endpoints) / [`source`](Fleet::source) /
    /// [`kill`](Fleet::kill); duplicate kinds are rejected.
    pub fn launch_apis(
        apis: Vec<(InterfaceKind, Arc<dyn PlatformApi>)>,
        replicas: usize,
        mut server_config: impl FnMut(InterfaceKind, usize) -> ServerConfig,
        mut client_config: impl FnMut(InterfaceKind, usize) -> ClientConfig,
    ) -> std::io::Result<Fleet> {
        assert!(replicas > 0, "a fleet needs at least one replica");
        assert!(!apis.is_empty(), "a fleet needs at least one platform");
        let mut kinds = Vec::with_capacity(apis.len());
        let mut handles = Vec::with_capacity(apis.len() * replicas);
        let mut sources = Vec::with_capacity(apis.len() * replicas);
        for (kind, platform) in apis {
            assert!(!kinds.contains(&kind), "duplicate fleet interface {kind:?}");
            kinds.push(kind);
            for replica in 0..replicas {
                let handle = serve(
                    platform.clone(),
                    "127.0.0.1:0",
                    server_config(kind, replica),
                )?;
                let client =
                    adcomp_wire::Client::connect_with(handle.addr(), client_config(kind, replica))?;
                let source = RemoteSource::new(client).map_err(std::io::Error::other)?;
                handles.push(Some(handle));
                sources.push(Arc::new(source));
            }
        }
        Ok(Fleet {
            kinds,
            replicas,
            handles: Mutex::new(handles),
            sources,
        })
    }

    fn iface_index(&self, kind: InterfaceKind) -> usize {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .expect("interface not in this fleet")
    }

    /// Replicas per interface.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The connected endpoint set for one interface, in replica order —
    /// the shape [`EndpointSetFactory`] wants.
    pub fn endpoints(&self, kind: InterfaceKind) -> Vec<Arc<dyn EstimateSource>> {
        let base = self.iface_index(kind) * self.replicas;
        self.sources[base..base + self.replicas]
            .iter()
            .map(|s| s.clone() as Arc<dyn EstimateSource>)
            .collect()
    }

    /// One replica's client, for direct inspection in tests.
    pub fn source(&self, kind: InterfaceKind, replica: usize) -> Arc<RemoteSource> {
        assert!(replica < self.replicas);
        self.sources[self.iface_index(kind) * self.replicas + replica].clone()
    }

    /// The address one replica's server listens on, while it runs
    /// (`None` once [`kill`](Fleet::kill)ed).
    pub fn addr(&self, kind: InterfaceKind, replica: usize) -> Option<SocketAddr> {
        assert!(replica < self.replicas);
        let index = self.iface_index(kind) * self.replicas + replica;
        lock(&self.handles)[index].as_ref().map(ServerHandle::addr)
    }

    /// An [`EndpointSetFactory`] serving this fleet's endpoint sets, for
    /// [`ExperimentContext::distributed`](adcomp_core::experiments::ExperimentContext::distributed).
    pub fn factory(fleet: &Arc<Fleet>) -> EndpointSetFactory {
        let fleet = fleet.clone();
        Arc::new(move |kind| fleet.endpoints(kind))
    }

    /// Shuts one replica's server down **while audits may be running**.
    /// Its client starts failing with transport errors, the scheduler
    /// marks the endpoint unhealthy and requeues its leased units onto
    /// the survivors. That holds even if another server is later given
    /// the freed port: the client finds a different instance id there
    /// and refuses it. Idempotent: killing a dead replica is a no-op.
    pub fn kill(&self, kind: InterfaceKind, replica: usize) {
        assert!(replica < self.replicas);
        let index = self.iface_index(kind) * self.replicas + replica;
        let handle = lock(&self.handles)[index].take();
        if let Some(handle) = handle {
            handle.shutdown();
        }
    }

    /// Drains and joins every still-running server.
    pub fn shutdown(&self) {
        let handles: Vec<_> = lock(&self.handles).iter_mut().map(|h| h.take()).collect();
        for handle in handles.into_iter().flatten() {
            handle.shutdown();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
