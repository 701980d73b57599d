//! Umbrella crate for the reproduction of *On the Potential for
//! Discrimination via Composition* (Venkatadri & Mislove, IMC 2020).
//!
//! Re-exports the workspace crates under stable module names and provides
//! the glue that lets the audit pipeline run against a platform behind
//! the wire protocol ([`RemoteSource`]).
//!
//! See the repository README for the architecture overview and
//! EXPERIMENTS.md for the paper-versus-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adcomp_agg as agg;
pub use adcomp_bitset as bitset;
pub use adcomp_core as audit;
pub use adcomp_delivery as delivery;
pub use adcomp_infer as infer;
pub use adcomp_obs as obs;
pub use adcomp_platform as platform;
pub use adcomp_population as population;
pub use adcomp_sched as sched;
pub use adcomp_serve as serve;
pub use adcomp_store as store;
pub use adcomp_targeting as targeting;
pub use adcomp_wire as wire;

pub mod fleet;
pub use fleet::Fleet;

use std::collections::HashMap;
use std::sync::Mutex;

use adcomp_core::{EstimateSource, SourceError};
use adcomp_obs::lock;
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};
use adcomp_wire::{Client, ClientError, InterfaceDescription};

/// An [`EstimateSource`] backed by a wire-protocol [`Client`], letting
/// every audit in `adcomp-core` run unchanged against a *remote*
/// platform — the audit cannot tell the difference, just as the paper's
/// scripts only saw HTTP endpoints.
///
/// Attribute metadata is fetched lazily and cached; estimates always go
/// to the server.
pub struct RemoteSource {
    client: Client,
    description: InterfaceDescription,
    features: Mutex<HashMap<u32, Option<FeatureId>>>,
    names: Mutex<HashMap<u32, String>>,
}

impl RemoteSource {
    /// Wraps a connected client, fetching the interface description.
    pub fn new(client: Client) -> Result<RemoteSource, ClientError> {
        let description = client.describe()?;
        Ok(RemoteSource {
            client,
            description,
            features: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
        })
    }

    /// Bulk-downloads the whole catalog's metadata through the paginated
    /// endpoint, so subsequent `attribute_name`/`attribute_feature`/
    /// `can_compose` calls are served from cache instead of one
    /// round-trip each. Returns the number of entries fetched.
    pub fn prefetch_catalog(&self) -> Result<usize, ClientError> {
        let mut start = 0u32;
        let mut fetched = 0usize;
        loop {
            let (entries, next) = self.client.catalog_page(start, 1_000)?;
            {
                let mut names = lock(&self.names);
                let mut features = lock(&self.features);
                for (offset, (name, feature)) in entries.iter().enumerate() {
                    let id = start + offset as u32;
                    names.insert(id, name.clone());
                    features.insert(id, Some(FeatureId(*feature)));
                }
            }
            fetched += entries.len();
            match next {
                Some(n) => start = n,
                None => return Ok(fetched),
            }
        }
    }

    /// Connects and wraps in one step.
    pub fn connect<A: std::net::ToSocketAddrs>(addr: A) -> Result<RemoteSource, ClientError> {
        let client = Client::connect(addr)
            .map_err(|e| ClientError::Transport(adcomp_wire::FrameError::Io(e)))?;
        RemoteSource::new(client)
    }

    /// The cached interface description.
    pub fn description(&self) -> &InterfaceDescription {
        &self.description
    }

    fn feature_cached(&self, id: AttributeId) -> Option<FeatureId> {
        if let Some(f) = lock(&self.features).get(&id.0) {
            return *f;
        }
        let fetched = match self.client.attribute_info(id.0) {
            Ok((_, feature)) => Some(FeatureId(feature)),
            Err(_) => None,
        };
        lock(&self.features).insert(id.0, fetched);
        fetched
    }
}

/// Maps a wire-client failure onto the audit's error taxonomy, so the
/// resilience layer in `adcomp-core` can classify remote failures
/// exactly like local ones (rate limits stay retryable with their hint,
/// policy rejections stay fatal).
fn map_client_error(e: ClientError) -> SourceError {
    use adcomp_wire::ErrorCode;
    match e {
        ClientError::Server {
            code: ErrorCode::RateLimited,
            retry_after,
            ..
        } => SourceError::RateLimited { retry_after },
        ClientError::Server {
            code: ErrorCode::Internal,
            message,
            ..
        } => SourceError::Platform(adcomp_platform::PlatformError::Transient(message)),
        ClientError::CircuitOpen { retry_in } => SourceError::CircuitOpen { retry_in },
        ClientError::Server { code, message, .. } => {
            SourceError::Rejected(format!("server {code:?}: {message}"))
        }
        other => SourceError::Transport(other.to_string()),
    }
}

impl EstimateSource for RemoteSource {
    fn label(&self) -> String {
        self.description.label.clone()
    }

    fn estimate(&self, spec: &TargetingSpec) -> Result<u64, SourceError> {
        self.client.estimate(spec).map_err(map_client_error)
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        // Batch frames: the server counts each frame's specs in one pass,
        // and the client keeps a window of frames in flight on the one
        // connection, so a batch pays a round trip per frame, not per
        // query.
        self.client
            .estimate_batch(specs)
            .into_iter()
            .map(|r| r.map_err(map_client_error))
            .collect()
    }

    /// Every spec one call keeps in flight: a full batch frame per
    /// pipelined frame, so a scheduler unit goes out as one call.
    fn batch_window(&self) -> usize {
        adcomp_wire::MAX_BATCH_SPECS * self.client.config().pipeline_window.max(1)
    }

    fn check(&self, spec: &TargetingSpec) -> Result<(), SourceError> {
        self.client.check(spec).map_err(map_client_error)
    }

    fn catalog_len(&self) -> u32 {
        self.description.catalog_len
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        if let Some(name) = lock(&self.names).get(&id.0) {
            return Some(name.clone());
        }
        let (name, feature) = self.client.attribute_info(id.0).ok()?;
        lock(&self.names).insert(id.0, name.clone());
        lock(&self.features).insert(id.0, Some(FeatureId(feature)));
        Some(name)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.feature_cached(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        if a == b {
            return false;
        }
        if self.description.same_feature_and {
            true
        } else {
            match (self.feature_cached(a), self.feature_cached(b)) {
                (Some(fa), Some(fb)) => fa != fb,
                _ => false,
            }
        }
    }

    fn supports_demographics(&self) -> bool {
        self.description.gender_targeting && self.description.age_targeting
    }
}
