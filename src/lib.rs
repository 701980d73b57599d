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

use adcomp_core::{EstimateSource, InterfaceMeta, SourceError};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};
use adcomp_wire::{Client, ClientError};

/// An [`EstimateSource`] backed by a wire-protocol [`Client`], letting
/// every audit in `adcomp-core` run unchanged against a *remote*
/// platform — the audit cannot tell the difference, just as the paper's
/// scripts only saw HTTP endpoints.
///
/// The interface's metadata is read once, at connect, into the same
/// [`InterfaceMeta`] a replay answers from; checks and estimates always
/// go to the server.
pub struct RemoteSource {
    client: Client,
    meta: InterfaceMeta,
}

impl RemoteSource {
    /// Wraps a connected client: asks the server to describe its
    /// interface, then reads the whole catalog page by page. A server
    /// whose pages do not tile `0..catalog_len` exactly — an empty page
    /// before the end, a page past it, or a `next` other than the end of
    /// the page — is refused with [`ClientError::UnexpectedResponse`].
    pub fn new(client: Client) -> Result<RemoteSource, ClientError> {
        let description = client.describe()?;
        let len = description.catalog_len as usize;
        // Grown page by page, so a false `catalog_len` reserves nothing.
        let (mut names, mut features) = (Vec::new(), Vec::new());
        while names.len() < len {
            // Asks for the rest; the server caps the page.
            let (entries, next) = client.catalog_page(names.len() as u32, u32::MAX)?;
            let end = names.len() + entries.len();
            if entries.is_empty() || end > len || next != (end < len).then_some(end as u32) {
                return Err(ClientError::UnexpectedResponse);
            }
            for (name, feature) in entries {
                names.push(name);
                features.push(feature);
            }
        }
        let meta = InterfaceMeta {
            label: description.label,
            supports_demographics: description.gender_targeting && description.age_targeting,
            same_feature_and: description.same_feature_and,
            names,
            features,
        };
        Ok(RemoteSource { client, meta })
    }

    /// Connects and wraps in one step.
    pub fn connect<A: std::net::ToSocketAddrs>(addr: A) -> Result<RemoteSource, ClientError> {
        let client = Client::connect(addr)
            .map_err(|e| ClientError::Transport(adcomp_wire::FrameError::Io(e)))?;
        RemoteSource::new(client)
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
        self.meta.label.clone()
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
        self.meta.catalog_len()
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        self.meta.name(id)
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        self.meta.feature(id)
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        self.meta.can_compose(a, b)
    }

    fn supports_demographics(&self) -> bool {
        self.meta.supports_demographics
    }
}
