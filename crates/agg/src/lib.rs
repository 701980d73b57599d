//! Push-based fleet telemetry aggregation.
//!
//! A continuous-audit fleet is many daemons in many processes; this
//! crate is where their telemetry converges. Each daemon runs a
//! [`TelemetryPusher`] — a bounded queue draining through a background
//! `adcomp-wire` client, so the audit hot path *never* blocks on
//! telemetry (overflow drops and counts) — pushing
//! [`Telemetry`] records: full `adcomp-obs`
//! [`Snapshot`](adcomp_obs::Snapshot)s (mergeable histograms included),
//! drift [`AlertFrame`]s, and trace-event batches. The `adcomp_agg`
//! daemon receives them through
//! [`AggService`] on the ordinary wire server, folds them in an
//! [`Aggregator`] (last-wins per source for metric state, exactly-once
//! per `(source, epoch)` for alerts), and renders one combined
//! Prometheus document through the `adcomp-obs` renderer: fleet-wide
//! merged totals plus per-source series labelled `source="…"`.
//!
//! [`Dashboard`] (the `adcomp_top` binary) scrapes that document and
//! renders a live terminal view — rates, histogram quantiles, the
//! alert roll — off an injected [`Clock`](adcomp_obs::Clock), so its
//! frames are deterministic under test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod dashboard;
pub mod push;
pub mod sink;
pub mod telemetry;

pub use aggregator::{Aggregator, FleetAlert};
pub use dashboard::{Dashboard, Sample, Scrape};
pub use push::{PusherConfig, TelemetryPusher};
pub use sink::AggService;
pub use telemetry::{AlertFrame, Telemetry, TraceFrame};
