//! Latency attribution: where did an end-to-end request spend its time?
//!
//! A distributed estimate threads one trace through sched's queue, a
//! lease, the wire client, and the remote platform. Each layer opens a
//! span (or emits a `duration_us` event) named `layer:what`. This module
//! folds those records back into per-layer **exclusive** time:
//!
//! * spans contribute their duration minus the duration of their
//!   children (self time);
//! * point events carrying a `duration_us` field (`sched:queue_wait`,
//!   `platform:remote`) count as leaf children of their parent span.
//!
//! Exclusive times are summed per category — the `layer` prefix before
//! `:` — so `queue + lease + wire + platform + root-self` reconstructs
//! the root span's end-to-end duration exactly (up to clamping when
//! concurrent children overlap their parent).
//!
//! Feed it one process's events (a JSONL sink re-parsed with
//! [`TraceEvent::from_json`], or [`Tracer::ring_events`]). Merging
//! client *and* server sinks first double-counts the platform segment:
//! the client already echoes the server's time as `platform:remote`.

use std::collections::BTreeMap;

use crate::trace::{EventKind, TraceEvent, Tracer};

/// Per-trace latency breakdown; see [`latency_attribution`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyAttribution {
    /// The trace this breakdown covers.
    pub trace_id: u64,
    /// Name of the trace's root span.
    pub root: String,
    /// The root span's duration in microseconds (end-to-end latency).
    pub total_us: u64,
    /// Exclusive microseconds per category (the `layer:` prefix),
    /// largest first; the root span's own category holds its self time.
    pub segments: Vec<(String, u64)>,
}

impl LatencyAttribution {
    /// Exclusive time of one category, zero when absent.
    pub fn segment_us(&self, category: &str) -> u64 {
        self.segments
            .iter()
            .find(|(c, _)| c == category)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of all segments — within clamping error of `total_us`.
    pub fn attributed_us(&self) -> u64 {
        self.segments.iter().map(|(_, v)| v).sum()
    }

    /// A human-readable table, largest segment first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "── latency attribution · trace {} · {} · {} µs ──",
            self.trace_id, self.root, self.total_us
        );
        for (category, us) in &self.segments {
            let pct = if self.total_us > 0 {
                *us as f64 * 100.0 / self.total_us as f64
            } else {
                0.0
            };
            let _ = writeln!(out, "  {category:<12} {us:>10} µs  {pct:>5.1}%");
        }
        out
    }
}

struct Node {
    name: String,
    parent: Option<u64>,
    duration_us: u64,
    child_us: u64,
}

fn category(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

/// Per-trace fold state: the root span's `(name, duration)` once seen,
/// plus exclusive-time sums keyed by span-name category.
type TraceSums = (Option<(String, u64)>, BTreeMap<String, u64>);

/// Folds trace events into one [`LatencyAttribution`] per trace that has
/// a closed root span, ordered by `trace_id`.
pub fn latency_attribution(events: &[TraceEvent]) -> Vec<LatencyAttribution> {
    // span id -> node; span durations arrive on the span_end record
    // (whose parent field is the *start* seq, per the JSONL schema).
    let mut nodes: BTreeMap<u64, Node> = BTreeMap::new();
    let mut leaf_seq = u64::MAX; // synthetic ids for duration events
    for e in events {
        let Some(trace) = e.trace_id else { continue };
        let _ = trace;
        match e.kind {
            EventKind::SpanStart => {
                nodes.insert(
                    e.seq,
                    Node {
                        name: e.name.clone(),
                        parent: e.parent,
                        duration_us: 0,
                        child_us: 0,
                    },
                );
            }
            EventKind::SpanEnd => {
                if let Some(start) = e.parent {
                    if let Some(node) = nodes.get_mut(&start) {
                        node.duration_us = field_u64(e, "duration_us").unwrap_or(0);
                    }
                }
            }
            EventKind::Event => {
                if let Some(us) = field_u64(e, "duration_us") {
                    nodes.insert(
                        leaf_seq,
                        Node {
                            name: e.name.clone(),
                            parent: e.parent,
                            duration_us: us,
                            child_us: 0,
                        },
                    );
                    leaf_seq -= 1;
                }
            }
        }
    }

    // Charge every node's duration to its parent's child total.
    let charges: Vec<(u64, u64)> = nodes
        .values()
        .filter_map(|n| n.parent.map(|p| (p, n.duration_us)))
        .collect();
    for (parent, us) in charges {
        if let Some(p) = nodes.get_mut(&parent) {
            p.child_us += us;
        }
    }

    // Trace id -> (root info, per-category exclusive sums).
    let trace_of: BTreeMap<u64, u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart)
        .filter_map(|e| e.trace_id.map(|t| (e.seq, t)))
        .collect();
    let mut per_trace: BTreeMap<u64, TraceSums> = BTreeMap::new();
    for (id, node) in &nodes {
        // Leaf duration events get their trace through their parent span.
        let trace = trace_of
            .get(id)
            .or_else(|| node.parent.as_ref().and_then(|p| trace_of.get(p)))
            .copied();
        let Some(trace) = trace else { continue };
        let entry = per_trace.entry(trace).or_default();
        let exclusive = node.duration_us.saturating_sub(node.child_us);
        *entry.1.entry(category(&node.name).to_string()).or_default() += exclusive;
        let is_root = node.parent.map(|p| !nodes.contains_key(&p)).unwrap_or(true);
        if is_root && node.duration_us > 0 && trace_of.contains_key(id) {
            entry.0 = Some((node.name.clone(), node.duration_us));
        }
    }

    per_trace
        .into_iter()
        .filter_map(|(trace_id, (root, categories))| {
            let (root, total_us) = root?;
            let mut segments: Vec<(String, u64)> =
                categories.into_iter().filter(|(_, v)| *v > 0).collect();
            segments.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            Some(LatencyAttribution {
                trace_id,
                root,
                total_us,
                segments,
            })
        })
        .collect()
}

/// [`latency_attribution`] over a tracer's current ring contents.
pub fn ring_attribution(tracer: &Tracer) -> Vec<LatencyAttribution> {
    latency_attribution(&tracer.ring_events())
}

fn field_u64(e: &TraceEvent, key: &str) -> Option<u64> {
    e.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        seq: u64,
        kind: EventKind,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        duration: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_us: 0,
            kind,
            name: name.to_string(),
            trace_id: Some(trace),
            parent,
            fields: duration
                .map(|d| vec![("duration_us".to_string(), d.to_string())])
                .unwrap_or_default(),
        }
    }

    #[test]
    fn exclusive_times_reconstruct_the_root() {
        // audit (1000) > lease span (700) > wire span (500) +
        // queue_wait event (100) under the root.
        let events = vec![
            ev(1, EventKind::SpanStart, "audit:estimate", 1, None, None),
            ev(2, EventKind::SpanStart, "sched:lease", 1, Some(1), None),
            ev(3, EventKind::SpanStart, "wire:rtt", 1, Some(2), None),
            ev(
                4,
                EventKind::Event,
                "platform:remote",
                1,
                Some(3),
                Some(300),
            ),
            ev(5, EventKind::SpanEnd, "wire:rtt", 1, Some(3), Some(500)),
            ev(6, EventKind::SpanEnd, "sched:lease", 1, Some(2), Some(700)),
            ev(
                7,
                EventKind::Event,
                "sched:queue_wait",
                1,
                Some(1),
                Some(100),
            ),
            ev(
                8,
                EventKind::SpanEnd,
                "audit:estimate",
                1,
                Some(1),
                Some(1000),
            ),
        ];
        let reports = latency_attribution(&events);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.root, "audit:estimate");
        assert_eq!(r.total_us, 1000);
        // audit self = 1000 - 700 - 100; sched = (700-500) + 100;
        // wire = 500 - 300; platform = 300.
        assert_eq!(r.segment_us("audit"), 200);
        assert_eq!(r.segment_us("sched"), 300);
        assert_eq!(r.segment_us("wire"), 200);
        assert_eq!(r.segment_us("platform"), 300);
        assert_eq!(r.attributed_us(), r.total_us);
        assert!(r.render().contains("platform"));
    }

    #[test]
    fn traces_do_not_bleed_into_each_other() {
        let events = vec![
            ev(1, EventKind::SpanStart, "a:x", 1, None, None),
            ev(2, EventKind::SpanEnd, "a:x", 1, Some(1), Some(10)),
            ev(3, EventKind::SpanStart, "b:y", 3, None, None),
            ev(4, EventKind::SpanEnd, "b:y", 3, Some(3), Some(20)),
        ];
        let reports = latency_attribution(&events);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].trace_id, 1);
        assert_eq!(reports[0].total_us, 10);
        assert_eq!(reports[1].trace_id, 3);
        assert_eq!(reports[1].segment_us("b"), 20);
    }

    #[test]
    fn unclosed_roots_are_skipped() {
        let events = vec![ev(1, EventKind::SpanStart, "a:x", 1, None, None)];
        assert!(latency_attribution(&events).is_empty());
    }

    #[test]
    fn remote_continuation_spans_do_not_hide_the_root() {
        // A server-side span parented to a foreign (absent) id is
        // treated as a root of its own in that process's events.
        let events = vec![
            ev(
                10,
                EventKind::SpanStart,
                "platform:estimate_batch",
                1,
                Some(999),
                None,
            ),
            ev(
                11,
                EventKind::SpanEnd,
                "platform:estimate_batch",
                1,
                Some(10),
                Some(42),
            ),
        ];
        let reports = latency_attribution(&events);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].total_us, 42);
        assert_eq!(reports[0].segment_us("platform"), 42);
    }
}
