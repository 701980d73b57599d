//! Span-based structured tracing with cross-process context propagation.
//!
//! A [`Tracer`] records [`TraceEvent`]s into a bounded in-memory ring
//! (cheap, always on, oldest events evicted first) and, when a sink is
//! installed, appends each event as one JSON object per line — the JSONL
//! record a campaign is analysed from after the fact.
//!
//! Spans follow RAII: [`Tracer::span`] emits a `span_start` event and
//! returns a [`SpanGuard`] that emits the matching `span_end` (with
//! `duration_us`) when dropped. Nesting is by `parent` sequence number,
//! resolved from a thread-local ambient context stack: opening a span
//! inside another span (on the same thread) parents it automatically,
//! and point events inherit the enclosing span the same way.
//!
//! # Distributed traces
//!
//! Every root span allocates a `trace_id`; children inherit it. A span's
//! identity can be captured as a [`TraceContext`] (`trace_id`, `span_id`,
//! `parent`) and shipped to another thread or process:
//!
//! * [`TraceContext::enter`] adopts a captured context on the current
//!   thread (worker pools), so spans and events emitted there join the
//!   originating trace.
//! * [`Tracer::continue_span`] opens a span parented to a remote context
//!   (the server side of a wire call), so client and server JSONL sinks
//!   share one `trace_id` and merge into a single connected span tree.
//!
//! Span ids must therefore be unique *across* processes: each tracer
//! draws its sequence numbers from a random 24-bit base (derived from
//! pid + wall time) shifted into the high bits, leaving 2^40 events per
//! tracer before any overlap is possible.
//!
//! The JSONL schema (documented in EXPERIMENTS.md) is:
//!
//! ```text
//! {"seq":12,"ts_us":51234,"kind":"span_start","name":"experiment:table1","trace":12,"fields":{...}}
//! {"seq":19,"ts_us":99120,"kind":"span_end","name":"experiment:table1","trace":12,"parent":12,"fields":{"duration_us":"47886"}}
//! {"seq":20,"ts_us":99130,"kind":"event","name":"budget:low","trace":12,"parent":12,"fields":{"remaining":"12"}}
//! ```
//!
//! (`trace` and `parent` are omitted for events outside any span.)

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::clock::{Clock, MonotonicClock};

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed.
    SpanEnd,
    /// A point event.
    Event,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Event => "event",
        }
    }
}

/// One structured trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (also the span id of a `span_start`).
    pub seq: u64,
    /// Microseconds since the tracer's clock epoch.
    pub ts_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Event or span name, `layer:what` by convention
    /// (`experiment:table1`, `probe:granularity`, `budget:low`).
    pub name: String,
    /// Trace this event belongs to (the root span's id), when inside a
    /// trace.
    pub trace_id: Option<u64>,
    /// Enclosing span's `seq`, when nested.
    pub parent: Option<u64>,
    /// Free-form string fields.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// The event as one JSON object (the JSONL line format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"seq\":{},\"ts_us\":{},\"kind\":\"{}\",\"name\":\"{}\"",
            self.seq,
            self.ts_us,
            self.kind.as_str(),
            escape(&self.name)
        ));
        if let Some(t) = self.trace_id {
            out.push_str(&format!(",\"trace\":{t}"));
        }
        if let Some(p) = self.parent {
            out.push_str(&format!(",\"parent\":{p}"));
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line back into an event (the inverse of
    /// [`to_json`](TraceEvent::to_json) for lines this module wrote).
    /// Returns `None` on anything that does not look like a trace line.
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let seq = json_u64(line, "seq")?;
        let ts_us = json_u64(line, "ts_us")?;
        let kind = match json_str(line, "kind")?.as_str() {
            "span_start" => EventKind::SpanStart,
            "span_end" => EventKind::SpanEnd,
            "event" => EventKind::Event,
            _ => return None,
        };
        let name = json_str(line, "name")?;
        let trace_id = json_u64(line, "trace");
        let parent = json_u64(line, "parent");
        let fields = json_fields(line);
        Some(TraceEvent {
            seq,
            ts_us,
            kind,
            name,
            trace_id,
            parent,
            fields,
        })
    }
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn json_fields(line: &str) -> Vec<(String, String)> {
    let Some(at) = line.find("\"fields\":{") else {
        return Vec::new();
    };
    let mut fields = Vec::new();
    let mut rest = &line[at + "\"fields\":{".len()..];
    // Peel escaped "key":"value" pairs one quoted string at a time.
    while let Some(ks) = rest.find('"') {
        let (key, after_key) = match take_quoted(&rest[ks..]) {
            Some(x) => x,
            None => break,
        };
        let after = after_key.trim_start();
        if !after.starts_with(':') {
            break;
        }
        let after = after[1..].trim_start();
        let Some((value, after_value)) = take_quoted(after) else {
            break;
        };
        fields.push((key, value));
        rest = after_value;
        if !rest.trim_start().starts_with(',') {
            break;
        }
    }
    fields
}

fn take_quoted(s: &str) -> Option<(String, &str)> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return None,
    }
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut hex = String::new();
                    for _ in 0..4 {
                        hex.push(chars.next()?.1);
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The identity of a span, compact enough to ship across threads and
/// processes (it rides on adcomp-wire `Request::Traced` frames).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this span belongs to (the root span's id).
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// The span's parent span id, when it has one.
    pub parent: Option<u64>,
}

thread_local! {
    static AMBIENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost ambient [`TraceContext`] on this thread, if any — what
/// a new span or event would be parented to.
pub fn current_context() -> Option<TraceContext> {
    AMBIENT.with(|stack| stack.borrow().last().copied())
}

fn push_context(ctx: TraceContext) {
    AMBIENT.with(|stack| stack.borrow_mut().push(ctx));
}

fn pop_context(span_id: u64) {
    AMBIENT.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|c| c.span_id == span_id) {
            stack.remove(pos);
        }
    });
}

impl TraceContext {
    /// Adopts this context on the current thread until the returned
    /// guard drops: spans and events emitted meanwhile join this trace,
    /// parented to `span_id`. The mechanism worker pools use to keep a
    /// batch's units inside the submitting span.
    pub fn enter(self) -> ContextGuard {
        push_context(self);
        ContextGuard {
            span_id: self.span_id,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// Removes the context its [`TraceContext::enter`] pushed, on drop.
pub struct ContextGuard {
    span_id: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop_context(self.span_id);
    }
}

struct Sink {
    writer: Box<dyn std::io::Write + Send>,
}

/// Records trace events into a bounded ring and an optional JSONL sink.
pub struct Tracer {
    clock: Box<dyn Clock>,
    seq: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    sink: Mutex<Option<Sink>>,
}

/// Default ring capacity: enough for every phase of a full campaign
/// without ever growing.
pub const DEFAULT_RING_CAPACITY: usize = 4_096;

/// A fresh sequence base whose top 24 bits are unique per tracer with
/// overwhelming probability, so span ids never collide when traces from
/// several processes are merged.
fn tracer_seq_base() -> u64 {
    static INSTANCES: AtomicU64 = AtomicU64::new(0);
    static PROCESS_SEED: OnceLock<u64> = OnceLock::new();
    let seed = *PROCESS_SEED.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in pid.to_le_bytes().iter().chain(nanos.to_le_bytes().iter()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    });
    let inst = INSTANCES.fetch_add(1, Ordering::Relaxed);
    let mixed = seed ^ inst.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // 24 bits of identity, 40 bits of room for the running sequence.
    ((mixed >> 8) & 0xff_ffff) << 40
}

impl Tracer {
    /// A tracer with the given ring capacity and clock.
    pub fn with_clock(capacity: usize, clock: Box<dyn Clock>) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Tracer {
            clock,
            seq: AtomicU64::new(tracer_seq_base()),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            sink: Mutex::new(None),
        }
    }

    /// A tracer on the wall clock.
    pub fn new(capacity: usize) -> Self {
        Tracer::with_clock(capacity, Box::new(MonotonicClock::new()))
    }

    /// The process-wide tracer (wall clock, default capacity).
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| Tracer::new(DEFAULT_RING_CAPACITY))
    }

    /// Streams every subsequent event to `path` as JSON lines
    /// (truncating an existing file).
    ///
    /// Re-installing atomically swaps the sink: the previous sink (if
    /// any) is flushed and closed under the same lock that guards event
    /// emission, so no event is lost between the two files. Returns
    /// `true` when a previous sink was replaced, `false` on first
    /// install.
    pub fn install_jsonl(&self, path: &Path) -> std::io::Result<bool> {
        let file = std::fs::File::create(path)?;
        let mut guard = crate::lock(&self.sink);
        let old = guard.replace(Sink {
            writer: Box::new(std::io::BufWriter::new(file)),
        });
        drop(guard);
        match old {
            Some(mut sink) => {
                let _ = sink.writer.flush();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Stops streaming to the JSONL sink, flushing it.
    pub fn remove_sink(&self) {
        if let Some(mut sink) = crate::lock(&self.sink).take() {
            let _ = sink.writer.flush();
        }
    }

    /// Flushes the JSONL sink without removing it.
    pub fn flush(&self) {
        if let Some(sink) = crate::lock(&self.sink).as_mut() {
            let _ = sink.writer.flush();
        }
    }

    fn emit(
        &self,
        kind: EventKind,
        name: &str,
        trace_id: Option<u64>,
        parent: Option<u64>,
        fields: &[(&str, String)],
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if crate::enabled() {
            self.record(TraceEvent {
                seq,
                ts_us: self.clock.now().as_micros() as u64,
                kind,
                name: name.to_string(),
                trace_id,
                parent,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
        seq
    }

    fn record(&self, event: TraceEvent) {
        if let Some(sink) = crate::lock(&self.sink).as_mut() {
            let _ = writeln!(sink.writer, "{}", event.to_json());
        }
        let mut ring = crate::lock(&self.ring);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Records a point event, parented to the ambient span when inside
    /// one.
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        let ctx = current_context();
        self.emit(
            EventKind::Event,
            name,
            ctx.map(|c| c.trace_id),
            ctx.map(|c| c.span_id),
            fields,
        );
    }

    /// Opens a span; the returned guard closes it on drop.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_with(name, &[])
    }

    /// Opens a span with fields. Inside an ambient span (same thread, or
    /// one adopted via [`TraceContext::enter`]) the new span is parented
    /// to it and inherits its trace; otherwise it roots a fresh trace
    /// whose `trace_id` is the span's own id.
    pub fn span_with(&self, name: &str, fields: &[(&str, String)]) -> SpanGuard<'_> {
        self.open_span(name, current_context(), fields)
    }

    /// Opens a span that continues a context captured elsewhere —
    /// typically on the far side of a wire call, where the client's
    /// `TraceContext` arrived on the request frame. The span joins the
    /// remote trace and is parented to the remote span, so the two
    /// processes' JSONL sinks merge into one connected tree.
    pub fn continue_span(
        &self,
        ctx: TraceContext,
        name: &str,
        fields: &[(&str, String)],
    ) -> SpanGuard<'_> {
        self.open_span(name, Some(ctx), fields)
    }

    fn open_span(
        &self,
        name: &str,
        inherit: Option<TraceContext>,
        fields: &[(&str, String)],
    ) -> SpanGuard<'_> {
        let start = self.clock.now();
        let enabled = crate::enabled();
        let parent = inherit.map(|c| c.span_id);
        // A root span names its own trace with its span id, so the seq
        // is reserved before the start event is built.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trace_id = inherit.map(|c| c.trace_id).unwrap_or(seq);
        if enabled {
            self.record(TraceEvent {
                seq,
                ts_us: start.as_micros() as u64,
                kind: EventKind::SpanStart,
                name: name.to_string(),
                trace_id: Some(trace_id),
                parent,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
        let pushed = enabled;
        if pushed {
            push_context(TraceContext {
                trace_id,
                span_id: seq,
                parent,
            });
        }
        SpanGuard {
            tracer: self,
            name: name.to_string(),
            seq,
            trace_id,
            parent,
            start,
            pushed,
        }
    }

    /// A copy of the ring's current contents, oldest first.
    pub fn ring_events(&self) -> Vec<TraceEvent> {
        crate::lock(&self.ring).iter().cloned().collect()
    }

    /// Span names seen in the ring (`span_start` events), oldest first,
    /// deduplicated — "did the trace cover phase X?" in one call.
    pub fn span_names(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut names = Vec::new();
        for e in crate::lock(&self.ring).iter() {
            if e.kind == EventKind::SpanStart && seen.insert(e.name.clone()) {
                names.push(e.name.clone());
            }
        }
        names
    }
}

/// Closes its span (emitting `span_end` with `duration_us`) on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: String,
    seq: u64,
    trace_id: u64,
    parent: Option<u64>,
    start: std::time::Duration,
    pushed: bool,
}

impl SpanGuard<'_> {
    /// The span's id (its `span_start` sequence number).
    pub fn id(&self) -> u64 {
        self.seq
    }

    /// The span's identity as a shippable [`TraceContext`].
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.seq,
            parent: self.parent,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.pushed {
            pop_context(self.seq);
        }
        let duration = self.tracer.clock.now().saturating_sub(self.start);
        self.tracer.emit(
            EventKind::SpanEnd,
            &self.name,
            Some(self.trace_id),
            Some(self.seq),
            &[("duration_us", (duration.as_micros() as u64).to_string())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc;
    use std::time::Duration;

    fn manual_tracer(capacity: usize) -> (Tracer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        struct Shared(Arc<ManualClock>);
        impl Clock for Shared {
            fn now(&self) -> Duration {
                self.0.now()
            }
        }
        (
            Tracer::with_clock(capacity, Box::new(Shared(clock.clone()))),
            clock,
        )
    }

    #[test]
    fn spans_nest_and_report_duration() {
        let (tracer, clock) = manual_tracer(16);
        {
            let _outer = tracer.span("outer");
            clock.advance(Duration::from_micros(250));
            tracer.event("ping", &[("k", "v".to_string())]);
            clock.advance(Duration::from_micros(750));
        }
        let events = tracer.ring_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[1].kind, EventKind::Event);
        assert_eq!(events[2].kind, EventKind::SpanEnd);
        assert_eq!(events[2].parent, Some(events[0].seq));
        assert_eq!(
            events[2].fields,
            vec![("duration_us".to_string(), "1000".to_string())]
        );
        assert_eq!(tracer.span_names(), vec!["outer".to_string()]);
        // The event inherited the ambient span and its trace.
        assert_eq!(events[1].parent, Some(events[0].seq));
        assert_eq!(events[1].trace_id, Some(events[0].seq));
    }

    #[test]
    fn nested_spans_share_a_trace() {
        let (tracer, _) = manual_tracer(16);
        let root_id;
        {
            let outer = tracer.span("outer");
            root_id = outer.id();
            let inner = tracer.span("inner");
            assert_eq!(inner.context().trace_id, root_id, "trace inherited");
            assert_eq!(inner.context().parent, Some(root_id), "parented to outer");
        }
        let events = tracer.ring_events();
        let inner_start = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "inner")
            .unwrap();
        assert_eq!(inner_start.parent, Some(root_id));
        assert_eq!(inner_start.trace_id, Some(root_id));
    }

    #[test]
    fn contexts_transfer_across_threads() {
        let (tracer, _) = manual_tracer(16);
        let tracer = Arc::new(tracer);
        let root = tracer.span("root");
        let ctx = root.context();
        let t2 = tracer.clone();
        std::thread::spawn(move || {
            let _guard = ctx.enter();
            t2.event("remote", &[]);
        })
        .join()
        .unwrap();
        drop(root);
        let remote = tracer
            .ring_events()
            .into_iter()
            .find(|e| e.name == "remote")
            .unwrap();
        assert_eq!(remote.parent, Some(ctx.span_id));
        assert_eq!(remote.trace_id, Some(ctx.trace_id));
        assert_eq!(current_context(), None, "guard popped");
    }

    #[test]
    fn continue_span_joins_the_remote_trace() {
        let (client, _) = manual_tracer(16);
        let (server, _) = manual_tracer(16);
        let root = client.span("wire:rtt");
        let ctx = root.context();
        {
            let _server_span = server.continue_span(ctx, "platform:estimate_batch", &[]);
        }
        drop(root);
        let start = server
            .ring_events()
            .into_iter()
            .find(|e| e.kind == EventKind::SpanStart)
            .unwrap();
        assert_eq!(start.trace_id, Some(ctx.trace_id), "same trace id");
        assert_eq!(start.parent, Some(ctx.span_id), "parented across tracers");
        assert_ne!(start.seq, ctx.span_id, "distinct id spaces");
    }

    #[test]
    fn tracer_bases_are_distinct() {
        let (a, _) = manual_tracer(4);
        let (b, _) = manual_tracer(4);
        a.event("x", &[]);
        b.event("x", &[]);
        let sa = a.ring_events()[0].seq;
        let sb = b.ring_events()[0].seq;
        assert_ne!(sa >> 40, sb >> 40, "24-bit tracer identities differ");
    }

    #[test]
    fn ring_is_bounded() {
        let (tracer, _) = manual_tracer(3);
        for i in 0..10 {
            tracer.event(&format!("e{i}"), &[]);
        }
        let events = tracer.ring_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "e7", "oldest evicted first");
        assert_eq!(events[2].name, "e9");
    }

    #[test]
    fn jsonl_lines_are_valid_and_escaped() {
        let e = TraceEvent {
            seq: 7,
            ts_us: 1234,
            kind: EventKind::Event,
            name: "with \"quotes\"\nand newline".to_string(),
            trace_id: None,
            parent: Some(3),
            fields: vec![("path".to_string(), "a\\b".to_string())],
        };
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"seq\":7,\"ts_us\":1234,\"kind\":\"event\",\
             \"name\":\"with \\\"quotes\\\"\\nand newline\",\"parent\":3,\
             \"fields\":{\"path\":\"a\\\\b\"}}"
        );
        assert_eq!(TraceEvent::from_json(&json).unwrap(), e, "roundtrips");
    }

    #[test]
    fn json_roundtrip_with_trace_id() {
        let e = TraceEvent {
            seq: 42,
            ts_us: 99,
            kind: EventKind::SpanStart,
            name: "wire:rtt".to_string(),
            trace_id: Some(41),
            parent: Some(40),
            fields: vec![("endpoint".to_string(), "a:1".to_string())],
        };
        let json = e.to_json();
        assert!(json.contains("\"trace\":41"));
        assert_eq!(TraceEvent::from_json(&json).unwrap(), e);
    }

    #[test]
    fn jsonl_sink_receives_every_event() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("adcomp-obs-trace-{}.jsonl", std::process::id()));
        let (tracer, _) = manual_tracer(8);
        tracer.install_jsonl(&path).unwrap();
        {
            let _span = tracer.span("phase");
            tracer.event("inside", &[]);
        }
        tracer.remove_sink();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"span_start\""));
        assert!(lines[1].contains("\"name\":\"inside\""));
        assert!(lines[2].contains("\"duration_us\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reinstall_swaps_sink_and_flushes_old() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let first = dir.join(format!("adcomp-obs-swap-a-{pid}.jsonl"));
        let second = dir.join(format!("adcomp-obs-swap-b-{pid}.jsonl"));
        let (tracer, _) = manual_tracer(8);
        assert!(!tracer.install_jsonl(&first).unwrap(), "first install");
        tracer.event("early", &[]);
        assert!(tracer.install_jsonl(&second).unwrap(), "re-install swaps");
        tracer.event("late", &[]);
        tracer.remove_sink();
        let a = std::fs::read_to_string(&first).unwrap();
        let b = std::fs::read_to_string(&second).unwrap();
        assert!(a.contains("early"), "old sink flushed on swap");
        assert!(!a.contains("late"), "old sink stops receiving");
        assert!(b.contains("late") && !b.contains("early"));
        let _ = std::fs::remove_file(&first);
        let _ = std::fs::remove_file(&second);
    }
}
