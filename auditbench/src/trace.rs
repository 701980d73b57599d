//! In-memory spans recorded at the benchmark's probe seams, and the
//! interval arithmetic that turns them into per-layer self time.
//!
//! A span is one call through one layer: an audit round at the driver,
//! one measurement call at an endpoint, one `PlatformApi` call at a
//! server, one oracle call. A layer's self time is its span minus the
//! part of that interval its child spans cover. The driver's children
//! run on other threads and overlap each other (two replicas answer at
//! once), so they are merged into one union first; a server call always
//! lies inside the one endpoint call it answers, so the endpoint's self
//! time is a plain difference of sums.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::program::TargetingSpec;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One audit round, at the benchmark driver.
    Driver,
    /// One call into a measurement `EstimateSource` endpoint.
    Endpoint,
    /// One `PlatformApi` call on the serving side.
    Server,
    /// One `ReachOracle` call.
    Oracle,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Endpoint => "endpoint",
            Layer::Server => "server",
            Layer::Oracle => "oracle",
        }
    }
}

/// One recorded call; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// A measurement query as seen at the endpoint seam: the endpoint's
/// interface label and the spec.
pub type Captured = (String, TargetingSpec);

/// Collects spans (and, while capturing, the endpoint query stream) from
/// every thread of a traced run. Disabled, every probe costs one atomic
/// load.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    capturing: AtomicBool,
    spans: Mutex<Vec<Span>>,
    stream: Mutex<Vec<Captured>>,
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            capturing: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            stream: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording, and the query stream capture, on or off.
    pub fn set(&self, enabled: bool, capturing: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
        self.capturing.store(capturing, Ordering::SeqCst);
    }

    /// Now, in ns since the epoch, when recording (`None` otherwise).
    pub fn start(&self) -> Option<u64> {
        self.enabled
            .load(Ordering::Relaxed)
            .then(|| self.epoch.elapsed().as_nanos() as u64)
    }

    /// Closes a span opened by [`start`](Recorder::start).
    pub fn finish(&self, layer: Layer, start: Option<u64>) {
        if let Some(start) = start {
            let end = self.epoch.elapsed().as_nanos() as u64;
            lock(&self.spans).push(Span { layer, start, end });
        }
    }

    /// Appends endpoint queries to the captured stream, when capturing.
    pub fn capture(&self, label: &str, specs: &[TargetingSpec]) {
        if self.capturing.load(Ordering::Relaxed) {
            lock(&self.stream).extend(specs.iter().map(|s| (label.to_string(), s.clone())));
        }
    }

    /// Removes and returns every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    /// Removes and returns the captured query stream.
    pub fn take_stream(&self) -> Vec<Captured> {
        std::mem::take(&mut *lock(&self.stream))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a probe panicked while holding the recorder lock")
}

/// Merges half-open intervals `[start, end)` into a sorted, disjoint
/// union.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// How much of `[start, end)` a sorted disjoint union covers.
fn covered(union: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = union.partition_point(|&(_, e)| e <= start);
    union[first..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
        .sum()
}

/// How much of `parent` the union of `children` covers, ns.
pub fn covered_by(parent: &Span, children: &[Span]) -> u64 {
    let kids = union(children.iter().map(|c| (c.start, c.end)).collect());
    covered(&kids, parent.start, parent.end)
}

/// Self time of a layer whose every child span lies inside exactly one
/// of its spans (an endpoint call and the server call answering it).
pub fn nested_self_time(parents: &[Span], children: &[Span]) -> u64 {
    let total = |s: &[Span]| s.iter().map(Span::len).sum::<u64>();
    total(parents).saturating_sub(total(children))
}

/// The spans of one layer.
pub fn of(spans: &[Span], layer: Layer) -> Vec<Span> {
    spans.iter().filter(|s| s.layer == layer).copied().collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span { layer, start, end }
    }

    #[test]
    fn union_merges_overlapping_and_touching_intervals() {
        assert_eq!(
            union(vec![(5, 7), (0, 2), (1, 3), (3, 4), (9, 9)]),
            vec![(0, 4), (5, 7)]
        );
        assert!(union(Vec::new()).is_empty());
    }

    #[test]
    fn covered_clips_to_the_query_interval() {
        let u = [(0, 4), (5, 7), (10, 20)];
        assert_eq!(covered(&u, 0, 100), 4 + 2 + 10);
        assert_eq!(covered(&u, 3, 6), 1 + 1);
        assert_eq!(covered(&u, 7, 10), 0);
        assert_eq!(covered(&u, 15, 16), 1);
        assert_eq!(covered(&[], 0, 10), 0);
    }

    #[test]
    fn concurrent_children_cover_the_driver_once() {
        let driver = span(Layer::Driver, 0, 100);
        // Two endpoints busy at once count once; a call sticking out of
        // the round counts only inside it.
        let calls = [
            span(Layer::Endpoint, 10, 30),
            span(Layer::Endpoint, 20, 40),
            span(Layer::Endpoint, 90, 130),
        ];
        assert_eq!(covered_by(&driver, &calls), 30 + 10);
        assert_eq!(covered_by(&driver, &[]), 0);
    }

    #[test]
    fn nested_self_time_subtracts_the_children() {
        let calls = [span(Layer::Endpoint, 0, 10), span(Layer::Endpoint, 0, 10)];
        let servers = [span(Layer::Server, 2, 6), span(Layer::Server, 0, 9)];
        assert_eq!(nested_self_time(&calls, &servers), 20 - 13);
        assert_eq!(nested_self_time(&calls, &[]), 20);
    }
}
