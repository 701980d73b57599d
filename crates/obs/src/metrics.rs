//! Lock-cheap metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The hot path never takes a lock: instruments are plain atomics behind
//! `Arc` handles, resolved once from a [`Registry`] (one mutex acquisition
//! at registration) and then updated with relaxed atomic ops. A global
//! kill switch ([`crate::set_enabled`]) turns every update into a single
//! relaxed load + branch, which is what the `obs_overhead` baseline
//! measures against.
//!
//! Every read goes through one [`Snapshot`]: the registry's instruments
//! in key order, histograms as full [`HistogramData`]. Snapshots merge
//! (a fleet's totals are the fold of its sources'), and one
//! [`Exposition`] renders them as Prometheus text, so
//! [`Registry::render_prometheus`] (one snapshot per campaign next to its
//! TSV) and the fleet aggregator's document share one format.
//! [`Registry::render_report`] is the human-readable end-of-run summary,
//! with p50/p95/p99 from [`HistogramData::quantile`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive) for a latency histogram in microseconds:
/// 50 µs … 10 s, roughly 1-2.5-5 per decade.
pub fn duration_us_buckets() -> Vec<u64> {
    vec![
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
        1_000_000, 2_500_000, 10_000_000,
    ]
}

/// Upper bounds (inclusive) for a size histogram: powers of ten up to
/// 10 B (covers audience estimates and frame byte counts alike).
pub fn size_buckets() -> Vec<u64> {
    (1..=10).map(|d| 10u64.pow(d)).collect()
}

/// A fixed-bucket histogram with atomic buckets.
///
/// Its state is the buckets and the sum. The count is the buckets'
/// total and the saturated count is the +Inf bucket, so a copy can
/// never report a count its buckets disagree with. Percentiles are
/// read from a [`HistogramData`] copy.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing; an explicit +Inf
    /// bucket follows as the last entry of `buckets`.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// The process-wide count of histogram observations that landed in a
/// +Inf bucket — a saturated histogram's percentiles are clipped to its
/// top bound, so a nonzero value here means some bounds need widening.
fn histogram_saturated_total() -> &'static Counter {
    static TOTAL: OnceLock<Arc<Counter>> = OnceLock::new();
    TOTAL.get_or_init(|| Registry::global().counter("adcomp_obs_histogram_saturated_total"))
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Values above the top finite bound land
    /// in the +Inf bucket and also count in the global
    /// `adcomp_obs_histogram_saturated_total` counter.
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        if idx == self.bounds.len() {
            histogram_saturated_total().inc();
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    /// A plain-data copy of this histogram, mergeable with copies of
    /// identically-bounded histograms from other processes.
    pub fn data(&self) -> HistogramData {
        HistogramData {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A histogram's full state as plain data: the unit of histogram
/// aggregation across a fleet. Two `HistogramData` with identical
/// bounds merge bucketwise; mismatched bounds refuse to merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramData {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries,
    /// the last being the +Inf bucket.
    pub buckets: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramData {
    /// Observations recorded: the buckets' total.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other` into `self` bucketwise. Returns `false` (leaving
    /// `self` untouched) when the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramData) -> bool {
        if self.bounds != other.bounds || self.buckets.len() != other.buckets.len() {
            return false;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        true
    }

    /// The upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (`None` when empty; the last finite bound when the quantile lands
    /// in the +Inf bucket).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let top = *self.bounds.last()?;
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let i = self
            .cumulative()
            .iter()
            .position(|&(_, seen)| seen >= rank)?;
        Some(self.bounds.get(i).copied().unwrap_or(top))
    }

    /// Per-bucket cumulative counts paired with their upper bounds
    /// (`None` = +Inf), for Prometheus exposition.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                acc += b;
                (self.bounds.get(i).copied(), acc)
            })
            .collect()
    }
}

/// A metric name plus its label pairs, e.g.
/// `("adcomp_retries_total", [("class", "transient")])`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: snake_case, unit suffix).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key with sorted labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{label="v",...}` in Prometheus series syntax.
    pub fn render(&self) -> String {
        series(&self.name, "", &self.labels, &[])
    }
}

/// `name` + `suffix`, then `labels` followed by `extra` in Prometheus
/// series syntax (no braces when both are empty).
fn series(name: &str, suffix: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if pairs.is_empty() {
        format!("{name}{suffix}")
    } else {
        format!("{name}{suffix}{{{}}}", pairs.join(","))
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One instrument's value in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's full state.
    Histogram(HistogramData),
}

impl MetricValue {
    /// Adds `other` into `self`: counters and gauges sum, histograms
    /// merge bucketwise. A kind or bucket-layout mismatch leaves `self`
    /// as it is.
    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                let _ = a.merge(b);
            }
            _ => {}
        }
    }
}

/// A point-in-time copy of instruments: one value per key, in key
/// order. A registry's [`Registry::snapshot`], a pushed telemetry frame
/// and a fleet's merged totals are all snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    series: Vec<(MetricKey, MetricValue)>,
}

impl Snapshot {
    /// Every series, in key order.
    pub fn series(&self) -> &[(MetricKey, MetricValue)] {
        &self.series
    }

    /// Every counter, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, &u64)> {
        self.series.iter().filter_map(|(k, v)| match v {
            MetricValue::Counter(c) => Some((k, c)),
            _ => None,
        })
    }

    /// Every histogram, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &HistogramData)> {
        self.series.iter().filter_map(|(k, v)| match v {
            MetricValue::Histogram(h) => Some((k, h)),
            _ => None,
        })
    }

    /// The value of a counter, summed across every label combination of
    /// `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The value of a gauge with exactly this name and no labels, if
    /// registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.series.iter().find_map(|(k, v)| match v {
            MetricValue::Gauge(g) if k.name == name && k.labels.is_empty() => Some(*g),
            _ => None,
        })
    }

    /// Adds `value` under `key`: a new key is inserted in order, an
    /// existing one merges (a kind or bucket-layout mismatch is skipped
    /// rather than corrupted).
    fn add(&mut self, key: MetricKey, value: MetricValue) {
        match self.series.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.series[i].1.merge(&value),
            Err(i) => self.series.insert(i, (key, value)),
        }
    }

    /// Merges `other` into this snapshot: counters and gauges sum by
    /// key, histograms merge bucketwise. A fleet's totals are the fold
    /// of its sources' snapshots through this.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.series {
            self.add(key.clone(), value.clone());
        }
    }
}

impl FromIterator<(MetricKey, MetricValue)> for Snapshot {
    /// Collects series in any order; a repeated key merges.
    fn from_iter<I: IntoIterator<Item = (MetricKey, MetricValue)>>(iter: I) -> Snapshot {
        let mut snap = Snapshot::default();
        for (key, value) in iter {
            snap.add(key, value);
        }
        snap
    }
}

/// A Prometheus text document built from snapshots. Each family's
/// `# TYPE` line precedes its first series in the document.
#[derive(Default)]
pub struct Exposition {
    text: String,
    typed: BTreeSet<String>,
}

impl Exposition {
    /// Appends every series of `snap` in key order, with `extra` (for
    /// example `("source", "a")`) after each series' own labels and
    /// before a bucket's `le`. A histogram's `_count` is its buckets'
    /// total, so it always equals its `+Inf` line.
    pub fn push(&mut self, snap: &Snapshot, extra: Option<(&str, &str)>) {
        use std::fmt::Write as _;
        let extra: &[(&str, &str)] = match &extra {
            Some(pair) => std::slice::from_ref(pair),
            None => &[],
        };
        let out = &mut self.text;
        for (key, value) in &snap.series {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if self.typed.insert(key.name.clone()) {
                let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            }
            let line = |suffix: &str| series(&key.name, suffix, &key.labels, extra);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", line(""));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", line(""));
                }
                MetricValue::Histogram(h) => {
                    for (bound, cum) in h.cumulative() {
                        let le = bound.map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                        let mut labels = extra.to_vec();
                        labels.push(("le", &le));
                        let bucket = series(&key.name, "_bucket", &key.labels, &labels);
                        let _ = writeln!(out, "{bucket} {cum}");
                    }
                    let _ = writeln!(out, "{} {}", line("_sum"), h.sum);
                    let _ = writeln!(out, "{} {}", line("_count"), h.count());
                }
            }
        }
    }

    /// The document's text.
    pub fn into_text(self) -> String {
        self.text
    }
}

/// A named collection of instruments.
///
/// Registration (get-or-create) takes one mutex; the returned `Arc`
/// handles are lock-free to update. Use [`Registry::global`] for the
/// process-wide registry every layer of the stack reports into.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<MetricKey, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Gets or creates an unlabelled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Gets or creates a labelled counter.
    ///
    /// # Panics
    /// Panics when `name` (with these labels) is already registered as a
    /// different instrument kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut map = crate::lock(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered as a non-counter"),
        }
    }

    /// Gets or creates an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gets or creates a labelled gauge.
    ///
    /// # Panics
    /// Panics on an instrument-kind clash, as
    /// [`counter_with`](Registry::counter_with) does.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        let mut map = crate::lock(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered as a non-gauge"),
        }
    }

    /// Gets or creates an unlabelled histogram with the given bounds
    /// (bounds are fixed by the first registration).
    pub fn histogram(&self, name: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Gets or creates a labelled histogram.
    ///
    /// # Panics
    /// Panics on an instrument-kind clash, as
    /// [`counter_with`](Registry::counter_with) does.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Vec<u64>,
    ) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut map = crate::lock(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::with_bounds(bounds))))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered as a non-histogram"),
        }
    }

    /// A point-in-time copy of every instrument, taken under one lock.
    pub fn snapshot(&self) -> Snapshot {
        let map = crate::lock(&self.instruments);
        let series = map
            .iter()
            .map(|(key, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.data()),
                };
                (key.clone(), value)
            })
            .collect();
        Snapshot { series }
    }

    /// Prometheus text exposition of every instrument.
    pub fn render_prometheus(&self) -> String {
        let mut doc = Exposition::default();
        doc.push(&self.snapshot(), None);
        doc.into_text()
    }

    /// A human-readable end-of-run summary: counters and gauges aligned,
    /// histograms with count/mean/p50/p95/p99. Zero-valued counters are
    /// elided so the report shows what actually happened.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot();
        let mut out = String::new();
        let _ = writeln!(out, "── metrics ──");
        for (key, value) in snap.counters() {
            if *value > 0 {
                let _ = writeln!(out, "  {:<58} {value}", key.render());
            }
        }
        for (key, value) in &snap.series {
            if let MetricValue::Gauge(value) = value {
                let _ = writeln!(out, "  {:<58} {value}", key.render());
            }
        }
        for (key, h) in snap.histograms() {
            let count = h.count();
            if count == 0 {
                continue;
            }
            let mean = h.sum as f64 / count as f64;
            let _ = writeln!(
                out,
                "  {:<58} n={count} mean={mean:.0} p50≤{} p95≤{} p99≤{}",
                key.render(),
                h.quantile(0.50).unwrap_or(0),
                h.quantile(0.95).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_atomically() {
        let r = Registry::new();
        let c = r.counter("test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key resolves to the same instrument.
        assert_eq!(r.counter("test_total").get(), 5);
        let g = r.gauge("test_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn labels_distinguish_instruments() {
        let r = Registry::new();
        r.counter_with("x_total", &[("class", "a")]).add(1);
        r.counter_with("x_total", &[("class", "b")]).add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x_total"), 3);
        assert_eq!(snap.counters().count(), 2);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = Histogram::with_bounds(vec![10, 100, 1_000]);
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..9 {
            h.observe(50);
        }
        h.observe(5_000); // +Inf bucket
        let data = h.data();
        assert_eq!(data.count(), 100);
        assert_eq!(data.quantile(0.5), Some(10));
        assert_eq!(data.quantile(0.95), Some(100));
        assert_eq!(data.quantile(0.999), Some(1_000), "+Inf reports last bound");
        assert_eq!(Histogram::with_bounds(vec![1]).data().quantile(0.5), None);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new();
        r.counter_with("req_total", &[("platform", "LinkedIn")])
            .add(3);
        r.gauge("budget_remaining").set(17);
        let h = r.histogram("rtt_us", vec![100, 1_000]);
        h.observe(40);
        h.observe(400);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{platform=\"LinkedIn\"} 3"));
        assert!(text.contains("budget_remaining 17"));
        assert!(text.contains("rtt_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("rtt_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rtt_us_sum 440"));
        assert!(text.contains("rtt_us_count 2"));
    }

    #[test]
    fn report_elides_zero_counters() {
        let r = Registry::new();
        r.counter("never_fired_total");
        r.counter("fired_total").inc();
        let report = r.render_report();
        assert!(report.contains("fired_total"));
        assert!(!report.contains("never_fired_total"));
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _ = r.gauge("clash");
        let _ = r.counter("clash");
    }

    #[test]
    fn bucket_helpers_are_increasing() {
        for bounds in [duration_us_buckets(), size_buckets()] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn saturation_at_the_boundary() {
        let h = Histogram::with_bounds(vec![10, 100]);
        let global_before = histogram_saturated_total().get();
        h.observe(100); // exactly the top bound: last finite bucket
        assert_eq!(h.data().buckets[2], 0, "top bound is inclusive");
        h.observe(101); // one past: +Inf, saturated
        h.observe(u64::MAX);
        let data = h.data();
        assert_eq!(data.count(), 3);
        assert_eq!(data.buckets, vec![0, 1, 2], "+Inf bucket holds overflow");
        assert!(
            histogram_saturated_total().get() >= global_before + 2,
            "global saturation counter advanced"
        );
        let text = {
            let r = Registry::new();
            let rh = r.histogram("sat_us", vec![10, 100]);
            rh.observe(101);
            r.render_prometheus()
        };
        assert!(text.contains("sat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("sat_us_bucket{le=\"100\"} 0"));
    }

    #[test]
    fn histogram_data_merges_bucketwise() {
        let a = Histogram::with_bounds(vec![10, 100]);
        let b = Histogram::with_bounds(vec![10, 100]);
        a.observe(5);
        a.observe(50);
        b.observe(50);
        b.observe(500);
        let mut merged = a.data();
        assert!(merged.merge(&b.data()));
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum, 605);
        assert_eq!(merged.buckets, vec![1, 2, 1]);
        assert_eq!(merged.quantile(0.5), Some(100));
        // Mismatched bounds refuse to merge and leave self untouched.
        let other = Histogram::with_bounds(vec![1, 2]).data();
        let before = merged.clone();
        assert!(!merged.merge(&other));
        assert_eq!(merged, before);
    }

    #[test]
    fn snapshots_keep_key_order_and_merge_by_key() {
        let key = |name: &str| MetricKey::new(name, &[]);
        let hist = |buckets: Vec<u64>, sum| {
            MetricValue::Histogram(HistogramData {
                bounds: vec![10],
                buckets,
                sum,
            })
        };
        let mut a: Snapshot = [
            (key("rtt"), hist(vec![1, 0], 5)),
            (key("epochs"), MetricValue::Counter(3)),
            (key("depth"), MetricValue::Gauge(2)),
            (key("alerts"), MetricValue::Counter(1)),
        ]
        .into_iter()
        .collect();
        let names: Vec<&str> = a.series().iter().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, ["alerts", "depth", "epochs", "rtt"]);
        let b: Snapshot = [
            (key("epochs"), MetricValue::Counter(4)),
            (key("depth"), MetricValue::Gauge(-1)),
            (key("rtt"), hist(vec![0, 2], 40)),
            // A kind clash is skipped, not corrupted.
            (key("alerts"), MetricValue::Gauge(9)),
        ]
        .into_iter()
        .collect();
        a.merge(&b);
        assert_eq!(a.counter("epochs"), 7);
        assert_eq!(a.counter("alerts"), 1);
        assert_eq!(a.gauge("depth"), Some(1));
        let (_, rtt) = a.histograms().next().unwrap();
        assert_eq!(rtt.buckets, vec![1, 2]);
        assert_eq!((rtt.count(), rtt.sum), (3, 45));
    }

    #[test]
    fn exposition_appends_the_extra_label_before_le() {
        let r = Registry::new();
        r.histogram_with("rtt_us", &[("op", "call")], vec![100])
            .observe(40);
        r.counter("req_total").inc();
        let mut doc = Exposition::default();
        doc.push(&r.snapshot(), None);
        doc.push(&r.snapshot(), Some(("source", "a")));
        let text = doc.into_text();
        assert_eq!(text.matches("# TYPE").count(), 2, "{text}");
        assert!(text.contains("rtt_us_bucket{op=\"call\",source=\"a\",le=\"+Inf\"} 1"));
        assert!(text.contains("rtt_us_count{op=\"call\",source=\"a\"} 1"));
        assert!(text.contains("req_total{source=\"a\"} 1"));
        assert!(text.starts_with(&r.render_prometheus()));
    }

    #[test]
    fn registry_concurrent_register_and_render_is_race_free() {
        let r = std::sync::Arc::new(Registry::new());
        let threads = 8;
        let iters = 200;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..iters {
                        let class = ["a", "b", "c", "d"][i % 4];
                        r.counter_with("stress_total", &[("class", class)]).inc();
                        r.gauge("stress_gauge").set(t as i64);
                        r.histogram_with("stress_us", &[("class", class)], vec![10, 100])
                            .observe((i as u64) % 150);
                        if i % 16 == 0 {
                            let _ = r.render_prometheus();
                            let _ = r.snapshot();
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("stress_total"),
            (threads * iters) as u64,
            "duplicate-name registration resolved to the same instrument"
        );
        assert_eq!(snap.counters().count(), 4, "one series per label value");
        let total: u64 = snap.histograms().map(|(_, d)| d.count()).sum();
        assert_eq!(total, (threads * iters) as u64);
    }
}
