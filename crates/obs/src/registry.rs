//! The metrics registry: thread-safe counters, gauges, and histograms
//! addressed by a static metric name plus a (sorted) label set.
//!
//! Handles returned by the registry are cheap `Arc` clones over atomics
//! (or a mutexed [`Histogram`]), so hot paths fetch a handle once and
//! update lock-free; looking a handle up again returns the same
//! underlying metric. Naming convention (enforced by the `cc19-lint`
//! `metric-naming` rule): `snake_case`, prefixed with the registering
//! crate's name — `tensor_gemm_flops_total`, `serve_stage_ms`, …

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{default_clock, Clock};
use crate::histogram::Histogram;
use crate::lock::lock;
use crate::trace::TraceStore;

/// A monotonically increasing integer metric.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point metric (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared handle to a registered [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one sample. Poisoning recovers instead of silently
    /// dropping the sample (see [`crate::lock::lock`]).
    pub fn observe(&self, v: f64) {
        lock(&self.0).observe(v);
    }

    /// Clone out the current state (count/sum/quantiles/buckets).
    pub fn snapshot(&self) -> Histogram {
        lock(&self.0).clone()
    }
}

/// RAII timer: measures from construction to drop on the registry's
/// clock and records the elapsed **seconds** into a histogram.
pub struct Timer {
    clock: Arc<dyn Clock>,
    start_ns: u64,
    hist: HistogramHandle,
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer").field("start_ns", &self.start_ns).finish_non_exhaustive()
    }
}

impl Timer {
    /// Start timing `hist` on `clock` now.
    pub fn start(clock: Arc<dyn Clock>, hist: HistogramHandle) -> Self {
        let start_ns = clock.now_ns();
        Timer { clock, start_ns, hist }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let dt = self.clock.now_ns().saturating_sub(self.start_ns);
        self.hist.observe(dt as f64 * 1e-9);
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<Histogram>>),
}

#[derive(Debug)]
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    slot: Slot,
}

/// One exported metric: name, sorted labels, rendered key, value.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// Metric name (`snake_case`, crate-prefixed).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// Rendered identity, e.g. `serve_stage_ms{stage="queue"}`.
    pub key: String,
    /// The value at snapshot time.
    pub value: T,
}

/// A consistent, sorted view of everything in a [`Registry`] — the
/// input to all exporters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by key.
    pub counters: Vec<Entry<u64>>,
    /// All gauges, sorted by key.
    pub gauges: Vec<Entry<f64>>,
    /// All histograms, sorted by key.
    pub histograms: Vec<Entry<Histogram>>,
}

/// The metrics registry. Cheap to share via `Arc`; every process also
/// has a lazily created global instance ([`crate::global`]).
pub struct Registry {
    clock: Arc<dyn Clock>,
    metrics: Mutex<BTreeMap<String, Metric>>,
    pub(crate) traces: Mutex<TraceStore>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// Render the stable identity of a metric: name plus sorted labels.
fn render_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

fn sort_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

impl Registry {
    /// Registry on the environment-selected default clock (see
    /// [`crate::clock::default_clock`]).
    pub fn new() -> Self {
        Registry::with_clock(default_clock())
    }

    /// Registry on an injected clock (tests use a
    /// [`crate::clock::ManualClock`] here for exact-latency assertions).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            clock,
            metrics: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(TraceStore::default()),
        }
    }

    /// The clock all [`Timer`]s from this registry read.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Current time on this registry's clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn metrics_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        lock(&self.metrics)
    }

    /// Counter without labels.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter with labels. Re-registering the same name+labels returns
    /// a handle to the same underlying value; a name already registered
    /// as a different metric type yields a detached (unexported) handle.
    pub fn counter_with(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        let labels = sort_labels(labels);
        let key = render_key(name, &labels);
        let mut m = self.metrics_lock();
        let metric = m.entry(key).or_insert_with(|| Metric {
            name: name.to_string(),
            labels,
            slot: Slot::Counter(Arc::new(AtomicU64::new(0))),
        });
        match &metric.slot {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Gauge without labels.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gauge with labels (same identity semantics as
    /// [`Registry::counter_with`]).
    pub fn gauge_with(&self, name: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let labels = sort_labels(labels);
        let key = render_key(name, &labels);
        let mut m = self.metrics_lock();
        let metric = m.entry(key).or_insert_with(|| Metric {
            name: name.to_string(),
            labels,
            slot: Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        });
        match &metric.slot {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Histogram without labels, on [`Histogram::seconds`] buckets.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        self.histogram_with(name, &[])
    }

    /// Histogram with labels, on [`Histogram::seconds`] buckets.
    pub fn histogram_with(&self, name: &'static str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.histogram_with_bounds(name, labels, crate::histogram::DEFAULT_SECONDS_BOUNDS)
    }

    /// Histogram with explicit bucket bounds (bounds apply only on first
    /// registration of the name+labels identity).
    pub fn histogram_with_bounds(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        let labels = sort_labels(labels);
        let key = render_key(name, &labels);
        let mut m = self.metrics_lock();
        let metric = m.entry(key).or_insert_with(|| Metric {
            name: name.to_string(),
            labels,
            slot: Slot::Histogram(Arc::new(Mutex::new(Histogram::new(bounds)))),
        });
        match &metric.slot {
            Slot::Histogram(h) => HistogramHandle(Arc::clone(h)),
            _ => HistogramHandle(Arc::new(Mutex::new(Histogram::new(bounds)))),
        }
    }

    /// RAII timer into a seconds histogram (no labels).
    pub fn timer(&self, name: &'static str) -> Timer {
        self.timer_with(name, &[])
    }

    /// RAII timer into a labelled seconds histogram.
    pub fn timer_with(&self, name: &'static str, labels: &[(&str, &str)]) -> Timer {
        Timer::start(self.clock(), self.histogram_with(name, labels))
    }

    /// Sorted, consistent snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let m = self.metrics_lock();
        for (key, metric) in m.iter() {
            let name = metric.name.clone();
            let labels = metric.labels.clone();
            let key = key.clone();
            match &metric.slot {
                Slot::Counter(c) => snap.counters.push(Entry {
                    name,
                    labels,
                    key,
                    value: c.load(Ordering::Relaxed),
                }),
                Slot::Gauge(g) => snap.gauges.push(Entry {
                    name,
                    labels,
                    key,
                    value: f64::from_bits(g.load(Ordering::Relaxed)),
                }),
                Slot::Histogram(h) => {
                    let value = lock(h).clone();
                    snap.histograms.push(Entry { name, labels, key, value });
                }
            }
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counter_handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("obs_test_total");
        let b = reg.counter("obs_test_total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counters[0].value, 4);
    }

    #[test]
    fn labels_are_sorted_into_one_identity() {
        let reg = Registry::new();
        let a = reg.counter_with("obs_lbl_total", &[("b", "2"), ("a", "1")]);
        let b = reg.counter_with("obs_lbl_total", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].key, "obs_lbl_total{a=\"1\",b=\"2\"}");
        assert_eq!(snap.counters[0].value, 2);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let reg = Registry::new();
        let g = reg.gauge("obs_depth");
        g.set_max(3.0);
        g.set_max(1.0);
        assert_eq!(g.get(), 3.0);
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
    }

    #[test]
    fn timer_measures_on_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let reg = Registry::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        {
            let _t = reg.timer("obs_timed_seconds");
            clock.advance(2_000_000_000);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].value.count(), 1);
        assert_eq!(snap.histograms[0].value.max(), 2.0);
    }

    #[test]
    fn type_mismatch_yields_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("obs_kind");
        c.inc();
        let g = reg.gauge("obs_kind");
        g.set(99.0);
        // The registered metric stays a counter with its original value.
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 1);
        assert!(snap.gauges.is_empty());
    }
}
