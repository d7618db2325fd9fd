//! Serve-side metrics: per-stage latency histograms, queue depth,
//! batch-size distribution, reject counters, and quantiles, registered
//! in a [`cc19_obs::Registry`] and dumped as a `section,name,value` CSV
//! into `results/`.
//!
//! Since PR 5 this is a facade over `cc19-obs`: every counter/gauge/
//! histogram lives in a shared registry (fresh per [`ServeMetrics::new`]
//! for test isolation; inject one via [`ServeMetrics::with_registry`] to
//! fold serving metrics into a process-wide export such as the
//! deterministic bench). All timestamps the serving layer takes —
//! admission, deadline checks, the worker's stage stamps — read the
//! registry's injectable clock, so a [`cc19_obs::ManualClock`] makes
//! latencies exactly assertable (see `tests/e2e.rs`). Every
//! `serve_stage_ms` sample is the duration of one of the request's
//! trace spans, taken from the same two clock reads.

use std::io;
use std::path::Path;
use std::sync::Arc;

use cc19_obs::{Clock, Counter, Gauge, HistogramHandle, Registry};

use crate::request::Rejected;

/// Reject reasons in the CSV's stable row order (matches
/// [`Rejected::label`]).
const REJECT_REASONS: [&str; 4] = ["queue_full", "deadline_impossible", "invalid", "shutting_down"];

/// Pipeline stages in CSV row order.
const STAGES: [&str; 5] = ["queue", "enhance", "segment", "classify", "total"];

/// Bucket bounds in **milliseconds** for the stage-latency histograms
/// (quantiles are exact-sample; buckets only shape the Prometheus view).
const MS_BOUNDS: &[f64] =
    &[0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 10_000.0];

/// Bucket bounds for the dispatched-batch-size histogram.
const BATCH_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Shared, thread-safe metrics sink for one server — cached `serve_*`
/// handles over a [`Registry`].
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    reg: Arc<Registry>,
    accepted: Counter,
    completed: Counter,
    failed: Counter,
    rejected: [(&'static str, Counter); 4],
    deadline_missed: Counter,
    depth_max: Gauge,
    batch_size: HistogramHandle,
    stages: [(&'static str, HistogramHandle); 5],
}

/// Point-in-time copy of the counters a test or bench typically asserts
/// on (histograms are exported via the CSV).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests admitted.
    pub accepted: u64,
    /// Requests answered with a diagnosis.
    pub completed: u64,
    /// Requests answered with a stage error.
    pub failed: u64,
    /// Total rejections across reasons.
    pub rejected: u64,
    /// Completions that blew their deadline.
    pub deadline_missed: u64,
    /// Largest queue depth observed at any admission.
    pub depth_max: usize,
    /// Largest dispatched batch.
    pub max_batch: usize,
    /// Number of dispatched batches.
    pub batches: u64,
}

impl ServeMetrics {
    /// Fresh sink on its own private registry (and therefore its own
    /// clock — the environment-selected default).
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Sink whose metrics register in `reg` — the handle the bench uses
    /// to fold serving metrics into the global deterministic export.
    pub fn with_registry(reg: Arc<Registry>) -> Self {
        let rejected = REJECT_REASONS
            .map(|reason| (reason, reg.counter_with("serve_rejected_total", &[("reason", reason)])));
        let stages = STAGES
            .map(|stage| (stage, reg.histogram_with_bounds("serve_stage_ms", &[("stage", stage)], MS_BOUNDS)));
        ServeMetrics {
            accepted: reg.counter("serve_accepted_total"),
            completed: reg.counter("serve_completed_total"),
            failed: reg.counter("serve_failed_total"),
            deadline_missed: reg.counter("serve_deadline_missed_total"),
            depth_max: reg.gauge("serve_queue_depth_max"),
            batch_size: reg.histogram_with_bounds("serve_batch_size", &[], BATCH_BOUNDS),
            rejected,
            stages,
            reg,
        }
    }

    /// The backing registry (e.g. for Prometheus/JSON export of the
    /// `serve_*` metrics).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.reg
    }

    /// The registry clock — every serving-layer timestamp (admission,
    /// queue wait, deadline checks) reads this.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.reg.clock()
    }

    /// Current time on the registry clock.
    pub(crate) fn now_ns(&self) -> u64 {
        self.reg.now_ns()
    }

    pub(crate) fn on_accept(&self, depth_after: usize) {
        self.accepted.inc();
        self.depth_max.set_max(depth_after as f64);
    }

    pub(crate) fn on_reject(&self, why: &Rejected) {
        let label = why.label();
        for (reason, c) in &self.rejected {
            if *reason == label {
                c.inc();
                return;
            }
        }
    }

    pub(crate) fn on_batch(&self, size: usize) {
        self.batch_size.observe(size as f64);
    }

    /// Count one completed job and record its stage samples from the
    /// worker's stamps `[start, enhance end, segment end, classify end]`:
    /// `queue` is admission → start, each compute stage is its span,
    /// `total` is start → classify end; every sample is `ns / 1e6` ms.
    pub(crate) fn on_complete(&self, submitted: u64, stamps: &[u64; 4], missed_deadline: bool) {
        self.completed.inc();
        if missed_deadline {
            self.deadline_missed.inc();
        }
        let [start, enhanced, segmented, classified] = *stamps;
        let ms = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e6;
        let samples = [
            ms(submitted, start),
            ms(start, enhanced),
            ms(enhanced, segmented),
            ms(segmented, classified),
            ms(start, classified),
        ];
        for ((_, h), v) in self.stages.iter().zip(samples) {
            h.observe(v);
        }
    }

    pub(crate) fn on_failure(&self) {
        self.failed.inc();
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batches = self.batch_size.snapshot();
        MetricsSnapshot {
            accepted: self.accepted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            rejected: self.rejected.iter().map(|(_, c)| c.get()).sum(),
            deadline_missed: self.deadline_missed.get(),
            depth_max: self.depth_max.get() as usize,
            max_batch: batches.max() as usize,
            batches: batches.count(),
        }
    }

    /// p50/p95/p99 of end-to-end processing latency in milliseconds.
    pub fn total_latency_quantiles_ms(&self) -> (f64, f64, f64) {
        let h = self.stages[4].1.snapshot();
        (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
    }

    /// Render the full `section,name,value` CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,name,value\n");
        let push_row = |out: &mut String, name: &str, v: u64| {
            out.push_str(&format!("counter,{name},{v}\n"));
        };
        push_row(&mut out, "accepted", self.accepted.get());
        push_row(&mut out, "completed", self.completed.get());
        push_row(&mut out, "failed", self.failed.get());
        for (reason, c) in &self.rejected {
            push_row(&mut out, &format!("rejected_{reason}"), c.get());
        }
        push_row(&mut out, "deadline_missed", self.deadline_missed.get());
        out.push_str(&format!("gauge,queue_depth_max,{}\n", self.depth_max.get() as u64));
        // Reconstruct the per-size distribution from the exact samples
        // (sizes are small integers, exactly representable in f64).
        let mut sizes = std::collections::BTreeMap::<u64, u64>::new();
        for &s in self.batch_size.snapshot().samples() {
            *sizes.entry(s as u64).or_insert(0) += 1;
        }
        for (size, n) in &sizes {
            out.push_str(&format!("batch_size,{size},{n}\n"));
        }
        for (stage, handle) in &self.stages {
            let h = handle.snapshot();
            out.push_str(&format!("stage_ms,{stage}_count,{}\n", h.count()));
            out.push_str(&format!("stage_ms,{stage}_mean,{:.4}\n", h.mean()));
            out.push_str(&format!("stage_ms,{stage}_p50,{:.4}\n", h.quantile(0.50)));
            out.push_str(&format!("stage_ms,{stage}_p95,{:.4}\n", h.quantile(0.95)));
            out.push_str(&format!("stage_ms,{stage}_p99,{:.4}\n", h.quantile(0.99)));
            out.push_str(&format!("stage_ms,{stage}_max,{:.4}\n", h.max()));
        }
        out
    }

    /// Write the CSV to `path` (parent directory must exist).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    /// Stamps of a job admitted at 0 that starts at 1 ms and whose
    /// classification ends `total_ms` later.
    fn stamps(total_ms: u64) -> [u64; 4] {
        let start = 1_000_000;
        [start, start, start, start + total_ms * 1_000_000]
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let m = ServeMetrics::new();
        for v in 1..=100 {
            m.on_complete(0, &stamps(v), false);
        }
        let (p50, p95, p99) = m.total_latency_quantiles_ms();
        assert_eq!(p50, 50.0);
        assert_eq!(p95, 95.0);
        assert_eq!(p99, 99.0);
        assert_eq!(m.stages[4].1.snapshot().max(), 100.0);
    }

    #[test]
    fn csv_has_three_columns_everywhere_and_roundtrips_counters() {
        let m = ServeMetrics::new();
        m.on_accept(3);
        m.on_batch(2);
        m.on_batch(2);
        m.on_reject(&Rejected::QueueFull { depth: 4, bound: 4 });
        m.on_complete(0, &stamps(10), false);
        let csv = m.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("section,name,value"));
        for line in lines {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 3, "bad row: {line}");
            fields[2].parse::<f64>().unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        }
        assert!(csv.contains("counter,accepted,1\n"));
        assert!(csv.contains("counter,rejected_queue_full,1\n"));
        assert!(csv.contains("batch_size,2,2\n"));
        let snap = m.snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.max_batch, 2);
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn injected_registry_receives_the_serve_metrics() {
        let reg = Arc::new(Registry::new());
        let m = ServeMetrics::with_registry(Arc::clone(&reg));
        m.on_accept(1);
        m.on_failure();
        let snap = reg.snapshot();
        let get = |key: &str| {
            snap.counters.iter().find(|c| c.key == key).map(|c| c.value).unwrap_or(0)
        };
        assert_eq!(get("serve_accepted_total"), 1);
        assert_eq!(get("serve_failed_total"), 1);
        // Rejection reasons are pre-registered so exports always carry
        // the zero rows.
        assert_eq!(get("serve_rejected_total{reason=\"queue_full\"}"), 0);
    }
}
