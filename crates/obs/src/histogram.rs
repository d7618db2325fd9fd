//! Fixed-bucket histogram with exact nearest-rank quantiles.
//!
//! This is the **single** quantile implementation in the workspace
//! (`cc19-serve`'s metrics used to carry a private copy): samples are
//! kept exactly, quantiles use the nearest-rank definition
//! `rank = ceil(q * n)` (clamped to `[1, n]`) over a `total_cmp` sort,
//! and a proptest in `crates/obs/tests/` pins the result against a
//! naive sort oracle. Bucket counts (cumulative-bound style) ride along
//! for the Prometheus exporter.
//!
//! Only the most recent [`SAMPLE_WINDOW`] samples are kept, so a
//! histogram on a hot path (one sample per convolution, per request)
//! costs a fixed 32 KiB however long the process serves; count, sum,
//! mean, max and the bucket counts cover every sample ever observed,
//! quantiles and [`Histogram::samples`] the window.

/// Default bucket upper bounds for durations in **seconds**: roughly
/// exponential from 1 µs to 10 s (a `+Inf` bucket is implicit).
pub const DEFAULT_SECONDS_BOUNDS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// How many of the latest samples a histogram keeps for quantiles.
pub const SAMPLE_WINDOW: usize = 4096;

/// An exact-sample histogram with fixed bucket bounds.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts[i]` = samples with `v <= bounds[i]` and `> bounds[i-1]`;
    /// one extra slot at the end counts the `+Inf` overflow bucket.
    counts: Vec<u64>,
    /// The latest `SAMPLE_WINDOW` samples; once full, sample `n` (0-based)
    /// overwrites slot `n % SAMPLE_WINDOW`.
    samples: Vec<f64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// Histogram with the given (ascending) bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            samples: Vec::new(),
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Histogram with [`DEFAULT_SECONDS_BOUNDS`].
    pub fn seconds() -> Self {
        Histogram::new(DEFAULT_SECONDS_BOUNDS)
    }

    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        if self.samples.len() < SAMPLE_WINDOW {
            self.samples.push(v);
        } else {
            self.samples[(self.count % SAMPLE_WINDOW as u64) as usize] = v;
        }
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }

    /// Largest sample, `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Nearest-rank quantile: the sample at rank `ceil(q * n)` (1-based,
    /// clamped to `[1, n]`) of the `total_cmp`-sorted window. `0.0`
    /// when empty. `q` is a fraction, e.g. `0.95`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Bucket upper bounds (the `+Inf` bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The kept samples: in observation order until the window is full,
    /// in slot order after.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut h = Histogram::new(&[]);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.50), 3.0);
        assert_eq!(h.quantile(0.95), 5.0);
        assert_eq!(h.quantile(0.20), 1.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 5.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn only_the_latest_window_is_kept_while_totals_cover_everything() {
        let mut h = Histogram::new(&[0.5]);
        h.observe(1e9); // leaves the window, stays in count/sum/max/buckets
        for _ in 0..SAMPLE_WINDOW {
            h.observe(0.25);
        }
        assert_eq!(h.samples().len(), SAMPLE_WINDOW);
        assert_eq!(h.quantile(1.0), 0.25);
        assert_eq!(h.count(), SAMPLE_WINDOW as u64 + 1);
        assert_eq!(h.max(), 1e9);
        assert_eq!(h.sum(), 1e9 + 0.25 * SAMPLE_WINDOW as f64);
        assert_eq!(h.bucket_counts(), &[SAMPLE_WINDOW as u64, 1]);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::seconds();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn buckets_partition_samples() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 2.0, 50.0] {
            h.observe(v);
        }
        // <=1.0: {0.5, 1.0}; <=10.0: {2.0}; +Inf: {50.0}
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }
}
