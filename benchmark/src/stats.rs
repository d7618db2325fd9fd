//! Nearest-rank percentiles and the "enough samples beyond" rule.

/// Samples that must lie beyond a percentile before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // p·n first: exact whenever the product is a whole multiple of 100.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an unsorted sample; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether at least [`MIN_BEYOND`] of `n` samples lie beyond percentile
/// `p`, so p90 needs 100 samples and p99 needs 1000.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Windows the timed phase of a pass is cut into, when it has the
/// operations.
pub const WINDOWS: usize = 10;
/// Fewest operations a window holds: fewer windows before less.
pub const WINDOW_MIN_OPS: usize = 4;

/// One correctly answered operation of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it counts, in seconds into the phase: its completion in a
    /// closed loop and for a throughput, its due time in an open loop.
    pub at_s: f64,
    /// How long it took.
    pub ms: f64,
}

/// What one window of a phase saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Nearest-rank median latency.
    pub p50_ms: f64,
    /// Nearest-rank 90th percentile latency.
    pub p90_ms: f64,
    /// Operations per second, from the end of the window before.
    pub per_s: f64,
}

/// Cut a phase into [`WINDOWS`] consecutive windows (fewer if they
/// would hold under [`WINDOW_MIN_OPS`]) of as near the same number of
/// operations as it divides into, in `at_s` order. The phase starts at
/// 0 s.
pub fn windows(samples: &[Sample]) -> Vec<Window> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let n = sorted.len();
    let w = (n / WINDOW_MIN_OPS).clamp(n.min(1), WINDOWS);
    let mut start_s = 0.0;
    (0..w)
        .map(|k| {
            let chunk = &sorted[k * n / w..(k + 1) * n / w];
            let ms: Vec<f64> = chunk.iter().map(|s| s.ms).collect();
            let end_s = chunk[chunk.len() - 1].at_s;
            let window = Window {
                p50_ms: percentile(&ms, 50.0).unwrap_or(0.0),
                p90_ms: percentile(&ms, 90.0).unwrap_or(0.0),
                per_s: chunk.len() as f64 / (end_s - start_s).max(1e-9),
            };
            start_s = end_s;
            window
        })
        .collect()
}

/// The lower-quartile window for a figure that is better low, the
/// upper-quartile window for one that is better high: what the program
/// does in the quiet part of the pass. Another tenant of the host only
/// ever adds time, in bursts of one to ten seconds, and the quartile is
/// blind to bursts that cover up to three windows in four, where the
/// percentile over the whole pass moves with every one of them.
pub fn quiet(per_window: impl Iterator<Item = f64>, better_low: bool) -> Option<f64> {
    let values: Vec<f64> = per_window.collect();
    percentile(&values, if better_low { 25.0 } else { 75.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supported(99, 90.0));
        assert!(supported(100, 90.0));
        assert!(!supported(16, 90.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(0, 50.0));
    }

    /// `n` operations, one every 0.1 s, the `k`-th taking `k` ms.
    fn ramp(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|k| Sample {
                at_s: (k + 1) as f64 * 0.1,
                ms: k as f64,
            })
            .collect()
    }

    #[test]
    fn windows_are_consecutive_and_of_equal_count() {
        let mut samples = ramp(40);
        samples.reverse();
        let w = windows(&samples);
        assert_eq!(w.len(), WINDOWS);
        for (k, w) in w.iter().enumerate() {
            // Operations 4k..4k+4, in 0.4 s.
            assert_eq!(w.p50_ms, (4 * k + 1) as f64);
            assert_eq!(w.p90_ms, (4 * k + 3) as f64);
            assert!((w.per_s - 10.0).abs() < 1e-9, "{}", w.per_s);
        }
    }

    #[test]
    fn a_short_phase_has_fewer_windows_not_thinner_ones() {
        assert_eq!(windows(&[]).len(), 0);
        assert_eq!(windows(&ramp(3)).len(), 1);
        let w = windows(&ramp(9));
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].p50_ms, w[1].p50_ms), (1.0, 6.0));
        assert_eq!(windows(&ramp(22)).len(), 5);
        assert_eq!(windows(&ramp(7000)).len(), WINDOWS);
    }

    #[test]
    fn quiet_is_blind_to_bursts_in_most_windows() {
        let calm = [10.0, 10.5, 9.5];
        let bursts = [30.0, 80.0, 25.0, 40.0, 31.0, 26.0, 90.0];
        let windows = || calm.iter().chain(&bursts).copied();
        assert_eq!(quiet(windows(), true), Some(10.5));
        // Better high: the same windows as rates, the bursts now the lows.
        assert_eq!(quiet(windows().map(|ms| 1e3 / ms), false), Some(1e3 / 10.5));
        assert_eq!(quiet(std::iter::empty(), true), None);
    }
}
