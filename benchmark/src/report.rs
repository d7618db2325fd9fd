//! Metric names and units, the result of a run, and how it is printed.

use std::collections::BTreeMap;

use crate::stats;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer that a
/// workload never calls reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hetero.peak_gflops", "GFLOP/s"),
    ("tensor.sgemm_gflops", "GFLOP/s"),
    ("tensor.conv5x5_gflops", "GFLOP/s"),
    ("tensor.conv5x5_peak_frac", "frac"),
    ("tensor.deconv5x5_gflops", "GFLOP/s"),
    ("kernels.conv3x3_gflops", "GFLOP/s"),
    ("kernels.conv5x5_gflops", "GFLOP/s"),
    ("kernels.deconv5x5_gflops", "GFLOP/s"),
    ("kernels.conv5x5_peak_frac", "frac"),
    ("kernels.conv5x5_flop_per_byte", "FLOP/B"),
    ("ddnet.enhance_slice_ms", "ms"),
    ("ddnet.conv_ms", "ms"),
    ("ddnet.deconv_ms", "ms"),
    ("ddnet.other_ms", "ms"),
    ("ddnet.other_frac", "frac"),
    ("pipeline.enhance_ms", "ms"),
    ("pipeline.segment_ms", "ms"),
    ("pipeline.classify_ms", "ms"),
    ("pipeline.stage_sum_frac", "frac"),
    ("analysis.segment_volume_ms", "ms"),
    ("analysis.predict_proba_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.mean_batch_steady", "requests"),
    ("serve.mean_batch_overload", "requests"),
    ("serve.depth_max", "requests"),
    ("serve.shed_frac", "frac"),
    ("serve.within_limit_frac", "frac"),
    ("cluster.overhead_ms", "ms"),
    ("cluster.scaling_2w_over_1w", "frac"),
    ("cluster.dispatched", "count"),
    ("cluster.redispatched", "count"),
    ("cluster.inflight_max", "count"),
    ("dist.frame_encode_mib_per_s", "MiB/s"),
    ("dist.frame_decode_mib_per_s", "MiB/s"),
    ("bench.gen_late_p90_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub n: usize,
}

/// A named set of metrics drawn from one of the two lists above.
#[derive(Debug)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Every metric of `list` at 0 with 0 samples.
    pub fn zeroed(list: &'static [(&'static str, &'static str)]) -> Self {
        Metrics(
            list.iter()
                .map(|&(name, unit)| {
                    (
                        name,
                        Metric {
                            value: 0.0,
                            unit,
                            n: 0,
                        },
                    )
                })
                .collect(),
        )
    }

    /// Set a metric; the name must be in the list.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let m = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        m.value = value;
        m.n = n;
    }

    /// Set a metric to the nearest-rank percentile of its samples; an
    /// empty sample leaves the 0.
    pub fn set_percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        if let Some(v) = stats::percentile(samples, p) {
            self.set(name, v, samples.len());
        }
    }

    /// Set a metric to its quiet window's figure, see [`stats::quiet`];
    /// no window leaves the 0. `n` is the samples in all the windows.
    pub fn set_quiet(
        &mut self,
        name: &str,
        per_window: impl Iterator<Item = f64>,
        better_low: bool,
        n: usize,
    ) {
        if let Some(v) = stats::quiet(per_window, better_low) {
            self.set(name, v, n);
        }
    }

    /// Set a metric to the median of its samples.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.set_percentile(name, samples, 50.0);
    }

    /// `name unit value n_samples`, one line per metric.
    pub fn lines(&self) -> String {
        self.0
            .iter()
            .map(|(name, m)| format!("metric {name} {} {} {}\n", m.unit, m.value, m.n))
            .collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What happened to the operations of a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Operations offered to the program.
    pub attempted: u64,
    /// Answered, and the answer was right.
    pub completed: u64,
    /// Error, lost reply, wrong or non-finite answer, or a refusal where
    /// none is expected.
    pub failed: u64,
    /// Typed `QueueFull` sheds during overload: admission control at
    /// work, a miss for the latency limit but not a failure.
    pub refused: u64,
    /// Checks outside the operation count that failed (kernel reference
    /// mismatch, stage spans not adding up).
    pub broken_checks: Vec<String>,
}

impl Outcome {
    /// Count one operation by whether it was answered correctly.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Add another thread's or phase's counts.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.refused += other.refused;
        self.broken_checks.extend(other.broken_checks);
    }

    /// No failure, every operation accounted for, every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted >= 1
            && self.completed + self.failed + self.refused == self.attempted
            && self.broken_checks.is_empty()
    }
}

/// The last line of standard output: the object the driver reads.
pub fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.json()
    )
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names between `"<key>": [` and the closing `]` of that array.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(json, "end_to_end"), listed(END_TO_END));
        assert_eq!(names_in(json, "per_layer"), listed(PER_LAYER));
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"unit\": \"{unit}\"")),
                "unit {unit}"
            );
        }
    }

    #[test]
    fn outcome_is_correct_only_when_everything_is_accounted_for() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted");
        o.count(true);
        o.attempted += 1;
        o.refused += 1;
        assert!(o.correct());
        o.attempted += 1;
        assert!(!o.correct(), "one operation went missing");
        o.count(false);
        o.attempted -= 1;
        assert!(!o.correct(), "a failure");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::zeroed(END_TO_END);
        m.set("setup_s", 0.8127, 3);
        let mut o = Outcome::default();
        o.count(true);
        let line = result_line(&o, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
