//! Seeded inputs of the load generator: the random stream, the open-loop
//! Poisson arrival schedule, and due-time latency accounting.

use cc19_serve::Priority;

/// SplitMix64: the benchmark's own stream, so a schedule depends on the
/// seed alone and not on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream for a seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, ns after the phase starts.
    pub due_ns: u64,
    /// Index into the study pool.
    pub study: usize,
    /// Clinical class: 10 % stat, 30 % urgent, 60 % routine.
    pub priority: Priority,
}

/// Arrivals at `rate_per_s` over `seconds` with exponential gaps, as a
/// Poisson process has, drawn without replacement: the `n = rate ×
/// seconds` gaps are the mid-quantiles of the exponential distribution
/// and the classes are in exact 10/30/60 proportion, and the seed only
/// shuffles both and draws the studies. Every seed therefore offers the
/// same load over the same time in a different order, which takes the
/// luck of the draw out of the comparison between two runs.
pub fn poisson(seed: u64, rate_per_s: f64, seconds: f64, pool: usize) -> Vec<Arrival> {
    let n = (rate_per_s * seconds).round() as usize;
    let mut rng = Rng::new(seed);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate_per_s)
        .collect();
    let mut classes: Vec<Priority> = (0..n)
        .map(|i| match (i as f64 + 0.5) / n as f64 {
            c if c < 0.10 => Priority::Stat,
            c if c < 0.40 => Priority::Urgent,
            _ => Priority::Routine,
        })
        .collect();
    for i in (1..n).rev() {
        gaps.swap(i, rng.below(i + 1));
        classes.swap(i, rng.below(i + 1));
    }
    let mut t = 0.0f64;
    gaps.iter()
        .zip(classes)
        .map(|(gap, priority)| {
            t += gap;
            Arrival {
                due_ns: (t * 1e9) as u64,
                study: rng.below(pool),
                priority,
            }
        })
        .collect()
}

/// Open-loop timing of one request, all in ns after the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send.
    pub due_ns: u64,
    /// When the generator actually called submit.
    pub sent_ns: u64,
    /// When the reply was in hand.
    pub reply_ns: u64,
}

impl Timing {
    /// Latency from the **due** time: a generator that falls behind
    /// charges its delay to the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        self.reply_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// How late the generator sent a request, in ms; never negative.
pub fn late_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &[Arrival]) -> Vec<u8> {
        s.iter()
            .flat_map(|a| {
                let mut b = a.due_ns.to_le_bytes().to_vec();
                b.extend((a.study as u64).to_le_bytes());
                b.push(a.priority.code());
                b
            })
            .collect()
    }

    #[test]
    fn schedule_is_byte_identical_for_a_seed_and_differs_across_seeds() {
        let a = poisson(11, 12.0, 30.0, 8);
        assert_eq!(bytes(&a), bytes(&poisson(11, 12.0, 30.0, 8)));
        assert_ne!(bytes(&a), bytes(&poisson(12, 12.0, 30.0, 8)));
    }

    #[test]
    fn schedule_has_the_rate_and_the_class_mix() {
        let s = poisson(3, 100.0, 100.0, 8);
        assert_eq!(s.len(), 10_000);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(s.iter().all(|a| a.study < 8));
        // The gaps sum to the phase length within the quantile error.
        let end_s = s[s.len() - 1].due_ns as f64 / 1e9;
        assert!((end_s - 100.0).abs() < 0.1, "last arrival at {end_s} s");
        let count = |p| s.iter().filter(|a| a.priority == p).count();
        assert_eq!(
            (
                count(Priority::Stat),
                count(Priority::Urgent),
                count(Priority::Routine)
            ),
            (1000, 3000, 6000)
        );
        // Exponential gaps: about 1 - 1/e of them are below the mean.
        let short = s
            .windows(2)
            .filter(|w| w[1].due_ns - w[0].due_ns < 10_000_000)
            .count();
        assert!((6200..6450).contains(&short), "{short} gaps below the mean");
    }

    #[test]
    fn latency_counts_from_due_time_when_the_generator_is_late() {
        // Due at 10 ms, sent 30 ms late, served in 5 ms.
        let t = Timing {
            due_ns: 10_000_000,
            sent_ns: 40_000_000,
            reply_ns: 45_000_000,
        };
        assert_eq!(t.latency_ms(), 35.0);
        assert_eq!(late_ms(t.due_ns, t.sent_ns), 30.0);
        // An early send (clock skew) is not negative lateness.
        let early = Timing {
            due_ns: 10_000_000,
            sent_ns: 9_000_000,
            reply_ns: 12_000_000,
        };
        assert_eq!(late_ms(early.due_ns, early.sent_ns), 0.0);
        assert_eq!(early.latency_ms(), 2.0);
    }
}
