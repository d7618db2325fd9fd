//! Deterministic fault injection for the distributed transport.
//!
//! A [`FaultPlan`] is a pure function from `(seed, edge, sequence number,
//! ring generation)` to a set of fault actions, so a failing chaos run
//! reproduces exactly from its seed (`CC19_FAULT_SEED` pins it in CI).
//! Faults model an unreliable wire under the reliability layer in
//! [`crate::link`]:
//!
//! - **drop** — the frame never reaches the receiver's queue (the
//!   sender-side retransmit buffer still holds it);
//! - **delay** — the frame is enqueued late;
//! - **duplicate** — the frame is enqueued twice;
//! - **corrupt** — the enqueued copy has a payload bit flipped (caught by
//!   the frame CRC, recovered via retransmit);
//! - **kill** — a rank stops participating entirely at a given step,
//!   exercising failure detection and ring rebuild.

/// What happens to one frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Never enqueue the frame.
    Drop,
    /// Enqueue after sleeping this many milliseconds.
    Delay(u64),
    /// Enqueue the frame twice.
    Duplicate,
    /// Flip one payload bit in the enqueued copy.
    Corrupt,
}

/// Fault probabilities (per frame) and the optional rank kill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is dropped on the wire.
    pub p_drop: f64,
    /// Probability a frame is delayed.
    pub p_delay: f64,
    /// Maximum injected delay in milliseconds.
    pub delay_ms_max: u64,
    /// Probability a frame is duplicated.
    pub p_duplicate: f64,
    /// Probability a frame payload is corrupted.
    pub p_corrupt: f64,
    /// Kill `(rank, at_step)`: the rank exits before computing that
    /// global step, without telling anyone.
    pub kill: Option<(usize, usize)>,
}

impl FaultConfig {
    /// No faults at all.
    pub fn clean() -> Self {
        FaultConfig {
            p_drop: 0.0,
            p_delay: 0.0,
            delay_ms_max: 0,
            p_duplicate: 0.0,
            p_corrupt: 0.0,
            kill: None,
        }
    }

    /// A lively mix of message-level faults (no kill) for chaos tests.
    pub fn noisy() -> Self {
        FaultConfig {
            p_drop: 0.05,
            p_delay: 0.05,
            delay_ms_max: 3,
            p_duplicate: 0.05,
            p_corrupt: 0.03,
            kill: None,
        }
    }
}

/// Seeded, deterministic fault injector shared by every rank of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

/// splitmix64 — a tiny, well-mixed hash/PRNG step. This is the one hash
/// the whole fault/jitter/ring machinery keys off: the serve cluster's
/// consistent-hash ring and the transport's jittered backoff reuse it so
/// every "random" choice in a chaos run derives from one seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn splitmix64(x: u64) -> u64 {
    mix64(x)
}

/// Map a hash to a uniform f64 in [0, 1).
pub fn unit01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn unit(h: u64) -> f64 {
    unit01(h)
}

impl FaultPlan {
    /// A plan that injects nothing (the default transport behaviour).
    pub fn none() -> Self {
        FaultPlan { seed: 0, cfg: FaultConfig::clean() }
    }

    /// A seeded plan with the given fault mix.
    pub fn seeded(seed: u64, cfg: FaultConfig) -> Self {
        FaultPlan { seed, cfg }
    }

    /// Build a plan whose seed comes from `CC19_FAULT_SEED` when set
    /// (CI pins it so chaos failures reproduce), else `default_seed`.
    pub fn from_env(default_seed: u64, cfg: FaultConfig) -> Self {
        let seed = std::env::var("CC19_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(default_seed);
        FaultPlan::seeded(seed, cfg)
    }

    /// The seed this plan runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured fault mix.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any message-level fault has non-zero probability.
    pub fn is_active(&self) -> bool {
        let c = &self.cfg;
        c.p_drop > 0.0 || c.p_delay > 0.0 || c.p_duplicate > 0.0 || c.p_corrupt > 0.0
    }

    /// The step at which `rank` is killed, if this plan kills it.
    pub fn kill_step(&self, rank: usize) -> Option<usize> {
        match self.cfg.kill {
            Some((r, step)) if r == rank => Some(step),
            _ => None,
        }
    }

    /// Decide the faults for one frame, keyed by the directed edge, the
    /// frame's sequence number, and the ring generation. Pure: the same
    /// inputs always produce the same actions.
    pub fn decide(&self, src: usize, dst: usize, seq: u64, generation: u64) -> Vec<FaultKind> {
        if !self.is_active() {
            return Vec::new();
        }
        let base = splitmix64(
            self.seed
                ^ splitmix64((src as u64) << 40 | (dst as u64) << 20 | generation)
                ^ splitmix64(seq.wrapping_mul(0xA24B_AED4_963E_E407)),
        );
        let mut out = Vec::new();
        // Independent draws per fault class from decorrelated lanes.
        let d = |lane: u64| unit(splitmix64(base ^ lane));
        if d(1) < self.cfg.p_drop {
            out.push(FaultKind::Drop);
            // A dropped frame can't also be delayed/duplicated/corrupted.
            return out;
        }
        if d(2) < self.cfg.p_delay && self.cfg.delay_ms_max > 0 {
            let ms = 1 + splitmix64(base ^ 3) % self.cfg.delay_ms_max;
            out.push(FaultKind::Delay(ms));
        }
        if d(4) < self.cfg.p_duplicate {
            out.push(FaultKind::Duplicate);
        }
        if d(5) < self.cfg.p_corrupt {
            out.push(FaultKind::Corrupt);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_injects_nothing() {
        let p = FaultPlan::none();
        for seq in 0..100 {
            assert!(p.decide(0, 1, seq, 0).is_empty());
        }
        assert_eq!(p.kill_step(0), None);
    }

    #[test]
    fn decisions_are_deterministic() {
        let cfg = FaultConfig::noisy();
        let a = FaultPlan::seeded(77, cfg);
        let b = FaultPlan::seeded(77, cfg);
        for seq in 0..200 {
            assert_eq!(a.decide(1, 2, seq, 0), b.decide(1, 2, seq, 0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig { p_drop: 0.5, ..FaultConfig::clean() };
        let a = FaultPlan::seeded(1, cfg);
        let b = FaultPlan::seeded(2, cfg);
        let diff = (0..512)
            .filter(|&seq| a.decide(0, 1, seq, 0) != b.decide(0, 1, seq, 0))
            .count();
        assert!(diff > 50, "only {diff}/512 decisions differ");
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let cfg = FaultConfig { p_drop: 0.25, ..FaultConfig::clean() };
        let p = FaultPlan::seeded(9, cfg);
        let drops = (0..4000)
            .filter(|&seq| p.decide(0, 1, seq, 0).contains(&FaultKind::Drop))
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn kill_only_hits_configured_rank() {
        let cfg = FaultConfig { kill: Some((2, 7)), ..FaultConfig::clean() };
        let p = FaultPlan::seeded(1, cfg);
        assert_eq!(p.kill_step(2), Some(7));
        assert_eq!(p.kill_step(0), None);
        assert_eq!(p.kill_step(1), None);
    }

    #[test]
    fn env_seed_overrides_default() {
        // Serialize with other env-reading tests via a unique var usage.
        std::env::set_var("CC19_FAULT_SEED", "4242");
        let p = FaultPlan::from_env(7, FaultConfig::clean());
        assert_eq!(p.seed(), 4242);
        std::env::remove_var("CC19_FAULT_SEED");
        let p = FaultPlan::from_env(7, FaultConfig::clean());
        assert_eq!(p.seed(), 7);
    }
}
