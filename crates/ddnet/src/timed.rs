//! DDnet on the kernel ladder, timed per kernel class — the measured rows
//! of Tables 4, 5 and 7 (§4.2, §5.1.3).
//!
//! `Ddnet::enhance_timed` compiles the network `Ddnet::enhance` serves
//! into an inference plan whose convolutions and deconvolutions run the
//! kernel ladder at one [`OptLevel`](cc19_kernels::OptLevel)
//! (DESIGN.md §8), times each op of the plan, and sums the times here as
//! Table 5 splits them: convolution, deconvolution, and everything else
//! (batch norm, activation, pooling, un-pooling, the residual add;
//! concatenation is a view and takes no time).

use std::time::Duration;

use cc19_nn::plan::OpClass;

/// Accumulated per-kernel-class execution time (Table 5's columns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTimes {
    /// Convolution kernels.
    pub conv: Duration,
    /// Deconvolution kernels.
    pub deconv: Duration,
    /// Everything else.
    pub other: Duration,
}

impl KernelTimes {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.conv + self.deconv + self.other
    }

    /// The sum of per-op nanoseconds by kernel class.
    pub(crate) fn of(ops: impl Iterator<Item = (OpClass, u64)>) -> KernelTimes {
        let mut t = KernelTimes::default();
        for (class, ns) in ops {
            let slot = match class {
                OpClass::Conv => &mut t.conv,
                OpClass::Deconv => &mut t.deconv,
                OpClass::Other => &mut t.other,
            };
            *slot += Duration::from_nanos(ns);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use cc19_kernels::OptLevel;
    use cc19_tensor::rng::Xorshift;

    use super::*;
    use crate::model::tests::{deviation, nudged};
    use crate::{Ddnet, DdnetConfig};

    fn times(net: &Ddnet, n: usize, level: OptLevel) -> KernelTimes {
        net.enhance_timed(&Xorshift::new(3).uniform_tensor([n, n], 0.0, 1.0), level).unwrap().1
    }

    #[test]
    fn enhance_timed_matches_enhance() {
        for (name, cfg) in [("tiny", DdnetConfig::tiny()), ("paper", DdnetConfig::paper())] {
            let net = nudged(cfg, 41);
            for n in [32usize, 64] {
                let img = Xorshift::new(42).uniform_tensor([n, n], 0.0, 1.0);
                let want = net.enhance(&img).unwrap();
                for level in OptLevel::ALL {
                    let (got, t) = net.enhance_timed(&img, level).unwrap();
                    // the envelope of `evaluator_matches_the_graph_forward`
                    let (abs, rel, scale) = deviation(&got, &want);
                    let at = format!("{name} {n}² {level:?}: max-abs {abs:e}, max-rel {rel:e}, {t:?}");
                    assert!(abs <= 1e-5 * scale.max(1.0) && rel <= 1e-5, "{at}");
                    assert!([t.conv, t.deconv, t.other].iter().all(|d| !d.is_zero()), "{at}");
                }
            }
        }
    }

    #[test]
    fn runs_and_reports_times() {
        let t = times(&Ddnet::new(DdnetConfig::paper(), 1), 64, OptLevel::RefactoredPrefetchUnrolled);
        assert!([t.conv, t.deconv, t.other].iter().all(|d| !d.is_zero()), "{t:?}");
        assert_eq!(t.total(), t.conv + t.deconv + t.other);
    }

    #[test]
    fn refactoring_speeds_up_deconvolution() {
        // The paper's headline kernel result (§4.2.1 / Table 7): the
        // gather rewrite makes deconvolution dramatically faster. At 128²
        // the effect is already unambiguous.
        let net = Ddnet::new(DdnetConfig::paper(), 2);
        let (base, refd) = (times(&net, 128, OptLevel::Baseline), times(&net, 128, OptLevel::Refactored));
        assert!(refd.deconv < base.deconv, "REF should cut deconv time: {:?} vs {:?}", refd.deconv, base.deconv);
    }

    #[test]
    fn all_levels_complete_at_all_sizes() {
        let net = Ddnet::new(DdnetConfig::paper(), 3);
        for level in OptLevel::ALL {
            assert!(!times(&net, 32, level).total().is_zero(), "{level:?}");
        }
    }
}
