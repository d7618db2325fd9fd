//! DDnet on the kernel ladder, timed per kernel class — the measured rows
//! of Tables 4, 5 and 7 (§4.2, §5.1.3).
//!
//! [`Ladder`] is the third executor of `Ddnet::run` (DESIGN.md §8): its
//! convolutions and deconvolutions run the kernel ladder at one
//! [`OptLevel`], and every other op is [`Eval`]'s. So
//! `Ddnet::enhance_timed` times the network `Ddnet::enhance` serves, split
//! as Table 5 splits it: convolution, deconvolution, and everything else
//! (batch norm, activation, pooling, un-pooling, concatenation, the
//! residual add).

use std::rc::Rc;
use std::time::Duration;

use cc19_kernels::OptLevel;
use cc19_nn::exec::{conv2d_ladder, deconv_gather, Eval, Exec};
use cc19_nn::layers::{BatchNorm, Conv2d, Conv3d, ConvTranspose2d, Linear};
use cc19_tensor::pool::PoolSpec;
use cc19_tensor::Tensor;

use crate::Result;

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
}

/// Runs 2D convolutions and deconvolutions on the kernel ladder at
/// `level`, one sample at a time, and every other op on `eval`, timing
/// each op into `times`.
pub(crate) struct Ladder {
    /// Ladder stage of the convolutions and deconvolutions.
    pub(crate) level: OptLevel,
    /// Executor of every other op.
    pub(crate) eval: Eval,
    /// Time accumulated so far.
    pub(crate) times: KernelTimes,
}

/// Run `op`, adding its duration to `into`, read on the global registry's
/// clock (`cc19_obs::global_clock()`).
fn timed<T>(into: &mut Duration, op: impl FnOnce() -> T) -> T {
    let clock = cc19_obs::global();
    let t0 = clock.now_ns();
    let y = op();
    *into += Duration::from_nanos(clock.now_ns().saturating_sub(t0));
    y
}

/// [`Exec`] methods that run [`Eval`]'s op, timed as "other".
macro_rules! other {
    ($($op:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
        fn $op(&mut self, $($arg: $ty),*) -> $ret {
            timed(&mut self.times.other, || self.eval.$op($($arg),*))
        }
    )*};
}

impl Exec for Ladder {
    type V = Rc<Tensor>;

    fn conv(&mut self, layer: &Conv2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let (w, b) = (layer.weight.borrow(), layer.bias.as_ref().map(|b| b.borrow()));
        let level = self.level;
        let y = timed(&mut self.times.conv, || {
            conv2d_ladder(level, &x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)
        })?;
        Ok(Rc::new(y))
    }

    fn deconv(&mut self, layer: &ConvTranspose2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let (w, b) = (layer.weight.borrow(), layer.bias.as_ref().map(|b| b.borrow()));
        let level = self.level;
        let y = timed(&mut self.times.deconv, || {
            deconv_gather(level, &x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)
        })?;
        Ok(Rc::new(y))
    }

    // DDnet has no 3D convolution, global pool or linear layer; they
    // are here for the trait.
    other! {
        conv3d(layer: &Conv3d, x: Rc<Tensor>) -> Result<Rc<Tensor>>;
        batch_norm(layer: &BatchNorm, x: Rc<Tensor>) -> Result<Rc<Tensor>>;
        leaky_relu(x: Rc<Tensor>, slope: f32) -> Rc<Tensor>;
        max_pool(x: Rc<Tensor>, spec: PoolSpec) -> Result<Rc<Tensor>>;
        max_pool3d(x: Rc<Tensor>, spec: PoolSpec) -> Result<Rc<Tensor>>;
        global_avg_pool(x: Rc<Tensor>) -> Result<Rc<Tensor>>;
        linear(layer: &Linear, x: Rc<Tensor>) -> Result<Rc<Tensor>>;
        upsample(x: Rc<Tensor>, scale: usize) -> Result<Rc<Tensor>>;
        concat(a: Rc<Tensor>, b: Rc<Tensor>) -> Result<Rc<Tensor>>;
        add(a: Rc<Tensor>, b: Rc<Tensor>) -> Result<Rc<Tensor>>;
    }
}

#[cfg(test)]
mod tests {
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
