//! Layer modules: thin structs owning parameters, with a `forward` that
//! records ops on a [`Graph`].
//!
//! Networks (DDnet, the 3D classifier, the CNN segmenter) are hand-wired
//! from these in `cc19-ddnet` and `cc19-analysis`.

use std::cell::RefCell;
use std::rc::Rc;

use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::rng::Xorshift;
use cc19_tensor::{Tensor, TensorError};

use crate::graph::{BnMode, Graph, Var};
use crate::init::Init;
use crate::param::{Param, ParamRef, ParamStore};
use crate::Result;

/// 2D convolution layer.
pub struct Conv2d {
    /// Weight `(Cout, Cin, K, K)`.
    pub weight: ParamRef,
    /// Optional bias `(Cout,)`.
    pub bias: Option<ParamRef>,
    /// Stride / padding.
    pub spec: Conv2dSpec,
}

impl Conv2d {
    /// Create and register parameters. `kernel` is the square kernel
    /// extent.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kernel: usize,
        spec: Conv2dSpec,
        init: Init,
        rng: &mut Xorshift,
    ) -> Self {
        let weight = store.register(Param::new(
            format!("{name}.weight"),
            init.build([cout, cin, kernel, kernel], rng),
        ));
        let bias = Some(store.register(Param::new(format!("{name}.bias"), Tensor::zeros([cout]))));
        Conv2d { weight, bias, spec }
    }

    /// Record the forward op.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Result<Var> {
        let w = g.param(&self.weight);
        let b = self.bias.as_ref().map(|b| g.param(b));
        g.conv2d(x, w, b, self.spec)
    }
}

/// 2D transposed-convolution ("deconvolution") layer.
pub struct ConvTranspose2d {
    /// Weight `(Cin, Cout, K, K)`.
    pub weight: ParamRef,
    /// Optional bias `(Cout,)`.
    pub bias: Option<ParamRef>,
    /// Stride / padding.
    pub spec: Conv2dSpec,
}

impl ConvTranspose2d {
    /// Create and register parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kernel: usize,
        spec: Conv2dSpec,
        init: Init,
        rng: &mut Xorshift,
    ) -> Self {
        let weight = store.register(Param::new(
            format!("{name}.weight"),
            init.build([cin, cout, kernel, kernel], rng),
        ));
        let bias = Some(store.register(Param::new(format!("{name}.bias"), Tensor::zeros([cout]))));
        ConvTranspose2d { weight, bias, spec }
    }

    /// Record the forward op.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Result<Var> {
        let w = g.param(&self.weight);
        let b = self.bias.as_ref().map(|b| g.param(b));
        g.conv_transpose2d(x, w, b, self.spec)
    }
}

/// 3D convolution layer.
pub struct Conv3d {
    /// Weight `(Cout, Cin, K, K, K)`.
    pub weight: ParamRef,
    /// Optional bias `(Cout,)`.
    pub bias: Option<ParamRef>,
    /// Stride / padding.
    pub spec: Conv2dSpec,
}

impl Conv3d {
    /// Create and register parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kernel: usize,
        spec: Conv2dSpec,
        init: Init,
        rng: &mut Xorshift,
    ) -> Self {
        let weight = store.register(Param::new(
            format!("{name}.weight"),
            init.build([cout, cin, kernel, kernel, kernel], rng),
        ));
        let bias = Some(store.register(Param::new(format!("{name}.bias"), Tensor::zeros([cout]))));
        Conv3d { weight, bias, spec }
    }

    /// Record the forward op.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Result<Var> {
        let w = g.param(&self.weight);
        let b = self.bias.as_ref().map(|b| g.param(b));
        g.conv3d(x, w, b, self.spec)
    }
}

/// Channel-wise batch normalization (works for both NCHW and NCDHW).
pub struct BatchNorm {
    /// Scale parameter.
    pub gamma: ParamRef,
    /// Shift parameter.
    pub beta: ParamRef,
    /// Epsilon added to the variance.
    pub eps: f32,
    /// Running-stat update rate.
    pub momentum: f32,
    /// Running statistics, shared with the inference plans that read
    /// them at run time.
    pub(crate) running: Rc<RefCell<Running>>,
    /// False until the first training batch: the first batch's statistics
    /// seed the running stats directly, so eval mode is usable after even
    /// a single step (important for the short scaled training runs).
    warmed_up: std::cell::Cell<bool>,
}

/// A [`BatchNorm`] layer's running per-channel statistics.
#[derive(Debug, Clone)]
pub(crate) struct Running {
    pub(crate) mean: Vec<f32>,
    pub(crate) var: Vec<f32>,
}

/// How a [`BatchNorm`] layer computes its statistics in `forward_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BnForward {
    /// Batch statistics; running stats updated (training).
    Train,
    /// Each sample's own statistics ([`BnMode::Instance`]); running stats
    /// untouched. The standard inference mode for image-restoration
    /// networks, where small-batch running statistics are too noisy
    /// (instance-norm behaviour).
    InstanceEval,
    /// Running statistics (classic eval).
    RunningEval,
}

impl BatchNorm {
    /// Create with unit gamma / zero beta and fresh running stats.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Self {
        let gamma = store.register(Param::new(format!("{name}.gamma"), Tensor::ones([channels])));
        let beta = store.register(Param::new(format!("{name}.beta"), Tensor::zeros([channels])));
        BatchNorm {
            gamma,
            beta,
            eps: 1e-5,
            momentum: 0.1,
            running: Rc::new(RefCell::new(Running { mean: vec![0.0; channels], var: vec![1.0; channels] })),
            warmed_up: std::cell::Cell::new(false),
        }
    }

    /// Record the forward op. In training mode the running statistics are
    /// updated as a side effect.
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool) -> Result<Var> {
        self.forward_with(g, x, if training { BnForward::Train } else { BnForward::RunningEval })
    }

    /// Record the forward op with an explicit statistics mode.
    pub fn forward_with(&self, g: &mut Graph, x: Var, mode: BnForward) -> Result<Var> {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        match mode {
            BnForward::Train => {
                let (y, mean, var) = g.batch_norm(x, gamma, beta, self.eps, BnMode::Train)?;
                let mut running = self.running.borrow_mut();
                let momentum = if self.warmed_up.get() { self.momentum } else { 1.0 };
                self.warmed_up.set(true);
                for (r, &m) in running.mean.iter_mut().zip(&mean) {
                    *r = (1.0 - momentum) * *r + momentum * m;
                }
                for (r, &v) in running.var.iter_mut().zip(&var) {
                    *r = (1.0 - momentum) * *r + momentum * v;
                }
                Ok(y)
            }
            BnForward::InstanceEval | BnForward::RunningEval => {
                let (y, _, _) = g.batch_norm(x, gamma, beta, self.eps, self.eval_mode(mode)?)?;
                Ok(y)
            }
        }
    }

    fn eval_mode(&self, mode: BnForward) -> Result<BnMode> {
        match mode {
            BnForward::Train => Err(TensorError::Incompatible(
                "BatchNorm: BnForward::Train is not an inference mode".into(),
            )),
            BnForward::InstanceEval => Ok(BnMode::Instance),
            BnForward::RunningEval => {
                let running = self.running.borrow();
                Ok(BnMode::Eval { mean: running.mean.clone(), var: running.var.clone() })
            }
        }
    }

    /// Number of channels normalised.
    pub fn channels(&self) -> usize {
        self.gamma.borrow().value.numel()
    }

    /// Snapshot of the running mean (tests / checkpoints).
    pub fn running_mean(&self) -> Vec<f32> {
        self.running.borrow().mean.clone()
    }

    /// Snapshot of the running variance.
    pub fn running_var(&self) -> Vec<f32> {
        self.running.borrow().var.clone()
    }

    /// Overwrite running statistics (checkpoint restore).
    pub fn set_running_stats(&self, mean: Vec<f32>, var: Vec<f32>) {
        *self.running.borrow_mut() = Running { mean, var };
        self.warmed_up.set(true);
    }
}

/// Fully-connected layer `(N, in) -> (N, out)`.
pub struct Linear {
    /// Weight `(in, out)`.
    pub weight: ParamRef,
    /// Bias `(out,)`.
    pub bias: ParamRef,
}

impl Linear {
    /// Create and register parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim_in: usize,
        dim_out: usize,
        init: Init,
        rng: &mut Xorshift,
    ) -> Self {
        let weight =
            store.register(Param::new(format!("{name}.weight"), init.build([dim_in, dim_out], rng)));
        let bias = store.register(Param::new(format!("{name}.bias"), Tensor::zeros([dim_out])));
        Linear { weight, bias }
    }

    /// Record the forward op.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Result<Var> {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        g.linear(x, w, Some(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn conv2d_layer_trains_toward_identity() {
        // Teach a 1x1 conv to copy its input (w -> 1, b -> 0).
        let mut rng = Xorshift::new(1);
        let mut store = ParamStore::new();
        let layer = Conv2d::new(
            &mut store,
            "c",
            1,
            1,
            1,
            Conv2dSpec::default(),
            Init::Gaussian(0.1),
            &mut rng,
        );
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::INFINITY;
        for step in 0..150 {
            let x = rng.uniform_tensor([2, 1, 6, 6], -1.0, 1.0);
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = layer.forward(&mut g, xv).unwrap();
            let t = g.input(x);
            let loss = g.mse_loss(y, t).unwrap();
            final_loss = g.value(loss).item().unwrap();
            store.zero_grad();
            g.backward(loss);
            opt.step(&store);
            let _ = step;
        }
        assert!(final_loss < 1e-3, "loss {final_loss}");
        let w = layer.weight.borrow().value.data()[0];
        assert!((w - 1.0).abs() < 0.1, "w {w}");
    }

    #[test]
    fn batch_norm_running_stats_track_input() {
        let mut rng = Xorshift::new(2);
        let mut store = ParamStore::new();
        let bn = BatchNorm::new(&mut store, "bn", 2);
        // Feed inputs with channel means ~ (5, -5)
        for _ in 0..50 {
            let mut x = rng.normal_tensor([4, 2, 4, 4], 0.0, 1.0);
            for n in 0..4 {
                for y in 0..4 {
                    for xx in 0..4 {
                        let v0 = x.at(&[n, 0, y, xx]) + 5.0;
                        x.set(&[n, 0, y, xx], v0);
                        let v1 = x.at(&[n, 1, y, xx]) - 5.0;
                        x.set(&[n, 1, y, xx], v1);
                    }
                }
            }
            let mut g = Graph::new();
            let xv = g.input(x);
            bn.forward(&mut g, xv, true).unwrap();
        }
        let rm = bn.running_mean();
        assert!((rm[0] - 5.0).abs() < 0.5, "running mean {rm:?}");
        assert!((rm[1] + 5.0).abs() < 0.5, "running mean {rm:?}");
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let bn = BatchNorm::new(&mut store, "bn", 1);
        bn.set_running_stats(vec![10.0], vec![4.0]);
        let x = Tensor::full([1, 1, 2, 2], 12.0);
        let mut g = Graph::new();
        let xv = g.input(x);
        let y = bn.forward(&mut g, xv, false).unwrap();
        // (12 - 10)/2 = 1
        for &v in g.value(y).data() {
            assert!((v - 1.0).abs() < 1e-3, "v {v}");
        }
    }

    #[test]
    fn linear_layer_learns_linear_map() {
        let mut rng = Xorshift::new(3);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 3, 1, Init::Gaussian(0.1), &mut rng);
        let mut opt = Adam::new(0.05);
        // target: y = 2*x0 - x1 + 0.5*x2 + 1
        let mut final_loss = f32::INFINITY;
        for _ in 0..300 {
            let x = rng.uniform_tensor([8, 3], -1.0, 1.0);
            let mut t = Tensor::zeros([8, 1]);
            for i in 0..8 {
                let v = 2.0 * x.at(&[i, 0]) - x.at(&[i, 1]) + 0.5 * x.at(&[i, 2]) + 1.0;
                t.set(&[i, 0], v);
            }
            let mut g = Graph::new();
            let xv = g.input(x);
            let y = lin.forward(&mut g, xv).unwrap();
            let tv = g.input(t);
            let loss = g.mse_loss(y, tv).unwrap();
            final_loss = g.value(loss).item().unwrap();
            store.zero_grad();
            g.backward(loss);
            opt.step(&store);
        }
        assert!(final_loss < 1e-3, "loss {final_loss}");
        let w = lin.weight.borrow().value.clone();
        assert!((w.at(&[0, 0]) - 2.0).abs() < 0.1);
        assert!((w.at(&[1, 0]) + 1.0).abs() < 0.1);
        assert!((lin.bias.borrow().value.data()[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn conv_transpose_layer_shapes() {
        let mut rng = Xorshift::new(4);
        let mut store = ParamStore::new();
        let deconv = ConvTranspose2d::new(
            &mut store,
            "d",
            4,
            2,
            5,
            Conv2dSpec { stride: 1, padding: 2 },
            Init::PaperGaussian,
            &mut rng,
        );
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 4, 16, 16]));
        let y = deconv.forward(&mut g, x).unwrap();
        // stride 1, kernel 5, padding 2 preserves the extent (Table 2 rows)
        assert_eq!(g.value(y).dims(), &[1, 2, 16, 16]);
    }

    #[test]
    fn conv3d_layer_shapes() {
        let mut rng = Xorshift::new(5);
        let mut store = ParamStore::new();
        let conv = Conv3d::new(
            &mut store,
            "c3",
            1,
            8,
            3,
            Conv2dSpec { stride: 1, padding: 1 },
            Init::KaimingLeaky { negative_slope: 0.0 },
            &mut rng,
        );
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 1, 8, 16, 16]));
        let y = conv.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 8, 8, 16, 16]);
        assert_eq!(store.len(), 2);
    }
}
