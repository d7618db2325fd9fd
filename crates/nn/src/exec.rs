//! The two executors every network forward runs on (DESIGN.md §8).
//!
//! DDnet (`Ddnet::run`) and the 3D classifier (`DenseNet3d::run`) are each
//! written once against [`Exec`], the ops the two networks use. [`Tape`]
//! records them on an autograd [`Graph`] — training, validation and the
//! public `forward` methods. [`Eval`] runs them with no tape on
//! reference-counted tensors — `Ddnet::enhance` and
//! `DenseNet3d::predict_proba` — so each activation is freed when its
//! last handle drops, a uniquely held one is normalised / activated in
//! place, and parameters are borrowed rather than cloned per call.
//!
//! The evaluator's 2D convolutions stay on `conv2d_dispatch` under
//! [`ConvBackend::Auto`]'s shape-aware choice; its deconvolutions
//! ([`deconv_gather`]) and 3D convolutions ([`conv3d_taps`]) run the
//! kernel ladder's microkernels.
//! [`conv2d_ladder`] and [`deconv_gather`] take the ladder stage, so
//! `cc19_ddnet`'s timed executor can run DDnet at any of them.

use std::rc::Rc;

use cc19_kernels::conv::{conv2d_with, conv3d_with, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{self, deconv2d_with};
use cc19_kernels::{simd, OptLevel};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::conv_backend::{conv2d_dispatch, ConvBackend};
use cc19_tensor::pool::{global_avg_pool, max_pool2d, max_pool3d, PoolSpec};
use cc19_tensor::resize::upsample_bilinear2d;
use cc19_tensor::{obs, ops, Tensor, TensorError};

use crate::graph::{linear_forward, Graph, Var};
use crate::layers::{BatchNorm, BnForward, Conv2d, Conv3d, ConvTranspose2d, Linear};
use crate::Result;

/// The ops the networks' forwards are written in. Values are passed by
/// value so an executor can reuse a buffer nobody else holds.
pub trait Exec {
    /// An activation handle.
    type V: Clone;
    /// 2D convolution.
    fn conv(&mut self, layer: &Conv2d, x: Self::V) -> Result<Self::V>;
    /// 2D transposed convolution.
    fn deconv(&mut self, layer: &ConvTranspose2d, x: Self::V) -> Result<Self::V>;
    /// 3D convolution.
    fn conv3d(&mut self, layer: &Conv3d, x: Self::V) -> Result<Self::V>;
    /// Batch normalisation in the executor's statistics mode.
    fn batch_norm(&mut self, layer: &BatchNorm, x: Self::V) -> Result<Self::V>;
    /// Leaky-ReLU.
    fn leaky_relu(&mut self, x: Self::V, slope: f32) -> Self::V;
    /// 2D max pooling.
    fn max_pool(&mut self, x: Self::V, spec: PoolSpec) -> Result<Self::V>;
    /// 3D max pooling.
    fn max_pool3d(&mut self, x: Self::V, spec: PoolSpec) -> Result<Self::V>;
    /// Global average pool `(N, C, ...) -> (N, C)`.
    fn global_avg_pool(&mut self, x: Self::V) -> Result<Self::V>;
    /// Fully-connected layer.
    fn linear(&mut self, layer: &Linear, x: Self::V) -> Result<Self::V>;
    /// Bilinear ×`scale` upsampling.
    fn upsample(&mut self, x: Self::V, scale: usize) -> Result<Self::V>;
    /// Channel concatenation `[a, b]`.
    fn concat(&mut self, a: Self::V, b: Self::V) -> Result<Self::V>;
    /// Elementwise sum.
    fn add(&mut self, a: Self::V, b: Self::V) -> Result<Self::V>;
}

/// Records every op on an autograd tape.
pub struct Tape<'g> {
    /// The tape.
    pub g: &'g mut Graph,
    /// Batch-norm statistics mode.
    pub bn: BnForward,
}

impl Exec for Tape<'_> {
    type V = Var;

    fn conv(&mut self, layer: &Conv2d, x: Var) -> Result<Var> {
        layer.forward(self.g, x)
    }

    fn deconv(&mut self, layer: &ConvTranspose2d, x: Var) -> Result<Var> {
        layer.forward(self.g, x)
    }

    fn conv3d(&mut self, layer: &Conv3d, x: Var) -> Result<Var> {
        layer.forward(self.g, x)
    }

    fn batch_norm(&mut self, layer: &BatchNorm, x: Var) -> Result<Var> {
        layer.forward_with(self.g, x, self.bn)
    }

    fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        self.g.leaky_relu(x, slope)
    }

    fn max_pool(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        self.g.max_pool2d(x, spec)
    }

    fn max_pool3d(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        self.g.max_pool3d(x, spec)
    }

    fn global_avg_pool(&mut self, x: Var) -> Result<Var> {
        self.g.global_avg_pool(x)
    }

    fn linear(&mut self, layer: &Linear, x: Var) -> Result<Var> {
        layer.forward(self.g, x)
    }

    fn upsample(&mut self, x: Var, scale: usize) -> Result<Var> {
        self.g.upsample_bilinear2d(x, scale)
    }

    fn concat(&mut self, a: Var, b: Var) -> Result<Var> {
        self.g.concat_channels(&[a, b])
    }

    fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.g.add(a, b)
    }
}

/// Tape-free inference on reference-counted tensors.
pub struct Eval {
    /// Batch-norm statistics mode (an eval mode).
    pub bn: BnForward,
}

/// The tensor behind `x`, without a copy when `x` is its only handle.
pub fn owned(x: Rc<Tensor>) -> Tensor {
    Rc::try_unwrap(x).unwrap_or_else(|shared| (*shared).clone())
}

impl Exec for Eval {
    type V = Rc<Tensor>;

    fn conv(&mut self, layer: &Conv2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let w = layer.weight.borrow();
        let b = layer.bias.as_ref().map(|b| b.borrow());
        let y = conv2d_dispatch(ConvBackend::Auto, &x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)?;
        Ok(Rc::new(y))
    }

    fn deconv(&mut self, layer: &ConvTranspose2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let w = layer.weight.borrow();
        let b = layer.bias.as_ref().map(|b| b.borrow());
        Ok(Rc::new(deconv_gather(LADDER_LEVEL, &x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)?))
    }

    fn conv3d(&mut self, layer: &Conv3d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let w = layer.weight.borrow();
        let b = layer.bias.as_ref().map(|b| b.borrow());
        Ok(Rc::new(conv3d_taps(&x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)?))
    }

    fn batch_norm(&mut self, layer: &BatchNorm, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let mut y = owned(x);
        layer.infer(&mut y, self.bn)?;
        Ok(Rc::new(y))
    }

    fn leaky_relu(&mut self, x: Rc<Tensor>, slope: f32) -> Rc<Tensor> {
        let mut y = owned(x);
        // `ops::leaky_relu`'s map, in place.
        for v in y.data_mut() {
            if *v < 0.0 {
                *v *= slope;
            }
        }
        Rc::new(y)
    }

    fn max_pool(&mut self, x: Rc<Tensor>, spec: PoolSpec) -> Result<Rc<Tensor>> {
        Ok(Rc::new(max_pool2d(&x, spec)?.0))
    }

    fn max_pool3d(&mut self, x: Rc<Tensor>, spec: PoolSpec) -> Result<Rc<Tensor>> {
        Ok(Rc::new(max_pool3d(&x, spec)?.0))
    }

    fn global_avg_pool(&mut self, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        Ok(Rc::new(global_avg_pool(&x)?))
    }

    fn linear(&mut self, layer: &Linear, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let (w, b) = (layer.weight.borrow(), layer.bias.borrow());
        Ok(Rc::new(linear_forward(&x, &w.value, Some(&b.value))?))
    }

    fn upsample(&mut self, x: Rc<Tensor>, scale: usize) -> Result<Rc<Tensor>> {
        Ok(Rc::new(upsample_bilinear2d(&x, scale)?))
    }

    fn concat(&mut self, a: Rc<Tensor>, b: Rc<Tensor>) -> Result<Rc<Tensor>> {
        Ok(Rc::new(ops::concat(&[&a, &b], 1)?))
    }

    fn add(&mut self, a: Rc<Tensor>, b: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let mut y = owned(a);
        ops::axpy(1.0, &b, &mut y)?;
        Ok(Rc::new(y))
    }
}

/// The kernel-ladder stage inference deconvolutions and 3D convolutions
/// run at.
const LADDER_LEVEL: OptLevel = OptLevel::RefactoredPrefetchUnrolled;

/// `bias` as a `cout`-long slice (zeros when absent), or an `op` error.
fn bias_or_zeros<'a>(op: &str, bias: Option<&'a Tensor>, cout: usize, zeros: &'a mut Vec<f32>) -> Result<&'a [f32]> {
    match bias {
        Some(b) if b.numel() == cout => Ok(b.data()),
        Some(b) => Err(TensorError::Incompatible(format!("{op}: bias has {} elements, want {cout}", b.numel()))),
        None => {
            zeros.resize(cout, 0.0);
            Ok(zeros)
        }
    }
}

/// Run `run_sample` on each `in_len`-long sample of `x` and stack the
/// results as a `dims`-shaped tensor.
fn per_sample(x: &Tensor, in_len: usize, dims: &[usize], run_sample: impl Fn(&[f32]) -> Vec<f32>) -> Result<Tensor> {
    let mut out = Vec::new();
    for sample in x.data().chunks_exact(in_len) {
        let y = run_sample(sample);
        if out.is_empty() {
            out = y; // one sample: the kernel's buffer is the output
        } else {
            out.extend_from_slice(&y);
        }
    }
    Tensor::from_vec(dims, out)
}

/// Stride-1 2D convolution of an `(N, Cin, H, W)` batch by a square
/// weight — `(Cin, Cout, K, K)` and transposed when `deconv`, else
/// `(Cout, Cin, K, K)` — on the kernel ladder's `level` stage, one sample
/// at a time, at the host's SIMD dispatch. What the kernels cannot run is
/// an `op` error. Counted under `tensor_conv_*{op}`.
fn ladder2d(
    op: &'static str,
    deconv: bool,
    level: OptLevel,
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let bad = |m: String| Err(TensorError::Incompatible(format!("{op}: {m}")));
    let (d, wd) = (x.dims(), weight.dims());
    if d.len() != 4 || wd.len() != 4 || wd[2] != wd[3] || d.contains(&0) {
        return bad(format!("want (N,Cin,H,W) input and square 4D weight, got {d:?} and {wd:?}"));
    }
    let (cin, cout) = if deconv { (wd[0], wd[1]) } else { (wd[1], wd[0]) };
    let (k, pad, extent) = (wd[2], spec.padding, d[2].min(d[3]));
    let fits = if deconv { 2 * pad < extent + k } else { k <= extent + 2 * pad };
    if d[1] != cin || spec.stride != 1 || !fits {
        return bad(format!("input {d:?}, weight {wd:?}, {spec:?} is not a stride-1 convolution the ladder runs"));
    }
    let s = ConvShape { cin, cout, h: d[2], w: d[3], k, pad };
    let mut zeros = Vec::new();
    let bias = bias_or_zeros(op, bias, cout, &mut zeros)?;
    let (oh, ow) = if deconv { (deconv::out_h(s), deconv::out_w(s)) } else { (s.out_h(), s.out_w()) };
    // every tap meets every input pixel when transposed, every output pixel when not
    let grid = if deconv { s.h * s.w } else { oh * ow };
    let _obs = obs::conv_call(op, "fwd", 2 * obs::macs(&[d[0], cin, cout, k, k, grid]));
    let (kernel, dispatch) = (if deconv { deconv2d_with } else { conv2d_with }, simd::active());
    per_sample(x, s.in_len(), &[d[0], cout, oh, ow], |sample| kernel(level, dispatch, sample, weight.data(), bias, s))
}

/// [`ladder2d`]'s convolution, counted under `op="conv2d_ladder"`.
pub fn conv2d_ladder(level: OptLevel, x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    ladder2d("conv2d_ladder", false, level, x, weight, bias, spec)
}

/// [`ladder2d`]'s transposed convolution — from +REF on §4.2.1's gather
/// deconvolution — counted under `op="deconv2d_gather"`.
pub fn deconv_gather(level: OptLevel, x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    ladder2d("deconv2d_gather", true, level, x, weight, bias, spec)
}

/// 3D convolution of an `(N, Cin, D, H, W)` batch by a cubic
/// `(Cout, Cin, K, K, K)` weight on the kernel ladder's convolution
/// microkernel, one sample at a time, at the host's SIMD dispatch: each
/// output depth is one 2D call over its in-volume depth taps
/// ([`conv3d_with`]). Stride ≠ 1 or a non-cubic filter is a typed error.
/// Counted under `tensor_conv_*{op="conv3d_taps"}`.
pub fn conv3d_taps(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    let d = x.dims();
    if d.len() != 5 {
        return Err(TensorError::Incompatible(format!("conv3d_taps: want (N,Cin,D,H,W) input, got {d:?}")));
    }
    let s = Conv3dShape::new(&d[1..], weight.dims(), spec.stride, spec.padding)?;
    let mut zeros = Vec::new();
    let bias = bias_or_zeros("conv3d_taps", bias, s.cout, &mut zeros)?;
    let (od, oh, ow) = s.out_dhw();
    let _obs = obs::conv_call(
        "conv3d_taps",
        "fwd",
        2 * obs::macs(&[d[0], s.cout, s.cin, s.k, s.k, s.k, od, oh, ow]),
    );
    let level = simd::active();
    per_sample(x, s.in_len(), &[d[0], s.cout, od, oh, ow], |sample| {
        conv3d_with(LADDER_LEVEL, level, sample, weight.data(), bias, s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_tensor::conv::conv3d;
    use cc19_tensor::conv_backend::conv_transpose2d_dispatch;
    use cc19_tensor::rng::Xorshift;

    #[test]
    fn deconv_gather_matches_the_tensor_lowering() {
        let mut rng = Xorshift::new(11);
        for (n, k, pad) in [(1usize, 5usize, 2usize), (3, 5, 2), (2, 1, 0), (1, 3, 0)] {
            let x = rng.uniform_tensor([n, 3, 13, 10], -1.0, 1.0);
            let w = rng.uniform_tensor([3, 4, k, k], -0.5, 0.5);
            let b = rng.uniform_tensor([4], -0.2, 0.2);
            let spec = Conv2dSpec { stride: 1, padding: pad };
            let want = conv_transpose2d_dispatch(ConvBackend::Direct, &x, &w, Some(&b), spec).unwrap();
            let got = deconv_gather(LADDER_LEVEL, &x, &w, Some(&b), spec).unwrap();
            assert_eq!(got.dims(), want.dims());
            assert!(got.all_close(&want, 1e-5), "n={n} k={k}: {}", got.max_abs_diff(&want).unwrap());
            let unbiased = deconv_gather(LADDER_LEVEL, &x, &w, None, spec).unwrap();
            let want = conv_transpose2d_dispatch(ConvBackend::Direct, &x, &w, None, spec).unwrap();
            assert!(unbiased.all_close(&want, 1e-5));
        }
    }

    #[test]
    fn deconv_gather_rejects_what_the_kernel_cannot_run() {
        let x = Tensor::zeros([1, 2, 8, 8]);
        let w = Tensor::zeros([2, 3, 3, 3]);
        let strided = Conv2dSpec { stride: 2, padding: 1 };
        assert!(deconv_gather(LADDER_LEVEL, &x, &w, None, strided).is_err());
        let wrong_cin = Tensor::zeros([4, 3, 3, 3]);
        assert!(deconv_gather(LADDER_LEVEL, &x, &wrong_cin, None, Conv2dSpec::default()).is_err());
        assert!(deconv_gather(LADDER_LEVEL, &x, &w, Some(&Tensor::zeros([2])), Conv2dSpec::default()).is_err());
        assert!(deconv_gather(LADDER_LEVEL, &Tensor::zeros([2, 8, 8]), &w, None, Conv2dSpec::default()).is_err());
        // the convolution twin: (Cout, Cin, K, K) weight, filter within the padded input
        let conv = |w: &Tensor, spec| conv2d_ladder(LADDER_LEVEL, &x, w, None, spec);
        assert!(conv(&Tensor::zeros([3, 2, 3, 3]), Conv2dSpec { stride: 1, padding: 1 }).is_ok());
        assert!(conv(&Tensor::zeros([3, 2, 3, 3]), strided).is_err());
        assert!(conv(&w, Conv2dSpec::default()).is_err(), "(Cin, Cout) weight order");
        assert!(conv(&Tensor::zeros([3, 2, 9, 9]), Conv2dSpec::default()).is_err(), "filter past the input");
    }

    #[test]
    fn conv3d_taps_matches_the_tensor_convolution() {
        let mut rng = Xorshift::new(12);
        // the classifier's stem, its 1×1×1 and 3×3×3 layers, odd extents
        for (n, cin, cout, k, pad, dhw) in [
            (1usize, 1usize, 4usize, 3usize, 1usize, [4usize, 16, 16]),
            (2, 4, 4, 3, 1, [2, 9, 7]),
            (1, 8, 4, 1, 0, [2, 6, 5]),
            (2, 3, 2, 3, 0, [5, 17, 23]),
            (1, 4, 4, 3, 1, [1, 7, 7]),
        ] {
            let x = rng.uniform_tensor([n, cin, dhw[0], dhw[1], dhw[2]], -1.0, 1.0);
            let w = rng.uniform_tensor([cout, cin, k, k, k], -0.5, 0.5);
            let b = rng.uniform_tensor([cout], -0.2, 0.2);
            let spec = Conv2dSpec { stride: 1, padding: pad };
            for bias in [Some(&b), None] {
                let want = conv3d(&x, &w, bias, spec).unwrap();
                let got = conv3d_taps(&x, &w, bias, spec).unwrap();
                assert_eq!(got.dims(), want.dims());
                assert!(got.all_close(&want, 1e-5), "k={k} {dhw:?}: {}", got.max_abs_diff(&want).unwrap());
            }
        }
    }

    #[test]
    fn conv3d_taps_rejects_what_the_kernel_cannot_run() {
        let x = Tensor::zeros([1, 2, 4, 8, 8]);
        let w = Tensor::zeros([3, 2, 3, 3, 3]);
        let same = Conv2dSpec { stride: 1, padding: 1 };
        let typed = |r: Result<Tensor>| matches!(r, Err(TensorError::Incompatible(_)));
        assert!(typed(conv3d_taps(&x, &w, None, Conv2dSpec { stride: 2, padding: 1 })));
        assert!(typed(conv3d_taps(&x, &Tensor::zeros([3, 2, 1, 3, 3]), None, same)), "non-cubic");
        assert!(typed(conv3d_taps(&x, &Tensor::zeros([3, 4, 3, 3, 3]), None, same)), "wrong Cin");
        assert!(typed(conv3d_taps(&x, &w, Some(&Tensor::zeros([2])), same)), "bias length");
        assert!(typed(conv3d_taps(&Tensor::zeros([2, 4, 8, 8]), &w, None, same)), "rank 4");
    }
}
