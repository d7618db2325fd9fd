//! The two executors every network forward runs on (DESIGN.md §8), and
//! the kernel-ladder convolutions inference runs.
//!
//! DDnet (`Ddnet::run`) and the 3D classifier (`DenseNet3d::run`) are each
//! written once against [`Exec`], the ops the two networks use. [`Tape`]
//! records them on an autograd [`Graph`] — training, validation and the
//! public `forward` methods. The other executor is
//! [`crate::plan::Recorder`]: it runs the same walk once per input shape,
//! on shapes alone, and compiles it into an inference [`crate::plan::Plan`]
//! — `Ddnet::enhance`, `Ddnet::enhance_timed` and
//! `DenseNet3d::predict_proba` run that plan, not the walk.
//!
//! A served plan's 2D convolutions stay on `conv2d_dispatch`'s paths
//! under [`cc19_tensor::conv_backend::ConvBackend::Auto`]'s shape-aware
//! choice; its deconvolutions ([`deconv_gather`]) and 3D convolutions
//! ([`conv3d_taps`]) run the kernel ladder's microkernels. A timed plan
//! runs its 2D convolutions on the ladder too ([`conv2d_ladder`]), at the
//! stage it is compiled for. Each has an `_into` form that writes into a
//! plan's arena.

use cc19_kernels::conv::{conv2d_with_into, conv3d_with_into, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{self, deconv2d_with_into};
use cc19_kernels::{simd, OptLevel};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::pool::PoolSpec;
use cc19_tensor::{obs, Tensor, TensorError};

use crate::graph::{Graph, Var};
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

/// The kernel-ladder stage served deconvolutions and 3D convolutions run
/// at.
pub(crate) const LADDER_LEVEL: OptLevel = OptLevel::RefactoredPrefetchUnrolled;

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

/// The output dims of [`ladder2d_into`] for an `x_dims` input by a
/// `w_dims` weight, or an `op` error for what the kernels cannot run.
pub(crate) fn ladder2d_dims(op: &str, deconv: bool, x_dims: &[usize], w_dims: &[usize], spec: Conv2dSpec) -> Result<[usize; 4]> {
    let s = ladder2d_shape(op, deconv, x_dims, w_dims, spec)?;
    let (oh, ow) = if deconv { (deconv::out_h(s), deconv::out_w(s)) } else { (s.out_h(), s.out_w()) };
    Ok([x_dims[0], s.cout, oh, ow])
}

/// One sample's [`ConvShape`] of a stride-1 2D convolution of an
/// `(N, Cin, H, W)` input by a square weight — `(Cin, Cout, K, K)` and
/// transposed when `deconv`, else `(Cout, Cin, K, K)` — or an `op` error
/// for what the kernels cannot run.
fn ladder2d_shape(op: &str, deconv: bool, d: &[usize], wd: &[usize], spec: Conv2dSpec) -> Result<ConvShape> {
    let bad = |m: String| Err(TensorError::Incompatible(format!("{op}: {m}")));
    if d.len() != 4 || wd.len() != 4 || wd[2] != wd[3] || d.contains(&0) {
        return bad(format!("want (N,Cin,H,W) input and square 4D weight, got {d:?} and {wd:?}"));
    }
    let (cin, cout) = if deconv { (wd[0], wd[1]) } else { (wd[1], wd[0]) };
    let (k, pad, extent) = (wd[2], spec.padding, d[2].min(d[3]));
    let fits = if deconv { 2 * pad < extent + k } else { k <= extent + 2 * pad };
    if d[1] != cin || spec.stride != 1 || !fits {
        return bad(format!("input {d:?}, weight {wd:?}, {spec:?} is not a stride-1 convolution the ladder runs"));
    }
    Ok(ConvShape { cin, cout, h: d[2], w: d[3], k, pad })
}

/// Stride-1 2D convolution (transposed when `deconv`) of the
/// `x_dims`-shaped `x` on the kernel ladder's `level` stage, one sample at
/// a time, at the host's SIMD dispatch, into `out`. What the kernels
/// cannot run is an `op` error. Counted under `tensor_conv_*{op}`.
#[allow(clippy::too_many_arguments)]
fn ladder2d_into(
    op: &'static str,
    deconv: bool,
    level: OptLevel,
    x: &[f32],
    x_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let s = ladder2d_shape(op, deconv, x_dims, weight.dims(), spec)?;
    let mut zeros = Vec::new();
    let bias = bias_or_zeros(op, bias, s.cout, &mut zeros)?;
    let [n, cout, oh, ow] = ladder2d_dims(op, deconv, x_dims, weight.dims(), spec)?;
    if x.len() != n * s.in_len() || out.len() != n * cout * oh * ow {
        return Err(TensorError::Incompatible(format!("{op}: buffers do not fit {x_dims:?} -> {:?}", [n, cout, oh, ow])));
    }
    // every tap meets every input pixel when transposed, every output pixel when not
    let grid = if deconv { s.h * s.w } else { oh * ow };
    let _obs = obs::conv_call(op, "fwd", 2 * obs::macs(&[n, s.cin, cout, s.k, s.k, grid]));
    let (kernel, dispatch) = (if deconv { deconv2d_with_into } else { conv2d_with_into }, simd::active());
    for (sample, y) in x.chunks_exact(s.in_len()).zip(out.chunks_exact_mut(cout * oh * ow)) {
        kernel(level, dispatch, sample, weight.data(), bias, s, y);
    }
    Ok(())
}

/// [`ladder2d_into`]'s allocating form.
fn ladder2d(op: &'static str, deconv: bool, level: OptLevel, x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    let dims = ladder2d_dims(op, deconv, x.dims(), weight.dims(), spec)?;
    let mut out = Tensor::zeros(dims);
    ladder2d_into(op, deconv, level, x.data(), x.dims(), weight, bias, spec, out.data_mut())?;
    Ok(out)
}

/// [`ladder2d_into`]'s convolution, counted under `op="conv2d_ladder"`.
pub fn conv2d_ladder(level: OptLevel, x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    ladder2d("conv2d_ladder", false, level, x, weight, bias, spec)
}

/// [`conv2d_ladder`] into `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_ladder_into(
    level: OptLevel,
    x: &[f32],
    x_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    ladder2d_into("conv2d_ladder", false, level, x, x_dims, weight, bias, spec, out)
}

/// [`ladder2d_into`]'s transposed convolution — from +REF on §4.2.1's
/// gather deconvolution — counted under `op="deconv2d_gather"`.
pub fn deconv_gather(level: OptLevel, x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    ladder2d("deconv2d_gather", true, level, x, weight, bias, spec)
}

/// [`deconv_gather`] into `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deconv_gather_into(
    level: OptLevel,
    x: &[f32],
    x_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    ladder2d_into("deconv2d_gather", true, level, x, x_dims, weight, bias, spec, out)
}

/// One sample's [`Conv3dShape`] of an `(N, Cin, D, H, W)` input by a
/// cubic weight, or the typed error of what the kernel cannot run.
pub(crate) fn conv3d_shape(x_dims: &[usize], w_dims: &[usize], spec: Conv2dSpec) -> Result<Conv3dShape> {
    if x_dims.len() != 5 {
        return Err(TensorError::Incompatible(format!("conv3d_taps: want (N,Cin,D,H,W) input, got {x_dims:?}")));
    }
    Conv3dShape::new(&x_dims[1..], w_dims, spec.stride, spec.padding)
}

/// 3D convolution of an `(N, Cin, D, H, W)` batch by a cubic
/// `(Cout, Cin, K, K, K)` weight on the kernel ladder's convolution
/// microkernel, one sample at a time, at the host's SIMD dispatch: each
/// output depth is one 2D call over its in-volume depth taps
/// ([`cc19_kernels::conv::conv3d_with`]). Stride ≠ 1 or a non-cubic
/// filter is a typed error. Counted under
/// `tensor_conv_*{op="conv3d_taps"}`.
pub fn conv3d_taps(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    let s = conv3d_shape(x.dims(), weight.dims(), spec)?;
    let (od, oh, ow) = s.out_dhw();
    let mut out = Tensor::zeros([x.dims()[0], s.cout, od, oh, ow]);
    conv3d_taps_into(x.data(), x.dims(), weight, bias, spec, out.data_mut())?;
    Ok(out)
}

/// [`conv3d_taps`] of the `x_dims`-shaped `x` into `out`.
pub(crate) fn conv3d_taps_into(
    x: &[f32],
    x_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let s = conv3d_shape(x_dims, weight.dims(), spec)?;
    let mut zeros = Vec::new();
    let bias = bias_or_zeros("conv3d_taps", bias, s.cout, &mut zeros)?;
    let (n, (od, oh, ow)) = (x_dims[0], s.out_dhw());
    if x.len() != n * s.in_len() || out.len() != n * s.out_len() {
        return Err(TensorError::Incompatible(format!("conv3d_taps: buffers do not fit {x_dims:?}")));
    }
    let _obs = obs::conv_call("conv3d_taps", "fwd", 2 * obs::macs(&[n, s.cout, s.cin, s.k, s.k, s.k, od, oh, ow]));
    let dispatch = simd::active();
    for (sample, y) in x.chunks_exact(s.in_len()).zip(out.chunks_exact_mut(s.out_len())) {
        conv3d_with_into(LADDER_LEVEL, dispatch, sample, weight.data(), bias, s, y);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_tensor::conv::conv3d;
    use cc19_tensor::conv_backend::{conv_transpose2d_dispatch, ConvBackend};
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
    fn the_into_forms_write_their_twins_bits() {
        let mut rng = Xorshift::new(13);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let spec = Conv2dSpec { stride: 1, padding: 2 };
        let x = rng.uniform_tensor([2, 3, 11, 9], -1.0, 1.0);
        let w = rng.uniform_tensor([3, 3, 5, 5], -0.5, 0.5);
        let b = rng.uniform_tensor([3], -0.2, 0.2);
        for level in OptLevel::ALL {
            let want = conv2d_ladder(level, &x, &w, Some(&b), spec).unwrap();
            let mut got = vec![f32::NAN; want.numel()];
            conv2d_ladder_into(level, x.data(), x.dims(), &w, Some(&b), spec, &mut got).unwrap();
            assert_eq!(bits(&got), bits(want.data()), "conv2d_ladder {level:?}");
            let want = deconv_gather(level, &x, &w, None, spec).unwrap();
            let mut got = vec![f32::NAN; want.numel()];
            deconv_gather_into(level, x.data(), x.dims(), &w, None, spec, &mut got).unwrap();
            assert_eq!(bits(&got), bits(want.data()), "deconv_gather {level:?}");
        }
        let v = rng.uniform_tensor([2, 2, 3, 7, 6], -1.0, 1.0);
        let w3 = rng.uniform_tensor([4, 2, 3, 3, 3], -0.5, 0.5);
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        let want = conv3d_taps(&v, &w3, Some(&b.reshape([3]).unwrap()), spec);
        assert!(want.is_err(), "a 3-long bias for 4 channels");
        let want = conv3d_taps(&v, &w3, None, spec).unwrap();
        let mut got = vec![f32::NAN; want.numel()];
        conv3d_taps_into(v.data(), v.dims(), &w3, None, spec, &mut got).unwrap();
        assert_eq!(bits(&got), bits(want.data()), "conv3d_taps");
        assert!(conv3d_taps_into(v.data(), v.dims(), &w3, None, spec, &mut got[1..]).is_err(), "short output");
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
