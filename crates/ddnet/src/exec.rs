//! The two executors DDnet's one forward runs on (DESIGN.md §8).
//!
//! `Ddnet::run` is written once against [`Exec`], the eight ops the
//! network uses. [`Tape`] records them on an autograd [`Graph`] — training,
//! `validate` and the public `Ddnet::forward`. [`Eval`] runs them with no
//! tape on reference-counted tensors — `Ddnet::enhance` and
//! `enhance_stack` — so each activation is freed when its last handle
//! drops, a uniquely held one is normalised / activated in place, and
//! parameters are borrowed rather than cloned per call.
//!
//! The evaluator's convolutions stay on `conv2d_dispatch` (the backend its
//! caller picked); its deconvolutions run the kernel ladder's gather
//! microkernel ([`deconv_gather`]) instead of the tensor crate's GEMM
//! lowering.

use std::rc::Rc;

use cc19_kernels::conv::ConvShape;
use cc19_kernels::deconv::{self, deconv2d_with};
use cc19_kernels::{simd, OptLevel};
use cc19_nn::graph::{Graph, Var};
use cc19_nn::layers::{BatchNorm, BnForward, Conv2d, ConvTranspose2d};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::conv_backend::{conv2d_dispatch, ConvBackend};
use cc19_tensor::pool::{max_pool2d, PoolSpec};
use cc19_tensor::resize::upsample_bilinear2d;
use cc19_tensor::{obs, ops, Tensor, TensorError};

use crate::Result;

/// The ops DDnet's forward is written in. Values are passed by value so
/// an executor can reuse a buffer nobody else holds.
pub(crate) trait Exec {
    /// An activation handle.
    type V: Clone;
    fn conv(&mut self, layer: &Conv2d, x: Self::V) -> Result<Self::V>;
    fn deconv(&mut self, layer: &ConvTranspose2d, x: Self::V) -> Result<Self::V>;
    fn batch_norm(&mut self, layer: &BatchNorm, x: Self::V) -> Result<Self::V>;
    fn leaky_relu(&mut self, x: Self::V, slope: f32) -> Self::V;
    fn max_pool(&mut self, x: Self::V, spec: PoolSpec) -> Result<Self::V>;
    fn upsample(&mut self, x: Self::V, scale: usize) -> Result<Self::V>;
    /// Channel concatenation `[a, b]`.
    fn concat(&mut self, a: Self::V, b: Self::V) -> Result<Self::V>;
    fn add(&mut self, a: Self::V, b: Self::V) -> Result<Self::V>;
}

/// Records every op on an autograd tape.
pub(crate) struct Tape<'g> {
    pub g: &'g mut Graph,
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

    fn batch_norm(&mut self, layer: &BatchNorm, x: Var) -> Result<Var> {
        layer.forward_with(self.g, x, self.bn)
    }

    fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        self.g.leaky_relu(x, slope)
    }

    fn max_pool(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        self.g.max_pool2d(x, spec)
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
pub(crate) struct Eval {
    /// Batch-norm statistics mode (an eval mode).
    pub bn: BnForward,
    /// Backend for the convolutions.
    pub backend: ConvBackend,
}

/// The tensor behind `x`, without a copy when `x` is its only handle.
pub(crate) fn owned(x: Rc<Tensor>) -> Tensor {
    Rc::try_unwrap(x).unwrap_or_else(|shared| (*shared).clone())
}

impl Exec for Eval {
    type V = Rc<Tensor>;

    fn conv(&mut self, layer: &Conv2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let w = layer.weight.borrow();
        let b = layer.bias.as_ref().map(|b| b.borrow());
        let y = conv2d_dispatch(self.backend, &x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)?;
        Ok(Rc::new(y))
    }

    fn deconv(&mut self, layer: &ConvTranspose2d, x: Rc<Tensor>) -> Result<Rc<Tensor>> {
        let w = layer.weight.borrow();
        let b = layer.bias.as_ref().map(|b| b.borrow());
        Ok(Rc::new(deconv_gather(&x, &w.value, b.as_ref().map(|b| &b.value), layer.spec)?))
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

/// The kernel-ladder stage inference deconvolutions run at.
const DECONV_LEVEL: OptLevel = OptLevel::RefactoredPrefetchUnrolled;

/// Stride-1 transposed convolution of an `(N, Cin, H, W)` batch by a
/// `(Cin, Cout, K, K)` weight on the kernel ladder's gather microkernel
/// (§4.2.1's refactored deconvolution), one sample at a time, at the
/// host's SIMD dispatch. Counted under `tensor_conv_*{op="deconv2d_gather"}`.
pub(crate) fn deconv_gather(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let bad = |m: String| Err(TensorError::Incompatible(format!("deconv2d_gather: {m}")));
    let (d, wd) = (x.dims(), weight.dims());
    if d.len() != 4 || wd.len() != 4 || wd[2] != wd[3] || d.contains(&0) {
        return bad(format!("want (N,Cin,H,W) input and square (Cin,Cout,K,K) weight, got {d:?} and {wd:?}"));
    }
    let (n, cin, h, w, cout, k) = (d[0], d[1], d[2], d[3], wd[1], wd[2]);
    if cin != wd[0] || spec.stride != 1 || 2 * spec.padding >= h.min(w) + k {
        return bad(format!("input {d:?}, weight {wd:?}, {spec:?} is not a stride-1 deconvolution"));
    }
    let zeros;
    let bias = match bias {
        Some(b) if b.numel() == cout => b.data(),
        Some(b) => return bad(format!("bias has {} elements, want {cout}", b.numel())),
        None => {
            zeros = vec![0.0; cout];
            &zeros
        }
    };
    let s = ConvShape { cin, cout, h, w, k, pad: spec.padding };
    let _obs = obs::conv_call("deconv2d_gather", "fwd", 2 * obs::macs(&[n, cin, h, w, cout, k, k]));
    let level = simd::active();
    let mut out = Vec::new();
    for sample in x.data().chunks_exact(cin * h * w) {
        let y = deconv2d_with(DECONV_LEVEL, level, sample, weight.data(), bias, s);
        if out.is_empty() {
            out = y; // one sample: the kernel's buffer is the output
        } else {
            out.extend_from_slice(&y);
        }
    }
    Tensor::from_vec([n, cout, deconv::out_h(s), deconv::out_w(s)], out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let got = deconv_gather(&x, &w, Some(&b), spec).unwrap();
            assert_eq!(got.dims(), want.dims());
            assert!(got.all_close(&want, 1e-5), "n={n} k={k}: {}", got.max_abs_diff(&want).unwrap());
            let unbiased = deconv_gather(&x, &w, None, spec).unwrap();
            let want = conv_transpose2d_dispatch(ConvBackend::Direct, &x, &w, None, spec).unwrap();
            assert!(unbiased.all_close(&want, 1e-5));
        }
    }

    #[test]
    fn deconv_gather_rejects_what_the_kernel_cannot_run() {
        let x = Tensor::zeros([1, 2, 8, 8]);
        let w = Tensor::zeros([2, 3, 3, 3]);
        let strided = Conv2dSpec { stride: 2, padding: 1 };
        assert!(deconv_gather(&x, &w, None, strided).is_err());
        let wrong_cin = Tensor::zeros([4, 3, 3, 3]);
        assert!(deconv_gather(&x, &wrong_cin, None, Conv2dSpec::default()).is_err());
        assert!(deconv_gather(&x, &w, Some(&Tensor::zeros([2])), Conv2dSpec::default()).is_err());
        assert!(deconv_gather(&Tensor::zeros([2, 8, 8]), &w, None, Conv2dSpec::default()).is_err());
    }
}
