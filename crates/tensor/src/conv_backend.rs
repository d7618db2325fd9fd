//! Shape-aware dispatch between the direct convolution kernels
//! ([`crate::conv`]) and the GEMM lowering ([`crate::gemm_conv`]).
//!
//! Neither backend dominates: direct convolution keeps its working set
//! small and wins when the reduction depth `Cin*K*K` is short, while the
//! GEMM path amortizes im2col/layout traffic over a register-tiled
//! packed matrix multiply and wins once the reduction is deep and there
//! are enough output positions to fill macro-tiles. [`ConvBackend::Auto`]
//! encodes that crossover as a cheap per-shape heuristic; `Direct` and
//! `Gemm` force a side (for benchmarking and for pinning behavior).

use crate::conv::{
    conv2d, conv2d_backward, conv_transpose2d, conv_transpose2d_backward, Conv2dSpec,
};
use crate::gemm_conv::{
    conv2d_gemm, conv2d_gemm_backward, conv_transpose2d_gemm, conv_transpose2d_gemm_backward,
};
use crate::{Result, Tensor};

/// Which convolution implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvBackend {
    /// Pick per shape: GEMM for deep reductions over many output
    /// positions, direct otherwise (see [`ConvBackend::prefers_gemm`]).
    #[default]
    Auto,
    /// Always use the direct kernels in [`crate::conv`].
    Direct,
    /// Always use the im2col+GEMM path in [`crate::gemm_conv`].
    Gemm,
}

/// Reduction depth (`C*K*K`) above which the GEMM path is preferred.
/// Set from the `gemm_vs_direct` bench (`conv_backend_small_3x3` group,
/// results/matmul_bench.md): direct wins at 1 channel 3x3 (ckk=9,
/// ~1.3-1.5x), the two tie at ckk=18, and GEMM wins 1.9x by ckk=36 —
/// so the crossover sits in the 18..36 band and 32 splits it.
const GEMM_MIN_REDUCTION: usize = 32;

/// Minimum output positions (`N*OH*OW`) for the GEMM path: below this
/// the GEMM has too few rows to amortize packing, and direct's cache
/// residency wins regardless of depth.
const GEMM_MIN_POSITIONS: usize = 64;

impl ConvBackend {
    /// The `Auto` heuristic: GEMM when the per-output reduction
    /// (`c_reduce = C*K*K`) is deep enough *and* there are enough output
    /// positions to fill GEMM macro-tiles.
    pub fn prefers_gemm(c_reduce: usize, out_positions: usize) -> bool {
        c_reduce >= GEMM_MIN_REDUCTION && out_positions >= GEMM_MIN_POSITIONS
    }

    /// Resolve `Auto` for a conv2d shape; returns `Direct` or `Gemm`,
    /// never `Auto`.
    pub fn resolve_conv2d(self, input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> ConvBackend {
        self.resolve_conv2d_dims(input.dims(), weight.dims(), spec)
    }

    /// [`ConvBackend::resolve_conv2d`] from the input and weight shapes.
    pub fn resolve_conv2d_dims(self, d: &[usize], wd: &[usize], spec: Conv2dSpec) -> ConvBackend {
        match self {
            ConvBackend::Auto => {
                if d.len() != 4 || wd.len() != 4 {
                    return ConvBackend::Direct; // let the backend report the error
                }
                let (cin, k) = (wd[1], wd[2]);
                let oh = spec.out_extent(d[2], k);
                let ow = spec.out_extent(d[3], wd[3]);
                if ConvBackend::prefers_gemm(cin * wd[2] * wd[3], d[0] * oh * ow) {
                    ConvBackend::Gemm
                } else {
                    ConvBackend::Direct
                }
            }
            other => other,
        }
    }

    /// Resolve `Auto` for a conv_transpose2d shape (weight is
    /// `(Cin, Cout, K, K)`; the GEMM's reduction depth going backward is
    /// `Cout*K*K` and its row count is the *input* grid `N*H*W`).
    pub fn resolve_conv_transpose2d(self, input: &Tensor, weight: &Tensor) -> ConvBackend {
        match self {
            ConvBackend::Auto => {
                let (d, wd) = (input.dims(), weight.dims());
                if d.len() != 4 || wd.len() != 4 {
                    return ConvBackend::Direct;
                }
                let (cout, kh, kw) = (wd[1], wd[2], wd[3]);
                if ConvBackend::prefers_gemm(cout * kh * kw, d[0] * d[2] * d[3]) {
                    ConvBackend::Gemm
                } else {
                    ConvBackend::Direct
                }
            }
            other => other,
        }
    }
}

/// conv2d through the selected backend.
pub fn conv2d_dispatch(
    backend: ConvBackend,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    match backend.resolve_conv2d(input, weight, spec) {
        ConvBackend::Gemm => conv2d_gemm(input, weight, bias, spec),
        _ => conv2d(input, weight, bias, spec),
    }
}

/// conv2d backward through the selected backend.
pub fn conv2d_backward_dispatch(
    backend: ConvBackend,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    match backend.resolve_conv2d(input, weight, spec) {
        ConvBackend::Gemm => conv2d_gemm_backward(input, weight, grad_out, spec),
        _ => conv2d_backward(input, weight, grad_out, spec),
    }
}

/// conv_transpose2d through the selected backend.
pub fn conv_transpose2d_dispatch(
    backend: ConvBackend,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    match backend.resolve_conv_transpose2d(input, weight) {
        ConvBackend::Gemm => conv_transpose2d_gemm(input, weight, bias, spec),
        _ => conv_transpose2d(input, weight, bias, spec),
    }
}

/// conv_transpose2d backward through the selected backend.
pub fn conv_transpose2d_backward_dispatch(
    backend: ConvBackend,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    match backend.resolve_conv_transpose2d(input, weight) {
        ConvBackend::Gemm => conv_transpose2d_gemm_backward(input, weight, grad_out, spec),
        _ => conv_transpose2d_backward(input, weight, grad_out, spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift;

    #[test]
    fn auto_resolves_by_shape() {
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        // 3 channels, 3x3 kernel: shallow reduction -> direct.
        let small_x = Tensor::zeros([1, 3, 32, 32]);
        let small_w = Tensor::zeros([8, 3, 3, 3]);
        assert_eq!(
            ConvBackend::Auto.resolve_conv2d(&small_x, &small_w, spec),
            ConvBackend::Direct
        );
        // 64 channels, 3x3 kernel: deep reduction -> gemm.
        let big_x = Tensor::zeros([1, 64, 32, 32]);
        let big_w = Tensor::zeros([64, 64, 3, 3]);
        assert_eq!(ConvBackend::Auto.resolve_conv2d(&big_x, &big_w, spec), ConvBackend::Gemm);
        // Forced backends resolve to themselves regardless of shape.
        assert_eq!(ConvBackend::Gemm.resolve_conv2d(&small_x, &small_w, spec), ConvBackend::Gemm);
        assert_eq!(ConvBackend::Direct.resolve_conv2d(&big_x, &big_w, spec), ConvBackend::Direct);
    }

    #[test]
    fn all_backends_agree_forward_and_backward() {
        let mut rng = Xorshift::new(9);
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        let x = rng.uniform_tensor([2, 3, 9, 9], -1.0, 1.0);
        let w = rng.uniform_tensor([5, 3, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor([5], -0.1, 0.1);
        let outs: Vec<Tensor> = [ConvBackend::Auto, ConvBackend::Direct, ConvBackend::Gemm]
            .iter()
            .map(|&be| conv2d_dispatch(be, &x, &w, Some(&b), spec).unwrap())
            .collect();
        assert!(outs[0].all_close(&outs[1], 1e-4));
        assert!(outs[0].all_close(&outs[2], 1e-4));

        let grad = rng.uniform_tensor(outs[0].dims().to_vec(), -1.0, 1.0);
        let grads: Vec<_> = [ConvBackend::Auto, ConvBackend::Direct, ConvBackend::Gemm]
            .iter()
            .map(|&be| conv2d_backward_dispatch(be, &x, &w, &grad, spec).unwrap())
            .collect();
        for (gx, gw, gb) in &grads[1..] {
            assert!(grads[0].0.all_close(gx, 1e-3));
            assert!(grads[0].1.all_close(gw, 1e-3));
            assert!(grads[0].2.all_close(gb, 1e-3));
        }
    }

    #[test]
    fn transpose_backends_agree() {
        let mut rng = Xorshift::new(10);
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        let x = rng.uniform_tensor([1, 4, 6, 6], -1.0, 1.0);
        let w = rng.uniform_tensor([4, 2, 3, 3], -0.5, 0.5);
        let d = conv_transpose2d_dispatch(ConvBackend::Direct, &x, &w, None, spec).unwrap();
        let g = conv_transpose2d_dispatch(ConvBackend::Gemm, &x, &w, None, spec).unwrap();
        assert!(d.all_close(&g, 1e-3));

        let grad = rng.uniform_tensor(d.dims().to_vec(), -1.0, 1.0);
        let (dx, dw, db) =
            conv_transpose2d_backward_dispatch(ConvBackend::Direct, &x, &w, &grad, spec).unwrap();
        let (gx, gw, gb) =
            conv_transpose2d_backward_dispatch(ConvBackend::Gemm, &x, &w, &grad, spec).unwrap();
        assert!(dx.all_close(&gx, 1e-3));
        assert!(dw.all_close(&gw, 1e-3));
        assert!(db.all_close(&gb, 1e-3));
    }
}
