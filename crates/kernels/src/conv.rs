//! Convolution kernel (stride 1, square filter, zero padding) in the
//! paper's optimization stages.
//!
//! Operates on plain row-major buffers — one image `(Cin, H, W)`, weights
//! `(Cout, Cin, K, K)` — mirroring the OpenCL kernel signatures.
//! [`conv3d_with`] lowers a stride-1 cubic 3D convolution of one
//! `(Cin, D, H, W)` volume onto the same 2D kernels.

use cc19_tensor::TensorError;
use rayon::prelude::*;

use crate::simd::{self, SimdLevel};
use crate::{ConvKernel, OptLevel, Result};

/// Shape of a stride-1 'same'-padded convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
    /// Square filter extent.
    pub k: usize,
    /// Zero padding on each side.
    pub pad: usize,
}

impl ConvShape {
    /// Buffer length of the input.
    pub fn in_len(&self) -> usize {
        self.cin * self.h * self.w
    }

    /// Buffer length of the output (stride 1: spatial size preserved when
    /// `pad = k/2`).
    pub fn out_len(&self) -> usize {
        self.cout * self.out_h() * self.out_w()
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.h + 2 * self.pad - self.k + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.w + 2 * self.pad - self.k + 1
    }
}

/// Run the convolution kernel at an optimization level, dispatching to
/// the scalar or AVX2 ladder per [`simd::active`] (the `CC19_SIMD`
/// override narrowed by hardware detection).
pub fn conv2d(level: OptLevel, input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) -> Vec<f32> {
    conv2d_with(level, simd::active(), input, weight, bias, s)
}

/// Run the convolution kernel at an explicit `(stage, dispatch)` pair —
/// the parity suite's entry point. Passing [`SimdLevel::Avx2`] requires
/// `simd::detected() == Avx2` (the vector entry asserts it; the AVX2
/// arms are compiled out entirely on non-x86_64).
///
/// # Panics
///
/// When a buffer's length does not match `s`, or the filter is larger
/// than the padded input. These checks guard the AVX2 microkernel's
/// unchecked loads and run in release builds too.
pub fn conv2d_with(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
) -> Vec<f32> {
    check_conv2d(input, weight, bias, s);
    let mut out = vec![0.0f32; s.out_len()];
    conv2d_with_into(level, simd, input, weight, bias, s, &mut out);
    out
}

/// The buffer and shape checks of [`conv2d_with`].
fn check_conv2d(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) {
    assert_eq!(input.len(), s.in_len(), "conv2d_with: input length");
    assert_eq!(weight.len(), s.cout * s.cin * s.k * s.k, "conv2d_with: weight length");
    assert_eq!(bias.len(), s.cout, "conv2d_with: bias length");
    assert!(s.k <= s.h.min(s.w) + 2 * s.pad, "conv2d_with: filter larger than the padded input: {s:?}");
}

/// [`conv2d_with`] into `out` (`s.out_len()` long, every element
/// overwritten).
///
/// # Panics
///
/// As [`conv2d_with`], and when `out` is not `s.out_len()` long.
pub fn conv2d_with_into(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    out: &mut [f32],
) {
    check_conv2d(input, weight, bias, s);
    assert_eq!(out.len(), s.out_len(), "conv2d_with: output length");
    match level.conv_kernel(simd) {
        ConvKernel::ScalarNaive => conv_baseline(input, weight, bias, s, out),
        ConvKernel::ScalarHoisted => conv_prefetch(input, weight, bias, s, false, out),
        ConvKernel::ScalarHoistedUnrolled => conv_prefetch(input, weight, bias, s, true, out),
        ConvKernel::Avx2 => conv_avx2(input, weight, bias, s, false, false, out),
        ConvKernel::Avx2Prefetch => conv_avx2(input, weight, bias, s, true, false, out),
        ConvKernel::Avx2PrefetchUnrolled => conv_avx2(input, weight, bias, s, true, true, out),
    }
}

/// Shape of a stride-1 convolution of one `(Cin, D, H, W)` volume by a
/// cubic `(Cout, Cin, K, K, K)` filter, zero-padded by `pad` on every
/// side. Build it with [`Conv3dShape::new`], which rejects what
/// [`conv3d_with`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dShape {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Depth.
    pub d: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Cubic filter extent.
    pub k: usize,
    /// Zero padding on each side, in all three dimensions.
    pub pad: usize,
}

impl Conv3dShape {
    /// The shape of convolving a `(Cin, D, H, W)` volume by a
    /// `(Cout, Cin, KD, KH, KW)` weight at `stride` / `pad`. A stride
    /// other than 1, a non-cubic filter, mismatched channels, or a
    /// padding of at least the filter extent (an output depth with no
    /// tap inside the volume) is a typed error.
    pub fn new(input: &[usize], weight: &[usize], stride: usize, pad: usize) -> Result<Self> {
        let why = if input.len() != 4 || weight.len() != 5 || input.contains(&0) || weight.contains(&0) {
            "want a (Cin,D,H,W) volume and a (Cout,Cin,K,K,K) weight"
        } else if weight[3] != weight[2] || weight[4] != weight[2] {
            "the filter is not cubic"
        } else if stride != 1 {
            "the kernel ladder runs stride 1 only"
        } else if input[0] != weight[1] {
            "input and weight channels differ"
        } else if pad >= weight[2] || input[1].min(input[2]).min(input[3]) + 2 * pad < weight[2] {
            "the padding does not fit the filter"
        } else {
            let (cin, cout, k) = (input[0], weight[0], weight[2]);
            return Ok(Conv3dShape { cin, cout, d: input[1], h: input[2], w: input[3], k, pad });
        };
        let m = format!("conv3d: {why}: input {input:?}, weight {weight:?}, stride {stride}, padding {pad}");
        Err(TensorError::Incompatible(m))
    }

    /// Buffer length of the input.
    pub fn in_len(&self) -> usize {
        self.cin * self.d * self.h * self.w
    }

    /// Output `(depth, height, width)`.
    pub fn out_dhw(&self) -> (usize, usize, usize) {
        let p = self.plane(1);
        (self.d + 2 * self.pad - self.k + 1, p.out_h(), p.out_w())
    }

    /// Buffer length of the output.
    pub fn out_len(&self) -> usize {
        let (od, oh, ow) = self.out_dhw();
        self.cout * od * oh * ow
    }

    /// The 2D convolution over `taps` depth slabs stacked as channels.
    fn plane(&self, taps: usize) -> ConvShape {
        ConvShape { cin: taps * self.cin, cout: self.cout, h: self.h, w: self.w, k: self.k, pad: self.pad }
    }
}

/// Run a 3D convolution at an explicit `(stage, dispatch)` pair on the 2D
/// kernel ladder ([`conv2d_with`]):
///
/// - a 1×1×1 filter is one 2D call on the volume viewed as `(Cin, D·H, W)`;
/// - a K×K×K filter takes one 2D call per output depth `oz`. Its input is
///   the `(Cin, H, W)` depth slabs `oz + kz − pad` of the taps `kz` that
///   fall inside the volume, stacked as channels; its weight is the
///   matching tap-`kz` `(Cout, Cin, K, K)` slices. The sum over depth taps
///   thus runs in the microkernel's accumulators and the bias is added
///   once. Taps outside the volume are skipped, not multiplied by zeros.
///
/// `input` is `(Cin, D, H, W)`, `weight` `(Cout, Cin, K, K, K)`, the result
/// `(Cout, OD, OH, OW)`.
///
/// # Panics
///
/// When a buffer's length does not match `s`, or `s` is a shape
/// [`Conv3dShape::new`] rejects (release builds too).
pub fn conv3d_with(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: Conv3dShape,
) -> Vec<f32> {
    check_conv3d(input, weight, bias, s);
    let mut out = vec![0.0f32; s.out_len()];
    conv3d_with_into(level, simd, input, weight, bias, s, &mut out);
    out
}

/// The buffer and shape checks of [`conv3d_with`].
fn check_conv3d(input: &[f32], weight: &[f32], bias: &[f32], s: Conv3dShape) {
    assert_eq!(input.len(), s.in_len(), "conv3d_with: input length");
    assert_eq!(weight.len(), s.cout * s.cin * s.k.pow(3), "conv3d_with: weight length");
    assert_eq!(bias.len(), s.cout, "conv3d_with: bias length");
    assert!(
        s.pad < s.k && s.k <= s.d.min(s.h).min(s.w) + 2 * s.pad,
        "conv3d_with: the padding does not fit the filter: {s:?}"
    );
}

/// [`conv3d_with`] into `out` (`s.out_len()` long, every element
/// overwritten). A K×K×K filter stages the depth-major input, one
/// depth's taps and one depth's output in three buffers reused across
/// the output depths.
///
/// # Panics
///
/// As [`conv3d_with`], and when `out` is not `s.out_len()` long.
pub fn conv3d_with_into(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: Conv3dShape,
    out: &mut [f32],
) {
    check_conv3d(input, weight, bias, s);
    assert_eq!(out.len(), s.out_len(), "conv3d_with: output length");
    if s.k == 1 && s.pad == 0 {
        let flat = ConvShape { cin: s.cin, cout: s.cout, h: s.d * s.h, w: s.w, k: 1, pad: 0 };
        return conv2d_with_into(level, simd, input, weight, bias, flat, out);
    }
    // Depth-major `(D, Cin, H, W)` order makes the slabs of consecutive
    // taps one contiguous `(taps·Cin, H, W)` block; with one channel or
    // one slab the input already is in that order.
    let hw = s.h * s.w;
    let slab = s.cin * hw;
    let mut depth_major = Vec::new();
    let slabs: &[f32] = if s.cin == 1 || s.d == 1 {
        input
    } else {
        depth_major.reserve_exact(s.in_len());
        for iz in 0..s.d {
            for ci in 0..s.cin {
                let at = (ci * s.d + iz) * hw;
                depth_major.extend_from_slice(&input[at..at + hw]);
            }
        }
        &depth_major
    };
    let (od, oh, ow) = s.out_dhw();
    let ohw = oh * ow;
    let kk = s.k * s.k;
    let mut taps = Vec::with_capacity(s.cout * s.k * s.cin * kk);
    let mut plane = if od == 1 { Vec::new() } else { vec![0.0f32; s.cout * ohw] };
    for oz in 0..od {
        let (lo, hi) = (s.pad.saturating_sub(oz), s.k.min(s.d + s.pad - oz));
        taps.clear();
        for co in 0..s.cout {
            for kz in lo..hi {
                for ci in 0..s.cin {
                    let at = ((co * s.cin + ci) * s.k + kz) * kk;
                    taps.extend_from_slice(&weight[at..at + kk]);
                }
            }
        }
        let iz = oz + lo - s.pad;
        let slabs = &slabs[iz * slab..(iz + hi - lo) * slab];
        if od == 1 {
            return conv2d_with_into(level, simd, slabs, &taps, bias, s.plane(hi - lo), out);
        }
        conv2d_with_into(level, simd, slabs, &taps, bias, s.plane(hi - lo), &mut plane);
        for (co, p) in plane.chunks_exact(ohw).enumerate() {
            out[(co * od + oz) * ohw..][..ohw].copy_from_slice(p);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn conv_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    prefetch: bool,
    unroll: bool,
    out: &mut [f32],
) {
    crate::microkernel::conv2d_avx2(input, weight, bias, s, crate::microkernel::Mode { prefetch, unroll }, out)
}

#[cfg(not(target_arch = "x86_64"))]
fn conv_avx2(_: &[f32], _: &[f32], _: &[f32], _: ConvShape, _: bool, _: bool, _: &mut [f32]) {
    // `simd::active()` never selects AVX2 off x86_64; only an explicit
    // `conv2d_with(.., Avx2, ..)` on a non-x86 build can reach this.
    unreachable!("AVX2 dispatch requested on a non-x86_64 build")
}

/// Naive kernel: every bound and index recomputed in the innermost loop,
/// exactly as a line-by-line OpenCL port would do.
fn conv_baseline(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape, out: &mut [f32]) {
    let (oh, ow) = (s.out_h(), s.out_w());
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, plane)| {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[co];
                for ci in 0..s.cin {
                    for ky in 0..s.k {
                        for kx in 0..s.k {
                            let iy = oy as isize + ky as isize - s.pad as isize;
                            let ix = ox as isize + kx as isize - s.pad as isize;
                            if iy >= 0 && iy < s.h as isize && ix >= 0 && ix < s.w as isize {
                                acc += input[ci * s.h * s.w + iy as usize * s.w + ix as usize]
                                    * weight[co * s.cin * s.k * s.k + ci * s.k * s.k + ky * s.k + kx];
                            }
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    });
}

/// Prefetched kernel: bounds hoisted, filter rows sliced outside the inner
/// loop, optional ×5 unrolling for the 5-wide dedicated path.
fn conv_prefetch(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape, unroll: bool, out: &mut [f32]) {
    let (oh, ow) = (s.out_h(), s.out_w());
    // prefetch scalar bounds into locals (the paper's PF optimization)
    let (h, w, k, pad, cin) = (s.h, s.w, s.k, s.pad, s.cin);
    let hw = h * w;
    let kk = k * k;
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, plane)| {
        let wbase = &weight[co * cin * kk..(co + 1) * cin * kk];
        let b = bias[co];
        for oy in 0..oh {
            // hoist the valid ky range for this row
            let ky_lo = pad.saturating_sub(oy);
            let ky_hi = k.min(h + pad - oy);
            for ox in 0..ow {
                let kx_lo = pad.saturating_sub(ox);
                let kx_hi = k.min(w + pad - ox);
                let mut acc = b;
                for ci in 0..cin {
                    let iplane = &input[ci * hw..(ci + 1) * hw];
                    let wchan = &wbase[ci * kk..(ci + 1) * kk];
                    for ky in ky_lo..ky_hi {
                        let iy = oy + ky - pad;
                        let irow = &iplane[iy * w..iy * w + w];
                        let wrow = &wchan[ky * k..(ky + 1) * k];
                        if unroll && k == 5 && kx_lo == 0 && kx_hi == 5 {
                            // dedicated fully-unrolled 5-wide path
                            let ix = ox - pad;
                            acc += irow[ix] * wrow[0]
                                + irow[ix + 1] * wrow[1]
                                + irow[ix + 2] * wrow[2]
                                + irow[ix + 3] * wrow[3]
                                + irow[ix + 4] * wrow[4];
                        } else {
                            for kx in kx_lo..kx_hi {
                                acc += irow[ox + kx - pad] * wrow[kx];
                            }
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    });
}

/// One scalar output element in exactly the scalar ladder's accumulation
/// order — the clipped-range `(ci, ky, kx)` traversal of `conv_prefetch`,
/// including its dedicated ×5 expression when `unroll` (which is also
/// the surviving-tap order of `conv_baseline`, whose out-of-bounds taps
/// merely add nothing). The AVX2 path computes its border ring and
/// vector tail through this helper, so those lanes are bit-identical to
/// the same-stage scalar kernel. `wbase` is `&weight[co*cin*k*k..]`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn conv_px(
    input: &[f32],
    wbase: &[f32],
    s: ConvShape,
    oy: usize,
    ox: usize,
    b: f32,
    unroll: bool,
) -> f32 {
    let (h, w, k, pad, cin) = (s.h, s.w, s.k, s.pad, s.cin);
    let hw = h * w;
    let kk = k * k;
    let ky_lo = pad.saturating_sub(oy);
    let ky_hi = k.min(h + pad - oy);
    let kx_lo = pad.saturating_sub(ox);
    let kx_hi = k.min(w + pad - ox);
    let mut acc = b;
    for ci in 0..cin {
        let iplane = &input[ci * hw..(ci + 1) * hw];
        let wchan = &wbase[ci * kk..(ci + 1) * kk];
        for ky in ky_lo..ky_hi {
            let iy = oy + ky - pad;
            let irow = &iplane[iy * w..iy * w + w];
            let wrow = &wchan[ky * k..(ky + 1) * k];
            if unroll && k == 5 && kx_lo == 0 && kx_hi == 5 {
                let ix = ox - pad;
                acc += irow[ix] * wrow[0]
                    + irow[ix + 1] * wrow[1]
                    + irow[ix + 2] * wrow[2]
                    + irow[ix + 3] * wrow[3]
                    + irow[ix + 4] * wrow[4];
            } else {
                for kx in kx_lo..kx_hi {
                    acc += irow[ox + kx - pad] * wrow[kx];
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_tensor::conv::{conv2d as ref_conv, Conv2dSpec};
    use cc19_tensor::rng::Xorshift;
    use cc19_tensor::Tensor;

    fn reference(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) -> Vec<f32> {
        let x = Tensor::from_vec([1, s.cin, s.h, s.w], input.to_vec()).unwrap();
        let wt = Tensor::from_vec([s.cout, s.cin, s.k, s.k], weight.to_vec()).unwrap();
        let b = Tensor::from_vec([s.cout], bias.to_vec()).unwrap();
        ref_conv(&x, &wt, Some(&b), Conv2dSpec { stride: 1, padding: s.pad })
            .unwrap()
            .into_vec()
    }

    fn random_case(seed: u64, s: ConvShape) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let input: Vec<f32> = (0..s.in_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let weight: Vec<f32> =
            (0..s.cout * s.cin * s.k * s.k).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let bias: Vec<f32> = (0..s.cout).map(|_| rng.uniform(-0.2, 0.2)).collect();
        (input, weight, bias)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn all_levels_match_reference_5x5() {
        let s = ConvShape { cin: 3, cout: 4, h: 12, w: 10, k: 5, pad: 2 };
        let (input, weight, bias) = random_case(1, s);
        let expect = reference(&input, &weight, &bias, s);
        for level in OptLevel::ALL {
            let got = conv2d(level, &input, &weight, &bias, s);
            assert_close(&got, &expect, 1e-4);
        }
    }

    #[test]
    fn all_levels_match_reference_1x1_and_7x7() {
        for (k, pad) in [(1usize, 0usize), (7, 3)] {
            let s = ConvShape { cin: 2, cout: 3, h: 9, w: 9, k, pad };
            let (input, weight, bias) = random_case(k as u64, s);
            let expect = reference(&input, &weight, &bias, s);
            for level in OptLevel::ALL {
                let got = conv2d(level, &input, &weight, &bias, s);
                assert_close(&got, &expect, 1e-4);
            }
        }
    }

    #[test]
    fn valid_convolution_no_padding() {
        let s = ConvShape { cin: 1, cout: 1, h: 8, w: 8, k: 3, pad: 0 };
        let (input, weight, bias) = random_case(9, s);
        assert_eq!(s.out_h(), 6);
        let expect = reference(&input, &weight, &bias, s);
        for level in OptLevel::ALL {
            assert_close(&conv2d(level, &input, &weight, &bias, s), &expect, 1e-4);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn conv_px_is_bitwise_the_scalar_ladder() {
        // The per-pixel helper (the AVX2 border/tail path) must be
        // bit-identical to each scalar kernel's accumulation order.
        for (k, pad) in [(3usize, 1usize), (5, 2), (5, 0)] {
            let s = ConvShape { cin: 2, cout: 3, h: 13, w: 11, k, pad };
            let (input, weight, bias) = random_case(21 + k as u64, s);
            let (oh, ow) = (s.out_h(), s.out_w());
            for unroll in [false, true] {
                let mut expect = vec![0.0f32; s.out_len()];
                conv_prefetch(&input, &weight, &bias, s, unroll, &mut expect);
                for co in 0..s.cout {
                    let wbase = &weight[co * s.cin * k * k..];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let got = conv_px(&input, wbase, s, oy, ox, bias[co], unroll);
                            let want = expect[co * oh * ow + oy * ow + ox];
                            assert!(
                                got.to_bits() == want.to_bits(),
                                "({co},{oy},{ox}) k={k} unroll={unroll}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv3d_shape_rejects_what_the_ladder_cannot_run() {
        let ok = Conv3dShape::new(&[4, 2, 9, 7], &[3, 4, 3, 3, 3], 1, 1).unwrap();
        assert_eq!((ok.out_dhw(), ok.out_len()), ((2, 9, 7), 3 * 2 * 9 * 7));
        let err = |input: &[usize], weight: &[usize], stride, pad| {
            matches!(Conv3dShape::new(input, weight, stride, pad), Err(TensorError::Incompatible(_)))
        };
        assert!(err(&[4, 2, 9, 7], &[3, 4, 3, 3, 3], 2, 1), "stride 2");
        assert!(err(&[4, 2, 9, 7], &[3, 4, 1, 3, 3], 1, 1), "non-cubic filter");
        assert!(err(&[4, 2, 9, 7], &[3, 5, 3, 3, 3], 1, 1), "channel mismatch");
        assert!(err(&[4, 2, 9, 7], &[3, 4, 3, 3, 3], 1, 3), "padding >= filter extent");
        assert!(err(&[4, 1, 9, 7], &[3, 4, 3, 3, 3], 1, 0), "filter deeper than the volume");
        assert!(err(&[2, 9, 7], &[3, 4, 3, 3, 3], 1, 1), "rank-3 input");
        assert!(err(&[4, 0, 9, 7], &[3, 4, 3, 3, 3], 1, 1), "empty volume");
    }

    #[test]
    fn conv3d_of_one_slab_is_the_2d_convolution() {
        // D = 1 with pad 1: only the centre depth tap is inside the volume.
        let s3 = Conv3dShape::new(&[3, 1, 8, 6], &[2, 3, 3, 3, 3], 1, 1).unwrap();
        let s2 = ConvShape { cin: 3, cout: 2, h: 8, w: 6, k: 3, pad: 1 };
        let (input, w2, bias) = random_case(41, s2);
        let mut w3 = vec![0.0f32; 2 * 3 * 27];
        for (i, tap) in w2.chunks_exact(9).enumerate() {
            w3[i * 27 + 9..i * 27 + 18].copy_from_slice(tap); // kz = 1
            w3[i * 27..i * 27 + 9].fill(f32::NAN); // outside taps must not be read
            w3[i * 27 + 18..i * 27 + 27].fill(f32::NAN);
        }
        for level in OptLevel::ALL {
            let got = conv3d_with(level, simd::active(), &input, &w3, &bias, s3);
            let want = conv2d_with(level, simd::active(), &input, &w2, &bias, s2);
            assert_eq!(got, want, "{level:?}");
        }
    }

    #[test]
    fn unrolled_path_exercised_at_larger_size() {
        // 5x5 with interior large enough that the unrolled path dominates.
        let s = ConvShape { cin: 2, cout: 2, h: 32, w: 32, k: 5, pad: 2 };
        let (input, weight, bias) = random_case(5, s);
        let base = conv2d(OptLevel::Baseline, &input, &weight, &bias, s);
        let lu = conv2d(OptLevel::RefactoredPrefetchUnrolled, &input, &weight, &bias, s);
        assert_close(&lu, &base, 1e-3);
    }
}
