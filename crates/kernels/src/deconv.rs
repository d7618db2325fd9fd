//! Deconvolution (stride-1 transposed convolution) kernel — the paper's
//! star witness for its refactoring optimization (§4.2.1, Fig 9).
//!
//! - Baseline: **scatter** — each input element multiplies the full
//!   filter and accumulates into the output window with a read-modify-
//!   write per tap ("recurring load and store operations ... result in
//!   multiple cache misses").
//! - REF: **gather** via inverse coefficient mapping — each output element
//!   computes which input block affects it, multiply-adds locally, and
//!   stores once.
//!
//! Weights are `(Cin, Cout, K, K)`, matching `conv_transpose2d` in
//! `cc19-tensor` (which is the test oracle).

use rayon::prelude::*;

use crate::conv::ConvShape;
use crate::simd::{self, SimdLevel};
use crate::{DeconvKernel, OptLevel};

/// Output height of the stride-1 deconvolution.
pub fn out_h(s: ConvShape) -> usize {
    s.h + s.k - 1 - 2 * s.pad
}

/// Output width.
pub fn out_w(s: ConvShape) -> usize {
    s.w + s.k - 1 - 2 * s.pad
}

/// Run the deconvolution kernel at an optimization level.
///
/// `s.cin`/`s.cout` are the deconvolution's input/output channels; the
/// weight buffer is `(cin, cout, k, k)`.
pub fn deconv2d(level: OptLevel, input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) -> Vec<f32> {
    deconv2d_with(level, simd::active(), input, weight, bias, s)
}

/// Run the deconvolution at an explicit `(stage, dispatch)` pair — the
/// parity suite's entry point. The `Baseline` scatter stays scalar even
/// at [`SimdLevel::Avx2`] (see [`OptLevel::deconv_kernel`]); the other
/// AVX2 arms require `simd::detected() == Avx2` and are compiled out on
/// non-x86_64.
///
/// # Panics
///
/// When a buffer's length does not match `s`, or the padding would leave
/// a negative output extent (`2·pad ≥ H + K`). These checks guard the
/// AVX2 microkernel's unchecked loads and run in release builds too.
pub fn deconv2d_with(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
) -> Vec<f32> {
    check_deconv2d(input, weight, bias, s);
    let mut out = vec![0.0f32; s.cout * out_h(s) * out_w(s)];
    deconv2d_with_into(level, simd, input, weight, bias, s, &mut out);
    out
}

/// The buffer and shape checks of [`deconv2d_with`].
fn check_deconv2d(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) {
    assert_eq!(input.len(), s.in_len(), "deconv2d_with: input length");
    assert_eq!(weight.len(), s.cin * s.cout * s.k * s.k, "deconv2d_with: weight length");
    assert_eq!(bias.len(), s.cout, "deconv2d_with: bias length");
    assert!(2 * s.pad < s.h.min(s.w) + s.k, "deconv2d_with: padding exceeds the output extent: {s:?}");
}

/// [`deconv2d_with`] into `out` (`cout · out_h · out_w` long, every
/// element overwritten).
///
/// # Panics
///
/// As [`deconv2d_with`], and when `out` has the wrong length.
pub fn deconv2d_with_into(
    level: OptLevel,
    simd: SimdLevel,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    out: &mut [f32],
) {
    check_deconv2d(input, weight, bias, s);
    assert_eq!(out.len(), s.cout * out_h(s) * out_w(s), "deconv2d_with: output length");
    match level.deconv_kernel(simd) {
        DeconvKernel::ScalarScatter => deconv_scatter(input, weight, bias, s, out),
        DeconvKernel::ScalarGather => deconv_gather(input, weight, bias, s, false, false, out),
        DeconvKernel::ScalarGatherHoisted => deconv_gather(input, weight, bias, s, true, false, out),
        DeconvKernel::ScalarGatherHoistedUnrolled => deconv_gather(input, weight, bias, s, true, true, out),
        DeconvKernel::Avx2Gather => deconv_avx2(input, weight, bias, s, false, false, out),
        DeconvKernel::Avx2GatherPrefetch => deconv_avx2(input, weight, bias, s, true, false, out),
        DeconvKernel::Avx2GatherPrefetchUnrolled => deconv_avx2(input, weight, bias, s, true, true, out),
    }
}

#[cfg(target_arch = "x86_64")]
fn deconv_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    prefetch: bool,
    unroll: bool,
    out: &mut [f32],
) {
    crate::microkernel::deconv2d_avx2(input, weight, bias, s, crate::microkernel::Mode { prefetch, unroll }, out)
}

#[cfg(not(target_arch = "x86_64"))]
fn deconv_avx2(_: &[f32], _: &[f32], _: &[f32], _: ConvShape, _: bool, _: bool, _: &mut [f32]) {
    // `simd::active()` never selects AVX2 off x86_64; only an explicit
    // `deconv2d_with(.., Avx2, ..)` on a non-x86 build can reach this.
    unreachable!("AVX2 dispatch requested on a non-x86_64 build")
}

/// Scatter formulation — the naive OpenCL-baseline translation. One work
/// item per *input* element (the natural scatter decomposition); every
/// filter tap performs a read-modify-write into the shared global output.
/// On a multicore CPU that accumulation must be synchronized, so the
/// faithful port uses atomic adds — which is exactly the recurring
/// global-memory traffic the paper's §4.2.1 identifies as the baseline's
/// pathology and removes with the gather refactoring.
fn deconv_scatter(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape, out: &mut [f32]) {
    use std::sync::atomic::{AtomicU32, Ordering};

    let (oh, ow) = (out_h(s), out_w(s));
    let w_ckk = s.cout * s.k * s.k;
    let init = |i: usize| AtomicU32::new(bias[i / (oh * ow)].to_bits());
    let cells: Vec<AtomicU32> = (0..s.cout * oh * ow).map(init).collect();

    let atomic_add = |cell: &AtomicU32, v: f32| {
        // Path form, so cc19-lint's name-based call graph does not take
        // this for a workspace `load` fn (DESIGN.md §16 precision limits).
        let mut cur = AtomicU32::load(cell, Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    };

    // One work item per input row across all input channels, run in
    // index order on this thread: with real threads the CAS adds below
    // would sum each output in scheduling order, and the Baseline stage
    // must give the same bits on every run.
    (0..s.cin * s.h).for_each(|row| {
        let ci = row / s.h;
        let iy = row % s.h;
        for ix in 0..s.w {
            let x = input[ci * s.h * s.w + iy * s.w + ix];
            for co in 0..s.cout {
                let plane = &cells[co * oh * ow..(co + 1) * oh * ow];
                for ky in 0..s.k {
                    for kx in 0..s.k {
                        let oy = iy as isize + ky as isize - s.pad as isize;
                        let ox = ix as isize + kx as isize - s.pad as isize;
                        if oy >= 0 && oy < oh as isize && ox >= 0 && ox < ow as isize {
                            atomic_add(
                                &plane[oy as usize * ow + ox as usize],
                                x * weight[ci * w_ckk + co * s.k * s.k + ky * s.k + kx],
                            );
                        }
                    }
                }
            }
        }
    });
    for (o, a) in out.iter_mut().zip(cells) {
        *o = f32::from_bits(a.into_inner());
    }
}

/// Gather formulation (inverse coefficient mapping): one store per output.
fn deconv_gather(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    prefetch: bool,
    unroll: bool,
    out: &mut [f32],
) {
    let (oh, ow) = (out_h(s), out_w(s));
    let (h, w, k, pad, cin) = (s.h, s.w, s.k, s.pad, s.cin);
    let hw = h * w;
    let kk = k * k;
    let w_ckk = s.cout * kk;
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, plane)| {
        let b = bias[co];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                if !prefetch {
                    // plain gather: bounds checked per tap
                    for ci in 0..cin {
                        for ky in 0..k {
                            for kx in 0..k {
                                // oy = iy - pad + ky  =>  iy = oy + pad - ky
                                let iy = oy as isize + pad as isize - ky as isize;
                                let ix = ox as isize + pad as isize - kx as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    acc += input[ci * hw + iy as usize * w + ix as usize]
                                        * weight[ci * w_ckk + co * kk + ky * k + kx];
                                }
                            }
                        }
                    }
                } else {
                    // prefetch: hoisted valid tap ranges + sliced rows
                    let ky_lo = (oy + pad + 1).saturating_sub(h);
                    let ky_hi = k.min(oy + pad + 1);
                    let kx_lo = (ox + pad + 1).saturating_sub(w);
                    let kx_hi = k.min(ox + pad + 1);
                    for ci in 0..cin {
                        let iplane = &input[ci * hw..(ci + 1) * hw];
                        let wchan = &weight[ci * w_ckk + co * kk..ci * w_ckk + (co + 1) * kk];
                        for ky in ky_lo..ky_hi {
                            let iy = oy + pad - ky;
                            let irow = &iplane[iy * w..iy * w + w];
                            let wrow = &wchan[ky * k..(ky + 1) * k];
                            if unroll && k == 5 && kx_lo == 0 && kx_hi == 5 {
                                // dedicated 5-wide unrolled path; note the
                                // reversed input traversal of the gather
                                let ix = ox + pad;
                                acc += irow[ix] * wrow[0]
                                    + irow[ix - 1] * wrow[1]
                                    + irow[ix - 2] * wrow[2]
                                    + irow[ix - 3] * wrow[3]
                                    + irow[ix - 4] * wrow[4];
                            } else {
                                for kx in kx_lo..kx_hi {
                                    acc += irow[ox + pad - kx] * wrow[kx];
                                }
                            }
                        }
                    }
                }
                plane[oy * ow + ox] = acc;
            }
        }
    });
}

/// One scalar gather output element in exactly the scalar ladder's
/// accumulation order — the clipped-range traversal of the hoisted
/// `deconv_gather`, including its dedicated reversed ×5 expression when
/// `unroll` (also the surviving-tap order of the plain gather). The AVX2
/// path computes its border ring and vector tail through this helper.
/// `wco` is `&weight[co*k*k..]` (per-`ci` stride stays `cout*k*k`).
#[cfg(target_arch = "x86_64")]
pub(crate) fn deconv_px(
    input: &[f32],
    wco: &[f32],
    s: ConvShape,
    oy: usize,
    ox: usize,
    b: f32,
    unroll: bool,
) -> f32 {
    let (h, w, k, pad, cin) = (s.h, s.w, s.k, s.pad, s.cin);
    let hw = h * w;
    let kk = k * k;
    let w_ckk = s.cout * kk;
    let ky_lo = (oy + pad + 1).saturating_sub(h);
    let ky_hi = k.min(oy + pad + 1);
    let kx_lo = (ox + pad + 1).saturating_sub(w);
    let kx_hi = k.min(ox + pad + 1);
    let mut acc = b;
    for ci in 0..cin {
        let iplane = &input[ci * hw..(ci + 1) * hw];
        let wchan = &wco[ci * w_ckk..ci * w_ckk + kk];
        for ky in ky_lo..ky_hi {
            let iy = oy + pad - ky;
            let irow = &iplane[iy * w..iy * w + w];
            let wrow = &wchan[ky * k..(ky + 1) * k];
            if unroll && k == 5 && kx_lo == 0 && kx_hi == 5 {
                let ix = ox + pad;
                acc += irow[ix] * wrow[0]
                    + irow[ix - 1] * wrow[1]
                    + irow[ix - 2] * wrow[2]
                    + irow[ix - 3] * wrow[3]
                    + irow[ix - 4] * wrow[4];
            } else {
                for kx in kx_lo..kx_hi {
                    acc += irow[ox + pad - kx] * wrow[kx];
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_tensor::conv::{conv_transpose2d, Conv2dSpec};
    use cc19_tensor::rng::Xorshift;
    use cc19_tensor::Tensor;

    fn reference(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) -> Vec<f32> {
        let x = Tensor::from_vec([1, s.cin, s.h, s.w], input.to_vec()).unwrap();
        let wt = Tensor::from_vec([s.cin, s.cout, s.k, s.k], weight.to_vec()).unwrap();
        let b = Tensor::from_vec([s.cout], bias.to_vec()).unwrap();
        conv_transpose2d(&x, &wt, Some(&b), Conv2dSpec { stride: 1, padding: s.pad })
            .unwrap()
            .into_vec()
    }

    fn random_case(seed: u64, s: ConvShape) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let input: Vec<f32> = (0..s.cin * s.h * s.w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let weight: Vec<f32> =
            (0..s.cin * s.cout * s.k * s.k).map(|_| rng.uniform(-0.5, 0.5)).collect();
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
        let s = ConvShape { cin: 3, cout: 2, h: 11, w: 9, k: 5, pad: 2 };
        let (input, weight, bias) = random_case(1, s);
        let expect = reference(&input, &weight, &bias, s);
        assert_eq!(expect.len(), s.cout * out_h(s) * out_w(s));
        for level in OptLevel::ALL {
            let got = deconv2d(level, &input, &weight, &bias, s);
            assert_close(&got, &expect, 1e-4);
        }
    }

    #[test]
    fn all_levels_match_reference_1x1() {
        let s = ConvShape { cin: 4, cout: 3, h: 7, w: 7, k: 1, pad: 0 };
        let (input, weight, bias) = random_case(2, s);
        let expect = reference(&input, &weight, &bias, s);
        for level in OptLevel::ALL {
            assert_close(&deconv2d(level, &input, &weight, &bias, s), &expect, 1e-4);
        }
    }

    #[test]
    fn scatter_equals_gather_on_larger_image() {
        let s = ConvShape { cin: 2, cout: 2, h: 24, w: 24, k: 5, pad: 2 };
        let (input, weight, bias) = random_case(3, s);
        let scatter = deconv2d(OptLevel::Baseline, &input, &weight, &bias, s);
        for level in [
            OptLevel::Refactored,
            OptLevel::RefactoredPrefetch,
            OptLevel::RefactoredPrefetchUnrolled,
        ] {
            let got = deconv2d(level, &input, &weight, &bias, s);
            assert_close(&got, &scatter, 1e-3);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn deconv_px_is_bitwise_the_scalar_gather() {
        for (k, pad) in [(3usize, 1usize), (5, 2), (3, 0)] {
            let s = ConvShape { cin: 2, cout: 3, h: 12, w: 10, k, pad };
            let (input, weight, bias) = random_case(31 + k as u64, s);
            let (oh, ow) = (out_h(s), out_w(s));
            for unroll in [false, true] {
                let mut expect = vec![0.0f32; s.cout * oh * ow];
                deconv_gather(&input, &weight, &bias, s, true, unroll, &mut expect);
                for co in 0..s.cout {
                    let wco = &weight[co * k * k..];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let got = deconv_px(&input, wco, s, oy, ox, bias[co], unroll);
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
    fn no_padding_grows_output() {
        let s = ConvShape { cin: 1, cout: 1, h: 4, w: 4, k: 3, pad: 0 };
        assert_eq!(out_h(s), 6);
        let (input, weight, bias) = random_case(4, s);
        let expect = reference(&input, &weight, &bias, s);
        for level in OptLevel::ALL {
            assert_close(&deconv2d(level, &input, &weight, &bias, s), &expect, 1e-4);
        }
    }
}
