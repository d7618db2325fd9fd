//! Scalar ↔ SIMD parity suite for the kernel ladder (DESIGN.md §13).
//!
//! Tolerance contract, stated per kernel and enforced pixel-class by
//! pixel-class:
//!
//! - **Border ring and vector tail** (any output whose filter window
//!   leaves the input, plus the ≤7-column remainder of each interior
//!   row): **bit-exact**. The AVX2 path computes these through the same
//!   scalar per-pixel helpers as the scalar ladder, so any difference
//!   is a dispatch bug, not rounding.
//! - **Conv interior**: the vector path walks the identical
//!   `(ci, ky, kx)` tap order per lane but uses fused multiply-adds
//!   (one rounding per tap instead of two), so each of the ≤ `cin·k²`
//!   taps may shift the accumulator by ≤1 ulp. With the ≤ 4·7·7 taps
//!   and O(1) magnitudes generated here, `|g−e| ≤ 1e-4 + 1e-5·|e|` is
//!   a comfortable envelope for that drift.
//! - **Deconv interior**: same argument with the gather's reversed tap
//!   traversal; same envelope. The Baseline scatter has no vector twin
//!   (`OptLevel::deconv_kernel` maps it to the scalar scatter at every
//!   dispatch level), so its "parity" is exactness by construction.
//! - **3D convolution** (`conv3d_with`, which lowers onto the conv ladder
//!   one output depth at a time): every stage under both dispatches
//!   against a naive f64 oracle, within `1e-5·(1 + |e|)`.
//!
//! The suite runs under both tier-1 invocations: bare (auto dispatch —
//! AVX2 wherever the host supports it) and `CC19_SIMD=scalar`, where
//! `public_entry_points_follow_ambient_dispatch` pins the public API to
//! the forced-scalar ladder bit-for-bit.

use proptest::prelude::*;

use cc19_kernels::conv::{conv2d, conv2d_with, conv3d_with, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{deconv2d, deconv2d_with, out_h, out_w};
use cc19_kernels::simd::{self, SimdLevel};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

fn case(seed: u64, s: ConvShape) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = Xorshift::new(seed.wrapping_mul(6364136223846793005).wrapping_add(1));
    let input: Vec<f32> = (0..s.cin * s.h * s.w).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let wlen = s.cin * s.cout * s.k * s.k;
    let weight: Vec<f32> = (0..wlen).map(|_| rng.uniform(-0.5, 0.5)).collect();
    let bias: Vec<f32> = (0..s.cout).map(|_| rng.uniform(-0.2, 0.2)).collect();
    (input, weight, bias)
}

/// Interior box of the conv output (every tap in bounds) — mirrors the
/// microkernel's split so the test can assert bit-exactness elsewhere.
fn conv_interior(s: ConvShape) -> (usize, usize, usize, usize) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let y0 = s.pad.min(oh);
    let y1 = (s.h + s.pad + 1).saturating_sub(s.k).clamp(y0, oh);
    let x0 = s.pad.min(ow);
    let x1 = (s.w + s.pad + 1).saturating_sub(s.k).clamp(x0, ow);
    (y0, y1, x0, x1)
}

/// Interior box of the deconv output.
fn deconv_interior(s: ConvShape) -> (usize, usize, usize, usize) {
    let (oh, ow) = (out_h(s), out_w(s));
    let y0 = (s.k - 1).saturating_sub(s.pad).min(oh);
    let y1 = s.h.saturating_sub(s.pad).clamp(y0, oh);
    let x0 = (s.k - 1).saturating_sub(s.pad).min(ow);
    let x1 = s.w.saturating_sub(s.pad).clamp(x0, ow);
    (y0, y1, x0, x1)
}

/// FMA-contraction envelope for interior pixels (see module docs).
fn interior_close(g: f32, e: f32) -> bool {
    (g - e).abs() <= 1e-4 + 1e-5 * e.abs()
}

#[allow(clippy::too_many_arguments)]
fn check_parity(
    label: &str,
    scalar: &[f32],
    vector: &[f32],
    oh: usize,
    ow: usize,
    cout: usize,
    interior: (usize, usize, usize, usize),
) {
    let (y0, y1, x0, x1) = interior;
    assert_eq!(scalar.len(), vector.len(), "{label}: length");
    assert_eq!(scalar.len(), cout * oh * ow, "{label}: plane size");
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let i = co * oh * ow + oy * ow + ox;
                let (e, g) = (scalar[i], vector[i]);
                if oy >= y0 && oy < y1 && ox >= x0 && ox < x1 {
                    assert!(
                        interior_close(g, e),
                        "{label} interior ({co},{oy},{ox}): {g} vs {e}"
                    );
                } else {
                    assert!(
                        g.to_bits() == e.to_bits(),
                        "{label} border ({co},{oy},{ox}) must be bit-exact: {g} vs {e}"
                    );
                }
            }
        }
    }
}

/// The k/pad grid the issue names: k ∈ {1,3,5,7}, pad 0 or 'same'.
fn kernel_grid(kidx: usize, same: bool) -> (usize, usize) {
    let k = [1usize, 3, 5, 7][kidx];
    (k, if same { k / 2 } else { 0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every conv stage: AVX2 twin vs scalar ladder, exact at borders,
    /// FMA envelope in the interior. Widths deliberately straddle the
    /// 8-lane and 40-column (×5-unrolled) block boundaries.
    #[test]
    fn conv_simd_matches_scalar(
        seed in 0u64..10_000,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 5usize..12,
        w in 5usize..52,
        kidx in 0usize..4,
        same in proptest::bool::ANY,
    ) {
        prop_assume!(simd::detected() == SimdLevel::Avx2);
        let (k, pad) = kernel_grid(kidx, same);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let s = ConvShape { cin, cout, h, w, k, pad };
        let (input, weight, bias) = case(seed, s);
        for level in OptLevel::ALL {
            let scalar = conv2d_with(level, SimdLevel::Scalar, &input, &weight, &bias, s);
            let vector = conv2d_with(level, SimdLevel::Avx2, &input, &weight, &bias, s);
            check_parity(
                &format!("conv {level:?} k={k} pad={pad} {h}x{w}"),
                &scalar, &vector, s.out_h(), s.out_w(), cout, conv_interior(s),
            );
        }
    }

    /// Every deconv stage: AVX2 gather twin vs scalar ladder (Baseline
    /// scatter maps to itself and must therefore be bit-exact overall).
    #[test]
    fn deconv_simd_matches_scalar(
        seed in 0u64..10_000,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 4usize..10,
        w in 4usize..50,
        kidx in 0usize..4,
        same in proptest::bool::ANY,
    ) {
        prop_assume!(simd::detected() == SimdLevel::Avx2);
        let (k, pad) = kernel_grid(kidx, same);
        prop_assume!(h + k > 1 + 2 * pad && w + k > 1 + 2 * pad);
        let s = ConvShape { cin, cout, h, w, k, pad };
        let (input, weight, bias) = case(seed, s);
        for level in OptLevel::ALL {
            let scalar = deconv2d_with(level, SimdLevel::Scalar, &input, &weight, &bias, s);
            let vector = deconv2d_with(level, SimdLevel::Avx2, &input, &weight, &bias, s);
            let interior = if level == OptLevel::Baseline {
                (0, 0, 0, 0) // scatter has no vector twin: all bit-exact
            } else {
                deconv_interior(s)
            };
            check_parity(
                &format!("deconv {level:?} k={k} pad={pad} {h}x{w}"),
                &scalar, &vector, out_h(s), out_w(s), cout, interior,
            );
        }
    }

    /// The public entry points must equal explicit dispatch at
    /// `simd::active()` bit-for-bit — under `CC19_SIMD=scalar` (the
    /// second tier-1 invocation) this pins `conv2d`/`deconv2d` to the
    /// forced-scalar ladder.
    #[test]
    fn public_entry_points_follow_ambient_dispatch(
        seed in 0u64..10_000,
        cin in 1usize..3,
        cout in 1usize..3,
        h in 5usize..10,
        w in 5usize..20,
        kidx in 0usize..4,
    ) {
        let (k, pad) = kernel_grid(kidx, true);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let s = ConvShape { cin, cout, h, w, k, pad };
        let (input, weight, bias) = case(seed, s);
        let active = simd::active();
        for level in OptLevel::ALL {
            let pub_conv = conv2d(level, &input, &weight, &bias, s);
            let exp_conv = conv2d_with(level, active, &input, &weight, &bias, s);
            prop_assert_eq!(
                pub_conv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                exp_conv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "conv {:?} public vs explicit {:?}", level, active
            );
            let pub_dec = deconv2d(level, &input, &weight, &bias, s);
            let exp_dec = deconv2d_with(level, active, &input, &weight, &bias, s);
            prop_assert_eq!(
                pub_dec.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                exp_dec.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "deconv {:?} public vs explicit {:?}", level, active
            );
        }
    }
}

/// Naive f64 3D convolution: `(Cin, D, H, W)` by `(Cout, Cin, K, K, K)`,
/// stride 1, zero padding `pad` — the oracle for [`conv3d_with`].
fn conv3d_oracle(input: &[f32], weight: &[f32], bias: &[f32], s: Conv3dShape) -> Vec<f64> {
    let (od, oh, ow) = s.out_dhw();
    let at = |extent: usize, o: usize, t: usize| (o + t).checked_sub(s.pad).filter(|&i| i < extent);
    let mut out = Vec::with_capacity(s.cout * od * oh * ow);
    for co in 0..s.cout {
        for oz in 0..od {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[co] as f64;
                    for ci in 0..s.cin {
                        for kz in 0..s.k {
                            for ky in 0..s.k {
                                for kx in 0..s.k {
                                    let (Some(iz), Some(iy), Some(ix)) =
                                        (at(s.d, oz, kz), at(s.h, oy, ky), at(s.w, ox, kx))
                                    else {
                                        continue;
                                    };
                                    let x = input[((ci * s.d + iz) * s.h + iy) * s.w + ix];
                                    let wv = weight[(((co * s.cin + ci) * s.k + kz) * s.k + ky) * s.k + kx];
                                    acc += x as f64 * wv as f64;
                                }
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    out
}

/// Every stage of the 3D convolution, on the scalar ladder and (where
/// the host has it) the AVX2 one, against the f64 oracle: 1×1×1 and
/// 3×3×3 filters, the one-channel stem, depths 1–4, and widths on both
/// sides of the 8-lane vector width.
#[test]
fn conv3d_matches_the_f64_oracle_on_both_ladders() {
    let dispatches: &[SimdLevel] = if simd::detected() == SimdLevel::Avx2 {
        &[SimdLevel::Scalar, SimdLevel::Avx2]
    } else {
        &[SimdLevel::Scalar]
    };
    let mut seed = 0;
    for (k, pad) in [(1usize, 0usize), (3, 1), (3, 0)] {
        for (cin, cout) in [(1usize, 4usize), (4, 4), (3, 2)] {
            for (d, h, w) in [(1usize, 5usize, 5usize), (2, 6, 7), (4, 9, 13), (3, 11, 19)] {
                if d + 2 * pad < k {
                    continue;
                }
                seed += 1;
                let s = Conv3dShape::new(&[cin, d, h, w], &[cout, cin, k, k, k], 1, pad).unwrap();
                let mut rng = Xorshift::new(seed);
                let input: Vec<f32> = (0..s.in_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let weight: Vec<f32> = (0..cout * cin * k * k * k).map(|_| rng.uniform(-0.5, 0.5)).collect();
                let bias: Vec<f32> = (0..cout).map(|_| rng.uniform(-0.2, 0.2)).collect();
                let want = conv3d_oracle(&input, &weight, &bias, s);
                assert_eq!(want.len(), s.out_len());
                for &dispatch in dispatches {
                    for level in OptLevel::ALL {
                        let got = conv3d_with(level, dispatch, &input, &weight, &bias, s);
                        assert_eq!(got.len(), want.len());
                        for (i, (&g, &e)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                (g as f64 - e).abs() <= 1e-5 * (1.0 + e.abs()),
                                "{level:?}/{dispatch:?} k={k} pad={pad} cin={cin} {d}x{h}x{w} [{i}]: {g} vs {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Deterministic regression at a width that exercises every code path
/// of the ×5-unrolled kernel in one row: one 40-column block, one
/// 8-column block, and a scalar tail, for both dedicated extents.
#[test]
fn unrolled_blocks_and_tails_all_exercised() {
    if simd::detected() != SimdLevel::Avx2 {
        eprintln!("skipping: host has no AVX2+FMA");
        return;
    }
    for (k, pad) in [(3usize, 1usize), (5, 2), (7, 3)] {
        let s = ConvShape { cin: 2, cout: 2, h: 9, w: 57, k, pad };
        let (input, weight, bias) = case(99 + k as u64, s);
        for level in [OptLevel::RefactoredPrefetch, OptLevel::RefactoredPrefetchUnrolled] {
            let scalar = conv2d_with(level, SimdLevel::Scalar, &input, &weight, &bias, s);
            let vector = conv2d_with(level, SimdLevel::Avx2, &input, &weight, &bias, s);
            check_parity(
                &format!("conv wide {level:?} k={k}"),
                &scalar, &vector, s.out_h(), s.out_w(), s.cout, conv_interior(s),
            );
            let dscalar = deconv2d_with(level, SimdLevel::Scalar, &input, &weight, &bias, s);
            let dvector = deconv2d_with(level, SimdLevel::Avx2, &input, &weight, &bias, s);
            check_parity(
                &format!("deconv wide {level:?} k={k}"),
                &dscalar, &dvector, out_h(s), out_w(s), s.cout, deconv_interior(s),
            );
        }
    }
}
