//! Explicit AVX2+FMA microkernels for the conv / gather-deconv ladder —
//! the vector twin of every scalar `OptLevel` stage (DESIGN.md §13).
//!
//! Layout: each output plane (one `co`) is computed independently (rayon
//! fans planes out exactly like the scalar ladder). Within a plane the
//! output is split into an *interior* box — every filter tap in bounds,
//! so the inner loops run without bounds checks over 8-lane f32 vectors
//! — and a *border* ring plus an ≤7-column vector tail, which reuse the
//! scalar per-pixel helpers ([`crate::conv::conv_px`],
//! [`crate::deconv::deconv_px`]) and are therefore bit-identical to the
//! same-stage scalar kernel; only interior lanes differ, by the FMA
//! contraction documented in `tests/simd_parity.rs`.
//!
//! The ladder stages map onto two [`Mode`] flags:
//!
//! - **+PF** — `_mm_prefetch(T0)` of the current input row one column
//!   block ahead and of the next filter row, issued once per `(ci, ky)`
//!   panel (the CPU analogue of the paper's private-memory prefetch);
//! - **+LU** — ×5 register blocking over output columns (5 × 8 = 40
//!   outputs in flight, matching the paper's ×5 unroll factor) plus
//!   *dedicated* monomorphized kernels for the 3×3 and 5×5 extents that
//!   dominate DDnet, whose filter loops unroll away completely and whose
//!   row of broadcast weights stays register-resident.
//!
//! Safety: every `unsafe` block in this file relies on (a) AVX2+FMA
//! presence, asserted at the two entry points here before any
//! `#[target_feature]` call; (b) buffer lengths that match the
//! [`ConvShape`], and a filter that fits the padded input, which only the
//! callers check — `conv2d_with` / `deconv2d_with` `assert!` them in every
//! build profile before dispatching here; and (c) the interior box
//! derived in `plane_*` from that shape, which keeps every raw-pointer
//! load inside an input of exactly `cin·h·w` elements. `_mm_prefetch` is
//! a hint and never faults; speculative next-row/next-block addresses are
//! formed with `wrapping_add` so no out-of-allocation pointer arithmetic
//! is performed.
// cc19-lint: allow(unsafe, simd: explicit std::arch AVX2/FMA intrinsics with raw-pointer loads/stores; scalar/SIMD parity is enforced by tests/simd_parity.rs and the forced-scalar tier-1 run)
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use rayon::prelude::*;

use crate::conv::{conv_px, ConvShape};
use crate::deconv::{deconv_px, out_h as deconv_out_h, out_w as deconv_out_w};
use crate::simd::{self, SimdLevel};

/// Which ladder optimizations the microkernel applies (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mode {
    /// +PF: software prefetch of the next column block / filter row.
    pub prefetch: bool,
    /// +LU: ×5 column register blocking + dedicated 3×3/5×5 kernels.
    pub unroll: bool,
}

/// Hoisted loop geometry shared by the block microkernels.
#[derive(Clone, Copy)]
struct Geom {
    /// Input channels.
    cin: usize,
    /// Input plane stride (`h * w`).
    hw: usize,
    /// Input row stride.
    w: usize,
    /// Filter extent.
    k: usize,
    /// Per-`ci` weight stride (`k*k` for conv, `cout*k*k` for deconv).
    ws: usize,
    /// Software prefetch enabled.
    pf: bool,
}

/// Columns per ×5-unrolled register block (5 accumulators × 8 lanes).
const COLS_LU: usize = 40;

fn assert_avx2() {
    assert!(
        simd::detected() == SimdLevel::Avx2,
        "AVX2 microkernel dispatched on hardware without AVX2+FMA"
    );
}

/// AVX2 convolution (stride 1, zero padding), same contract as the
/// scalar [`crate::conv::conv2d`] stages.
pub(crate) fn conv2d_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    mode: Mode,
    out: &mut [f32],
) {
    assert_avx2();
    let (oh, ow) = (s.out_h(), s.out_w());
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, plane)| {
        // SAFETY: AVX2+FMA presence asserted above; the buffer lengths
        // (output included) were asserted by `conv2d_with_into`, and
        // `conv_plane_avx2` confines raw loads and stores to the interior
        // box those lengths bound.
        unsafe { conv_plane_avx2(input, weight, bias, s, co, plane, mode) }
    });
}

/// AVX2 gather deconvolution (stride-1 transposed conv), same contract
/// as the scalar gather stages of [`crate::deconv::deconv2d`].
pub(crate) fn deconv2d_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    mode: Mode,
    out: &mut [f32],
) {
    assert_avx2();
    let (oh, ow) = (deconv_out_h(s), deconv_out_w(s));
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(co, plane)| {
        // SAFETY: as in `conv2d_avx2`.
        unsafe { deconv_plane_avx2(input, weight, bias, s, co, plane, mode) }
    });
}

/// One convolution output plane: scalar border ring + vector interior.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_plane_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    co: usize,
    plane: &mut [f32],
    mode: Mode,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let (h, w, k, pad) = (s.h, s.w, s.k, s.pad);
    let kk = k * k;
    let g = Geom { cin: s.cin, hw: h * w, w, k, ws: kk, pf: mode.prefetch };
    let wbase = &weight[co * s.cin * kk..(co + 1) * s.cin * kk];
    let b = bias[co];

    // Interior box: oy in [y0, y1), ox in [x0, x1) have every tap in
    // bounds (ix = ox + kx - pad ∈ [0, w) for all kx, same for rows).
    let y0 = pad.min(oh);
    let y1 = (h + pad + 1).saturating_sub(k).clamp(y0, oh);
    let x0 = pad.min(ow);
    let x1 = (w + pad + 1).saturating_sub(k).clamp(x0, ow);

    for oy in 0..oh {
        if oy < y0 || oy >= y1 {
            for ox in 0..ow {
                plane[oy * ow + ox] = conv_px(input, wbase, s, oy, ox, b, mode.unroll);
            }
            continue;
        }
        for ox in 0..x0 {
            plane[oy * ow + ox] = conv_px(input, wbase, s, oy, ox, b, mode.unroll);
        }
        for ox in x1..ow {
            plane[oy * ow + ox] = conv_px(input, wbase, s, oy, ox, b, mode.unroll);
        }
        let iy0 = oy - pad;
        let ip = input.as_ptr();
        let wp = wbase.as_ptr();
        let dst = plane.as_mut_ptr().add(oy * ow);
        let mut ox = x0;
        if mode.unroll {
            while ox + COLS_LU <= x1 {
                let ix0 = ox - pad;
                // SAFETY: interior box — lanes ox..ox+40 all have
                // ix0 + kx + lane < w for every kx.
                match k {
                    3 => conv_block_k::<3, 5>(ip, wp, b, g, iy0, ix0, dst.add(ox)),
                    5 => conv_block_k::<5, 5>(ip, wp, b, g, iy0, ix0, dst.add(ox)),
                    _ => conv_block::<5>(ip, wp, b, g, iy0, ix0, dst.add(ox)),
                }
                ox += COLS_LU;
            }
        }
        while ox + 8 <= x1 {
            let ix0 = ox - pad;
            if mode.unroll && k == 3 {
                conv_block_k::<3, 1>(ip, wp, b, g, iy0, ix0, dst.add(ox));
            } else if mode.unroll && k == 5 {
                conv_block_k::<5, 1>(ip, wp, b, g, iy0, ix0, dst.add(ox));
            } else {
                conv_block::<1>(ip, wp, b, g, iy0, ix0, dst.add(ox));
            }
            ox += 8;
        }
        for ox in ox..x1 {
            plane[oy * ow + ox] = conv_px(input, wbase, s, oy, ox, b, mode.unroll);
        }
    }
}

/// Generic-extent convolution block: `NV` 8-lane accumulators over
/// consecutive output columns, weights broadcast per tap.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_block<const NV: usize>(
    ip: *const f32,
    wp: *const f32,
    b: f32,
    g: Geom,
    iy0: usize,
    ix0: usize,
    dst: *mut f32,
) {
    let mut acc = [_mm256_set1_ps(b); NV];
    for ci in 0..g.cin {
        let iplane = ip.add(ci * g.hw);
        let wchan = wp.add(ci * g.ws);
        for ky in 0..g.k {
            let row = iplane.add((iy0 + ky) * g.w + ix0);
            let wrow = wchan.add(ky * g.k);
            if g.pf {
                _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(8 * NV) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(wrow.wrapping_add(g.k) as *const i8);
            }
            for kx in 0..g.k {
                let wv = _mm256_set1_ps(*wrow.add(kx));
                for (v, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(row.add(kx + 8 * v)), wv, *a);
                }
            }
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(8 * v), *a);
    }
}

/// Dedicated `K×K` convolution block (the DDnet-dominant 3×3 and 5×5
/// extents): monomorphized, so both filter loops unroll away and the
/// row of broadcast weights stays register-resident — no inner k-loop
/// survives to the machine code.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_block_k<const K: usize, const NV: usize>(
    ip: *const f32,
    wp: *const f32,
    b: f32,
    g: Geom,
    iy0: usize,
    ix0: usize,
    dst: *mut f32,
) {
    let mut acc = [_mm256_set1_ps(b); NV];
    for ci in 0..g.cin {
        let iplane = ip.add(ci * g.hw);
        let wchan = wp.add(ci * g.ws);
        for ky in 0..K {
            let row = iplane.add((iy0 + ky) * g.w + ix0);
            let wrow = wchan.add(ky * K);
            if g.pf {
                _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(8 * NV) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(wrow.wrapping_add(K) as *const i8);
            }
            let mut wv = [_mm256_setzero_ps(); K];
            for (kx, wvk) in wv.iter_mut().enumerate() {
                *wvk = _mm256_set1_ps(*wrow.add(kx));
            }
            for (v, a) in acc.iter_mut().enumerate() {
                let base = row.add(8 * v);
                for (kx, wvk) in wv.iter().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(base.add(kx)), *wvk, *a);
                }
            }
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(8 * v), *a);
    }
}

/// One gather-deconvolution output plane: scalar border ring + vector
/// interior (inverse coefficient mapping — `iy = oy + pad - ky`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn deconv_plane_avx2(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    s: ConvShape,
    co: usize,
    plane: &mut [f32],
    mode: Mode,
) {
    let (oh, ow) = (deconv_out_h(s), deconv_out_w(s));
    let (h, w, k, pad) = (s.h, s.w, s.k, s.pad);
    let kk = k * k;
    let g = Geom { cin: s.cin, hw: h * w, w, k, ws: s.cout * kk, pf: mode.prefetch };
    // `co`-offset weight view for the scalar border helper (per-`ci`
    // stride stays `cout*k*k`).
    let wco = &weight[co * kk..];
    let b = bias[co];

    // Interior box: iy = oy + pad - ky ∈ [0, h) and ix = ox + pad - kx
    // ∈ [0, w) for every tap.
    let y0 = (k - 1).saturating_sub(pad).min(oh);
    let y1 = h.saturating_sub(pad).clamp(y0, oh);
    let x0 = (k - 1).saturating_sub(pad).min(ow);
    let x1 = w.saturating_sub(pad).clamp(x0, ow);

    for oy in 0..oh {
        if oy < y0 || oy >= y1 {
            for ox in 0..ow {
                plane[oy * ow + ox] = deconv_px(input, wco, s, oy, ox, b, mode.unroll);
            }
            continue;
        }
        for ox in 0..x0 {
            plane[oy * ow + ox] = deconv_px(input, wco, s, oy, ox, b, mode.unroll);
        }
        for ox in x1..ow {
            plane[oy * ow + ox] = deconv_px(input, wco, s, oy, ox, b, mode.unroll);
        }
        let oy_pad = oy + pad;
        let ip = input.as_ptr();
        // Per-`ci` stride is `g.ws`; this base points at `ci = 0, co`.
        let wp = weight.as_ptr().add(co * kk);
        let dst = plane.as_mut_ptr().add(oy * ow);
        let mut ox = x0;
        if mode.unroll {
            while ox + COLS_LU <= x1 {
                let ox0_pad = ox + pad;
                match k {
                    3 => deconv_block_k::<3, 5>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox)),
                    5 => deconv_block_k::<5, 5>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox)),
                    _ => deconv_block::<5>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox)),
                }
                ox += COLS_LU;
            }
        }
        while ox + 8 <= x1 {
            let ox0_pad = ox + pad;
            if mode.unroll && k == 3 {
                deconv_block_k::<3, 1>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox));
            } else if mode.unroll && k == 5 {
                deconv_block_k::<5, 1>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox));
            } else {
                deconv_block::<1>(ip, wp, b, g, oy_pad, ox0_pad, dst.add(ox));
            }
            ox += 8;
        }
        for ox in ox..x1 {
            plane[oy * ow + ox] = deconv_px(input, wco, s, oy, ox, b, mode.unroll);
        }
    }
}

/// Generic-extent gather-deconvolution block (reversed tap traversal:
/// the input column for tap `kx` is `ox + pad - kx`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn deconv_block<const NV: usize>(
    ip: *const f32,
    wp: *const f32,
    b: f32,
    g: Geom,
    oy_pad: usize,
    ox0_pad: usize,
    dst: *mut f32,
) {
    let mut acc = [_mm256_set1_ps(b); NV];
    for ci in 0..g.cin {
        let iplane = ip.add(ci * g.hw);
        let wchan = wp.add(ci * g.ws);
        for ky in 0..g.k {
            let row = iplane.add((oy_pad - ky) * g.w);
            let wrow = wchan.add(ky * g.k);
            if g.pf {
                _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(ox0_pad + 8 * NV) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(wrow.wrapping_add(g.k) as *const i8);
            }
            for kx in 0..g.k {
                let wv = _mm256_set1_ps(*wrow.add(kx));
                let base = row.add(ox0_pad - kx);
                for (v, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(base.add(8 * v)), wv, *a);
                }
            }
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(8 * v), *a);
    }
}

/// Dedicated `K×K` gather-deconvolution block — see [`conv_block_k`].
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn deconv_block_k<const K: usize, const NV: usize>(
    ip: *const f32,
    wp: *const f32,
    b: f32,
    g: Geom,
    oy_pad: usize,
    ox0_pad: usize,
    dst: *mut f32,
) {
    let mut acc = [_mm256_set1_ps(b); NV];
    for ci in 0..g.cin {
        let iplane = ip.add(ci * g.hw);
        let wchan = wp.add(ci * g.ws);
        for ky in 0..K {
            let row = iplane.add((oy_pad - ky) * g.w);
            let wrow = wchan.add(ky * K);
            if g.pf {
                _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(ox0_pad + 8 * NV) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(wrow.wrapping_add(K) as *const i8);
            }
            let mut wv = [_mm256_setzero_ps(); K];
            for (kx, wvk) in wv.iter_mut().enumerate() {
                *wvk = _mm256_set1_ps(*wrow.add(kx));
            }
            for (v, a) in acc.iter_mut().enumerate() {
                let base = row.add(ox0_pad + 8 * v);
                for (kx, wvk) in wv.iter().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_loadu_ps(base.sub(kx)), *wvk, *a);
                }
            }
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(8 * v), *a);
    }
}
