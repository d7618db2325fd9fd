//! GEMM-based convolution: im2col/col2im lowering onto the blocked
//! SGEMM engine in [`crate::gemm`], forward **and** backward, plus the
//! transposed convolution. This is the lowering most deep-learning
//! frameworks use; the direct kernels in [`crate::conv`] are the
//! alternative.
//!
//! The trade-off: the direct path wins for small channel counts (its
//! working set stays in cache and im2col's `C*K*K`-fold input blow-up
//! buys nothing), while the GEMM path wins as `C*K*K` grows because all
//! FLOPs then flow through the register-tiled, packed SGEMM instead of
//! short strided dot products. `ConvBackend::Auto` in `cc19-nn` picks a
//! side per shape; the `gemm_vs_direct` bench in `cc19-bench` measures
//! the crossover.
//!
//! Layout conventions (identical to [`crate::conv`]):
//!
//! * conv2d weight `(Cout, Cin, K, K)`; transposed-conv weight
//!   `(Cin, Cout, K, K)`;
//! * im2col row: the `Cin*K*K` receptive field of one output position.
//!   The forward pass lowers one *panel* of a sample's output positions
//!   at a time (at most `PANEL_BYTES` of rows, see [`panel_rows`]),
//!   multiplies it by the weight into a `(rows, Cout)` block and writes
//!   that block straight into the NCHW output, bias added in the same
//!   pass — its workspace is bounded by the budget, not by the plane.
//!   The backward and transposed lowerings still build the full
//!   `(N*OH*OW, Cin*K*K)` matrix ([`im2col`]);
//! * every GEMM against a transposed operand goes through
//!   [`crate::gemm::matmul_tn`] / [`crate::gemm::matmul_nt`] (or the
//!   engine's `trans_b` flag directly), so no transpose is ever
//!   materialized.
//!
//! Panelling does not change a bit of the output: each output element
//! depends only on its im2col row, the weight and the GEMM path, and
//! every panel runs the path the whole `(N*OH*OW, Cout, Cin*K*K)`
//! product would take (`GemmPath::of`); the convolution still makes one
//! `tensor_gemm_*` observation with that product's FLOP count.
//!
//! The backward pass is two GEMMs plus one col2im:
//!
//! ```text
//! grad_rows = relayout(grad_out)            // (N*OH*OW, Cout)
//! gw = grad_rows^T x cols                   // (Cout, Cin*K*K)
//! gx = col2im(grad_rows x wmat)             // via gather, parallel-safe
//! ```
//!
//! and `conv_transpose2d_gemm` reuses `col2im` for its *forward* pass —
//! transposed convolution is exactly the adjoint of the conv2d
//! input-gradient, with `im2col(grad)` showing up in its backward.

use std::sync::{Mutex, PoisonError};

use rayon::prelude::*;

use crate::conv::Conv2dSpec;
use crate::gemm::{apack_len, matmul, matmul_nt, matmul_tn, observed, sgemm_on, sgemm_prepacked, GemmPath, PackedB, MC};
use crate::{Result, Tensor, TensorError};

/// Byte budget of one forward panel's im2col block: L2-sized, so the
/// block the panel fill writes is still cached when the GEMM packs it.
/// Picked by the panel sweep in EXPERIMENTS.md (§ "Bounded-workspace
/// GEMM convolution").
const PANEL_BYTES: usize = 256 * 1024;

/// The most output positions a forward panel holds for a reduction depth
/// of `ckk` (`Cin*K*K`): the most whole `MC`-row GEMM blocks whose im2col
/// rows fit `PANEL_BYTES` (256 KiB), and at least one block when a single
/// one does not. A panel is smaller where its product rows and A packing
/// would push its workspace over the budget, or to give each pool thread
/// one.
pub fn panel_rows(ckk: usize) -> usize {
    (PANEL_BYTES / (4 * ckk.max(1)) / MC).max(1) * MC
}

/// Geometry of one im2col lowering: input planes `(H, W)`, a square `K`
/// filter, its stride and padding, and the output grid's width `OW`.
struct Lowering {
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    ow: usize,
}

impl Lowering {
    /// Write the receptive field of output position `pos` (row-major in
    /// `(OH, OW)`) of one sample `x` into `row` (`C*K*K` long). Each
    /// kernel row's in-bounds taps are one contiguous run of an input
    /// row, copied as a slice; taps in the padding are zero.
    fn fill_row(&self, x: &[f32], pos: usize, row: &mut [f32]) {
        let (h, w, k) = (self.h as isize, self.w, self.k);
        let (oy, ox) = (pos / self.ow, pos % self.ow);
        let ix0 = (ox * self.stride) as isize - self.pad as isize;
        // kx in lo..hi keeps ix0 + kx inside 0..w.
        let lo = (-ix0).clamp(0, k as isize) as usize;
        let hi = (w as isize - ix0).clamp(lo as isize, k as isize) as usize;
        for (ci, field) in row.chunks_exact_mut(k * k).enumerate() {
            let plane = &x[ci * self.h * w..(ci + 1) * self.h * w];
            for (ky, dst) in field.chunks_exact_mut(k).enumerate() {
                let iy = (oy * self.stride + ky) as isize - self.pad as isize;
                if iy < 0 || iy >= h {
                    dst.fill(0.0);
                    continue;
                }
                let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                dst[..lo].fill(0.0);
                if lo < hi {
                    let start = (ix0 + lo as isize) as usize;
                    dst[lo..hi].copy_from_slice(&src[start..start + hi - lo]);
                }
                dst[hi..].fill(0.0);
            }
        }
    }
}

/// Lower a `(N, C, H, W)` input into the im2col matrix of shape
/// `(N * OH * OW, C * K * K)`: each row is the receptive field of one
/// output position. Parallel over output rows (disjoint output slices).
/// The backward and transposed lowerings use it; the forward pass fills
/// the same rows one panel at a time.
pub fn im2col(input: &Tensor, k: usize, spec: Conv2dSpec) -> Result<Tensor> {
    if input.shape().rank() != 4 {
        return Err(TensorError::Incompatible("im2col expects rank-4 NCHW input".into()));
    }
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = spec.out_extent(h, k);
    let ow = spec.out_extent(w, k);
    let cols = c * k * k;
    let mut out = Tensor::zeros([n * oh * ow, cols]);
    if n * oh * ow == 0 || cols == 0 {
        return Ok(out);
    }
    let ind = input.data();
    let g = Lowering { h, w, k, stride: spec.stride, pad: spec.padding, ow };
    out.data_mut().par_chunks_mut(cols).enumerate().for_each(|(row_idx, row)| {
        let ni = row_idx / (oh * ow);
        g.fill_row(&ind[ni * c * h * w..(ni + 1) * c * h * w], row_idx % (oh * ow), row);
    });
    Ok(out)
}

/// Inverse lowering: scatter-add an im2col-shaped matrix
/// `(N*OH*OW, C*K*K)` back onto a `(N, C, H, W)` image, where
/// `OH = spec.out_extent(h, k)` etc.
///
/// Written in *gather* form — each input pixel sums every
/// `(oy, ox, ky, kx)` combination that covers it — so output pixels are
/// written exactly once and the loop parallelizes over `(n, c)` planes
/// with no scatter races or atomics.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    cols.shape().expect_rank(2)?;
    let oh = spec.out_extent(h, k);
    let ow = spec.out_extent(w, k);
    let ckk = c * k * k;
    if cols.dims() != [n * oh * ow, ckk] {
        return Err(TensorError::Incompatible(format!(
            "col2im: cols shape {:?} inconsistent with (n={n}, c={c}, h={h}, w={w}, k={k}, {spec:?})",
            cols.dims()
        )));
    }
    let mut out = Tensor::zeros([n, c, h, w]);
    if out.numel() == 0 {
        return Ok(out);
    }
    let cd = cols.data();
    let s = spec.stride;
    let p = spec.padding;
    out.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, od)| {
        let ci = plane % c;
        let ni = plane / c;
        for iy in 0..h {
            for ix in 0..w {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    // oy * s + ky - p == iy  =>  oy = (iy + p - ky) / s
                    let ty = iy + p;
                    if ty < ky || !(ty - ky).is_multiple_of(s) {
                        continue;
                    }
                    let oy = (ty - ky) / s;
                    if oy >= oh {
                        continue;
                    }
                    for kx in 0..k {
                        let tx = ix + p;
                        if tx < kx || !(tx - kx).is_multiple_of(s) {
                            continue;
                        }
                        let ox = (tx - kx) / s;
                        if ox >= ow {
                            continue;
                        }
                        let row = ((ni * oh + oy) * ow + ox) * ckk;
                        acc += cd[row + ci * k * k + ky * k + kx];
                    }
                }
                od[iy * w + ix] = acc;
            }
        }
    });
    Ok(out)
}

/// Re-layout `(N, C, H, W)` into row-major `(N*H*W, C)` — the GEMM-side
/// view where each spatial position is a row.
fn nchw_to_rows(t: &Tensor) -> Result<Tensor> {
    if t.shape().rank() != 4 {
        return Err(TensorError::Incompatible("nchw_to_rows expects rank-4 input".into()));
    }
    let d = t.dims();
    let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
    let mut out = Tensor::zeros([n * hw, c]);
    let td = t.data();
    out.data_mut().par_chunks_mut(c).enumerate().for_each(|(row_idx, row)| {
        let pos = row_idx % hw;
        let ni = row_idx / hw;
        for (ci, o) in row.iter_mut().enumerate() {
            *o = td[(ni * c + ci) * hw + pos];
        }
    });
    Ok(out)
}

/// Inverse of [`nchw_to_rows`]: `(N*H*W, C)` rows back to `(N, C, H, W)`.
fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Result<Tensor> {
    let hw = h * w;
    if rows.dims() != [n * hw, c] {
        return Err(TensorError::Incompatible(format!(
            "rows_to_nchw: rows shape {:?} inconsistent with ({n}, {c}, {h}, {w})",
            rows.dims()
        )));
    }
    let mut out = Tensor::zeros([n, c, h, w]);
    let rd = rows.data();
    out.data_mut().par_chunks_mut(hw).enumerate().for_each(|(plane, od)| {
        let ci = plane % c;
        let ni = plane / c;
        for (pos, o) in od.iter_mut().enumerate() {
            *o = rd[(ni * hw + pos) * c + ci];
        }
    });
    Ok(out)
}

/// Add a per-channel bias in place on an NCHW tensor.
fn add_bias_nchw(out: &mut Tensor, bias: &Tensor, cout: usize) -> Result<()> {
    if bias.numel() != cout {
        return Err(TensorError::Incompatible(format!(
            "bias has {} elements, want {cout}",
            bias.numel()
        )));
    }
    let d = out.dims();
    let hw = d[2] * d[3];
    let bd = bias.data().to_vec();
    out.data_mut().par_chunks_mut(hw).enumerate().for_each(|(plane, od)| {
        let bb = bd[plane % cout];
        for v in od {
            *v += bb;
        }
    });
    Ok(())
}

/// Per-output-channel sum of an NCHW gradient (the bias gradient).
fn channel_sums(grad_out: &Tensor, cout: usize) -> Tensor {
    let d = grad_out.dims();
    let (n, hw) = (d[0], d[2] * d[3]);
    let gd = grad_out.data();
    let mut gb = Tensor::zeros([cout]);
    let gbd = gb.data_mut();
    for ni in 0..n {
        for (co, g) in gbd.iter_mut().enumerate() {
            let base = (ni * cout + co) * hw;
            *g += gd[base..base + hw].iter().sum::<f32>();
        }
    }
    gb
}

/// GEMM-backed convolution, same semantics as [`crate::conv::conv2d`]
/// (square kernels): per sample, one panel of output positions at a
/// time ([`panel_rows`]), the panel's im2col rows times the weight
/// reshaped to `(Cout, C*K*K)`, written into the NCHW output with the
/// bias added. Bit-identical to lowering the whole batch with
/// [`im2col`] and one `(N*OH*OW, C*K*K) x (C*K*K, Cout)` product.
pub fn conv2d_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let g = gemm_geometry(input.dims(), weight, bias, spec)?;
    let mut out = Tensor::zeros([g.n, g.cout, g.oh, g.ow]);
    conv2d_gemm_into(input.data(), input.dims(), weight, bias, spec, out.data_mut())?;
    Ok(out)
}

/// The extents of one forward GEMM convolution.
struct GemmGeometry {
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    k: usize,
    oh: usize,
    ow: usize,
}

/// Check an `input_dims` input against `weight` / `bias` for
/// [`conv2d_gemm`] and size its output.
fn gemm_geometry(input_dims: &[usize], weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<GemmGeometry> {
    if weight.shape().rank() != 4 {
        return Err(TensorError::Incompatible("conv2d_gemm expects rank-4 weight".into()));
    }
    if input_dims.len() != 4 {
        return Err(TensorError::Incompatible("conv2d_gemm expects rank-4 NCHW input".into()));
    }
    let wd = weight.dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if kh != kw {
        return Err(TensorError::Incompatible("conv2d_gemm supports square kernels only".into()));
    }
    let d = input_dims;
    if d[1] != cin {
        return Err(TensorError::Incompatible(format!(
            "conv2d_gemm: input has {} channels, weight expects {cin}",
            d[1]
        )));
    }
    if let Some(b) = bias.filter(|b| b.numel() != cout) {
        return Err(TensorError::Incompatible(format!(
            "bias has {} elements, want {cout}",
            b.numel()
        )));
    }
    let (oh, ow) = (spec.out_extent(d[2], kh), spec.out_extent(d[3], kw));
    Ok(GemmGeometry { n: d[0], cin, h: d[2], w: d[3], cout, k: kh, oh, ow })
}

/// [`conv2d_gemm`] of the `input_dims`-shaped NCHW `input` into `out`
/// (`N*Cout*OH*OW` long, every element overwritten). The weight is packed
/// once per call and shared by every panel.
pub fn conv2d_gemm_into(
    input: &[f32],
    input_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let GemmGeometry { n, cin, h, w, cout, k, oh, ow } = gemm_geometry(input_dims, weight, bias, spec)?;
    if input.len() != n * cin * h * w || out.len() != n * cout * oh * ow {
        return Err(TensorError::Incompatible(format!(
            "conv2d_gemm_into: {} input / {} output elements for {input_dims:?} -> ({n}, {cout}, {oh}, {ow})",
            input.len(),
            out.len()
        )));
    }
    let _obs = crate::obs::conv_call(
        "conv2d_gemm",
        "fwd",
        2 * crate::obs::macs(&[n, cout, cin, k, k, oh, ow]),
    );

    let (ckk, ohw) = (cin * k * k, oh * ow);
    let path = GemmPath::of(n * ohw, cout, ckk);
    // At most `panel_rows` per panel, fewer while a block's whole
    // workspace (below) would exceed `PANEL_BYTES`, and at least one
    // panel per thread of the pool where a plane has that many `MC` blocks.
    let per_thread = ohw.div_ceil(rayon::current_num_threads()).div_ceil(MC) * MC;
    let workspace_len = |rows: usize| rows * (ckk + cout) + apack_len(rows, ckk);
    let mut rows = panel_rows(ckk).min(per_thread);
    while rows > MC && 4 * workspace_len(rows) > PANEL_BYTES {
        rows -= MC;
    }
    let rows = rows.min(ohw).max(1);
    let panels = ohw.div_ceil(rows);
    let g = Lowering { h, w, k, stride: spec.stride, pad: spec.padding, ow };
    let (wmat, bias) = (weight.data(), bias.map(Tensor::data));
    // (len, C*K*K) x (Cout, C*K*K)^T: the weight transpose is folded
    // into GEMM packing, not materialized, and packed once for all panels
    // and threads.
    let packed = matches!(path, GemmPath::Packed).then(|| PackedB::new(wmat, ckk, cout, true));
    // Panels run in index-ordered blocks across the pool, each block in
    // one workspace of its own (im2col rows, panel product, A packing);
    // a finished panel's block of the product is written into the NCHW
    // planes under the lock, a small copy next to the panel's fill and
    // GEMM.
    let (cols_len, prod_len) = (rows * ckk, rows * cout);
    let workspace = || vec![0.0f32; workspace_len(rows)];
    let out = Mutex::new(out);
    let lower = || {
        (0..n * panels).into_par_iter().for_each_init(workspace, |ws, p| {
            let (ni, r0) = (p / panels, p % panels * rows);
            let len = (ohw - r0).min(rows);
            let sample = &input[ni * cin * h * w..(ni + 1) * cin * h * w];
            let (cols, rest) = ws.split_at_mut(cols_len);
            let (prod, ap) = rest.split_at_mut(prod_len);
            let (cols, prod) = (&mut cols[..len * ckk], &mut prod[..len * cout]);
            for (t, row) in cols.chunks_exact_mut(ckk.max(1)).enumerate() {
                g.fill_row(sample, r0 + t, row);
            }
            prod.fill(0.0);
            match &packed {
                Some(bp) => sgemm_prepacked(false, len, 0, cols, bp, prod, ap),
                None => sgemm_on(path, false, true, len, cout, ckk, cols, wmat, prod),
            }
            let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
            for (co, plane) in out[ni * cout * ohw..(ni + 1) * cout * ohw].chunks_exact_mut(ohw).enumerate() {
                let (dst, src) = (&mut plane[r0..r0 + len], prod[co..].iter().step_by(cout));
                match bias {
                    Some(b) => dst.iter_mut().zip(src).for_each(|(o, &v)| *o = v + b[co]),
                    None => dst.iter_mut().zip(src).for_each(|(o, &v)| *o = v),
                }
            }
        })
    };
    match 2 * crate::obs::macs(&[n, ohw, cout, ckk]) {
        0 => lower(),
        flops => observed(flops, lower),
    }
    Ok(())
}

/// Backward pass of [`conv2d_gemm`]; returns
/// `(grad_input, grad_weight, grad_bias)`, matching
/// [`crate::conv::conv2d_backward`].
///
/// Both gradients are single GEMMs over the same im2col matrix the
/// forward pass uses:
/// `gw = grad_rows^T x cols` and `gx = col2im(grad_rows x wmat)`.
pub fn conv2d_gemm_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let wd = weight.dims();
    let (cout, cin, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if kh != kw {
        return Err(TensorError::Incompatible(
            "conv2d_gemm_backward supports square kernels only".into(),
        ));
    }
    let d = input.dims();
    let (n, h, w) = (d[0], d[2], d[3]);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let god = grad_out.dims();
    if god != [n, cout, oh, ow] {
        return Err(TensorError::Incompatible(format!(
            "conv2d_gemm_backward: grad_out shape {god:?} inconsistent with input {:?} / weight {wd:?}",
            input.dims()
        )));
    }
    let _obs = crate::obs::conv_call(
        "conv2d_gemm",
        "bwd",
        4 * crate::obs::macs(&[n, cout, cin, kh, kw, oh, ow]),
    );

    let grad_rows = nchw_to_rows(grad_out)?; // (N*OH*OW, Cout)
    let cols = im2col(input, kh, spec)?; // (N*OH*OW, Cin*K*K)

    // grad_weight: (Cout, N*OH*OW) x (N*OH*OW, Cin*K*K).
    let gw_mat = matmul_tn(&grad_rows, &cols)?;
    let gw = gw_mat.reshape([cout, cin, kh, kw])?;

    // grad_input: spread (N*OH*OW, Cout) x (Cout, Cin*K*K) back onto the
    // input grid.
    let wmat = weight.reshape([cout, cin * kh * kw])?;
    let gcols = matmul(&grad_rows, &wmat)?;
    let gx = col2im(&gcols, n, cin, h, w, kh, spec)?;

    let gb = channel_sums(grad_out, cout);
    Ok((gx, gw, gb))
}

/// GEMM-backed transposed convolution, same semantics as
/// [`crate::conv::conv_transpose2d`] (weight `(Cin, Cout, K, K)`).
///
/// The transposed convolution *is* the adjoint of the conv2d
/// input-gradient, so its forward pass is the `gx` path of
/// [`conv2d_gemm_backward`] run with the roles swapped: one GEMM
/// `(N*H*W, Cin) x (Cin, Cout*K*K)` followed by `col2im` onto the
/// up-sampled output grid.
pub fn conv_transpose2d_gemm(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    if input.shape().rank() != 4 || weight.shape().rank() != 4 {
        return Err(TensorError::Incompatible(
            "conv_transpose2d_gemm expects rank-4 input and weight".into(),
        ));
    }
    let wd = weight.dims();
    let (cin_w, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if kh != kw {
        return Err(TensorError::Incompatible(
            "conv_transpose2d_gemm supports square kernels only".into(),
        ));
    }
    let d = input.dims();
    let (n, cin, h, w) = (d[0], d[1], d[2], d[3]);
    if cin != cin_w {
        return Err(TensorError::Incompatible(format!(
            "conv_transpose2d_gemm: input has {cin} channels, weight expects {cin_w}"
        )));
    }
    let oht = spec.transposed_out_extent(h, kh);
    let owt = spec.transposed_out_extent(w, kw);
    let _obs = crate::obs::conv_call(
        "conv_transpose2d_gemm",
        "fwd",
        2 * crate::obs::macs(&[n, cin, h, w, cout, kh, kw]),
    );

    let rows = nchw_to_rows(input)?; // (N*H*W, Cin)
    let wmat = weight.reshape([cin, cout * kh * kw])?;
    let gcols = matmul(&rows, &wmat)?; // (N*H*W, Cout*K*K)
    // The conv geometry linking the two grids: the *output* (oht, owt)
    // plays the input role, and spec.out_extent(oht, k) == h exactly.
    let mut out = col2im(&gcols, n, cout, oht, owt, kh, spec)?;
    if let Some(b) = bias {
        add_bias_nchw(&mut out, b, cout)?;
    }
    Ok(out)
}

/// Backward pass of [`conv_transpose2d_gemm`]; returns
/// `(grad_input, grad_weight, grad_bias)`, matching
/// [`crate::conv::conv_transpose2d_backward`].
///
/// By adjointness the roles flip once more: `im2col(grad_out)` is the
/// shared matrix, `gx = im2col(grad) x wmat^T` and
/// `gw = x_rows^T x im2col(grad)`.
pub fn conv_transpose2d_gemm_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let wd = weight.dims();
    let (cin, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if kh != kw {
        return Err(TensorError::Incompatible(
            "conv_transpose2d_gemm_backward supports square kernels only".into(),
        ));
    }
    let d = input.dims();
    let (n, h, w) = (d[0], d[2], d[3]);
    let oht = spec.transposed_out_extent(h, kh);
    let owt = spec.transposed_out_extent(w, kw);
    if grad_out.dims() != [n, cout, oht, owt] {
        return Err(TensorError::Incompatible(format!(
            "conv_transpose2d_gemm_backward: grad_out shape {:?} inconsistent with input {:?} / weight {wd:?}",
            grad_out.dims(),
            input.dims()
        )));
    }
    let _obs = crate::obs::conv_call(
        "conv_transpose2d_gemm",
        "bwd",
        4 * crate::obs::macs(&[n, cin, h, w, cout, kh, kw]),
    );

    // (N*H*W, Cout*K*K): receptive fields of grad_out seen from the
    // input grid (out_extent(oht, k) == h).
    let cols_g = im2col(grad_out, kh, spec)?;
    let wmat = weight.reshape([cin, cout * kh * kw])?;

    // grad_input: (N*H*W, Cout*K*K) x (Cin, Cout*K*K)^T.
    let gx_rows = matmul_nt(&cols_g, &wmat)?;
    let gx = rows_to_nchw(&gx_rows, n, cin, h, w)?;

    // grad_weight: (Cin, N*H*W) x (N*H*W, Cout*K*K).
    let x_rows = nchw_to_rows(input)?;
    let gw_mat = matmul_tn(&x_rows, &cols_g)?;
    let gw = gw_mat.reshape([cin, cout, kh, kw])?;

    let gb = channel_sums(grad_out, cout);
    Ok((gx, gw, gb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d, conv2d_backward, conv_transpose2d, conv_transpose2d_backward};
    use crate::rng::Xorshift;

    #[test]
    fn im2col_shapes_and_content() {
        // 1x1x3x3 input, k=2, stride 1, no padding: 4 rows of 4
        let input = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let cols = im2col(&input, 2, Conv2dSpec { stride: 1, padding: 0 }).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // first receptive field: [1,2,4,5]
        assert_eq!(&cols.data()[..4], &[1.0, 2.0, 4.0, 5.0]);
        // last: [5,6,8,9]
        assert_eq!(&cols.data()[12..], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_zero_pads() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let cols = im2col(&input, 3, Conv2dSpec { stride: 1, padding: 1 }).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // top-left output: receptive field has 5 padded zeros, 4 ones
        let first: f32 = cols.data()[..9].iter().sum();
        assert_eq!(first, 4.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property, checked over stride/padding combinations.
        let mut rng = Xorshift::new(5);
        for (stride, padding, k) in [(1usize, 0usize, 3usize), (2, 1, 3), (1, 2, 5), (3, 1, 2)] {
            let spec = Conv2dSpec { stride, padding };
            let (n, c, h, w) = (2, 3, 7, 6);
            if h + 2 * padding < k || w + 2 * padding < k {
                continue;
            }
            let x = rng.uniform_tensor([n, c, h, w], -1.0, 1.0);
            let cols_shape = im2col(&x, k, spec).unwrap();
            let y = rng.uniform_tensor(cols_shape.dims().to_vec(), -1.0, 1.0);
            let lhs: f32 = cols_shape.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
            let back = col2im(&y, n, c, h, w, k, spec).unwrap();
            let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
                "adjoint mismatch at stride {stride} pad {padding} k {k}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn gemm_matches_direct_conv() {
        let mut rng = Xorshift::new(1);
        for (stride, padding, k) in [(1usize, 1usize, 3usize), (2, 2, 5), (1, 0, 1)] {
            let spec = Conv2dSpec { stride, padding };
            let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
            let wgt = rng.uniform_tensor([4, 3, k, k], -0.5, 0.5);
            let b = rng.uniform_tensor([4], -0.2, 0.2);
            let direct = conv2d(&x, &wgt, Some(&b), spec).unwrap();
            let gemm = conv2d_gemm(&x, &wgt, Some(&b), spec).unwrap();
            assert_eq!(direct.dims(), gemm.dims());
            assert!(
                direct.all_close(&gemm, 1e-4),
                "mismatch at stride {stride} pad {padding} k {k}: max diff {}",
                direct.max_abs_diff(&gemm).unwrap()
            );
        }
    }

    #[test]
    fn gemm_backward_matches_direct_backward() {
        let mut rng = Xorshift::new(2);
        for (stride, padding, k) in [(1usize, 1usize, 3usize), (2, 2, 5), (1, 0, 1), (2, 0, 2)] {
            let spec = Conv2dSpec { stride, padding };
            let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
            let wgt = rng.uniform_tensor([4, 3, k, k], -0.5, 0.5);
            let oh = spec.out_extent(8, k);
            let grad = rng.uniform_tensor([2, 4, oh, oh], -1.0, 1.0);
            let (gx_d, gw_d, gb_d) = conv2d_backward(&x, &wgt, &grad, spec).unwrap();
            let (gx_g, gw_g, gb_g) = conv2d_gemm_backward(&x, &wgt, &grad, spec).unwrap();
            assert!(
                gx_d.all_close(&gx_g, 1e-3),
                "gx mismatch at stride {stride} pad {padding} k {k}: {}",
                gx_d.max_abs_diff(&gx_g).unwrap()
            );
            assert!(
                gw_d.all_close(&gw_g, 1e-3),
                "gw mismatch at stride {stride} pad {padding} k {k}: {}",
                gw_d.max_abs_diff(&gw_g).unwrap()
            );
            assert!(gb_d.all_close(&gb_g, 1e-3), "gb mismatch at stride {stride} pad {padding} k {k}");
        }
    }

    #[test]
    fn gemm_transpose_matches_direct_transpose() {
        let mut rng = Xorshift::new(3);
        for (stride, padding, k) in [(1usize, 0usize, 3usize), (2, 1, 3), (2, 0, 2), (1, 1, 5)] {
            let spec = Conv2dSpec { stride, padding };
            let x = rng.uniform_tensor([2, 4, 5, 6], -1.0, 1.0);
            let wgt = rng.uniform_tensor([4, 3, k, k], -0.5, 0.5); // (Cin, Cout, K, K)
            let b = rng.uniform_tensor([3], -0.2, 0.2);
            let direct = conv_transpose2d(&x, &wgt, Some(&b), spec).unwrap();
            let gemm = conv_transpose2d_gemm(&x, &wgt, Some(&b), spec).unwrap();
            assert_eq!(direct.dims(), gemm.dims());
            assert!(
                direct.all_close(&gemm, 1e-3),
                "mismatch at stride {stride} pad {padding} k {k}: {}",
                direct.max_abs_diff(&gemm).unwrap()
            );
        }
    }

    #[test]
    fn gemm_transpose_backward_matches_direct() {
        let mut rng = Xorshift::new(4);
        for (stride, padding, k) in [(1usize, 0usize, 3usize), (2, 1, 3), (2, 0, 2)] {
            let spec = Conv2dSpec { stride, padding };
            let x = rng.uniform_tensor([2, 4, 5, 5], -1.0, 1.0);
            let wgt = rng.uniform_tensor([4, 3, k, k], -0.5, 0.5);
            let oht = spec.transposed_out_extent(5, k);
            let grad = rng.uniform_tensor([2, 3, oht, oht], -1.0, 1.0);
            let (gx_d, gw_d, gb_d) = conv_transpose2d_backward(&x, &wgt, &grad, spec).unwrap();
            let (gx_g, gw_g, gb_g) =
                conv_transpose2d_gemm_backward(&x, &wgt, &grad, spec).unwrap();
            assert!(
                gx_d.all_close(&gx_g, 1e-3),
                "gx mismatch at stride {stride} pad {padding} k {k}: {}",
                gx_d.max_abs_diff(&gx_g).unwrap()
            );
            assert!(
                gw_d.all_close(&gw_g, 1e-3),
                "gw mismatch at stride {stride} pad {padding} k {k}: {}",
                gw_d.max_abs_diff(&gw_g).unwrap()
            );
            assert!(gb_d.all_close(&gb_g, 1e-3), "gb mismatch at stride {stride} pad {padding} k {k}");
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w_bad_cin = Tensor::zeros([4, 3, 3, 3]);
        assert!(conv2d_gemm(&x, &w_bad_cin, None, Conv2dSpec::default()).is_err());
        let w_rect = Tensor::zeros([4, 2, 3, 5]);
        assert!(conv2d_gemm(&x, &w_rect, None, Conv2dSpec::default()).is_err());
        let w_ok = Tensor::zeros([4, 2, 3, 3]);
        let bad_grad = Tensor::zeros([1, 4, 9, 9]);
        assert!(conv2d_gemm_backward(&x, &w_ok, &bad_grad, Conv2dSpec::default()).is_err());
    }
}
