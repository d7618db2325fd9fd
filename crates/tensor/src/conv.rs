//! Convolution / transposed-convolution primitives (2D NCHW, 3D NCDHW),
//! forward and backward.
//!
//! These are straightforward direct-loop kernels parallelized with rayon
//! over `(batch, out-channel)` pairs. They are the *reference*
//! implementations used by autograd; the ComputeCOVID19+ OpenCL-equivalent
//! kernels with the paper's optimization stages live in `cc19-kernels` and
//! are tested against these.
//!
//! Transposed convolution ("deconvolution" in the paper) is implemented in
//! the *gather* form — each output element gathers the input elements that
//! contribute to it — which is exactly the paper's "inverse coefficient
//! mapping" refactoring (§4.2.1).

use rayon::prelude::*;

use crate::{Result, Tensor, TensorError};

/// Hyper-parameters of a 2D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Spatial stride (same in y and x).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec { stride: 1, padding: 0 }
    }
}

impl Conv2dSpec {
    /// Output spatial extent for an input extent `n` and kernel extent `k`.
    pub fn out_extent(&self, n: usize, k: usize) -> usize {
        (n + 2 * self.padding - k) / self.stride + 1
    }

    /// Output spatial extent of the *transposed* convolution.
    pub fn transposed_out_extent(&self, n: usize, k: usize) -> usize {
        (n - 1) * self.stride + k - 2 * self.padding
    }
}

fn expect_dims4(t: &Tensor, what: &str) -> Result<(usize, usize, usize, usize)> {
    if t.shape().rank() != 4 {
        return Err(TensorError::Incompatible(format!(
            "{what} must be rank-4 (NCHW), got rank {}",
            t.shape().rank()
        )));
    }
    let d = t.dims();
    Ok((d[0], d[1], d[2], d[3]))
}

/// 2D convolution. `input` is `(N, Cin, H, W)`, `weight` is
/// `(Cout, Cin, KH, KW)`, optional `bias` is `(Cout,)`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, cout, oh, ow) = conv2d_out_dims(input.dims(), weight, bias, spec)?;
    let mut out = Tensor::zeros([n, cout, oh, ow]);
    conv2d_into(input.data(), input.dims(), weight, bias, spec, out.data_mut())?;
    Ok(out)
}

/// Check an `input_dims` input against `weight` / `bias` for [`conv2d`]
/// and size its `(N, Cout, OH, OW)` output.
fn conv2d_out_dims(
    input_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize)> {
    let &[n, cin, h, w] = input_dims else {
        return Err(TensorError::Incompatible(format!(
            "conv2d input must be rank-4 (NCHW), got rank {}",
            input_dims.len()
        )));
    };
    let (cout, cin_w, kh, kw) = expect_dims4(weight, "conv2d weight")?;
    if cin != cin_w {
        return Err(TensorError::Incompatible(format!(
            "conv2d: input has {cin} channels, weight expects {cin_w}"
        )));
    }
    if let Some(b) = bias {
        if b.numel() != cout {
            return Err(TensorError::Incompatible(format!(
                "conv2d: bias has {} elements, want {cout}",
                b.numel()
            )));
        }
    }
    if h + 2 * spec.padding < kh || w + 2 * spec.padding < kw {
        return Err(TensorError::Incompatible(format!(
            "conv2d: kernel {kh}x{kw} larger than padded input {h}x{w} (pad {})",
            spec.padding
        )));
    }
    Ok((n, cout, spec.out_extent(h, kh), spec.out_extent(w, kw)))
}

/// [`conv2d`] of the `input_dims`-shaped NCHW `input` into `out`
/// (`N*Cout*OH*OW` long, every element overwritten).
pub fn conv2d_into(
    input: &[f32],
    input_dims: &[usize],
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let (n, cout, oh, ow) = conv2d_out_dims(input_dims, weight, bias, spec)?;
    let (cin, h, w) = (input_dims[1], input_dims[2], input_dims[3]);
    let (kh, kw) = (weight.dims()[2], weight.dims()[3]);
    if input.len() != n * cin * h * w || out.len() != n * cout * oh * ow {
        return Err(TensorError::Incompatible(format!(
            "conv2d_into: {} input / {} output elements for {input_dims:?} -> ({n}, {cout}, {oh}, {ow})",
            input.len(),
            out.len()
        )));
    }
    let _obs =
        crate::obs::conv_call("conv2d", "fwd", 2 * crate::obs::macs(&[n, cout, cin, kh, kw, oh, ow]));

    let ind = input;
    let wd = weight.data();
    let in_chw = cin * h * w;
    let w_ckk = cin * kh * kw;

    // One rayon task per (n, cout) output plane.
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(plane, od)| {
        let ni = plane / cout;
        let co = plane % cout;
        let b = bias.map_or(0.0, |b| b.data()[co]);
        let wbase = &wd[co * w_ckk..(co + 1) * w_ckk];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                let iy0 = oy * spec.stride;
                let ix0 = ox * spec.stride;
                for ci in 0..cin {
                    let ibase = ni * in_chw + ci * h * w;
                    let wc = &wbase[ci * kh * kw..(ci + 1) * kh * kw];
                    for ky in 0..kh {
                        let iy = (iy0 + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = ibase + iy as usize * w;
                        let wrow = &wc[ky * kw..ky * kw + kw];
                        for (kx, &wv) in wrow.iter().enumerate() {
                            let ix = (ix0 + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += ind[irow + ix as usize] * wv;
                        }
                    }
                }
                od[oy * ow + ox] = acc;
            }
        }
    });
    Ok(())
}

/// Gradients of [`conv2d`] w.r.t. input, weight and bias.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, cin, h, w) = expect_dims4(input, "conv2d input")?;
    let (cout, _, kh, kw) = expect_dims4(weight, "conv2d weight")?;
    let (gn, gc, oh, ow) = expect_dims4(grad_out, "conv2d grad_out")?;
    if gn != n || gc != cout || oh != spec.out_extent(h, kh) || ow != spec.out_extent(w, kw) {
        return Err(TensorError::Incompatible(format!(
            "conv2d_backward: grad_out shape {:?} inconsistent with input {:?} / weight {:?}",
            grad_out.dims(),
            input.dims(),
            weight.dims()
        )));
    }
    let _obs =
        crate::obs::conv_call("conv2d", "bwd", 4 * crate::obs::macs(&[n, cout, cin, kh, kw, oh, ow]));

    let ind = input.data();
    let wd = weight.data();
    let gd = grad_out.data();
    let in_chw = cin * h * w;
    let g_chw = cout * oh * ow;
    let w_ckk = cin * kh * kw;
    let s = spec.stride as isize;
    let p = spec.padding as isize;

    // grad_input: gather form, parallel over (n, cin) planes.
    let mut grad_input = Tensor::zeros([n, cin, h, w]);
    grad_input.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, gi)| {
        let ni = plane / cin;
        let ci = plane % cin;
        for iy in 0..h as isize {
            for ix in 0..w as isize {
                let mut acc = 0.0f32;
                for co in 0..cout {
                    let gbase = ni * g_chw + co * oh * ow;
                    let wbase = co * w_ckk + ci * kh * kw;
                    for ky in 0..kh as isize {
                        // iy = oy*s - p + ky  =>  oy = (iy + p - ky) / s
                        let num_y = iy + p - ky;
                        if num_y < 0 || num_y % s != 0 {
                            continue;
                        }
                        let oy = num_y / s;
                        if oy >= oh as isize {
                            continue;
                        }
                        for kx in 0..kw as isize {
                            let num_x = ix + p - kx;
                            if num_x < 0 || num_x % s != 0 {
                                continue;
                            }
                            let ox = num_x / s;
                            if ox >= ow as isize {
                                continue;
                            }
                            acc += gd[gbase + oy as usize * ow + ox as usize]
                                * wd[wbase + (ky * kw as isize + kx) as usize];
                        }
                    }
                }
                gi[(iy * w as isize + ix) as usize] = acc;
            }
        }
    });

    // grad_weight: each output channel owns a disjoint slice — parallel over cout.
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    grad_weight.data_mut().par_chunks_mut(w_ckk).enumerate().for_each(|(co, gw)| {
        for ni in 0..n {
            let gbase = ni * g_chw + co * oh * ow;
            for ci in 0..cin {
                let ibase = ni * in_chw + ci * h * w;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let mut acc = 0.0f32;
                        for oy in 0..oh {
                            let iy = (oy * spec.stride + ky) as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let grow = gbase + oy * ow;
                            let irow = ibase + iy as usize * w;
                            for ox in 0..ow {
                                let ix = (ox * spec.stride + kx) as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += gd[grow + ox] * ind[irow + ix as usize];
                            }
                        }
                        gw[ci * kh * kw + ky * kw + kx] += acc;
                    }
                }
            }
        }
    });

    // grad_bias: sum of grad_out over (n, oh, ow) per channel.
    let mut grad_bias = Tensor::zeros([cout]);
    let gb = grad_bias.data_mut();
    for ni in 0..n {
        for (co, g) in gb.iter_mut().enumerate() {
            let gbase = ni * g_chw + co * oh * ow;
            *g += gd[gbase..gbase + oh * ow].iter().sum::<f32>();
        }
    }

    Ok((grad_input, grad_weight, grad_bias))
}

/// 2D transposed convolution ("deconvolution"). `input` is `(N, Cin, H, W)`,
/// `weight` is `(Cin, Cout, KH, KW)`, optional `bias` is `(Cout,)`.
///
/// Implemented in gather form (the paper's refactored kernel, §4.2.1).
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, cin, h, w) = expect_dims4(input, "conv_transpose2d input")?;
    let (cin_w, cout, kh, kw) = expect_dims4(weight, "conv_transpose2d weight")?;
    if cin != cin_w {
        return Err(TensorError::Incompatible(format!(
            "conv_transpose2d: input has {cin} channels, weight expects {cin_w}"
        )));
    }
    if let Some(b) = bias {
        if b.numel() != cout {
            return Err(TensorError::Incompatible(format!(
                "conv_transpose2d: bias has {} elements, want {cout}",
                b.numel()
            )));
        }
    }
    let oh = spec.transposed_out_extent(h, kh);
    let ow = spec.transposed_out_extent(w, kw);
    // Transposed conv touches each input element once per (cout, ky, kx).
    let _obs = crate::obs::conv_call(
        "conv_transpose2d",
        "fwd",
        2 * crate::obs::macs(&[n, cin, h, w, cout, kh, kw]),
    );
    let mut out = Tensor::zeros([n, cout, oh, ow]);

    let ind = input.data();
    let wd = weight.data();
    let in_chw = cin * h * w;
    let w_ckk = cout * kh * kw;
    let s = spec.stride as isize;
    let p = spec.padding as isize;

    out.data_mut().par_chunks_mut(oh * ow).enumerate().for_each(|(plane, od)| {
        let ni = plane / cout;
        let co = plane % cout;
        let b = bias.map_or(0.0, |b| b.data()[co]);
        for oy in 0..oh as isize {
            for ox in 0..ow as isize {
                let mut acc = b;
                for ky in 0..kh as isize {
                    // oy = iy*s - p + ky  =>  iy = (oy + p - ky)/s
                    let num_y = oy + p - ky;
                    if num_y < 0 || num_y % s != 0 {
                        continue;
                    }
                    let iy = num_y / s;
                    if iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw as isize {
                        let num_x = ox + p - kx;
                        if num_x < 0 || num_x % s != 0 {
                            continue;
                        }
                        let ix = num_x / s;
                        if ix >= w as isize {
                            continue;
                        }
                        for ci in 0..cin {
                            acc += ind[ni * in_chw + ci * h * w + (iy * w as isize + ix) as usize]
                                * wd[ci * w_ckk + co * kh * kw + (ky * kw as isize + kx) as usize];
                        }
                    }
                }
                od[(oy * ow as isize + ox) as usize] = acc;
            }
        }
    });
    Ok(out)
}

/// Gradients of [`conv_transpose2d`] w.r.t. input, weight and bias.
pub fn conv_transpose2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, cin, h, w) = expect_dims4(input, "conv_transpose2d input")?;
    let (_, cout, kh, kw) = expect_dims4(weight, "conv_transpose2d weight")?;
    let (gn, gc, oh, ow) = expect_dims4(grad_out, "conv_transpose2d grad_out")?;
    if gn != n
        || gc != cout
        || oh != spec.transposed_out_extent(h, kh)
        || ow != spec.transposed_out_extent(w, kw)
    {
        return Err(TensorError::Incompatible(format!(
            "conv_transpose2d_backward: grad_out shape {:?} inconsistent with input {:?} / weight {:?}",
            grad_out.dims(),
            input.dims(),
            weight.dims()
        )));
    }
    let _obs = crate::obs::conv_call(
        "conv_transpose2d",
        "bwd",
        4 * crate::obs::macs(&[n, cin, h, w, cout, kh, kw]),
    );

    let ind = input.data();
    let wd = weight.data();
    let gd = grad_out.data();
    let in_chw = cin * h * w;
    let g_chw = cout * oh * ow;
    let w_ckk = cout * kh * kw;
    let s = spec.stride;
    let p = spec.padding as isize;

    // grad_input[n,ci,iy,ix] = sum_{co,ky,kx} g[n,co,iy*s-p+ky,ix*s-p+kx] * w[ci,co,ky,kx]
    let mut grad_input = Tensor::zeros([n, cin, h, w]);
    grad_input.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, gi)| {
        let ni = plane / cin;
        let ci = plane % cin;
        let wbase = &wd[ci * w_ckk..(ci + 1) * w_ckk];
        for iy in 0..h {
            for ix in 0..w {
                let mut acc = 0.0f32;
                for co in 0..cout {
                    let gbase = ni * g_chw + co * oh * ow;
                    let wc = &wbase[co * kh * kw..(co + 1) * kh * kw];
                    for ky in 0..kh {
                        let oy = (iy * s + ky) as isize - p;
                        if oy < 0 || oy >= oh as isize {
                            continue;
                        }
                        let grow = gbase + oy as usize * ow;
                        let wrow = &wc[ky * kw..ky * kw + kw];
                        for (kx, &wv) in wrow.iter().enumerate() {
                            let ox = (ix * s + kx) as isize - p;
                            if ox < 0 || ox >= ow as isize {
                                continue;
                            }
                            acc += gd[grow + ox as usize] * wv;
                        }
                    }
                }
                gi[iy * w + ix] = acc;
            }
        }
    });

    // grad_weight[ci,co,ky,kx] = sum_{n,iy,ix} in[n,ci,iy,ix] * g[n,co,iy*s-p+ky,ix*s-p+kx]
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    grad_weight.data_mut().par_chunks_mut(w_ckk).enumerate().for_each(|(ci, gw)| {
        for ni in 0..n {
            let ibase = ni * in_chw + ci * h * w;
            for co in 0..cout {
                let gbase = ni * g_chw + co * oh * ow;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let mut acc = 0.0f32;
                        for iy in 0..h {
                            let oy = (iy * s + ky) as isize - p;
                            if oy < 0 || oy >= oh as isize {
                                continue;
                            }
                            let irow = ibase + iy * w;
                            let grow = gbase + oy as usize * ow;
                            for ix in 0..w {
                                let ox = (ix * s + kx) as isize - p;
                                if ox < 0 || ox >= ow as isize {
                                    continue;
                                }
                                acc += ind[irow + ix] * gd[grow + ox as usize];
                            }
                        }
                        gw[co * kh * kw + ky * kw + kx] += acc;
                    }
                }
            }
        }
    });

    // grad_bias
    let mut grad_bias = Tensor::zeros([cout]);
    let gb = grad_bias.data_mut();
    for ni in 0..n {
        for (co, g) in gb.iter_mut().enumerate() {
            let gbase = ni * g_chw + co * oh * ow;
            *g += gd[gbase..gbase + oh * ow].iter().sum::<f32>();
        }
    }

    Ok((grad_input, grad_weight, grad_bias))
}

/// 3D convolution. `input` is `(N, Cin, D, H, W)`, `weight` is
/// `(Cout, Cin, KD, KH, KW)`, optional `bias` is `(Cout,)`.
pub fn conv3d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    if input.shape().rank() != 5 || weight.shape().rank() != 5 {
        return Err(TensorError::Incompatible("conv3d expects rank-5 input (NCDHW) and weight".into()));
    }
    let d = input.dims();
    let (n, cin, dd, h, w) = (d[0], d[1], d[2], d[3], d[4]);
    let wdim = weight.dims();
    let (cout, cin_w, kd, kh, kw) = (wdim[0], wdim[1], wdim[2], wdim[3], wdim[4]);
    if cin != cin_w {
        return Err(TensorError::Incompatible(format!(
            "conv3d: input has {cin} channels, weight expects {cin_w}"
        )));
    }
    let od_ = spec.out_extent(dd, kd);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let _obs = crate::obs::conv_call(
        "conv3d",
        "fwd",
        2 * crate::obs::macs(&[n, cout, cin, kd, kh, kw, od_, oh, ow]),
    );
    let mut out = Tensor::zeros([n, cout, od_, oh, ow]);

    let ind = input.data();
    let wd = weight.data();
    let in_cdhw = cin * dd * h * w;
    let w_c = cin * kd * kh * kw;
    let p = spec.padding as isize;

    out.data_mut().par_chunks_mut(od_ * oh * ow).enumerate().for_each(|(plane, outp)| {
        let ni = plane / cout;
        let co = plane % cout;
        let b = bias.map_or(0.0, |b| b.data()[co]);
        let wbase = &wd[co * w_c..(co + 1) * w_c];
        for oz in 0..od_ {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ci in 0..cin {
                        let ibase = ni * in_cdhw + ci * dd * h * w;
                        let wc = &wbase[ci * kd * kh * kw..(ci + 1) * kd * kh * kw];
                        for kz in 0..kd {
                            let iz = (oz * spec.stride + kz) as isize - p;
                            if iz < 0 || iz >= dd as isize {
                                continue;
                            }
                            for ky in 0..kh {
                                let iy = (oy * spec.stride + ky) as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let irow = ibase + iz as usize * h * w + iy as usize * w;
                                let wrow = &wc[kz * kh * kw + ky * kw..kz * kh * kw + ky * kw + kw];
                                for (kx, &wv) in wrow.iter().enumerate() {
                                    let ix = (ox * spec.stride + kx) as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += ind[irow + ix as usize] * wv;
                                }
                            }
                        }
                    }
                    outp[oz * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
    });
    Ok(out)
}

/// Gradients of [`conv3d`] w.r.t. input, weight and bias.
pub fn conv3d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let d = input.dims();
    let (n, cin, dd, h, w) = (d[0], d[1], d[2], d[3], d[4]);
    let wdim = weight.dims();
    let (cout, _, kd, kh, kw) = (wdim[0], wdim[1], wdim[2], wdim[3], wdim[4]);
    let god = grad_out.dims();
    let (od_, oh, ow) = (god[2], god[3], god[4]);
    if god[0] != n
        || god[1] != cout
        || od_ != spec.out_extent(dd, kd)
        || oh != spec.out_extent(h, kh)
        || ow != spec.out_extent(w, kw)
    {
        return Err(TensorError::Incompatible(format!(
            "conv3d_backward: grad_out shape {:?} inconsistent with input {:?} / weight {:?}",
            grad_out.dims(),
            input.dims(),
            weight.dims()
        )));
    }
    let _obs = crate::obs::conv_call(
        "conv3d",
        "bwd",
        4 * crate::obs::macs(&[n, cout, cin, kd, kh, kw, od_, oh, ow]),
    );

    let ind = input.data();
    let wd = weight.data();
    let gd = grad_out.data();
    let in_cdhw = cin * dd * h * w;
    let g_cdhw = cout * od_ * oh * ow;
    let w_c = cin * kd * kh * kw;
    let s = spec.stride as isize;
    let p = spec.padding as isize;

    let mut grad_input = Tensor::zeros(input.shape().clone());
    grad_input.data_mut().par_chunks_mut(dd * h * w).enumerate().for_each(|(plane, gi)| {
        let ni = plane / cin;
        let ci = plane % cin;
        for iz in 0..dd as isize {
            for iy in 0..h as isize {
                for ix in 0..w as isize {
                    let mut acc = 0.0f32;
                    for co in 0..cout {
                        let gbase = ni * g_cdhw + co * od_ * oh * ow;
                        let wbase = co * w_c + ci * kd * kh * kw;
                        for kz in 0..kd as isize {
                            let nz = iz + p - kz;
                            if nz < 0 || nz % s != 0 {
                                continue;
                            }
                            let oz = nz / s;
                            if oz >= od_ as isize {
                                continue;
                            }
                            for ky in 0..kh as isize {
                                let ny = iy + p - ky;
                                if ny < 0 || ny % s != 0 {
                                    continue;
                                }
                                let oy = ny / s;
                                if oy >= oh as isize {
                                    continue;
                                }
                                for kx in 0..kw as isize {
                                    let nx = ix + p - kx;
                                    if nx < 0 || nx % s != 0 {
                                        continue;
                                    }
                                    let ox = nx / s;
                                    if ox >= ow as isize {
                                        continue;
                                    }
                                    acc += gd[gbase
                                        + (oz * (oh * ow) as isize + oy * ow as isize + ox) as usize]
                                        * wd[wbase
                                            + (kz * (kh * kw) as isize + ky * kw as isize + kx) as usize];
                                }
                            }
                        }
                    }
                    gi[(iz * (h * w) as isize + iy * w as isize + ix) as usize] = acc;
                }
            }
        }
    });

    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    grad_weight.data_mut().par_chunks_mut(w_c).enumerate().for_each(|(co, gw)| {
        for ni in 0..n {
            let gbase = ni * g_cdhw + co * od_ * oh * ow;
            for ci in 0..cin {
                let ibase = ni * in_cdhw + ci * dd * h * w;
                for kz in 0..kd {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let mut acc = 0.0f32;
                            for oz in 0..od_ {
                                let iz = (oz * spec.stride + kz) as isize - p;
                                if iz < 0 || iz >= dd as isize {
                                    continue;
                                }
                                for oy in 0..oh {
                                    let iy = (oy * spec.stride + ky) as isize - p;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let grow = gbase + oz * oh * ow + oy * ow;
                                    let irow = ibase + iz as usize * h * w + iy as usize * w;
                                    for ox in 0..ow {
                                        let ix = (ox * spec.stride + kx) as isize - p;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        acc += gd[grow + ox] * ind[irow + ix as usize];
                                    }
                                }
                            }
                            gw[ci * kd * kh * kw + kz * kh * kw + ky * kw + kx] += acc;
                        }
                    }
                }
            }
        }
    });

    let mut grad_bias = Tensor::zeros([cout]);
    let gb = grad_bias.data_mut();
    for ni in 0..n {
        for (co, g) in gb.iter_mut().enumerate() {
            let gbase = ni * g_cdhw + co * od_ * oh * ow;
            *g += gd[gbase..gbase + od_ * oh * ow].iter().sum::<f32>();
        }
    }

    Ok((grad_input, grad_weight, grad_bias))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        let input = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|x| x as f32).collect()).unwrap();
        // 1x1 kernel with weight 1.0 is the identity.
        let weight = Tensor::from_vec([1, 1, 1, 1], vec![1.0]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dSpec::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 3, 3]);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 2x2 kernel of ones, no padding: single output = sum.
        let input = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::from_vec([1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let out = conv2d(&input, &weight, None, Conv2dSpec::default()).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        assert_eq!(out.data(), &[10.0]);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let input = Tensor::ones([1, 1, 4, 4]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        let out = conv2d(&input, &weight, None, spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        // top-left window covers 2x2 ones (padded corners) => 4
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
        // center windows cover 3x3 minus one padded row/col => 6
        assert_eq!(out.at(&[0, 0, 0, 1]), 6.0);
        assert_eq!(out.at(&[0, 0, 1, 0]), 6.0);
        assert_eq!(out.at(&[0, 0, 1, 1]), 9.0);
    }

    #[test]
    fn conv2d_bias_applied_per_channel() {
        let input = Tensor::zeros([1, 1, 2, 2]);
        let weight = Tensor::zeros([3, 1, 1, 1]);
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let out = conv2d(&input, &weight, Some(&bias), Conv2dSpec::default()).unwrap();
        assert_eq!(out.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(out.at(&[0, 1, 0, 0]), 2.0);
        assert_eq!(out.at(&[0, 2, 1, 0]), 3.0);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::zeros([1, 2, 4, 4]);
        let weight = Tensor::zeros([1, 3, 3, 3]);
        assert!(conv2d(&input, &weight, None, Conv2dSpec::default()).is_err());
    }

    #[test]
    fn conv_transpose2d_upsamples() {
        let input = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::ones([1, 1, 2, 2]);
        let spec = Conv2dSpec { stride: 2, padding: 0 };
        let out = conv_transpose2d(&input, &weight, None, spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 4, 4]);
        // With stride 2 and 2x2 kernel the input elements tile the output.
        assert_eq!(
            out.data(),
            &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 3.0, 3.0, 4.0, 4.0]
        );
    }

    #[test]
    fn conv_transpose2d_is_adjoint_of_conv2d() {
        // <conv(x), y> == <x, conv_transpose(y)> for matching specs.
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(42);
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        let x = rng.uniform_tensor([1, 2, 6, 6], -1.0, 1.0);
        let wgt = rng.uniform_tensor([2, 3, 3, 3], -1.0, 1.0); // (Cin, Cout, KH, KW) for transpose
        let y_dims_h = spec.transposed_out_extent(6, 3);
        let y = rng.uniform_tensor([1, 3, y_dims_h, y_dims_h], -1.0, 1.0);

        // The adjoint of conv_transpose2d(·, w) is conv2d(·, w) with the
        // same weight buffer read as (Cout, Cin, KH, KW): the (Cin_t, Cout_t)
        // layout of the transpose weight is exactly the conv layout of the
        // adjoint map. conv2d maps y-space -> x-space here.
        let cy = conv2d(&y, &wgt, None, spec).unwrap();
        assert_eq!(cy.dims(), x.dims());
        let tx = conv_transpose2d(&x, &wgt, None, spec).unwrap();
        assert_eq!(tx.dims(), y.dims());

        let lhs: f64 = cy.data().iter().zip(x.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = tx.data().iter().zip(y.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    /// Finite-difference check of conv2d gradients.
    #[test]
    fn conv2d_backward_matches_finite_difference() {
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(7);
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        let x = rng.uniform_tensor([1, 2, 4, 4], -1.0, 1.0);
        let wgt = rng.uniform_tensor([3, 2, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor([3], -0.5, 0.5);

        // loss = sum(conv(x))
        let out = conv2d(&x, &wgt, Some(&b), spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let (gx, gw, gb) = conv2d_backward(&x, &wgt, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, Some(b), spec).unwrap().data().iter().sum()
        };
        // spot check a few coordinates of each gradient
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &wgt, &b) - loss(&xm, &wgt, &b)) / (2.0 * eps);
            assert!((fd - gx.data()[idx]).abs() < 2e-2, "gx[{idx}]: fd={fd} got={}", gx.data()[idx]);
        }
        for &idx in &[0usize, 10, 20, 53] {
            let mut wp = wgt.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = wgt.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((fd - gw.data()[idx]).abs() < 5e-2, "gw[{idx}]: fd={fd} got={}", gw.data()[idx]);
        }
        for idx in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wgt, &bp) - loss(&x, &wgt, &bm)) / (2.0 * eps);
            assert!((fd - gb.data()[idx]).abs() < 5e-2, "gb[{idx}]: fd={fd} got={}", gb.data()[idx]);
        }
    }

    #[test]
    fn conv_transpose2d_backward_matches_finite_difference() {
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(11);
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        let x = rng.uniform_tensor([1, 2, 3, 3], -1.0, 1.0);
        let wgt = rng.uniform_tensor([2, 2, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor([2], -0.5, 0.5);

        let out = conv_transpose2d(&x, &wgt, Some(&b), spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let (gx, gw, gb) = conv_transpose2d_backward(&x, &wgt, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv_transpose2d(x, w, Some(b), spec).unwrap().data().iter().sum()
        };
        for &idx in &[0usize, 7, 12] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &wgt, &b) - loss(&xm, &wgt, &b)) / (2.0 * eps);
            assert!((fd - gx.data()[idx]).abs() < 2e-2, "gx[{idx}]: fd={fd} got={}", gx.data()[idx]);
        }
        for &idx in &[0usize, 9, 27] {
            let mut wp = wgt.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = wgt.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((fd - gw.data()[idx]).abs() < 5e-2, "gw[{idx}]: fd={fd} got={}", gw.data()[idx]);
        }
        for idx in 0..2 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wgt, &bp) - loss(&x, &wgt, &bm)) / (2.0 * eps);
            assert!((fd - gb.data()[idx]).abs() < 5e-2, "gb[{idx}]: fd={fd} got={}", gb.data()[idx]);
        }
    }

    #[test]
    fn conv3d_reduces_to_conv2d_for_depth1() {
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(3);
        let x2 = rng.uniform_tensor([1, 2, 5, 5], -1.0, 1.0);
        let w2 = rng.uniform_tensor([3, 2, 3, 3], -1.0, 1.0);
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        let out2 = conv2d(&x2, &w2, None, spec).unwrap();

        let x3 = x2.reshape([1, 2, 1, 5, 5]).unwrap();
        let w3 = w2.reshape([3, 2, 1, 3, 3]).unwrap();
        // padding must stay 0 in depth; emulate by using kernel depth 1 and pad 1:
        // a depth pad would add zero slices, but kernel depth 1 at depth offset -1/+1
        // reads only the padded zeros, producing extra zero output slices. So use
        // a version with no depth padding: manual spec with padding only in-plane
        // is not supported; instead check against the middle output slice.
        let out3 = conv3d(&x3, &w3, None, spec).unwrap();
        assert_eq!(out3.dims(), &[1, 3, 3, 5, 5]);
        // middle depth slice (index 1) corresponds to the in-plane conv2d result
        let mid = {
            let mut t = Tensor::zeros([1, 3, 5, 5]);
            for c in 0..3 {
                for y in 0..5 {
                    for x in 0..5 {
                        let v = out3.at(&[0, c, 1, y, x]);
                        t.set(&[0, c, y, x], v);
                    }
                }
            }
            t
        };
        assert!(mid.all_close(&out2, 1e-4));
    }

    #[test]
    fn conv3d_backward_matches_finite_difference() {
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(19);
        let spec = Conv2dSpec { stride: 1, padding: 1 };
        let x = rng.uniform_tensor([1, 1, 3, 4, 4], -1.0, 1.0);
        let wgt = rng.uniform_tensor([2, 1, 3, 3, 3], -0.5, 0.5);
        let b = rng.uniform_tensor([2], -0.2, 0.2);

        let out = conv3d(&x, &wgt, Some(&b), spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let (gx, gw, gb) = conv3d_backward(&x, &wgt, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv3d(x, w, Some(b), spec).unwrap().data().iter().sum()
        };
        for &idx in &[0usize, 13, 40] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &wgt, &b) - loss(&xm, &wgt, &b)) / (2.0 * eps);
            assert!((fd - gx.data()[idx]).abs() < 3e-2, "gx[{idx}]: fd={fd} got={}", gx.data()[idx]);
        }
        for &idx in &[0usize, 26, 53] {
            let mut wp = wgt.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = wgt.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!((fd - gw.data()[idx]).abs() < 8e-2, "gw[{idx}]: fd={fd} got={}", gw.data()[idx]);
        }
        for idx in 0..2 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wgt, &bp) - loss(&x, &wgt, &bm)) / (2.0 * eps);
            assert!((fd - gb.data()[idx]).abs() < 1e-1, "gb[{idx}]: fd={fd} got={}", gb.data()[idx]);
        }
    }

    #[test]
    fn spec_extents() {
        let spec = Conv2dSpec { stride: 2, padding: 1 };
        assert_eq!(spec.out_extent(512, 3), 256);
        // DDnet's un-pooling uses scale-2 bilinear resize, but a 2x2/stride-2
        // transposed conv (padding 0) doubles the extent the same way:
        let up = Conv2dSpec { stride: 2, padding: 0 };
        assert_eq!(up.transposed_out_extent(256, 2), 512);
        let s1 = Conv2dSpec { stride: 1, padding: 2 };
        assert_eq!(s1.out_extent(512, 5), 512);
    }
}
