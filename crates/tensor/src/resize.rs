//! Spatial resampling: bilinear ×2 un-pooling (DDnet's un-pooling layers)
//! and general bilinear resize, with backward passes.

use rayon::prelude::*;

use crate::{Result, Tensor, TensorError};

/// Bilinear upsample of `(N, C, H, W)` by an integer scale factor
/// (`align_corners = false` convention, matching PyTorch's default
/// `nn.Upsample(scale_factor=2, mode="bilinear")` used for DDnet
/// un-pooling).
pub fn upsample_bilinear2d(input: &Tensor, scale: usize) -> Result<Tensor> {
    if input.shape().rank() != 4 {
        return Err(TensorError::Incompatible("upsample_bilinear2d expects rank-4 input".into()));
    }
    let d = input.dims();
    let mut out = Tensor::zeros([d[0], d[1], d[2] * scale, d[3] * scale]);
    Bilinear::new(d[2], d[3], scale).resample(input.data(), out.data_mut())?;
    Ok(out)
}

/// One output row's (or column's) two source taps and the weight of the
/// second.
#[derive(Debug, Clone, Copy)]
struct Tap {
    i0: usize,
    i1: usize,
    t: f32,
}

impl Tap {
    /// The `align_corners = false` source of output index `o` at source
    /// step `step`, on an axis of `n` source samples.
    fn at(o: usize, step: f32, n: usize) -> Tap {
        let f = ((o as f32 + 0.5) * step - 0.5).max(0.0);
        let i0 = (f as usize).min(n - 1);
        Tap { i0, i1: (i0 + 1).min(n - 1), t: f - i0 as f32 }
    }
}

/// The coefficient tables of a bilinear ×`scale` upsample of `(h, w)`
/// planes: per output row and per output column, its two source taps and
/// weight, computed once — [`upsample_bilinear2d`] builds them per call,
/// an inference plan once per input shape.
#[derive(Debug, Clone)]
pub struct Bilinear {
    h: usize,
    w: usize,
    rows: Vec<Tap>,
    cols: Vec<Tap>,
}

impl Bilinear {
    /// The tables for `(h, w)` planes upsampled by `scale`.
    pub fn new(h: usize, w: usize, scale: usize) -> Bilinear {
        let (oh, ow) = (h * scale, w * scale);
        let (sy, sx) = (h as f32 / oh as f32, w as f32 / ow as f32);
        let rows = (0..oh).map(|oy| Tap::at(oy, sy, h)).collect();
        let cols = (0..ow).map(|ox| Tap::at(ox, sx, w)).collect();
        Bilinear { h, w, rows, cols }
    }

    /// Upsample every `(h, w)` plane of `input` into the matching
    /// `(h·scale, w·scale)` plane of `out` (every element overwritten).
    pub fn resample(&self, input: &[f32], out: &mut [f32]) -> Result<()> {
        let (h, w, oh, ow) = (self.h, self.w, self.rows.len(), self.cols.len());
        let planes = input.len().checked_div(h * w).unwrap_or(0);
        if input.len() != planes * h * w || out.len() != planes * oh * ow {
            return Err(TensorError::Incompatible(format!(
                "upsample: {} input / {} output elements do not fit ({h}, {w}) -> ({oh}, {ow}) planes",
                input.len(),
                out.len()
            )));
        }
        out.par_chunks_mut((oh * ow).max(1)).enumerate().for_each(|(plane, od)| {
            let src = &input[plane * h * w..(plane + 1) * h * w];
            for (row, y) in od.chunks_exact_mut(ow).zip(&self.rows) {
                let wy = y.t;
                for (o, x) in row.iter_mut().zip(&self.cols) {
                    let wx = x.t;
                    let v00 = src[y.i0 * w + x.i0];
                    let v01 = src[y.i0 * w + x.i1];
                    let v10 = src[y.i1 * w + x.i0];
                    let v11 = src[y.i1 * w + x.i1];
                    *o = v00 * (1.0 - wy) * (1.0 - wx)
                        + v01 * (1.0 - wy) * wx
                        + v10 * wy * (1.0 - wx)
                        + v11 * wy * wx;
                }
            }
        });
        Ok(())
    }
}

/// Backward of [`upsample_bilinear2d`]: transposes the interpolation —
/// each output gradient is distributed to its four source pixels with the
/// same weights.
pub fn upsample_bilinear2d_backward(
    input_shape: &[usize],
    grad_out: &Tensor,
    scale: usize,
) -> Result<Tensor> {
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let oh = h * scale;
    let ow = w * scale;
    let god = grad_out.dims();
    if god != [n, c, oh, ow] {
        return Err(TensorError::Incompatible(format!(
            "upsample backward: grad_out {god:?} does not match input {input_shape:?} x{scale}"
        )));
    }
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let gd = grad_out.data();
    let sy = h as f32 / oh as f32;
    let sx = w as f32 / ow as f32;
    grad_input.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, gi)| {
        let gbase = plane * oh * ow;
        for oy in 0..oh {
            let fy = ((oy as f32 + 0.5) * sy - 0.5).max(0.0);
            let y0 = (fy as usize).min(h - 1);
            let y1 = (y0 + 1).min(h - 1);
            let wy = fy - y0 as f32;
            for ox in 0..ow {
                let fx = ((ox as f32 + 0.5) * sx - 0.5).max(0.0);
                let x0 = (fx as usize).min(w - 1);
                let x1 = (x0 + 1).min(w - 1);
                let wx = fx - x0 as f32;
                let g = gd[gbase + oy * ow + ox];
                gi[y0 * w + x0] += g * (1.0 - wy) * (1.0 - wx);
                gi[y0 * w + x1] += g * (1.0 - wy) * wx;
                gi[y1 * w + x0] += g * wy * (1.0 - wx);
                gi[y1 * w + x1] += g * wy * wx;
            }
        }
    });
    Ok(grad_input)
}

/// Nearest-neighbour downsample of a rank-2 image by an integer factor
/// (used by the CT pipeline to build reduced-resolution experiment
/// configurations).
pub fn downsample2_avg(image: &Tensor, factor: usize) -> Result<Tensor> {
    image.shape().expect_rank(2)?;
    let (h, w) = (image.dims()[0], image.dims()[1]);
    if h % factor != 0 || w % factor != 0 {
        return Err(TensorError::Incompatible(format!(
            "downsample2_avg: {h}x{w} not divisible by {factor}"
        )));
    }
    let (oh, ow) = (h / factor, w / factor);
    let mut out = Tensor::zeros([oh, ow]);
    let ind = image.data();
    let od = out.data_mut();
    let norm = 1.0 / (factor * factor) as f32;
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = 0.0f32;
            for ky in 0..factor {
                let row = (oy * factor + ky) * w + ox * factor;
                for kx in 0..factor {
                    acc += ind[row + kx];
                }
            }
            od[oy * ow + ox] = acc * norm;
        }
    }
    Ok(out)
}

/// 2×2 average-pool downsample of `(N, C, H, W)` — the standard MS-SSIM
/// scale-pyramid step.
pub fn downsample2x_nchw(input: &Tensor) -> Result<Tensor> {
    if input.shape().rank() != 4 {
        return Err(TensorError::Incompatible("downsample2x_nchw expects rank-4 input".into()));
    }
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = (h / 2, w / 2);
    if oh == 0 || ow == 0 {
        return Err(TensorError::Incompatible("downsample2x: extent < 2".into()));
    }
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let ind = input.data();
    out.data_mut().par_chunks_mut(oh * ow).enumerate().for_each(|(plane, od)| {
        let base = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let i = base + 2 * oy * w + 2 * ox;
                od[oy * ow + ox] = 0.25 * (ind[i] + ind[i + 1] + ind[i + w] + ind[i + w + 1]);
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsample_preserves_constant() {
        let input = Tensor::full([1, 1, 4, 4], 3.0);
        let out = upsample_bilinear2d(&input, 2).unwrap();
        assert_eq!(out.dims(), &[1, 1, 8, 8]);
        assert!(out.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn upsample_interpolates_gradient_ramp() {
        // A linear ramp stays (approximately) linear under bilinear resize.
        let input = Tensor::from_vec([1, 1, 1, 4], vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let out = upsample_bilinear2d(&input, 2).unwrap();
        let d = out.data();
        // Monotone non-decreasing along x.
        for i in 1..8 {
            assert!(d[i] >= d[i - 1] - 1e-6, "not monotone at {i}: {d:?}");
        }
        // Endpoints clamp to the original extremes.
        assert_eq!(d[0], 0.0);
        assert_eq!(d[7], 3.0);
    }

    #[test]
    fn upsample_backward_conserves_mass() {
        let gout = Tensor::ones([1, 1, 8, 8]);
        let gin = upsample_bilinear2d_backward(&[1, 1, 4, 4], &gout, 2).unwrap();
        let total: f32 = gin.data().iter().sum();
        assert!((total - 64.0).abs() < 1e-4, "mass not conserved: {total}");
    }

    #[test]
    fn upsample_backward_matches_finite_difference() {
        use crate::rng::Xorshift;
        let mut rng = Xorshift::new(5);
        let x = rng.uniform_tensor([1, 1, 3, 3], -1.0, 1.0);
        let out = upsample_bilinear2d(&x, 2).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let gin = upsample_bilinear2d_backward(&[1, 1, 3, 3], &gout, 2).unwrap();
        let eps = 1e-2f32;
        for idx in 0..9 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp: f32 = upsample_bilinear2d(&xp, 2).unwrap().data().iter().sum();
            let fm: f32 = upsample_bilinear2d(&xm, 2).unwrap().data().iter().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gin.data()[idx]).abs() < 1e-2, "idx {idx}: fd={fd} got={}", gin.data()[idx]);
        }
    }

    #[test]
    fn downsample_avg_averages_blocks() {
        let img = Tensor::from_vec([2, 4], vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
        let out = downsample2_avg(&img, 2).unwrap();
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[2.5, 6.5]);
        assert!(downsample2_avg(&img, 3).is_err());
    }

    #[test]
    fn downsample2x_nchw_halves() {
        let input = Tensor::from_vec(
            [1, 1, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
        .unwrap();
        let out = downsample2x_nchw(&input).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 2]);
        assert_eq!(out.data(), &[3.5, 5.5]);
    }
}
