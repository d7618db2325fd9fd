//! Pooling primitives: 2D/3D max- and average-pooling, forward and backward.
//!
//! DDnet's pooling layers use a 3×3 window with stride 2 (Table 2 of the
//! paper), which halves each spatial extent of a power-of-two feature map.

use rayon::prelude::*;

use crate::{Result, Tensor, TensorError};

/// Pooling window specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Window extent (square / cubic).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on all sides.
    pub padding: usize,
}

impl PoolSpec {
    /// The paper's pooling config: 3×3 window, stride 2, padding 1 — halves
    /// a power-of-two extent (512→256→128→64→32).
    pub const DDNET: PoolSpec = PoolSpec { kernel: 3, stride: 2, padding: 1 };

    /// Output extent along one axis.
    pub fn out_extent(&self, n: usize) -> usize {
        (n + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// 2D max pooling over `(N, C, H, W)`. Returns `(output, argmax)` where
/// `argmax` stores, per output element, the linear input offset of the
/// winning element (as f32 bits of the usize cast — kept in a separate
/// `Vec<u32>` for exactness).
pub fn max_pool2d(input: &Tensor, spec: PoolSpec) -> Result<(Tensor, Vec<u32>)> {
    if input.shape().rank() != 4 {
        return Err(TensorError::Incompatible("max_pool2d expects rank-4 input".into()));
    }
    let d = input.dims();
    let (n, c, oh, ow) = (d[0], d[1], spec.out_extent(d[2]), spec.out_extent(d[3]));
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let mut arg = vec![0u32; n * c * oh * ow];
    let (h, w) = (d[2], d[3]);
    out.data_mut()
        .par_chunks_mut(oh * ow)
        .zip(arg.par_chunks_mut(oh * ow))
        .enumerate()
        .for_each(|(plane, (od, ad))| max_plane(&input.data()[plane * h * w..(plane + 1) * h * w], h, w, spec, od, Some(ad)));
    Ok((out, arg))
}

/// [`max_pool2d`]'s output, without the argmax, of the `dims`-shaped
/// `(N, C, H, W)` input into `out` (every element overwritten).
pub fn max_pool2d_into(input: &[f32], dims: &[usize], spec: PoolSpec, out: &mut [f32]) -> Result<()> {
    let &[n, c, h, w] = dims else {
        return Err(TensorError::Incompatible("max_pool2d expects rank-4 input".into()));
    };
    let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
    if input.len() != n * c * h * w || out.len() != n * c * oh * ow {
        return Err(TensorError::Incompatible(format!("max_pool2d_into: buffers do not fit {dims:?}")));
    }
    out.par_chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(plane, od)| max_plane(&input[plane * h * w..(plane + 1) * h * w], h, w, spec, od, None));
    Ok(())
}

/// Max-pool one `(h, w)` plane into `od`, recording each winner's offset
/// in `ad` when asked.
fn max_plane(ind: &[f32], h: usize, w: usize, spec: PoolSpec, od: &mut [f32], mut ad: Option<&mut [u32]>) {
    let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
    for oy in 0..oh {
        for ox in 0..ow {
            let mut best = f32::NEG_INFINITY;
            let mut best_off = 0usize;
            for ky in 0..spec.kernel {
                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..spec.kernel {
                    let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let off = iy as usize * w + ix as usize;
                    let v = ind[off];
                    if v > best {
                        best = v;
                        best_off = off;
                    }
                }
            }
            od[oy * ow + ox] = best;
            if let Some(ad) = ad.as_deref_mut() {
                ad[oy * ow + ox] = best_off as u32;
            }
        }
    }
}

/// Backward of [`max_pool2d`]: routes each output gradient to the argmax
/// input position.
pub fn max_pool2d_backward(
    input_shape: &[usize],
    argmax: &[u32],
    grad_out: &Tensor,
    _spec: PoolSpec,
) -> Result<Tensor> {
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let god = grad_out.dims();
    let (oh, ow) = (god[2], god[3]);
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let gd = grad_out.data();
    // Each (n,c) plane is disjoint — parallel over planes.
    grad_input.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, gi)| {
        let gbase = plane * oh * ow;
        for i in 0..oh * ow {
            gi[argmax[gbase + i] as usize] += gd[gbase + i];
        }
    });
    Ok(grad_input)
}

/// 2D average pooling over `(N, C, H, W)`.
///
/// Matches the "count_include_pad = false" convention: the divisor is the
/// number of *valid* (non-padded) elements in the window.
pub fn avg_pool2d(input: &Tensor, spec: PoolSpec) -> Result<Tensor> {
    if input.shape().rank() != 4 {
        return Err(TensorError::Incompatible("avg_pool2d expects rank-4 input".into()));
    }
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = spec.out_extent(h);
    let ow = spec.out_extent(w);
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let ind = input.data();
    out.data_mut().par_chunks_mut(oh * ow).enumerate().for_each(|(plane, od)| {
        let base = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                let mut cnt = 0u32;
                for ky in 0..spec.kernel {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        acc += ind[base + iy as usize * w + ix as usize];
                        cnt += 1;
                    }
                }
                od[oy * ow + ox] = if cnt > 0 { acc / cnt as f32 } else { 0.0 };
            }
        }
    });
    Ok(out)
}

/// Backward of [`avg_pool2d`].
pub fn avg_pool2d_backward(input_shape: &[usize], grad_out: &Tensor, spec: PoolSpec) -> Result<Tensor> {
    let (n, c, h, w) = (input_shape[0], input_shape[1], input_shape[2], input_shape[3]);
    let god = grad_out.dims();
    let (oh, ow) = (god[2], god[3]);
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let gd = grad_out.data();
    grad_input.data_mut().par_chunks_mut(h * w).enumerate().for_each(|(plane, gi)| {
        let gbase = plane * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                // recompute valid count, then distribute
                let mut cnt = 0u32;
                for ky in 0..spec.kernel {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix >= 0 && ix < w as isize {
                            cnt += 1;
                        }
                    }
                }
                if cnt == 0 {
                    continue;
                }
                let share = gd[gbase + oy * ow + ox] / cnt as f32;
                for ky in 0..spec.kernel {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kernel {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        gi[iy as usize * w + ix as usize] += share;
                    }
                }
            }
        }
    });
    Ok(grad_input)
}

/// 3D max pooling over `(N, C, D, H, W)`. Returns `(output, argmax)`.
pub fn max_pool3d(input: &Tensor, spec: PoolSpec) -> Result<(Tensor, Vec<u32>)> {
    if input.shape().rank() != 5 {
        return Err(TensorError::Incompatible("max_pool3d expects rank-5 input".into()));
    }
    let d = input.dims();
    let ext = [d[2], d[3], d[4]];
    let (od_, oh, ow) = (spec.out_extent(d[2]), spec.out_extent(d[3]), spec.out_extent(d[4]));
    let mut out = Tensor::zeros([d[0], d[1], od_, oh, ow]);
    let mut arg = vec![0u32; d[0] * d[1] * od_ * oh * ow];
    let vol = d[2] * d[3] * d[4];
    out.data_mut()
        .par_chunks_mut(od_ * oh * ow)
        .zip(arg.par_chunks_mut(od_ * oh * ow))
        .enumerate()
        .for_each(|(plane, (od, ad))| max_volume(&input.data()[plane * vol..(plane + 1) * vol], ext, spec, od, Some(ad)));
    Ok((out, arg))
}

/// [`max_pool3d`]'s output, without the argmax, of the `dims`-shaped
/// `(N, C, D, H, W)` input into `out` (every element overwritten).
pub fn max_pool3d_into(input: &[f32], dims: &[usize], spec: PoolSpec, out: &mut [f32]) -> Result<()> {
    let &[n, c, dd, h, w] = dims else {
        return Err(TensorError::Incompatible("max_pool3d expects rank-5 input".into()));
    };
    let ovol = spec.out_extent(dd) * spec.out_extent(h) * spec.out_extent(w);
    if input.len() != n * c * dd * h * w || out.len() != n * c * ovol {
        return Err(TensorError::Incompatible(format!("max_pool3d_into: buffers do not fit {dims:?}")));
    }
    let vol = dd * h * w;
    out.par_chunks_mut(ovol)
        .enumerate()
        .for_each(|(plane, od)| max_volume(&input[plane * vol..(plane + 1) * vol], [dd, h, w], spec, od, None));
    Ok(())
}

/// Max-pool one `(d, h, w)` volume into `od`, recording each winner's
/// offset in `ad` when asked.
fn max_volume(ind: &[f32], [dd, h, w]: [usize; 3], spec: PoolSpec, od: &mut [f32], mut ad: Option<&mut [u32]>) {
    let (od_, oh, ow) = (spec.out_extent(dd), spec.out_extent(h), spec.out_extent(w));
    for oz in 0..od_ {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0usize;
                for kz in 0..spec.kernel {
                    let iz = (oz * spec.stride + kz) as isize - spec.padding as isize;
                    if iz < 0 || iz >= dd as isize {
                        continue;
                    }
                    for ky in 0..spec.kernel {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..spec.kernel {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let off = iz as usize * h * w + iy as usize * w + ix as usize;
                            let v = ind[off];
                            if v > best {
                                best = v;
                                best_off = off;
                            }
                        }
                    }
                }
                let oo = oz * oh * ow + oy * ow + ox;
                od[oo] = best;
                if let Some(ad) = ad.as_deref_mut() {
                    ad[oo] = best_off as u32;
                }
            }
        }
    }
}

/// Backward of [`max_pool3d`].
pub fn max_pool3d_backward(
    input_shape: &[usize],
    argmax: &[u32],
    grad_out: &Tensor,
    _spec: PoolSpec,
) -> Result<Tensor> {
    let (n, c, dd, h, w) =
        (input_shape[0], input_shape[1], input_shape[2], input_shape[3], input_shape[4]);
    let god = grad_out.dims();
    let out_plane = god[2] * god[3] * god[4];
    let mut grad_input = Tensor::zeros([n, c, dd, h, w]);
    let gd = grad_out.data();
    grad_input.data_mut().par_chunks_mut(dd * h * w).enumerate().for_each(|(plane, gi)| {
        let gbase = plane * out_plane;
        for i in 0..out_plane {
            gi[argmax[gbase + i] as usize] += gd[gbase + i];
        }
    });
    Ok(grad_input)
}

/// Global average pooling over all spatial dims of `(N, C, ...)`, producing
/// `(N, C)`.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let d = input.dims();
    if d.len() < 3 {
        return Err(TensorError::Incompatible("global_avg_pool expects rank >= 3".into()));
    }
    let mut out = Tensor::zeros([d[0], d[1]]);
    global_avg_pool_into(input.data(), d, out.data_mut())?;
    Ok(out)
}

/// [`global_avg_pool`] of the `dims`-shaped input into the `N·C`-long
/// `out`.
pub fn global_avg_pool_into(input: &[f32], dims: &[usize], out: &mut [f32]) -> Result<()> {
    if dims.len() < 3 {
        return Err(TensorError::Incompatible("global_avg_pool expects rank >= 3".into()));
    }
    let spatial: usize = dims[2..].iter().product();
    if input.len() != dims.iter().product::<usize>() || out.len() != dims[0] * dims[1] {
        return Err(TensorError::Incompatible(format!("global_avg_pool_into: buffers do not fit {dims:?}")));
    }
    for (plane, o) in out.iter_mut().enumerate() {
        let s: f32 = input[plane * spatial..(plane + 1) * spatial].iter().sum();
        *o = s / spatial as f32;
    }
    Ok(())
}

/// Backward of [`global_avg_pool`].
pub fn global_avg_pool_backward(input_shape: &[usize], grad_out: &Tensor) -> Result<Tensor> {
    let spatial: usize = input_shape[2..].iter().product();
    let mut grad_input = Tensor::zeros(input_shape.to_vec());
    let gd = grad_out.data();
    grad_input.data_mut().par_chunks_mut(spatial).enumerate().for_each(|(plane, gi)| {
        let share = gd[plane] / spatial as f32;
        for v in gi.iter_mut() {
            *v = share;
        }
    });
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddnet_pool_halves_power_of_two() {
        assert_eq!(PoolSpec::DDNET.out_extent(512), 256);
        assert_eq!(PoolSpec::DDNET.out_extent(256), 128);
        assert_eq!(PoolSpec::DDNET.out_extent(64), 32);
    }

    #[test]
    fn max_pool_basic() {
        let input = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let spec = PoolSpec { kernel: 2, stride: 2, padding: 0 };
        let (out, arg) = max_pool2d(&input, spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input =
            Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let spec = PoolSpec { kernel: 2, stride: 2, padding: 0 };
        let (_, arg) = max_pool2d(&input, spec).unwrap();
        let gout = Tensor::from_vec([1, 1, 1, 1], vec![2.5]).unwrap();
        let gin = max_pool2d_backward(&[1, 1, 2, 2], &arg, &gout, spec).unwrap();
        assert_eq!(gin.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_excludes_padding_from_divisor() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let spec = PoolSpec { kernel: 3, stride: 2, padding: 1 };
        let out = avg_pool2d(&input, spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1]);
        // window covers all four ones with 4 valid cells -> average exactly 1
        assert_eq!(out.data(), &[1.0]);
    }

    #[test]
    fn avg_pool_backward_conserves_gradient_mass() {
        let spec = PoolSpec { kernel: 2, stride: 2, padding: 0 };
        let gout = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gin = avg_pool2d_backward(&[1, 1, 4, 4], &gout, spec).unwrap();
        let sum: f32 = gin.data().iter().sum();
        assert!((sum - 10.0).abs() < 1e-6);
        // each input in a window receives gout/4
        assert_eq!(gin.at(&[0, 0, 0, 0]), 0.25);
        assert_eq!(gin.at(&[0, 0, 3, 3]), 1.0);
    }

    #[test]
    fn max_pool3d_basic() {
        let mut input = Tensor::zeros([1, 1, 2, 2, 2]);
        input.set(&[0, 0, 1, 0, 1], 5.0);
        let spec = PoolSpec { kernel: 2, stride: 2, padding: 0 };
        let (out, arg) = max_pool3d(&input, spec).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1, 1, 1]);
        assert_eq!(out.data(), &[5.0]);
        assert_eq!(arg, vec![5]); // offset of [1,0,1] in 2x2x2
        let gout = Tensor::from_vec([1, 1, 1, 1, 1], vec![1.0]).unwrap();
        let gin = max_pool3d_backward(&[1, 1, 2, 2, 2], &arg, &gout, spec).unwrap();
        assert_eq!(gin.at(&[0, 0, 1, 0, 1]), 1.0);
        assert_eq!(gin.data().iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let input = Tensor::from_vec([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
            .unwrap();
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[2.5, 25.0]);
        let gout = Tensor::from_vec([1, 2], vec![4.0, 8.0]).unwrap();
        let gin = global_avg_pool_backward(&[1, 2, 2, 2], &gout).unwrap();
        assert_eq!(gin.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
