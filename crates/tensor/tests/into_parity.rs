//! Each `_into` kernel an inference plan runs writes, into a poisoned
//! buffer, exactly the bits its allocating twin returns — every element
//! overwritten, nothing read from the destination.

use cc19_tensor::conv::{conv2d, conv2d_into, Conv2dSpec};
use cc19_tensor::gemm_conv::{conv2d_gemm, conv2d_gemm_into};
use cc19_tensor::pool::{
    global_avg_pool, global_avg_pool_into, max_pool2d, max_pool2d_into, max_pool3d, max_pool3d_into, PoolSpec,
};
use cc19_tensor::resize::{upsample_bilinear2d, Bilinear};
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `fill` run on a NaN-poisoned buffer shaped like `want`.
fn poisoned(want: &Tensor, fill: impl FnOnce(&mut [f32])) -> Vec<u32> {
    let mut out = vec![f32::NAN; want.numel()];
    fill(&mut out);
    bits(&out)
}

#[test]
fn conv2d_into_and_conv2d_gemm_into_match_their_twins() {
    let mut rng = Xorshift::new(71);
    for (n, cin, cout, h, w, k, stride, pad) in
        [(1usize, 1usize, 4usize, 37usize, 29usize, 7usize, 1usize, 3usize), (2, 4, 4, 16, 16, 5, 1, 2), (1, 8, 4, 9, 12, 1, 1, 0), (2, 3, 5, 9, 9, 3, 2, 1)]
    {
        let x = rng.uniform_tensor([n, cin, h, w], -1.0, 1.0);
        let wt = rng.uniform_tensor([cout, cin, k, k], -0.5, 0.5);
        let b = rng.uniform_tensor([cout], -0.2, 0.2);
        let spec = Conv2dSpec { stride, padding: pad };
        for bias in [Some(&b), None] {
            let want = conv2d(&x, &wt, bias, spec).unwrap();
            let got = poisoned(&want, |o| conv2d_into(x.data(), x.dims(), &wt, bias, spec, o).unwrap());
            assert_eq!(got, bits(want.data()), "conv2d {:?}", x.dims());
            let want = conv2d_gemm(&x, &wt, bias, spec).unwrap();
            let got = poisoned(&want, |o| conv2d_gemm_into(x.data(), x.dims(), &wt, bias, spec, o).unwrap());
            assert_eq!(got, bits(want.data()), "conv2d_gemm {:?}", x.dims());
        }
    }
    let x = Tensor::zeros([1, 2, 8, 8]);
    let wt = Tensor::zeros([3, 2, 3, 3]);
    let mut short = vec![0.0; 3 * 36 - 1];
    assert!(conv2d_into(x.data(), x.dims(), &wt, None, Conv2dSpec::default(), &mut short).is_err());
    assert!(conv2d_gemm_into(x.data(), x.dims(), &wt, None, Conv2dSpec::default(), &mut short).is_err());
}

#[test]
fn pooling_into_matches_the_allocating_pools() {
    let mut rng = Xorshift::new(72);
    for spec in [PoolSpec::DDNET, PoolSpec { kernel: 2, stride: 2, padding: 0 }] {
        let x = rng.uniform_tensor([2, 3, 17, 12], -1.0, 1.0);
        let (want, _) = max_pool2d(&x, spec).unwrap();
        assert_eq!(poisoned(&want, |o| max_pool2d_into(x.data(), x.dims(), spec, o).unwrap()), bits(want.data()));
        let v = rng.uniform_tensor([1, 3, 5, 9, 8], -1.0, 1.0);
        let (want, _) = max_pool3d(&v, spec).unwrap();
        assert_eq!(poisoned(&want, |o| max_pool3d_into(v.data(), v.dims(), spec, o).unwrap()), bits(want.data()));
        let want = global_avg_pool(&v).unwrap();
        assert_eq!(poisoned(&want, |o| global_avg_pool_into(v.data(), v.dims(), o).unwrap()), bits(want.data()));
    }
}

#[test]
fn the_bilinear_tables_keep_the_per_pixel_expression() {
    let mut rng = Xorshift::new(73);
    let x = rng.uniform_tensor([1, 3, 6, 10], -1.0, 1.0);
    let got = upsample_bilinear2d(&x, 2).unwrap();
    // the align_corners = false interpolation, computed per pixel
    let (h, w) = (6usize, 10usize);
    let mut want = vec![0.0f32; 3 * 12 * 20];
    for (plane, od) in want.chunks_exact_mut(12 * 20).enumerate() {
        let src = &x.data()[plane * h * w..(plane + 1) * h * w];
        for oy in 0..12 {
            let fy = ((oy as f32 + 0.5) * 0.5 - 0.5).max(0.0);
            let y0 = (fy as usize).min(h - 1);
            let (y1, wy) = ((y0 + 1).min(h - 1), fy - y0 as f32);
            for ox in 0..20 {
                let fx = ((ox as f32 + 0.5) * 0.5 - 0.5).max(0.0);
                let x0 = (fx as usize).min(w - 1);
                let (x1, wx) = ((x0 + 1).min(w - 1), fx - x0 as f32);
                od[oy * 20 + ox] = src[y0 * w + x0] * (1.0 - wy) * (1.0 - wx)
                    + src[y0 * w + x1] * (1.0 - wy) * wx
                    + src[y1 * w + x0] * wy * (1.0 - wx)
                    + src[y1 * w + x1] * wy * wx;
            }
        }
    }
    assert_eq!(bits(got.data()), bits(&want));
    let table = Bilinear::new(h, w, 2);
    assert_eq!(poisoned(&got, |o| table.resample(x.data(), o).unwrap()), bits(&want));
    assert!(table.resample(x.data(), &mut [0.0; 7]).is_err());
}
