//! Panel parity of the forward GEMM convolution: `conv2d_gemm` lowers a
//! sample's output positions one panel at a time ([`panel_rows`]), and
//! must match the full lowering — one `im2col` of the whole batch, one
//! `matmul_nt` against the reshaped weight, an NCHW relayout and the bias
//! — bit for bit. Shapes are sized from `panel_rows` so each spans several
//! panels with a ragged tail. Debug-build cases stay at 128² or smaller;
//! the 512² cases run in the release-build stage of `scripts/tier1.sh`.

use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::gemm::{matmul_nt, KC};
use cc19_tensor::gemm_conv::{conv2d_gemm, im2col, panel_rows};
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;

fn rand_tensor(rng: &mut Xorshift, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape.to_vec(), (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
}

/// The full lowering: `(N*OH*OW, C*K*K) x (Cout, C*K*K)^T`, relaid out
/// to NCHW, bias added afterwards.
fn full_lowering(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    let (d, wd) = (x.dims(), w.dims());
    let (n, cout, k) = (d[0], wd[0], wd[2]);
    let (oh, ow) = (spec.out_extent(d[2], k), spec.out_extent(d[3], k));
    let cols = im2col(x, k, spec).unwrap();
    let prod = matmul_nt(&cols, &w.reshape([cout, wd[1] * k * k]).unwrap()).unwrap();
    let (pd, ohw) = (prod.data(), oh * ow);
    let mut out = vec![0.0f32; n * cout * ohw];
    for ni in 0..n {
        for co in 0..cout {
            for pos in 0..ohw {
                let v = pd[(ni * ohw + pos) * cout + co];
                out[(ni * cout + co) * ohw + pos] = match b {
                    Some(b) => v + b.data()[co],
                    None => v,
                };
            }
        }
    }
    Tensor::from_vec(vec![n, cout, oh, ow], out).unwrap()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    let diff = got.data().iter().zip(want.data()).position(|(g, w)| g.to_bits() != w.to_bits());
    assert_eq!(diff, None, "{what}: first differing element");
}

/// Run `conv2d_gemm` against the full lowering on `(n, cin, h, w)` by
/// `(cout, cin, k, k)`.
#[allow(clippy::too_many_arguments)]
fn check(seed: u64, n: usize, cin: usize, h: usize, w: usize, cout: usize, k: usize, spec: Conv2dSpec, bias: bool) {
    let mut rng = Xorshift::new(seed);
    let x = rand_tensor(&mut rng, &[n, cin, h, w]);
    let wt = rand_tensor(&mut rng, &[cout, cin, k, k]);
    let b = rand_tensor(&mut rng, &[cout]);
    let b = bias.then_some(&b);
    let got = conv2d_gemm(&x, &wt, b, spec).unwrap();
    let want = full_lowering(&x, &wt, b, spec);
    assert_bits_eq(&got, &want, &format!("({n},{cin},{h},{w}) x ({cout},{cin},{k},{k}) {spec:?} bias={bias}"));
}

/// Output extents whose `oh * ow` spans two whole panels and a ragged
/// third for a reduction depth of `ckk`.
fn several_panels(ckk: usize) -> (usize, usize) {
    let rows = panel_rows(ckk);
    let ow = 37;
    let oh = (2 * rows + rows / 2).div_ceil(ow);
    assert!(oh * ow > 2 * rows && oh * ow % rows != 0);
    (oh, ow)
}

#[test]
fn panels_match_the_full_lowering_bit_for_bit() {
    let mut case = 0;
    // Channel counts keep each case's reduction depth near 100, so the
    // panels (and the inputs) stay small enough for a debug build.
    for (k, cin) in [(1, 96), (3, 12), (5, 4), (7, 2)] {
        let (oh, ow) = several_panels(cin * k * k);
        for stride in [1, 2] {
            for padding in [0, k / 2] {
                let spec = Conv2dSpec { stride, padding };
                // Input extent giving exactly (oh, ow) outputs.
                let (h, w) = ((oh - 1) * stride + k - 2 * padding, (ow - 1) * stride + k - 2 * padding);
                assert!(h <= 128 && w <= 128, "debug-build case {h}x{w} exceeds 128²");
                for n in [1, 3] {
                    case += 1;
                    check(case, n, cin, h, w, 5, k, spec, case % 2 == 0);
                }
            }
        }
    }
}

#[test]
fn deep_reduction_panels_match_bit_for_bit() {
    // C*K*K > KC: the packed core sums each KC-deep block separately and
    // the unpacked small-product loop does not, so the two paths round
    // differently. The 5-row ragged tail holds 5·9·300 = 13 500 MACs, a
    // small product on its own; it must still run the packed path the
    // whole product takes. A one-row image: the 5×5 taps cover it and
    // four rows of padding.
    let (cin, k, cout) = (12, 5, 9);
    assert!(cin * k * k > KC);
    let w = 2 * panel_rows(cin * k * k) + 5;
    let spec = Conv2dSpec { stride: 1, padding: 2 };
    for (n, bias) in [(1, true), (3, false)] {
        check(100 + n as u64, n, cin, 1, w, cout, k, spec, bias);
    }
}

#[test]
fn single_panel_planes_match_bit_for_bit() {
    // A plane that fits one panel is lowered whole: the panel is the
    // sample's plane, one per sample.
    for (n, cin, hw, k) in [(4, 2, 32, 5), (4, 4, 16, 5), (2, 16, 32, 1)] {
        assert!(hw * hw <= panel_rows(cin * k * k));
        let spec = Conv2dSpec { stride: 1, padding: k / 2 };
        check(200 + hw as u64, n, cin, hw, hw, 4, k, spec, true);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "512² planes run in the release-build stage of scripts/tier1.sh")]
fn slice_512_panels_match_bit_for_bit() {
    // The DDnet stem (1 channel, 7×7) and a dense layer's 5×5 at 512².
    check(512, 1, 1, 512, 512, 4, 7, Conv2dSpec { stride: 1, padding: 3 }, true);
    check(513, 1, 8, 512, 512, 4, 5, Conv2dSpec { stride: 1, padding: 2 }, false);
}
