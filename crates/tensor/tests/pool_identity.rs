//! Every `_into` kernel an inference plan runs gives the same bits on
//! the rayon pool as under `rayon::serial`: two pooled runs and one
//! serial run of each, compared by `to_bits`, at shapes large enough to
//! fork. The pool splits index ranges into contiguous blocks and keeps
//! every reduction on one thread, so no element may move.

use std::sync::{Mutex, PoisonError};

use cc19_tensor::conv::{conv2d_into, Conv2dSpec};
use cc19_tensor::gemm_conv::conv2d_gemm_into;
use cc19_tensor::pool::{max_pool2d_into, max_pool3d_into, PoolSpec};
use cc19_tensor::resize::Bilinear;
use cc19_tensor::rng::Xorshift;

/// One test at a time: a pooled run must find the pool free to fork.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `fill` into a NaN-poisoned `len` buffer twice on the pool and once
/// under `rayon::serial`; all three must agree bit for bit, and the
/// pooled runs must have forked wherever the pool has helpers.
fn pooled_matches_serial(what: &str, len: usize, fill: impl Fn(&mut [f32])) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let run = || {
        let mut out = vec![f32::NAN; len];
        fill(&mut out);
        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let forks = rayon::fork_count();
    let (a, b) = (run(), run());
    let forked = rayon::fork_count() > forks;
    let serial = rayon::serial(run);
    assert!(forked || rayon::current_num_threads() == 1, "{what}: the pooled runs never forked");
    assert_eq!(a, serial, "{what}: first pooled run");
    assert_eq!(b, serial, "{what}: second pooled run");
}

#[test]
fn direct_and_gemm_convolutions() {
    let mut rng = Xorshift::new(91);
    // the DDnet stem, a dense layer's 5×5, a 1×1 bottleneck; one batched
    for (n, cin, cout, h, k, pad) in [(1, 1, 4, 128, 7, 3), (1, 8, 4, 96, 5, 2), (1, 16, 8, 64, 1, 0), (2, 4, 6, 64, 3, 1)] {
        let x = rng.uniform_tensor([n, cin, h, h], -1.0, 1.0);
        let wt = rng.uniform_tensor([cout, cin, k, k], -0.5, 0.5);
        let b = rng.uniform_tensor([cout], -0.2, 0.2);
        let spec = Conv2dSpec { stride: 1, padding: pad };
        let len = n * cout * h * h;
        let what = format!("{n}x{cin}x{h}² by {cout}x{k}²");
        pooled_matches_serial(&format!("conv2d_into {what}"), len, |o| {
            conv2d_into(x.data(), x.dims(), &wt, Some(&b), spec, o).unwrap()
        });
        pooled_matches_serial(&format!("conv2d_gemm_into {what}"), len, |o| {
            conv2d_gemm_into(x.data(), x.dims(), &wt, Some(&b), spec, o).unwrap()
        });
    }
}

#[test]
fn pools_and_the_bilinear_upsample() {
    let mut rng = Xorshift::new(92);
    let x = rng.uniform_tensor([1, 8, 128, 128], -1.0, 1.0);
    let spec = PoolSpec::DDNET;
    let (oh, ow) = (spec.out_extent(128), spec.out_extent(128));
    pooled_matches_serial("max_pool2d_into", 8 * oh * ow, |o| max_pool2d_into(x.data(), x.dims(), spec, o).unwrap());
    let v = rng.uniform_tensor([1, 4, 16, 64, 64], -1.0, 1.0);
    let spec = PoolSpec { kernel: 2, stride: 2, padding: 0 };
    pooled_matches_serial("max_pool3d_into", 4 * 8 * 32 * 32, |o| max_pool3d_into(v.data(), v.dims(), spec, o).unwrap());
    let up = Bilinear::new(64, 64, 2);
    let x = rng.uniform_tensor([1, 8, 64, 64], -1.0, 1.0);
    pooled_matches_serial("Bilinear::resample", 8 * 128 * 128, |o| up.resample(x.data(), o).unwrap());
}
