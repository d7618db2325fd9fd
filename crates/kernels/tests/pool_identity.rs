//! The kernel ladder's `_into` kernels give the same bits on the rayon
//! pool as under `rayon::serial`: two pooled runs and one serial run of
//! each stage's 2D convolution, deconvolution (the Baseline's scatter
//! formulation included) and 3D convolution, compared by `to_bits`, at
//! shapes large enough to fork. Runs at the host's dispatch; tier-1 runs
//! it again under `CC19_SIMD=scalar`.

use std::sync::{Mutex, PoisonError};

use cc19_kernels::conv::{conv2d_with_into, conv3d_with_into, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{deconv2d_with_into, out_h, out_w};
use cc19_kernels::{simd, OptLevel};
use cc19_tensor::rng::Xorshift;

/// One test at a time: a pooled run must find the pool free to fork.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `fill` into a NaN-poisoned `len` buffer twice on the pool and once
/// under `rayon::serial`; all three must agree bit for bit, and the
/// pooled runs must have forked wherever the pool has helpers (unless
/// `forks` is false: a kernel that runs serially by design).
fn pooled_matches_serial(what: &str, len: usize, forks: bool, fill: impl Fn(&mut [f32])) {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let run = || {
        let mut out = vec![f32::NAN; len];
        fill(&mut out);
        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let before = rayon::fork_count();
    let (a, b) = (run(), run());
    let forked = rayon::fork_count() > before;
    let serial = rayon::serial(run);
    assert!(forked || !forks || rayon::current_num_threads() == 1, "{what}: the pooled runs never forked");
    assert_eq!(a, serial, "{what}: first pooled run");
    assert_eq!(b, serial, "{what}: second pooled run");
}

fn vec(rng: &mut Xorshift, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-0.5, 0.5)).collect()
}

#[test]
fn every_2d_stage_convolves_and_deconvolves_the_same_on_the_pool() {
    let mut rng = Xorshift::new(93);
    let s = ConvShape { cin: 4, cout: 8, h: 64, w: 64, k: 5, pad: 2 };
    let (x, wt, b) = (vec(&mut rng, s.in_len()), vec(&mut rng, s.cout * s.cin * 25), vec(&mut rng, s.cout));
    let wd = vec(&mut rng, s.cin * s.cout * 25);
    let dispatch = simd::active();
    for level in OptLevel::ALL {
        pooled_matches_serial(&format!("conv2d_with_into {level:?}"), s.out_len(), true, |o| {
            conv2d_with_into(level, dispatch, &x, &wt, &b, s, o)
        });
        // The Baseline's scatter deconvolution sums with CAS float adds,
        // so it runs serially on every thread count.
        let forks = level != OptLevel::Baseline;
        pooled_matches_serial(&format!("deconv2d_with_into {level:?}"), s.cout * out_h(s) * out_w(s), forks, |o| {
            deconv2d_with_into(level, dispatch, &x, &wd, &b, s, o)
        });
    }
}

#[test]
fn the_3d_convolution_is_the_same_on_the_pool() {
    let mut rng = Xorshift::new(94);
    let s = Conv3dShape::new(&[2, 8, 64, 64], &[8, 2, 3, 3, 3], 1, 1).unwrap();
    let (x, wt, b) = (vec(&mut rng, s.in_len()), vec(&mut rng, 8 * 2 * 27), vec(&mut rng, 8));
    pooled_matches_serial("conv3d_with_into", s.out_len(), true, |o| {
        conv3d_with_into(OptLevel::RefactoredPrefetchUnrolled, simd::active(), &x, &wt, &b, s, o)
    });
}
