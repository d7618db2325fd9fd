//! The `_into` entry points an inference plan runs write, into a
//! poisoned buffer, exactly the bits their allocating twins return, at
//! every ladder stage under the host's dispatch and the scalar one.

use cc19_kernels::conv::{conv2d_with, conv2d_with_into, conv3d_with, conv3d_with_into, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{deconv2d_with, deconv2d_with_into, out_h, out_w};
use cc19_kernels::simd::{self, SimdLevel};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

fn random(rng: &mut Xorshift, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `fill` run on a NaN-poisoned `len`-long buffer.
fn poisoned(len: usize, fill: impl FnOnce(&mut [f32])) -> Vec<u32> {
    let mut out = vec![f32::NAN; len];
    fill(&mut out);
    bits(&out)
}

fn dispatches() -> Vec<SimdLevel> {
    let mut d = vec![SimdLevel::Scalar];
    if simd::detected() == SimdLevel::Avx2 {
        d.push(SimdLevel::Avx2);
    }
    d
}

#[test]
fn the_2d_into_kernels_match_their_twins() {
    let mut rng = Xorshift::new(81);
    for (k, pad) in [(5usize, 2usize), (3, 1), (1, 0), (7, 3)] {
        let s = ConvShape { cin: 3, cout: 4, h: 19, w: 53, k, pad };
        let (input, bias) = (random(&mut rng, s.in_len()), random(&mut rng, s.cout));
        let weight = random(&mut rng, s.cin * s.cout * k * k);
        for level in OptLevel::ALL {
            for d in dispatches() {
                let want = conv2d_with(level, d, &input, &weight, &bias, s);
                let got = poisoned(s.out_len(), |o| conv2d_with_into(level, d, &input, &weight, &bias, s, o));
                assert_eq!(got, bits(&want), "conv {k}x{k} {level:?} {d:?}");
                let want = deconv2d_with(level, d, &input, &weight, &bias, s);
                let len = s.cout * out_h(s) * out_w(s);
                let got = poisoned(len, |o| deconv2d_with_into(level, d, &input, &weight, &bias, s, o));
                assert_eq!(got, bits(&want), "deconv {k}x{k} {level:?} {d:?}");
            }
        }
    }
}

#[test]
fn the_3d_into_kernel_matches_its_twin() {
    let mut rng = Xorshift::new(82);
    for (cin, k, pad, dhw) in [(2usize, 3usize, 1usize, [4usize, 9, 11]), (1, 3, 1, [1, 8, 8]), (3, 1, 0, [3, 5, 7]), (2, 3, 0, [5, 6, 6])] {
        let wd = [4, cin, k, k, k];
        let s = Conv3dShape::new(&[cin, dhw[0], dhw[1], dhw[2]], &wd, 1, pad).unwrap();
        let (input, bias) = (random(&mut rng, s.in_len()), random(&mut rng, 4));
        let weight = random(&mut rng, wd.iter().product());
        for level in OptLevel::ALL {
            for d in dispatches() {
                let want = conv3d_with(level, d, &input, &weight, &bias, s);
                let got = poisoned(s.out_len(), |o| conv3d_with_into(level, d, &input, &weight, &bias, s, o));
                assert_eq!(got, bits(&want), "{s:?} {level:?} {d:?}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "output length")]
fn a_short_output_is_refused() {
    let s = ConvShape { cin: 1, cout: 1, h: 8, w: 8, k: 3, pad: 1 };
    let (input, weight) = (vec![0.0; 64], vec![0.0; 9]);
    conv2d_with_into(OptLevel::Baseline, SimdLevel::Scalar, &input, &weight, &[0.0], s, &mut [0.0; 63]);
}
