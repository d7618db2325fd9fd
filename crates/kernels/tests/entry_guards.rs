//! The safe ladder entries reject a buffer that does not match its shape
//! with a panic in every build profile. `scripts/tier1.sh` runs this
//! suite with `--release`, where a `debug_assert!` would let a short
//! input reach the AVX2 microkernel's unchecked loads.

use cc19_kernels::conv::{conv2d_with, conv3d_with, Conv3dShape, ConvShape};
use cc19_kernels::deconv::deconv2d_with;
use cc19_kernels::simd::SimdLevel;
use cc19_kernels::OptLevel;

#[derive(Clone, Copy)]
enum Entry {
    Conv2d,
    Deconv2d,
    Conv3d,
}

#[derive(Clone, Copy, PartialEq)]
enum Buf {
    Input,
    Weight,
    Bias,
}

/// Call `entry` at +LU with `short` cut to 1/16 of its length. A 1×1
/// filter with no padding on a width that is a multiple of 8 has no
/// scalar border, so no bounds-checked pixel runs before the vector
/// interior.
fn call(entry: Entry, simd: SimdLevel, short: Buf) {
    let s2 = ConvShape { cin: 16, cout: 2, h: 32, w: 32, k: 1, pad: 0 };
    let s3 = Conv3dShape::new(&[16, 2, 32, 32], &[2, 16, 1, 1, 1], 1, 0).unwrap();
    let input_len = if let Entry::Conv3d = entry { s3.in_len() } else { s2.in_len() };
    let buf = |which: Buf, len: usize| vec![0.0f32; if which == short { len / 16 } else { len }];
    let (input, weight, bias) = (buf(Buf::Input, input_len), buf(Buf::Weight, 32), buf(Buf::Bias, 2));
    let level = OptLevel::RefactoredPrefetchUnrolled;
    match entry {
        Entry::Conv2d => conv2d_with(level, simd, &input, &weight, &bias, s2),
        Entry::Deconv2d => deconv2d_with(level, simd, &input, &weight, &bias, s2),
        Entry::Conv3d => conv3d_with(level, simd, &input, &weight, &bias, s3),
    };
}

/// One `#[should_panic]` test per dispatch for each `entry` / `buf` pair.
macro_rules! short_buffer_panics {
    ($($scalar:ident, $avx2:ident: $entry:ident, $buf:ident, $msg:literal;)*) => {$(
        #[test]
        #[should_panic(expected = $msg)]
        fn $scalar() {
            call(Entry::$entry, SimdLevel::Scalar, Buf::$buf)
        }

        #[test]
        #[should_panic(expected = $msg)]
        fn $avx2() {
            call(Entry::$entry, SimdLevel::Avx2, Buf::$buf)
        }
    )*};
}

short_buffer_panics! {
    conv2d_short_input_scalar, conv2d_short_input_avx2: Conv2d, Input, "conv2d_with: input length";
    conv2d_short_weight_scalar, conv2d_short_weight_avx2: Conv2d, Weight, "conv2d_with: weight length";
    conv2d_short_bias_scalar, conv2d_short_bias_avx2: Conv2d, Bias, "conv2d_with: bias length";
    deconv2d_short_input_scalar, deconv2d_short_input_avx2: Deconv2d, Input, "deconv2d_with: input length";
    deconv2d_short_weight_scalar, deconv2d_short_weight_avx2: Deconv2d, Weight, "deconv2d_with: weight length";
    deconv2d_short_bias_scalar, deconv2d_short_bias_avx2: Deconv2d, Bias, "deconv2d_with: bias length";
    conv3d_short_input_scalar, conv3d_short_input_avx2: Conv3d, Input, "conv3d_with: input length";
    conv3d_short_weight_scalar, conv3d_short_weight_avx2: Conv3d, Weight, "conv3d_with: weight length";
    conv3d_short_bias_scalar, conv3d_short_bias_avx2: Conv3d, Bias, "conv3d_with: bias length";
}

#[test]
#[should_panic(expected = "conv2d_with: filter larger than the padded input")]
fn conv2d_filter_larger_than_the_padded_input() {
    let s = ConvShape { cin: 1, cout: 1, h: 4, w: 4, k: 7, pad: 1 };
    conv2d_with(OptLevel::Baseline, SimdLevel::Scalar, &[0.0; 16], &[0.0; 49], &[0.0], s);
}

#[test]
#[should_panic(expected = "deconv2d_with: padding exceeds the output extent")]
fn deconv2d_padding_past_the_output_extent() {
    let s = ConvShape { cin: 1, cout: 1, h: 4, w: 4, k: 1, pad: 3 };
    deconv2d_with(OptLevel::Baseline, SimdLevel::Scalar, &[0.0; 16], &[0.0], &[0.0], s);
}
