//! `kernel_ladder`: the paper's Tables 6–9 story on this host — every
//! `OptLevel` stage × dispatch level (scalar / AVX2) for the conv and
//! gather-deconv kernels, as wall-clock time, GFLOP/s, and speedup over
//! the scalar Baseline. Written to `results/kernel_ladder.csv`.
//!
//! `--full` uses the DDnet spatial resolution (512×512); the default
//! quick run uses 128×128 so tier-1 stays fast. Channel widths are 16 —
//! deep enough that the per-`(ci, ky)` panel loops dominate, small
//! enough that the scatter baseline's atomic pathology doesn't make the
//! full run take minutes.
//!
//! One more row is fixed at the 3D classifier's shape whatever the scale:
//! the 3×3×3 convolution of a 4-channel 2×56×56 volume into 4 channels,
//! which `DenseNet3d::predict_proba` lowers onto the conv ladder one output
//! depth at a time (`conv3d_with`). `n` is its in-plane extent.
//!
//! Stage–dispatch pairs that map to the *same* concrete kernel (REF
//! conv aliases Baseline conv; the scatter deconv has no vector twin)
//! are measured once and shared, with the alias recorded in the `note`
//! column — so a "flat" step in the ladder is explained by the table
//! itself rather than looking like a regression.

use std::collections::HashMap;
use std::time::Instant;

use cc19_bench::{banner, parse_scale, Scale, TablePrinter};
use cc19_hetero::host::{host_cpu_device, HostCaps};
use cc19_kernels::conv::{conv2d_with, conv3d_with, Conv3dShape, ConvShape};
use cc19_kernels::deconv::{deconv2d_with, out_h, out_w};
use cc19_kernels::simd::{self, SimdLevel};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

const SEED: u64 = 0x01AD_DE21;
const CHANNELS: usize = 16;

/// One benched operation.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Conv(usize),
    Deconv(usize),
    /// The classifier's 4→4-channel 3×3×3 convolution of a 2×56×56 volume.
    Conv3d,
}

const OPS: [Op; 4] = [Op::Conv(3), Op::Conv(5), Op::Deconv(5), Op::Conv3d];

const CONV3D: Conv3dShape = Conv3dShape { cin: 4, cout: 4, d: 2, h: 56, w: 56, k: 3, pad: 1 };

impl Op {
    fn name(self) -> String {
        match self {
            Op::Conv(k) => format!("conv{k}x{k}"),
            Op::Deconv(k) => format!("deconv{k}x{k}"),
            Op::Conv3d => "conv3d3x3x3".into(),
        }
    }

    fn k(self) -> usize {
        match self {
            Op::Conv(k) | Op::Deconv(k) => k,
            Op::Conv3d => CONV3D.k,
        }
    }

    /// The 2D shape at in-plane extent `n` (the 3D op's in-plane slice).
    fn plane(self, n: usize) -> ConvShape {
        let k = self.k();
        match self {
            Op::Conv3d => ConvShape { cin: CONV3D.cin, cout: CONV3D.cout, h: CONV3D.h, w: CONV3D.w, k, pad: CONV3D.pad },
            _ => ConvShape { cin: CHANNELS, cout: CHANNELS, h: n, w: n, k, pad: k / 2 },
        }
    }

    /// Depth and filter depth: 1 and 1 for the 2D ops; the 3D op's
    /// 'same' padding keeps its depth.
    fn depth(self) -> (usize, usize) {
        if self == Op::Conv3d {
            (CONV3D.d, CONV3D.k)
        } else {
            (1, 1)
        }
    }

    /// Nominal multiply+add count over the full filter window (matching
    /// `count::conv_layer_counts`); the same formula for the gather
    /// deconv, over its own output extent, and for the 3D op over its
    /// output volume.
    fn flops(self, s: ConvShape) -> f64 {
        let (oh, ow) = match self {
            Op::Deconv(_) => (out_h(s), out_w(s)),
            _ => (s.out_h(), s.out_w()),
        };
        let (d, kd) = self.depth();
        2.0 * (d * kd * oh * ow * s.cin * s.cout * s.k * s.k) as f64
    }

    fn concrete_kernel(self, level: OptLevel, dispatch: SimdLevel) -> String {
        match self {
            Op::Deconv(_) => format!("{:?}", level.deconv_kernel(dispatch)),
            _ => format!("{:?}", level.conv_kernel(dispatch)),
        }
    }
}

fn run_once(op: Op, level: OptLevel, simd: SimdLevel, data: &(Vec<f32>, Vec<f32>, Vec<f32>), s: ConvShape) -> f64 {
    let (input, weight, bias) = data;
    let t0 = Instant::now();
    let out = match op {
        Op::Conv(_) => conv2d_with(level, simd, input, weight, bias, s),
        Op::Deconv(_) => deconv2d_with(level, simd, input, weight, bias, s),
        Op::Conv3d => conv3d_with(level, simd, input, weight, bias, CONV3D),
    };
    let dt = t0.elapsed().as_secs_f64();
    assert!(out.iter().all(|v| v.is_finite()), "{} produced non-finite output", op.name());
    dt
}

/// Seeded `(input, weight, bias)` for `op` at shape `s`.
fn case_data(op: Op, s: ConvShape, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = Xorshift::new(seed);
    let (d, kd) = op.depth();
    let input: Vec<f32> = (0..d * s.cin * s.h * s.w).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let weight: Vec<f32> = (0..kd * s.cin * s.cout * s.k * s.k).map(|_| rng.uniform(-0.5, 0.5)).collect();
    let bias: Vec<f32> = (0..s.cout).map(|_| rng.uniform(-0.2, 0.2)).collect();
    (input, weight, bias)
}

fn main() {
    let scale = parse_scale();
    banner("Kernel ladder", "per-stage x per-dispatch conv/deconv speedups (Tables 6-9)", scale);

    let n = match scale {
        Scale::Full => 512,
        Scale::Quick => 128,
    };
    let reps = match scale {
        Scale::Full => 1,
        Scale::Quick => 3,
    };

    let caps = HostCaps::detect();
    let host = host_cpu_device();
    println!(
        "host: {} cores, {} f32 lanes ({:?}), detected dispatch {}, derived peak {:.1} GFLOP/s @ {:.0} MHz",
        caps.cores,
        caps.lanes_f32(),
        caps.simd,
        simd::detected().tag(),
        host.peak_gflops,
        host.freq_mhz,
    );
    if simd::detected() != SimdLevel::Avx2 {
        println!("note: no AVX2+FMA detected; the avx2 rows will be absent");
    }

    let mut csv = String::from(
        "kernel,k,cin,cout,n,stage,dispatch,time_s,gflops,speedup_vs_scalar_baseline,note\n",
    );
    let t = TablePrinter::new(&[12, 6, 9, 11, 9, 9, 30]);
    t.row(&[&"kernel", &"stage", &"dispatch", &"time_s", &"gflops", &"speedup", &"note"]);
    t.sep();

    let dispatches: &[SimdLevel] = if simd::detected() == SimdLevel::Avx2 {
        &[SimdLevel::Scalar, SimdLevel::Avx2]
    } else {
        &[SimdLevel::Scalar]
    };

    for op in OPS {
        let s = op.plane(n);
        let seed = SEED ^ op.k() as u64 ^ (matches!(op, Op::Deconv(_)) as u64) << 8 ^ (op == Op::Conv3d) as u64;
        let data = case_data(op, s, seed);
        let fl = op.flops(s);
        // The 3D op is milliseconds at most: take the best of more runs.
        let reps = if op == Op::Conv3d { 20 } else { reps };

        // Warm the allocator / rayon pool off the record.
        let warm = if op == Op::Conv3d { s } else { ConvShape { h: 16, w: 16, ..s } };
        run_once(op, OptLevel::Baseline, SimdLevel::Scalar, &case_data(op, warm, SEED), warm);

        // Measure each *concrete kernel* once; stage-dispatch aliases
        // share the measurement (see module docs).
        let mut measured: HashMap<String, f64> = HashMap::new();
        let mut baseline_time = f64::NAN;
        for &dispatch in dispatches {
            for level in OptLevel::ALL {
                let key = op.concrete_kernel(level, dispatch);
                let (time, aliased) = match measured.get(&key) {
                    Some(tm) => (*tm, true),
                    None => {
                        let tm = (0..reps)
                            .map(|_| run_once(op, level, dispatch, &data, s))
                            .fold(f64::INFINITY, f64::min);
                        measured.insert(key.clone(), tm);
                        (tm, false)
                    }
                };
                if level == OptLevel::Baseline && dispatch == SimdLevel::Scalar {
                    baseline_time = time;
                }
                let gflops = fl / time / 1e9;
                let speedup = baseline_time / time;
                let note = if aliased { format!("= {key} (shared kernel)") } else { key.clone() };
                t.row(&[
                    &op.name(),
                    &level.tag(),
                    &dispatch.tag(),
                    &format!("{time:.4}"),
                    &format!("{gflops:.2}"),
                    &format!("{speedup:.2}x"),
                    &note,
                ]);
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{},{:.6},{:.3},{:.3},{}\n",
                    op.name(), op.k(), s.cin, s.cout, s.w, level.tag(), dispatch.tag(),
                    time, gflops, speedup, note,
                ));
            }
        }
        t.sep();
    }

    cc19_bench::write_result("kernel_ladder.csv", &csv);
    println!("wrote results/kernel_ladder.csv (n={n}, reps={reps})");
}
