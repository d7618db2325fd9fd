//! Per-layer measurements taken from outside: each function times calls
//! into one crate's public functions and files the result under that
//! crate's name.

use std::hint::black_box;
use std::time::Instant;

use cc19_ddnet::DdnetConfig;
use cc19_dist::WireFrame;
use cc19_hetero::host::{derive_peak_gflops, detect_freq_mhz};
use cc19_hetero::HostCaps;
use cc19_kernels::conv::{conv2d_with, ConvShape};
use cc19_kernels::deconv::deconv2d_with;
use cc19_kernels::{simd, OptLevel};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::conv_backend::{conv2d_dispatch, conv_transpose2d_dispatch, ConvBackend};
use cc19_tensor::gemm::sgemm;
use cc19_tensor::Tensor;
use computecovid19::framework::{Framework, Scratch};

use crate::inputs::first_slice_unit;
use crate::report::{Metrics, Outcome};
use crate::schedule::Rng;
use crate::spans::{Recorder, SpanId};
use crate::stats::median;

/// Extent of the plane the kernel probes run on.
const PROBE_EXTENT: usize = 512;
/// Channels in and out of the kernel probes.
const PROBE_CH: usize = 16;
/// Timed repetitions of each kernel probe, after one warm-up.
const PROBE_REPS: usize = 3;

fn random(rng: &mut Rng, len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.unit() as f32 - 0.5) * scale)
        .collect()
}

fn tensor(rng: &mut Rng, dims: [usize; 4], scale: f32) -> Tensor {
    Tensor::from_vec(dims, random(rng, dims.iter().product(), scale)).expect("dims match data")
}

/// Seconds per call: one warm-up, then the median of `reps` timed calls.
fn median_s(reps: usize, mut call: impl FnMut()) -> f64 {
    call();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("at least one repetition")
}

fn conv_flops(cin: usize, cout: usize, k: usize, out_positions: usize) -> f64 {
    2.0 * (cin * cout * k * k * out_positions) as f64
}

/// Naive f64 'same' convolution, the reference the kernel probe is
/// checked against.
fn conv_reference(input: &[f32], weight: &[f32], bias: &[f32], s: ConvShape) -> Vec<f64> {
    let mut out = vec![0.0f64; s.cout * s.h * s.w];
    for co in 0..s.cout {
        for y in 0..s.h {
            for x in 0..s.w {
                let mut acc = f64::from(bias[co]);
                for ci in 0..s.cin {
                    for ky in 0..s.k {
                        for kx in 0..s.k {
                            let (iy, ix) = (y + ky, x + kx);
                            if iy < s.pad || ix < s.pad || iy - s.pad >= s.h || ix - s.pad >= s.w {
                                continue;
                            }
                            let v = input[(ci * s.h + iy - s.pad) * s.w + ix - s.pad];
                            let w = weight[((co * s.cin + ci) * s.k + ky) * s.k + kx];
                            acc += f64::from(v) * f64::from(w);
                        }
                    }
                }
                out[(co * s.h + y) * s.w + x] = acc;
            }
        }
    }
    out
}

/// The workload-independent probes: `hetero`, `tensor`, `kernels` and
/// `dist`, each on a fixed shape so a later change to one of them shows
/// here whichever workload is traced.
pub fn fixed_probes(layers: &mut Metrics, outcome: &mut Outcome) {
    let mut rng = Rng::new(0x5EED);
    let peak = detect_freq_mhz().map_or(0.0, |mhz| derive_peak_gflops(&HostCaps::detect(), mhz));
    layers.set("hetero.peak_gflops", peak, 1);
    let frac_of_peak = |gflops: f64| if peak > 0.0 { gflops / peak } else { 0.0 };

    // tensor: GEMM, then the conv and deconv the serving path dispatches.
    let n = 512;
    let (a, b) = (random(&mut rng, n * n, 1.0), random(&mut rng, n * n, 1.0));
    let mut c = vec![0.0f32; n * n];
    let s = median_s(PROBE_REPS * 3, || {
        c.fill(0.0);
        sgemm(false, false, n, n, n, black_box(&a), black_box(&b), &mut c);
        black_box(&c);
    });
    layers.set(
        "tensor.sgemm_gflops",
        2.0 * (n * n * n) as f64 / s / 1e9,
        PROBE_REPS * 3,
    );

    let plane = PROBE_EXTENT * PROBE_EXTENT;
    let same5 = Conv2dSpec {
        stride: 1,
        padding: 2,
    };
    let x = tensor(&mut rng, [1, PROBE_CH, PROBE_EXTENT, PROBE_EXTENT], 1.0);
    let w = tensor(&mut rng, [PROBE_CH, PROBE_CH, 5, 5], 0.1);
    let bias = Tensor::from_vec([PROBE_CH], random(&mut rng, PROBE_CH, 0.1)).expect("bias");
    let flops5 = conv_flops(PROBE_CH, PROBE_CH, 5, plane);
    let s = median_s(PROBE_REPS, || {
        black_box(conv2d_dispatch(ConvBackend::Auto, &x, &w, Some(&bias), same5).expect("conv"));
    });
    layers.set("tensor.conv5x5_gflops", flops5 / s / 1e9, PROBE_REPS);
    layers.set(
        "tensor.conv5x5_peak_frac",
        frac_of_peak(flops5 / s / 1e9),
        PROBE_REPS,
    );
    let s = median_s(PROBE_REPS, || {
        black_box(
            conv_transpose2d_dispatch(ConvBackend::Auto, &x, &w, Some(&bias), same5)
                .expect("deconv"),
        );
    });
    layers.set("tensor.deconv5x5_gflops", flops5 / s / 1e9, PROBE_REPS);

    // kernels: the hand-written ladder at its top stage, same shape.
    let (level, lanes) = (OptLevel::RefactoredPrefetchUnrolled, simd::detected());
    let shape = |k: usize, extent: usize| ConvShape {
        cin: PROBE_CH,
        cout: PROBE_CH,
        h: extent,
        w: extent,
        k,
        pad: k / 2,
    };
    let w3 = random(&mut rng, PROBE_CH * PROBE_CH * 9, 0.1);
    let s = median_s(PROBE_REPS, || {
        black_box(conv2d_with(
            level,
            lanes,
            x.data(),
            &w3,
            bias.data(),
            shape(3, PROBE_EXTENT),
        ));
    });
    let flops3 = conv_flops(PROBE_CH, PROBE_CH, 3, plane);
    layers.set("kernels.conv3x3_gflops", flops3 / s / 1e9, PROBE_REPS);
    let s = median_s(PROBE_REPS, || {
        black_box(conv2d_with(
            level,
            lanes,
            x.data(),
            w.data(),
            bias.data(),
            shape(5, PROBE_EXTENT),
        ));
    });
    layers.set("kernels.conv5x5_gflops", flops5 / s / 1e9, PROBE_REPS);
    layers.set(
        "kernels.conv5x5_peak_frac",
        frac_of_peak(flops5 / s / 1e9),
        PROBE_REPS,
    );
    let s = median_s(PROBE_REPS, || {
        black_box(deconv2d_with(
            level,
            lanes,
            x.data(),
            w.data(),
            bias.data(),
            shape(5, PROBE_EXTENT),
        ));
    });
    layers.set("kernels.deconv5x5_gflops", flops5 / s / 1e9, PROBE_REPS);
    // Computed from the tensor sizes, not measured: input, weights, bias
    // and output each moved once.
    let bytes = 4 * (2 * PROBE_CH * plane + w.numel() + PROBE_CH);
    layers.set("kernels.conv5x5_flop_per_byte", flops5 / bytes as f64, 0);

    let small = shape(5, 64);
    let got = conv2d_with(
        level,
        lanes,
        &x.data()[..small.in_len()],
        w.data(),
        bias.data(),
        small,
    );
    let want = conv_reference(&x.data()[..small.in_len()], w.data(), bias.data(), small);
    // A NaN is not close to anything.
    let close = |g: f32, e: f64| (f64::from(g) - e).abs() <= 1e-4 + 1e-5 * e.abs();
    let off = got
        .iter()
        .zip(&want)
        .filter(|&(&g, &e)| !close(g, e))
        .count();
    if off > 0 || got.len() != want.len() {
        outcome.broken_checks.push(format!(
            "kernels conv5x5: {off} values off the f64 reference"
        ));
    }

    // dist: the frame codec the cluster links use, 512 KiB payload.
    let payload: Vec<u8> = (0..512 * 1024).map(|_| rng.next_u64() as u8).collect();
    let mib = payload.len() as f64 / (1024.0 * 1024.0);
    let frame = WireFrame::new(1, 7, payload);
    let s = median_s(PROBE_REPS * 5, || {
        black_box(black_box(&frame).encode());
    });
    layers.set("dist.frame_encode_mib_per_s", mib / s, PROBE_REPS * 5);
    let bytes = frame.encode();
    let s = median_s(PROBE_REPS * 5, || {
        black_box(WireFrame::read_from(&mut black_box(bytes.as_slice())).expect("frame decodes"));
    });
    layers.set("dist.frame_decode_mib_per_s", mib / s, PROBE_REPS * 5);
}

/// One conv or deconv call of the network: channels, filter and the
/// extent it runs at.
struct Call {
    deconv: bool,
    cin: usize,
    cout: usize,
    k: usize,
    extent: usize,
}

/// The network's conv and deconv calls for an `extent`² slice, derived
/// from the config: 7×7 stem; per block, at each pooled extent,
/// [1×1; 5×5] per dense layer and a 1×1 transition; per decoder stage a
/// 5×5 and a 1×1 deconv.
fn call_list(cfg: &DdnetConfig, extent: usize) -> Vec<Call> {
    let conv = |cin, cout, k, extent| Call {
        deconv: false,
        cin,
        cout,
        k,
        extent,
    };
    let mut calls = vec![conv(1, cfg.base, 7, extent)];
    for b in 0..4 {
        let e = extent >> (b + 1);
        for i in 0..cfg.per_block {
            calls.push(conv(cfg.base + i * cfg.growth, cfg.growth, 1, e));
            calls.push(conv(cfg.growth, cfg.growth, 5, e));
        }
        calls.push(conv(cfg.block_out(), cfg.base, 1, e));
    }
    let cat = if cfg.no_global_shortcuts {
        2 * cfg.base
    } else {
        3 * cfg.base
    };
    for s in 0..4 {
        let e = extent >> (3 - s);
        let out = if s == 3 { 1 } else { cfg.base };
        calls.push(Call {
            deconv: true,
            cin: cfg.base,
            cout: 2 * cfg.base,
            k: 5,
            extent: e,
        });
        calls.push(Call {
            deconv: true,
            cin: cat,
            cout: out,
            k: 1,
            extent: e,
        });
    }
    calls
}

/// `ddnet`: given the measured time of one `enhance` at `extent`², replay
/// the network's conv and deconv calls through the two dispatch
/// functions at the same extent, and report the rest (batch norm,
/// activation, pooling, un-pooling, concatenation and the graph tape) as
/// the computed residual.
pub fn ddnet_split(
    layers: &mut Metrics,
    cfg: &DdnetConfig,
    extent: usize,
    enhance_s: f64,
    reps: usize,
) {
    let mut rng = Rng::new(0xDD);
    let calls: Vec<(Call, Tensor, Tensor, Tensor)> = call_list(cfg, extent)
        .into_iter()
        .map(|c| {
            let x = tensor(&mut rng, [1, c.cin, c.extent, c.extent], 1.0);
            let w_dims = if c.deconv {
                [c.cin, c.cout, c.k, c.k]
            } else {
                [c.cout, c.cin, c.k, c.k]
            };
            let w = tensor(&mut rng, w_dims, 0.1);
            let bias = Tensor::from_vec([c.cout], random(&mut rng, c.cout, 0.1)).expect("bias");
            (c, x, w, bias)
        })
        .collect();
    let replay = |deconv: bool| {
        median_s(reps, || {
            for (c, x, w, bias) in calls.iter().filter(|(c, ..)| c.deconv == deconv) {
                let spec = Conv2dSpec {
                    stride: 1,
                    padding: c.k / 2,
                };
                let y = if deconv {
                    conv_transpose2d_dispatch(ConvBackend::Auto, x, w, Some(bias), spec)
                } else {
                    conv2d_dispatch(ConvBackend::Auto, x, w, Some(bias), spec)
                };
                black_box(y.expect("replayed call"));
            }
        })
    };
    let (conv, deconv) = (replay(false), replay(true));
    let other = enhance_s - conv - deconv;
    layers.set("ddnet.enhance_slice_ms", enhance_s * 1e3, reps);
    layers.set("ddnet.conv_ms", conv * 1e3, reps);
    layers.set("ddnet.deconv_ms", deconv * 1e3, reps);
    layers.set("ddnet.other_ms", other * 1e3, reps);
    layers.set("ddnet.other_frac", other / enhance_s, reps);
}

/// Span name of one study run stage by stage.
pub const STUDY: &str = "study";

/// `pipeline`: run the three stages of one study under child spans of
/// `root` and return the bits of the probability.
pub fn staged_study(
    rec: &mut Recorder,
    root: SpanId,
    fw: &Framework,
    scratch: &mut Scratch,
    vol: &Tensor,
) -> Option<u64> {
    let op = rec.spans()[root].op_id;
    let enh = rec
        .time("pipeline.enhance", op, Some(root), || {
            fw.run_enhance(vol, scratch)
        })
        .ok()?;
    let seg = rec
        .time("pipeline.segment", op, Some(root), || {
            fw.run_segment(enh, scratch)
        })
        .ok()?;
    let d = rec
        .time("pipeline.classify", op, Some(root), || {
            fw.run_classify(seg, 0.5, scratch)
        })
        .ok()?;
    Some(d.probability.to_bits())
}

/// Run `studies` stage by stage, one [`STUDY`] span each, counting a
/// study whose answer differs from its expected bits as failed.
pub fn staged_studies(
    rec: &mut Recorder,
    outcome: &mut Outcome,
    fw: &Framework,
    studies: &[(&Tensor, u64)],
) {
    let mut scratch = Scratch::new();
    for (op, (vol, expected)) in studies.iter().enumerate() {
        let root = rec.open(STUDY, op as u64, None);
        let bits = staged_study(rec, root, fw, &mut scratch, vol);
        rec.close(root);
        outcome.count(bits == Some(*expected));
    }
}

/// File the stage spans recorded so far: the median of each stage, and
/// the share of the [`STUDY`] spans that their stages cover, which must
/// be all of it.
fn stage_summary(layers: &mut Metrics, outcome: &mut Outcome, rec: &Recorder) {
    layers.set_median("pipeline.enhance_ms", &rec.durations_ms("pipeline.enhance"));
    layers.set_median("pipeline.segment_ms", &rec.durations_ms("pipeline.segment"));
    layers.set_median(
        "pipeline.classify_ms",
        &rec.durations_ms("pipeline.classify"),
    );
    let roots = rec
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == STUDY);
    let (covered, total, n) = roots.fold((0u64, 0u64, 0usize), |(c, t, n), (id, span)| {
        let dur = span.end_ns - span.start_ns;
        (c + dur - rec.self_ns(id), t + dur, n + 1)
    });
    let frac = covered as f64 / total.max(1) as f64;
    layers.set("pipeline.stage_sum_frac", frac, n);
    if !(0.98..=1.02).contains(&frac) {
        outcome
            .broken_checks
            .push(format!("stage spans cover {frac} of the study spans"));
    }
}

/// `analysis`: time the segmenter and the classifier alone, each on the
/// input its stage hands it for `vol`.
fn analysis_probes(layers: &mut Metrics, fw: &Framework, vol: &Tensor, reps: usize) {
    let mut scratch = Scratch::new();
    let enh = fw.run_enhance(vol, &mut scratch).expect("enhance stage");
    let (seg, capture) = fw
        .run_segment_capturing(enh, &mut scratch)
        .expect("segment stage");
    let s = median_s(reps, || {
        black_box(
            fw.segmenter
                .segment_volume(black_box(&capture.enhanced_hu))
                .expect("segment"),
        );
    });
    layers.set("analysis.segment_volume_ms", s * 1e3, reps);
    let s = median_s(reps, || {
        black_box(
            fw.classifier
                .predict_proba(black_box(&seg.masked))
                .expect("classify"),
        );
    });
    layers.set("analysis.predict_proba_ms", s * 1e3, reps);
}

/// Everything a traced pass measures on its workload's own study shape
/// once the stage spans are in `rec`: the stage summary, the `analysis`
/// probes on `vol`, the `ddnet` split of one slice of `vol`, and then the
/// fixed probes.
pub fn study_shape_probes(
    layers: &mut Metrics,
    outcome: &mut Outcome,
    rec: &Recorder,
    fw: &Framework,
    vol: &Tensor,
    reps: usize,
) {
    stage_summary(layers, outcome, rec);
    analysis_probes(layers, fw, vol, reps);
    let net = fw
        .enhancer
        .as_ref()
        .expect("the reduced framework has an enhancer");
    let slice = first_slice_unit(vol);
    let enhance_s = median_s(reps, || {
        black_box(net.enhance(black_box(&slice)).expect("enhance"));
    });
    ddnet_split(layers, &net.cfg, vol.dims()[1], enhance_s, reps);
    fixed_probes(layers, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_ddnet::Ddnet;

    #[test]
    fn call_list_matches_the_network_layer_counts() {
        for cfg in [
            DdnetConfig::tiny(),
            DdnetConfig::reduced(),
            DdnetConfig::paper(),
        ] {
            let net = Ddnet::new(cfg, 1);
            let calls = call_list(&cfg, 64);
            assert_eq!(
                calls.iter().filter(|c| !c.deconv).count(),
                net.conv_layer_count()
            );
            assert_eq!(
                calls.iter().filter(|c| c.deconv).count(),
                net.deconv_layer_count()
            );
            assert_eq!(calls.last().map(|c| (c.cout, c.extent)), Some((1, 64)));
            assert!(calls.iter().all(|c| c.extent >= 4));
        }
    }

    #[test]
    fn reference_convolution_of_a_delta_is_the_flipped_free_filter() {
        // One channel, 3×3 filter, a single 1 in the middle of a 5×5
        // plane: the output around it is the filter mirrored.
        let s = ConvShape {
            cin: 1,
            cout: 1,
            h: 5,
            w: 5,
            k: 3,
            pad: 1,
        };
        let mut input = vec![0.0f32; 25];
        input[12] = 1.0;
        let weight: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let out = conv_reference(&input, &weight, &[0.5], s);
        assert_eq!(out[12], 5.5);
        assert_eq!(out[6], 9.5);
        assert_eq!(out[18], 1.5);
        assert_eq!(out[0], 0.5);
    }
}
