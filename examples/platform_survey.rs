//! Platform survey: where can you deploy DDnet inference, and what does
//! it cost? Combines a *measured* run of the paper network on the kernel
//! ladder (`Ddnet::enhance_timed`) on the local host with the roofline
//! predictions for the paper's six platforms (Tables 4/5/7 in miniature).
//!
//! ```text
//! cargo run --release -p computecovid19 --example platform_survey
//! ```

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_hetero::{ddnet_class_counts, predict_kernel_times, DdnetShape, DEVICES};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

fn main() {
    println!("DDnet inference cost survey (512x512 slice)\n");

    let counts = ddnet_class_counts(DdnetShape::paper());
    println!(
        "workload: {:.1} GFLOP conv, {:.1} GFLOP deconv, {:.1} GFLOP other",
        counts.conv.flops as f64 / 1e9,
        counts.deconv.flops as f64 / 1e9,
        counts.other.flops as f64 / 1e9
    );

    println!("\n{:<32} {:>10} {:>12} {:>14}", "platform", "total (s)", "bound by", "slices/minute");
    for dev in &DEVICES {
        let t = predict_kernel_times(dev, counts, OptLevel::RefactoredPrefetchUnrolled, true);
        let total = t.total();
        // crude bound classification: compare against a pure-compute estimate
        let compute = (counts.conv.flops + counts.deconv.flops) as f64 / dev.effective_flops(false);
        let bound = if compute > total * 0.6 { "compute" } else { "memory" };
        println!("{:<32} {:>10.3} {:>12} {:>14.0}", dev.name, total, bound, 60.0 / total);
    }

    println!("\nmeasured on this host (the paper network on the kernel ladder, 128x128 for speed):");
    let net = Ddnet::new(DdnetConfig::paper(), 1);
    let img = Xorshift::new(1).uniform_tensor([128, 128], 0.0, 1.0);
    for level in [OptLevel::Baseline, OptLevel::RefactoredPrefetchUnrolled] {
        let (_, t) = net.enhance_timed(&img, level).expect("128 is divisible by 16");
        println!(
            "  {:<26} conv {:>7.3}s  deconv {:>7.3}s  other {:>7.3}s  total {:>7.3}s",
            level.label(),
            t.conv.as_secs_f64(),
            t.deconv.as_secs_f64(),
            t.other.as_secs_f64(),
            t.total().as_secs_f64()
        );
    }
    println!("\ntakeaway (paper §5.1.3): optimized-kernel performance tracks memory");
    println!("bandwidth; the scatter->gather deconvolution refactoring is the big win.");
}
