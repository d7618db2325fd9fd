//! Table 5: event-based time of the optimized OpenCL kernels
//! (convolution / deconvolution / other) per platform.
//!
//! Paper-platform rows are roofline predictions; a measured row — the
//! paper network on the kernel ladder at +LU (`Ddnet::enhance_timed`) on
//! the host running the harness — is appended.

use cc19_bench::{banner, fmt_secs, parse_scale, timed_ddnet, Scale, TablePrinter};
use cc19_hetero::{ddnet_class_counts, predict_kernel_times, DdnetShape, DEVICES};
use cc19_kernels::OptLevel;

fn main() {
    let scale = parse_scale();
    banner("Table 5", "per-kernel event time (conv / deconv / other)", scale);

    // paper values: (conv, deconv, other)
    let paper = [
        (0.036, 0.059, 0.004),
        (0.075, 0.169, 0.005),
        (0.082, 0.170, 0.005),
        (0.123, 0.153, 0.016),
        (0.495, 1.078, 0.057),
        (9.819, 2.839, 3.991),
    ];

    let counts = ddnet_class_counts(DdnetShape::paper());
    let t = TablePrinter::new(&[30, 12, 12, 12, 22]);
    t.row(&[&"Platform", &"Conv (s)", &"Deconv (s)", &"Other (s)", &"Paper (conv/deconv/other)"]);
    t.sep();
    let mut csv = String::from("platform,conv_s,deconv_s,other_s,paper_conv,paper_deconv,paper_other\n");
    for (i, dev) in DEVICES.iter().enumerate() {
        let p = predict_kernel_times(dev, counts, OptLevel::RefactoredPrefetchUnrolled, true);
        t.row(&[
            &dev.name,
            &fmt_secs(p.conv),
            &fmt_secs(p.deconv),
            &fmt_secs(p.other),
            &format!("{}/{}/{}", paper[i].0, paper[i].1, paper[i].2),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            dev.name, p.conv, p.deconv, p.other, paper[i].0, paper[i].1, paper[i].2
        ));
    }
    t.sep();

    let n = match scale {
        Scale::Full => 512,
        Scale::Quick => 256,
    };
    let m = timed_ddnet(n, OptLevel::RefactoredPrefetchUnrolled, 3);
    t.row(&[
        &format!("this host (measured, n={n})"),
        &fmt_secs(m.conv.as_secs_f64()),
        &fmt_secs(m.deconv.as_secs_f64()),
        &fmt_secs(m.other.as_secs_f64()),
        &"-",
    ]);
    csv.push_str(&format!(
        "this host (n={n}),{},{},{},,,\n",
        m.conv.as_secs_f64(),
        m.deconv.as_secs_f64(),
        m.other.as_secs_f64()
    ));
    cc19_bench::write_result("table5.csv", &csv);
}
