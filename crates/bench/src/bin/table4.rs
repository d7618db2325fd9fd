//! Table 4: DDnet inference runtime across heterogeneous platforms,
//! PyTorch vs OpenCL columns.
//!
//! The "this host (measured)" row runs the paper network on the kernel
//! ladder (`Ddnet::enhance_timed` at +LU) on the host running the
//! harness; the six paper platforms are roofline-model predictions (see
//! `cc19-hetero` and DESIGN.md §2).

use cc19_bench::{banner, fmt_secs, parse_scale, timed_ddnet, Scale, TablePrinter};
use cc19_hetero::{ddnet_class_counts, predict_kernel_times, DdnetShape, DEVICES};
use cc19_kernels::OptLevel;

fn main() {
    let scale = parse_scale();
    banner("Table 4", "Enhancement-AI inference runtime per platform", scale);

    let paper_opencl = [0.10, 0.25, 0.25, 0.29, 1.64, 16.74];
    let paper_pytorch = [Some(0.22), Some(0.73), None, Some(1.29), Some(5.52), None];

    let counts = ddnet_class_counts(DdnetShape::paper());
    let t = TablePrinter::new(&[30, 10, 14, 14, 14, 14]);
    t.row(&[&"Platform", &"Cores", &"BW (GB/s)", &"PyTorch (s)", &"OpenCL (s)", &"Paper PT/OCL"]);
    t.sep();
    let mut csv = String::from("platform,pytorch_s,opencl_s,paper_pytorch_s,paper_opencl_s\n");
    for (i, dev) in DEVICES.iter().enumerate() {
        let ocl = predict_kernel_times(dev, counts, OptLevel::RefactoredPrefetchUnrolled, true).total();
        let pt = if dev.has_pytorch { Some(ocl * dev.pytorch_overhead) } else { None };
        let fmt_opt = |v: Option<f64>| v.map(fmt_secs).unwrap_or_else(|| "-".into());
        t.row(&[
            &dev.name,
            &dev.cores,
            &dev.mem_bw_gbs,
            &fmt_opt(pt),
            &fmt_secs(ocl),
            &format!("{}/{}", fmt_opt(paper_pytorch[i]), paper_opencl[i]),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            dev.name,
            pt.map(|v| v.to_string()).unwrap_or_default(),
            ocl,
            paper_pytorch[i].map(|v| v.to_string()).unwrap_or_default(),
            paper_opencl[i]
        ));
    }
    t.sep();

    // Measured rows on this host.
    let n = match scale {
        Scale::Full => 512,
        Scale::Quick => 256,
    };
    println!(
        "\nmeasured on this host ({} threads), input {n}x{n}:",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    let times = timed_ddnet(n, OptLevel::RefactoredPrefetchUnrolled, 3);
    println!(
        "  DDnet on the kernel ladder (OpenCL-equivalent): conv {} + deconv {} + other {} = {} s",
        fmt_secs(times.conv.as_secs_f64()),
        fmt_secs(times.deconv.as_secs_f64()),
        fmt_secs(times.other.as_secs_f64()),
        fmt_secs(times.total().as_secs_f64()),
    );
    csv.push_str(&format!("this host (kernel ladder; n={n}),,{},,\n", times.total().as_secs_f64()));
    cc19_bench::write_result("table4.csv", &csv);
}
