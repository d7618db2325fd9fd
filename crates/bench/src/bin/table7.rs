//! Table 7: whole-DDnet execution time under cumulative optimizations —
//! Baseline / +REF / +PF / +LU.
//!
//! The six paper platforms are model predictions; the measured section
//! runs the paper network at all four kernel-ladder stages
//! (`Ddnet::enhance_timed`) on the host running the harness, showing the
//! same shape: the scatter→gather refactoring delivers the big win,
//! prefetch and unrolling shave the rest.

use cc19_bench::{banner, fmt_secs, parse_scale, timed_ddnet, Scale, TablePrinter};
use cc19_hetero::{predict_table7_row, DdnetShape, DEVICES};
use cc19_kernels::OptLevel;

fn main() {
    let scale = parse_scale();
    banner("Table 7", "DDnet time vs optimization stage (REF/PF/LU)", scale);

    let paper: [[f64; 4]; 6] = [
        [63.82, 0.10, 0.10, 0.10],
        [152.08, 0.29, 0.26, 0.25],
        [219.60, 0.25, 0.25, 0.25],
        [59.30, 0.32, 0.31, 0.29],
        [6.51, 1.95, 1.69, 1.64],
        [278.53, 130.62, 127.72, 65.83],
    ];

    let t = TablePrinter::new(&[30, 11, 11, 11, 11, 26]);
    t.row(&[&"Platform", &"Baseline", &"+REF", &"+PF", &"+LU", &"Paper row"]);
    t.sep();
    let mut csv = String::from("platform,baseline_s,ref_s,pf_s,lu_s,paper_baseline,paper_ref,paper_pf,paper_lu\n");
    for (i, dev) in DEVICES.iter().enumerate() {
        let row = predict_table7_row(dev, DdnetShape::paper());
        t.row(&[
            &dev.name,
            &fmt_secs(row[0]),
            &fmt_secs(row[1]),
            &fmt_secs(row[2]),
            &fmt_secs(row[3]),
            &format!("{:?}", paper[i]),
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            dev.name, row[0], row[1], row[2], row[3], paper[i][0], paper[i][1], paper[i][2], paper[i][3]
        ));
    }
    t.sep();

    let n = match scale {
        Scale::Full => 512,
        Scale::Quick => 128,
    };
    println!("\nmeasured on this host, input {n}x{n} (the paper network at all four kernel stages):");
    let mut measured = Vec::new();
    for level in OptLevel::ALL {
        let t = timed_ddnet(n, level, 5);
        let [total, conv, deconv, other] = [t.total(), t.conv, t.deconv, t.other].map(|d| fmt_secs(d.as_secs_f64()));
        println!("  {:<26} {total} s  (conv {conv} + deconv {deconv} + other {other})", level.label());
        measured.push(t.total().as_secs_f64());
    }
    println!(
        "  baseline/optimized ratio: {:.1}x (paper CPU: {:.1}x)",
        measured[0] / measured[3],
        6.51 / 1.64
    );
    csv.push_str(&format!(
        "this host (n={n}),{},{},{},{},,,,\n",
        measured[0], measured[1], measured[2], measured[3]
    ));
    cc19_bench::write_result("table7.csv", &csv);
}
