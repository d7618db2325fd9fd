//! Serving load sweep: offered QPS against the `cc19-serve` server —
//! throughput, completion latency quantiles, batch occupancy, and
//! reject rate per row. This is the serving-side counterpart of the
//! paper's turnaround-time claim: it shows where batches start to form
//! by themselves (arrivals outpacing a pipeline) and where admission
//! control starts shedding load.
//!
//! ```text
//! cargo run --release -p cc19-bench --bin serve_load [--quick|--full]
//! ```

use std::time::{Duration, Instant};

use cc19_bench::{banner, parse_scale, Scale, TablePrinter};
use cc19_serve::{BatchPolicy, Priority, ServeRequest, Server, ServerCfg};
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Framework;

struct Cell {
    qps: f64,
    offered: usize,
    completed: u64,
    rejected: u64,
    wall_s: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max_batch: usize,
    mean_batch: f64,
}

fn run_cell(qps: f64, offered: usize, dims: [usize; 3]) -> Cell {
    let cfg = ServerCfg {
        queue_bound: 32,
        batch: BatchPolicy { max_batch: 8 },
        pipelines: 2,
        ..ServerCfg::default()
    };
    let server = Server::start(cfg, || Framework::untrained_reduced(31)).expect("server starts");
    let client = server.client();

    // Open-loop arrivals: fixed inter-arrival gap = 1/qps, submissions
    // never wait for completions (that's what makes overload visible).
    let gap = Duration::from_secs_f64(1.0 / qps);
    let mut rng = Xorshift::new(0xAD_1015);
    let start = Instant::now();
    let mut pendings = Vec::new();
    let mut rejected_sync = 0u64;
    for i in 0..offered {
        let req = ServeRequest {
            volume: rng.uniform_tensor(dims, -1000.0, 400.0),
            priority: Priority::DISPATCH_ORDER[i % 3],
            deadline: None,
        };
        match client.submit(req) {
            Ok(p) => pendings.push(p),
            Err(_) => rejected_sync += 1,
        }
        let next = start + gap.mul_f64((i + 1) as f64);
        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
    }
    for p in pendings {
        p.wait().expect("accepted request must be answered").result.expect("stage failure");
    }
    let wall_s = start.elapsed().as_secs_f64();

    let metrics = server.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(snap.completed + snap.rejected, offered as u64, "a request went missing");
    assert_eq!(snap.rejected, rejected_sync);
    let (p50, p95, p99) = metrics.total_latency_quantiles_ms();
    Cell {
        qps,
        offered,
        completed: snap.completed,
        rejected: snap.rejected,
        wall_s,
        p50,
        p95,
        p99,
        max_batch: snap.max_batch,
        mean_batch: snap.completed as f64 / snap.batches.max(1) as f64,
    }
}

fn main() {
    let scale = parse_scale();
    banner("serve_load", "offered-QPS sweep of the serving layer", scale);

    let (offered, dims, qps_grid): (usize, [usize; 3], Vec<f64>) = match scale {
        Scale::Full => (96, [8, 64, 64], vec![5.0, 20.0, 80.0]),
        Scale::Quick => (32, [4, 32, 32], vec![10.0, 60.0]),
    };

    let t = TablePrinter::new(&[8, 10, 9, 9, 10, 10, 10, 10, 11]);
    t.row(&[
        &"QPS", &"done/off", &"rej", &"tput/s", &"p50 ms", &"p95 ms", &"p99 ms", &"max batch",
        &"mean batch",
    ]);
    t.sep();
    let mut csv = String::from(
        "offered_qps,offered,completed,rejected,throughput_per_s,p50_ms,p95_ms,p99_ms,max_batch,mean_batch\n",
    );
    for &qps in &qps_grid {
        let c = run_cell(qps, offered, dims);
        let tput = c.completed as f64 / c.wall_s;
        t.row(&[
            &format!("{:.0}", c.qps),
            &format!("{}/{}", c.completed, c.offered),
            &c.rejected,
            &format!("{tput:.1}"),
            &format!("{:.1}", c.p50),
            &format!("{:.1}", c.p95),
            &format!("{:.1}", c.p99),
            &c.max_batch,
            &format!("{:.2}", c.mean_batch),
        ]);
        csv.push_str(&format!(
            "{:.1},{},{},{},{:.2},{:.3},{:.3},{:.3},{},{:.3}\n",
            c.qps, c.offered, c.completed, c.rejected, tput, c.p50, c.p95, c.p99, c.max_batch,
            c.mean_batch
        ));
    }
    t.sep();
    println!("\nshape checks: at low QPS every dispatch is a batch of one and p50 is the");
    println!("service time; past a pipeline's capacity batches fill by themselves (mean");
    println!("batch grows) and admission control sheds load once the 32-deep queue saturates.");
    cc19_bench::write_result("serve_load.csv", &csv);
}
