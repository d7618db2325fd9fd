//! Deterministic serving smoke test (wired into `scripts/tier1.sh`):
//! 64 tiny mixed-priority requests against a paused server, fixed seed,
//! zero lost replies, dynamic batching observed (max batch > 1).
//!
//! The metrics CSV is written to `results/serve_smoke_metrics.csv`
//! **only when `CC19_OBS_DETERMINISTIC=1`**, and then from a registry on
//! a frozen [`ManualClock`] — every latency reads exactly zero and every
//! count is fixed by the seed, so reruns produce a **byte-identical**
//! file (tier-1 runs this test twice and `cmp`s the two CSVs). Without
//! the flag the test still exercises the full real-clock path but leaves
//! no artifact, so ordinary `cargo test` runs never overwrite the
//! deterministic CSV with wall-clock noise.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use cc19_obs::{Clock, ManualClock, Registry};
use cc19_serve::{Priority, ServeMetrics, ServeRequest, Server, ServerCfg};
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Framework;

const SEED: u64 = 0x0C19_5E12;
const REQUESTS: u64 = 64;

fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name)
}

fn deterministic_mode() -> bool {
    std::env::var("CC19_OBS_DETERMINISTIC").map(|v| v == "1").unwrap_or(false)
}

#[test]
fn serve_smoke_64_requests_zero_lost_batched_metrics() {
    // Paused server: all 64 admissions queue up first, so the dispatcher
    // provably forms multi-study batches once the gate opens — the
    // max-batch assertion below cannot flake on scheduling luck.
    let cfg = ServerCfg {
        queue_bound: REQUESTS as usize,
        pipelines: 1,
        start_paused: true,
        ..ServerCfg::default()
    };
    // Frozen manual clock in deterministic mode: every timestamp is 0,
    // so the histogram rows of the exported CSV carry no wall-clock
    // noise and the file is byte-stable run over run.
    let deterministic = deterministic_mode();
    let metrics = if deterministic {
        let frozen: Arc<dyn Clock> = Arc::new(ManualClock::new());
        ServeMetrics::with_registry(Arc::new(Registry::with_clock(frozen)))
    } else {
        ServeMetrics::new()
    };
    let factory = || Framework::untrained_reduced(SEED);
    let server = Server::start_with_metrics(cfg, factory, metrics).expect("server starts");
    let client = server.client();

    let mut rng = Xorshift::new(SEED);
    let mut pendings = Vec::new();
    for i in 0..REQUESTS {
        let req = ServeRequest {
            volume: rng.uniform_tensor([4, 32, 32], -1000.0, 400.0),
            priority: Priority::DISPATCH_ORDER[(i % 3) as usize],
            deadline: None,
        };
        pendings.push(client.submit(req).expect("bound sized to the offered load"));
    }
    assert_eq!(server.queue_depth(), REQUESTS as usize);

    server.resume();
    let mut ids = HashSet::new();
    for p in pendings {
        let resp = p.wait().expect("a reply was lost");
        resp.result.expect("a stage failed");
        assert!(ids.insert(resp.id), "id {} answered twice", resp.id);
    }
    assert_eq!(ids.len(), REQUESTS as usize, "every accepted request answered exactly once");

    let metrics = server.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(snap.accepted, REQUESTS);
    assert_eq!(snap.completed, REQUESTS);
    assert_eq!(snap.failed, 0);
    assert!(snap.max_batch > 1, "dynamic batching never formed a batch (max {})", snap.max_batch);
    assert_eq!(snap.depth_max, REQUESTS as usize);

    if !deterministic {
        return; // no artifact: wall-clock CSVs are not reproducible
    }

    // Metrics land in results/ as CSV and parse back cleanly.
    let path = results_path("serve_smoke_metrics.csv");
    metrics.write_csv(&path).expect("write metrics CSV");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("section,name,value"));
    let mut completed_row = None;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 3, "malformed row: {line}");
        let value: f64 = fields[2].parse().unwrap_or_else(|_| panic!("non-numeric: {line}"));
        if fields[0] == "counter" && fields[1] == "completed" {
            completed_row = Some(value);
        }
    }
    assert_eq!(completed_row, Some(REQUESTS as f64), "CSV disagrees with the snapshot");
}
