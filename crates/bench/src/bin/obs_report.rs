//! `obs_report`: one deterministic pass over every instrumented subsystem,
//! exported as `results/bench_obs.json`.
//!
//! The point of this binary is not throughput numbers — the other benches
//! own those — but an end-to-end exercise of the `cc19-obs` registry:
//! seeded GEMM and conv kernels, the CT simulation stages, a tiny
//! Enhancement-AI training run, a 4-rank lockstep all-reduce under a
//! pinned fault plan, a serve smoke test, and a longitudinal-monitoring
//! pass (progression series + one cache-hit replay), all writing into
//! the process-global registry, which is then exported with the
//! deterministic sorted-key exporters.
//!
//! Under `CC19_OBS_DETERMINISTIC=1` the global registry runs on the
//! auto-ticking manual clock and every clock read in this binary is
//! causally ordered (the all-reduce runs lockstep on one thread; serve
//! requests are submitted strictly sequentially with `max_batch: 1`; the
//! rayon workers inside the kernels never touch the clock), so the JSON
//! is byte-identical run over run — `scripts/tier1.sh` runs it twice and
//! compares. Without the variable, the same report carries real timings.


use cc19_bench::TablePrinter;
use cc19_ctsim::fbp::fbp_parallel;
use cc19_ctsim::filter::Window;
use cc19_ctsim::geometry::ParallelBeamGeometry;
use cc19_ctsim::hu::image_hu_to_mu;
use cc19_ctsim::lowdose::{apply_poisson_noise, DoseSettings};
use cc19_ctsim::phantom::{ChestPhantom, Severity};
use cc19_ctsim::siddon::{project_parallel, Grid};
use cc19_data::lowdose_pairs::{make_pair, EnhancementPair, PairConfig};
use cc19_data::progression::{progression_series, ProgressionCourse};
use cc19_data::sources::{DataSource, Modality, ScanMeta};
use cc19_ddnet::model::{Ddnet, DdnetConfig};
use cc19_ddnet::trainer::{train_enhancement, TrainConfig};
use cc19_dist::fault::{FaultConfig, FaultPlan};
use cc19_dist::transport::{make_ring_in, TimeoutCfg};
use cc19_kernels::conv::{conv2d_with, ConvShape};
use cc19_kernels::deconv::{deconv2d_with, out_h, out_w};
use cc19_kernels::simd::{self, SimdLevel};
use cc19_kernels::OptLevel;
use cc19_monitor::{PatientSeries, Provenance};
use cc19_obs::{Registry, Snapshot, SpanStatus};
use cc19_serve::{
    BatchPolicy, ClusterCfg, ClusterMetrics, ServeCluster, ServeMetrics, ServeRequest, Server,
    ServerCfg,
};
use cc19_tensor::conv::{conv2d, conv2d_backward, Conv2dSpec};
use cc19_tensor::gemm::sgemm;
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Framework;

/// Everything in this binary is seeded from here.
const SEED: u64 = 0x0B5_2026;

/// GEMM edge: big enough to hit the blocked path, small enough for tier-1.
const GEMM_N: usize = 96;

/// In-plane resolution for the ctsim / trainer stages.
const CT_N: usize = 64;

/// Views for the explicit ctsim stage.
const CT_VIEWS: usize = 48;

/// Serve smoke request count.
const SERVE_REQS: u64 = 8;

/// Requests offered to the sharded cluster stage.
const CLUSTER_REQS: u64 = 12;

/// Initial worker count for the cluster stage.
const CLUSTER_WORKERS: usize = 2;

/// Timesteps in the longitudinal-monitoring stage's progression course.
const MONITOR_STEPS: usize = 4;

fn stage_gemm() {
    let mut rng = Xorshift::new(SEED);
    let a = rng.uniform_tensor([GEMM_N, GEMM_N], -1.0, 1.0);
    let b = rng.uniform_tensor([GEMM_N, GEMM_N], -1.0, 1.0);
    let mut c = vec![0.0f32; GEMM_N * GEMM_N];
    sgemm(false, false, GEMM_N, GEMM_N, GEMM_N, a.data(), b.data(), &mut c);
}

fn stage_conv() {
    let mut rng = Xorshift::new(SEED ^ 1);
    let input = rng.uniform_tensor([1, 2, 24, 24], -1.0, 1.0);
    let weight = rng.uniform_tensor([4, 2, 3, 3], -0.5, 0.5);
    let spec = Conv2dSpec::default();
    let out = conv2d(&input, &weight, None, spec).expect("conv2d forward");
    let _grads = conv2d_backward(&input, &weight, &out, spec).expect("conv2d backward");
}

fn stage_ctsim() {
    let grid = Grid::fov500(CT_N);
    let geom = ParallelBeamGeometry::for_image(CT_N, grid.px, CT_VIEWS);
    let hu_img = ChestPhantom::subject(SEED, 0.5, Some(Severity::Moderate)).rasterize_hu(CT_N);
    let mu_img = image_hu_to_mu(&hu_img);
    let sino = project_parallel(&mu_img, grid, &geom).expect("projection");
    let noisy = apply_poisson_noise(&sino, DoseSettings::quarter(SEED));
    let _rec = fbp_parallel(&noisy, &geom, grid, Window::Hann).expect("fbp");
}

fn pairs(n_pairs: usize, salt: u64) -> Vec<EnhancementPair> {
    (0..n_pairs)
        .map(|i| {
            let meta = ScanMeta {
                id: SEED + salt + i as u64,
                source: DataSource::Bimcv,
                modality: Modality::Ct,
                positive: i % 2 == 0,
                severity: if i % 2 == 0 { Some(Severity::Moderate) } else { None },
                slices: 16,
                circular_artifact: false,
                has_projections: false,
            };
            make_pair(&meta, 0.5, PairConfig::reduced(32, SEED + salt + i as u64))
                .expect("pair synthesis")
        })
        .collect()
}

fn stage_trainer() {
    let train = pairs(2, 100);
    let val = pairs(1, 200);
    let net = Ddnet::new(DdnetConfig::tiny(), SEED);
    let stats = train_enhancement(&net, &train, &val, TrainConfig::quick(1)).expect("training");
    assert!(!stats.is_empty(), "trainer must report at least one epoch");
}

fn stage_allreduce() {
    let plan = FaultPlan::seeded(
        1234,
        FaultConfig { p_drop: 0.05, p_duplicate: 0.05, ..FaultConfig::clean() },
    );
    let (_cluster, mut rings) = make_ring_in(4, plan, TimeoutCfg::fast(), cc19_obs::global());
    let mut bufs: Vec<Vec<f32>> = (0..4)
        .map(|r| (0..2048).map(|i| i as f32 * 0.001 + r as f32).collect())
        .collect();
    cc19_dist::allreduce::ring_allreduce_lockstep(&mut bufs, &mut rings).expect("all-reduce");
}

fn stage_serve() {
    let cfg = ServerCfg {
        // max_batch 1 keeps the batcher's real-time coalescing window (the
        // one wall-clock wait in the serving path) out of the picture, so
        // the sequential submit/wait loop below is fully deterministic.
        batch: BatchPolicy { max_batch: 1 },
        threshold: 0.5,
        ..ServerCfg::default()
    };
    let metrics = ServeMetrics::with_registry(cc19_obs::global_arc());
    let server =
        Server::start_with_metrics(cfg, || Framework::untrained_reduced(SEED), metrics)
            .expect("server starts");
    let client = server.client();
    for i in 0..SERVE_REQS {
        let mut rng = Xorshift::new(SEED ^ (0x9E37_79B9 + i));
        let volume = rng.uniform_tensor([4, 32, 32], -1000.0, 400.0);
        let pending = client.submit(ServeRequest::routine(volume)).expect("admission");
        let resp = pending.wait().expect("reply");
        resp.result.expect("diagnosis");
    }
    server.shutdown();
}

fn stage_serve_cluster() -> std::sync::Arc<Registry> {
    let reg = cc19_obs::global();
    let clock = reg.clock();
    // The cluster's own metrics live on a *private* registry: its clock
    // is read only by the router's recovery timer (two reads on the
    // death path), so in deterministic mode the recovery latency is an
    // exact, reproducible tick; requests go one at a time, keeping the
    // global export byte-stable.
    let metrics = ClusterMetrics::new();
    let cfg = ClusterCfg {
        workers: CLUSTER_WORKERS,
        worker: ServerCfg {
            batch: BatchPolicy { max_batch: 1 },
            threshold: 0.5,
            ..ServerCfg::default()
        },
        // Kill-only plan: worker 1 dies on its third dispatch, the
        // router re-dispatches the orphan to the survivor.
        faults: FaultPlan::seeded(
            1234,
            FaultConfig { kill: Some((1, 2)), ..FaultConfig::clean() },
        ),
        ..ClusterCfg::default()
    };
    let cluster =
        ServeCluster::start_with_metrics(cfg, || Framework::untrained_reduced(SEED), metrics)
            .expect("cluster starts");
    let client = cluster.client();
    let t0 = clock.now_ns();
    for i in 0..CLUSTER_REQS {
        let mut rng = Xorshift::new(SEED ^ (0x9E37_79B9 + i));
        let volume = rng.uniform_tensor([4, 32, 32], -1000.0, 400.0);
        let pending = client.submit(i, ServeRequest::routine(volume)).expect("admission");
        let resp = pending.wait().expect("reply");
        resp.result.expect("diagnosis");
    }
    let wall_s = clock.now_ns().saturating_sub(t0) as f64 / 1e9;

    let metrics = cluster.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(snap.completed, CLUSTER_REQS, "a study was lost to the kill");
    assert_eq!(snap.worker_deaths, 1, "the scheduled kill must fire");
    assert!(snap.redispatched >= 1, "the orphaned dispatch was not re-dispatched");

    // Surface the cluster's behaviour as bench_* gauges on the global
    // registry (the private registry itself is not exported).
    let rsnap = metrics.registry().snapshot();
    for node in 0..CLUSTER_WORKERS {
        let key = format!("serve_cluster_node_dispatched_total{{node=\"{node}\"}}");
        let dispatched =
            rsnap.counters.iter().find(|c| c.key == key).map(|c| c.value).unwrap_or(0);
        let qps = if wall_s > 0.0 { dispatched as f64 / wall_s } else { 0.0 };
        reg.gauge_with("bench_serve_cluster_node_qps", &[("node", &node.to_string())])
            .set(qps);
    }
    reg.gauge("bench_serve_cluster_redispatched").set(snap.redispatched as f64);
    reg.gauge("bench_serve_cluster_worker_deaths").set(snap.worker_deaths as f64);
    reg.gauge("bench_serve_cluster_recovery_ms").set(metrics.mean_recovery_ms());
    // Hand the router registry back so main() can derive the critical-
    // path report from its stitched request traces (DESIGN.md §17).
    std::sync::Arc::clone(metrics.registry())
}

fn stage_monitor() {
    let reg = cc19_obs::global();
    // The series registers its monitor_* counters and histograms on the
    // global registry, so they land in the exported JSON alongside the
    // other subsystems. add_scan is strictly sequential on this thread,
    // keeping the deterministic manual clock causal.
    let course = ProgressionCourse::worsening(MONITOR_STEPS);
    let scans = progression_series(SEED, &course, 32, 4, Severity::Moderate)
        .expect("progression synthesis");
    let fw = Framework::untrained_reduced(SEED);
    let mut series = PatientSeries::with_registry(fw, 0.5, 64 << 20, cc19_obs::global_arc());
    let mut last_burden = 0.0;
    for (t, vol) in scans.iter().enumerate() {
        let report = series.add_scan(format!("t{t}"), vol).expect("add_scan");
        assert_eq!(report.provenance, Provenance::Computed);
        assert!(report.burden.lesion_ml > last_burden, "worsening course must progress");
        last_burden = report.burden.lesion_ml;
    }
    // replay the final scan: content-addressed hit, stages skipped
    let replay = series.add_scan("t3-replay", &scans[MONITOR_STEPS - 1]).expect("replay");
    assert_eq!(replay.provenance, Provenance::CacheHit);
    assert_eq!(replay.burden.lesion_ml.to_bits(), last_burden.to_bits());

    reg.gauge("bench_monitor_final_burden_ml").set(last_burden);
    reg.gauge("bench_monitor_scans").set(series.reports().len() as f64);
    let (hits, misses, _) = series.cache().stats();
    let ratio = if hits + misses > 0 { hits as f64 / (hits + misses) as f64 } else { 0.0 };
    reg.gauge("bench_monitor_cache_hit_ratio").set(ratio);
}

/// In-plane resolution / channels for the kernel-ladder stage — small:
/// the point here is the GFLOP/s *gauges* (tracked across PRs via the
/// exported JSON), not peak numbers, which `kernel_ladder` owns.
const LADDER_N: usize = 32;
const LADDER_C: usize = 4;

fn stage_kernel_ladder() {
    let reg = cc19_obs::global();
    let clock = reg.clock();
    let dispatches: &[SimdLevel] = if simd::detected() == SimdLevel::Avx2 {
        &[SimdLevel::Scalar, SimdLevel::Avx2]
    } else {
        &[SimdLevel::Scalar]
    };
    for (name, k, deconv) in
        [("conv3x3", 3usize, false), ("conv5x5", 5, false), ("deconv5x5", 5, true)]
    {
        let s = ConvShape { cin: LADDER_C, cout: LADDER_C, h: LADDER_N, w: LADDER_N, k, pad: k / 2 };
        let mut rng = Xorshift::new(SEED ^ k as u64 ^ (deconv as u64) << 8);
        let input: Vec<f32> = (0..s.cin * s.h * s.w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let weight: Vec<f32> =
            (0..s.cin * s.cout * s.k * s.k).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let bias: Vec<f32> = (0..s.cout).map(|_| rng.uniform(-0.2, 0.2)).collect();
        let (oh, ow) = if deconv { (out_h(s), out_w(s)) } else { (s.out_h(), s.out_w()) };
        let flops = 2.0 * (oh * ow * s.cin * s.cout * k * k) as f64;
        for &dispatch in dispatches {
            for level in OptLevel::ALL {
                // The clock is read only here, strictly sequentially on
                // this thread (the kernels' rayon workers never touch
                // it), so the deterministic manual clock stays causal.
                let t0 = clock.now_ns();
                let out = if deconv {
                    deconv2d_with(level, dispatch, &input, &weight, &bias, s)
                } else {
                    conv2d_with(level, dispatch, &input, &weight, &bias, s)
                };
                let secs = clock.now_ns().saturating_sub(t0) as f64 / 1e9;
                assert!(out.iter().all(|v| v.is_finite()), "{name} non-finite output");
                let gflops = if secs > 0.0 { flops / secs / 1e9 } else { 0.0 };
                reg.gauge_with(
                    "bench_kernel_ladder_gflops",
                    &[("kernel", name), ("stage", level.tag()), ("dispatch", dispatch.tag())],
                )
                .set(gflops);
            }
        }
    }
}

fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.iter().filter(|e| e.name == name).map(|e| e.value).sum()
}

fn histogram_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.iter().filter(|e| e.name == name).map(|e| e.value.sum()).sum()
}

/// Derive `bench_*_gflops` gauges from the kernel flop counters and
/// second histograms accumulated across all stages above.
fn derive_gauges() {
    let reg = cc19_obs::global();
    let snap = reg.snapshot();
    for (gauge, flops_name, secs_name) in [
        ("bench_gemm_gflops", "tensor_gemm_flops_total", "tensor_gemm_seconds"),
        ("bench_conv_gflops", "tensor_conv_flops_total", "tensor_conv_seconds"),
    ] {
        let flops = counter_sum(&snap, flops_name) as f64;
        let secs = histogram_sum(&snap, secs_name);
        let gflops = if secs > 0.0 { flops / secs / 1e9 } else { 0.0 };
        reg.gauge(gauge).set(gflops);
    }
}

fn print_summary(snap: &Snapshot) {
    let t = TablePrinter::new(&[34, 16]);
    t.row(&[&"metric", &"value"]);
    t.row(&[&"tensor_gemm_flops_total", &counter_sum(snap, "tensor_gemm_flops_total")]);
    t.row(&[&"tensor_conv_flops_total", &counter_sum(snap, "tensor_conv_flops_total")]);
    t.row(&[&"ddnet_steps_total", &counter_sum(snap, "ddnet_steps_total")]);
    let faults = counter_sum(snap, "dist_faults_injected_total");
    t.row(&[&"dist_faults_injected_total", &faults]);
    t.row(&[&"serve_completed_total", &counter_sum(snap, "serve_completed_total")]);
    t.row(&[&"monitor_cache_hits_total", &counter_sum(snap, "monitor_cache_hits_total")]);
    let burden = snap
        .gauges
        .iter()
        .find(|e| e.name == "bench_monitor_final_burden_ml")
        .map(|e| e.value)
        .unwrap_or(0.0);
    t.row(&[&"bench_monitor_final_burden_ml", &format!("{burden:.1}")]);
    let recovery = snap
        .gauges
        .iter()
        .find(|e| e.name == "bench_serve_cluster_recovery_ms")
        .map(|e| e.value)
        .unwrap_or(0.0);
    t.row(&[&"bench_serve_cluster_recovery_ms", &format!("{recovery:.3}")]);
    let gemm_gflops = snap
        .gauges
        .iter()
        .find(|e| e.name == "bench_gemm_gflops")
        .map(|e| e.value)
        .unwrap_or(0.0);
    t.row(&[&"bench_gemm_gflops", &format!("{gemm_gflops:.3}")]);
    let ladder_top = snap
        .gauges
        .iter()
        .filter(|e| e.name == "bench_kernel_ladder_gflops")
        .map(|e| e.value)
        .fold(0.0, f64::max);
    t.row(&[&"bench_kernel_ladder_gflops (max)", &format!("{ladder_top:.3}")]);
}

fn main() {
    let deterministic = std::env::var("CC19_OBS_DETERMINISTIC").is_ok_and(|v| v == "1");
    println!(
        "== obs_report: deterministic observability sweep (manual clock: {}) ==",
        if deterministic { "on" } else { "off" }
    );

    stage_gemm();
    stage_conv();
    stage_ctsim();
    stage_trainer();
    stage_allreduce();
    stage_serve();
    let cluster_reg = stage_serve_cluster();
    stage_monitor();
    stage_kernel_ladder();
    derive_gauges();

    let snap = cc19_obs::global().snapshot();
    assert!(counter_sum(&snap, "tensor_gemm_flops_total") > 0, "GEMM flops must be nonzero");
    let ladder_gauges =
        snap.gauges.iter().filter(|e| e.name == "bench_kernel_ladder_gflops").count();
    // 3 kernels × 4 stages × dispatch levels available on this host.
    let expect_ladder = 12 * if simd::detected() == SimdLevel::Avx2 { 2 } else { 1 };
    assert_eq!(ladder_gauges, expect_ladder, "kernel-ladder gauge set incomplete");
    assert!(counter_sum(&snap, "ddnet_steps_total") > 0, "trainer must record steps");
    // Cluster worker nodes carry private serve registries, so the global
    // serve counters still reflect exactly the single-server stage.
    assert_eq!(counter_sum(&snap, "serve_completed_total"), SERVE_REQS);
    // The monitoring stage runs 4 computed scans plus one replay: the
    // cache counters in the export must say exactly that.
    assert_eq!(counter_sum(&snap, "monitor_cache_hits_total"), 1);
    assert_eq!(counter_sum(&snap, "monitor_cache_misses_total"), MONITOR_STEPS as u64);
    assert_eq!(counter_sum(&snap, "monitor_cache_evictions_total"), 0);
    let burden_obs: u64 =
        snap.histograms.iter().filter(|e| e.name == "monitor_burden_ml").map(|e| e.value.count()).sum();
    assert_eq!(burden_obs as usize, MONITOR_STEPS + 1, "one burden observation per submission");
    let qps_gauges =
        snap.gauges.iter().filter(|e| e.name == "bench_serve_cluster_node_qps").count();
    assert_eq!(qps_gauges, CLUSTER_WORKERS, "per-node QPS gauge set incomplete");
    let deaths = snap
        .gauges
        .iter()
        .find(|e| e.name == "bench_serve_cluster_worker_deaths")
        .map(|e| e.value)
        .unwrap_or(0.0);
    assert_eq!(deaths, 1.0, "cluster stage must record the scheduled worker death");

    // The cluster stage must leave one stitched span tree per request in
    // the router registry: a router-level `serve.request` root, its
    // dispatch span(s), and the worker subtree grafted beneath — the
    // killed worker's aborted dispatch marked `redispatched`, not lost.
    let spans = cluster_reg.trace_records();
    let roots =
        spans.iter().filter(|r| r.parent_id == 0 && r.path == "serve.request").count() as u64;
    assert_eq!(roots, CLUSTER_REQS, "every clustered request must root one span tree");
    let aborted = spans.iter().filter(|r| r.status == SpanStatus::Redispatched).count();
    assert!(aborted >= 1, "the scheduled kill must leave a redispatched dispatch span");
    // Critical-path invariant: per trace, the segment decomposition sums
    // exactly to the root's end-to-end latency (DESIGN.md §17).
    for root in spans.iter().filter(|r| r.parent_id == 0 && r.path == "serve.request") {
        let (e2e, segs) = cc19_obs::trace::trace_segments(&spans, root.trace_id)
            .expect("completed trace must decompose");
        let total: u64 = segs.values().sum();
        assert_eq!(total, e2e, "trace {} segments must sum to end-to-end", root.trace_id);
    }

    print_summary(&snap);
    cc19_bench::write_result("bench_obs.json", &cc19_obs::export::to_json(&snap));
    cc19_bench::write_result("bench_obs.prom", &cc19_obs::export::to_prometheus(&snap));
    cc19_bench::write_result(
        "trace_report.json",
        &cc19_obs::trace::critical_path_report(&cluster_reg, 3),
    );
}
