//! End-to-end distributed-tracing tests (DESIGN.md §17), wired into
//! `scripts/tier1.sh` as the request-tracing stage.
//!
//! The single-node tests inject an auto-tick [`ManualClock`] into the
//! server's registry — the clock every serving timestamp reads — so a
//! request's span tree is exactly assertable: parentage, stage-span
//! tiling, and the critical-path invariant that segments sum to the
//! end-to-end latency with no residual. The batched test also checks
//! that every `serve_stage_ms` sample is the duration of its span.
//!
//! The cluster test runs requests through a 3-worker cluster and
//! asserts the stitched tree — router root → dispatch span → grafted
//! worker subtree — plus a chaos phase where a scheduled worker kill
//! must leave the aborted dispatch span marked `redispatched` rather
//! than dropping it. Under `CC19_OBS_DETERMINISTIC=1` (how tier-1 runs
//! this file, twice) both phases' trees are byte-identical run over
//! run and are written to `results/trace_smoke.jsonl` for the
//! byte-compare; without the flag the worker registries carry
//! wall-clock noise, so no artifact is written.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cc19_dist::{FaultConfig, FaultPlan};
use cc19_obs::trace::{self, SpanRecord};
use cc19_obs::{Clock, ManualClock, Registry, SpanStatus};
use cc19_serve::{
    ClusterCfg, ClusterMetrics, ServeCluster, ServeMetrics, ServeRequest, Server, ServerCfg,
};
use computecovid19::framework::Framework;

const MODEL_SEED: u64 = 42;
const TICK: u64 = 1_000;

fn results_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name)
}

fn deterministic_mode() -> bool {
    std::env::var("CC19_OBS_DETERMINISTIC").map(|v| v == "1").unwrap_or(false)
}

fn volume(seed: u64) -> cc19_tensor::Tensor {
    let mut rng = cc19_tensor::rng::Xorshift::new(0x7_12ACE ^ seed);
    rng.uniform_tensor([4, 32, 32], -1000.0, 400.0)
}

fn sorted_spans(reg: &Registry) -> Vec<SpanRecord> {
    let mut spans = reg.trace_records();
    spans.sort_by_key(|r| (r.trace_id, r.span_id));
    spans
}

/// A registry on an auto-tick manual clock.
fn ticking_registry() -> Arc<Registry> {
    let clock: Arc<dyn Clock> = Arc::new(ManualClock::with_tick(TICK));
    Arc::new(Registry::with_clock(clock))
}

/// One sequential request through a single-node server whose registry
/// reads an auto-tick manual clock.
fn run_single_node() -> (String, Vec<SpanRecord>) {
    let reg = ticking_registry();
    let metrics = ServeMetrics::with_registry(Arc::clone(&reg));
    let cfg = ServerCfg::default();
    let server = Server::start_with_metrics(
        cfg,
        || Framework::untrained_reduced(MODEL_SEED),
        metrics,
    )
    .expect("server starts");
    let client = server.client();
    let resp = client
        .submit(ServeRequest::routine(volume(1)))
        .expect("admission")
        .wait()
        .expect("reply");
    resp.result.expect("diagnosis");
    server.shutdown();
    (trace::tree_jsonl(&reg), sorted_spans(&reg))
}

#[test]
fn single_node_span_tree_tiles_and_reruns_byte_identical() {
    let (jsonl, spans) = run_single_node();

    // Exactly one trace: the root plus five tiled stage children, span
    // ids in causal order.
    assert_eq!(spans.len(), 6, "unexpected span count:\n{jsonl}");
    let root = &spans[0];
    assert_eq!((root.span_id, root.parent_id, root.path.as_str()), (1, 0, "serve.request"));
    assert_eq!(root.status, SpanStatus::Ok);
    let stages = ["serve.queue", "serve.batch", "serve.enhance", "serve.segment", "serve.classify"];
    let mut cursor = root.start_ns;
    for (i, want) in stages.iter().enumerate() {
        let s = &spans[i + 1];
        assert_eq!(s.path, *want);
        assert_eq!(s.parent_id, root.span_id, "{want} must parent under the root");
        assert_eq!(s.span_id, 2 + i as u64, "span ids follow causal order");
        assert_eq!(s.start_ns, cursor, "{want} must start where the previous span ended");
        assert!(s.end_ns >= s.start_ns);
        cursor = s.end_ns;
    }
    assert_eq!(cursor, root.end_ns, "the last stage span must end the request");

    // Critical-path invariant: tiled children leave no residual, so the
    // segment decomposition sums exactly to the end-to-end latency.
    let (e2e, segs) = trace::trace_segments(&spans, root.trace_id).expect("completed trace");
    assert!(e2e > 0, "auto-tick clock must give nonzero latency");
    assert_eq!(segs.values().sum::<u64>(), e2e);
    assert!(!segs.contains_key("other"), "tiled stage spans must leave no residual: {segs:?}");

    // Registry-clock timestamps and per-trace span-id sequences make the
    // export deterministic: a fresh identical run is byte-identical.
    let (again, _) = run_single_node();
    assert_eq!(jsonl, again, "single-node trace export must be reproducible");
}

/// Two requests popped as one batch by one worker: the second job's
/// stage spans start after the first job's end (its wait behind the
/// first job is `serve.batch`), both trees still tile, and every
/// `serve_stage_ms` sample is exactly the duration of its span.
#[test]
fn batched_jobs_time_their_own_stages_and_histograms_match_spans() {
    let reg = ticking_registry();
    let metrics = ServeMetrics::with_registry(Arc::clone(&reg));
    let cfg = ServerCfg { pipelines: 1, start_paused: true, ..ServerCfg::default() };
    let server =
        Server::start_with_metrics(cfg, || Framework::untrained_reduced(MODEL_SEED), metrics)
            .expect("server starts");
    let client = server.client();
    let pendings: Vec<_> = (1..=2)
        .map(|seed| client.submit(ServeRequest::routine(volume(seed))).expect("admission"))
        .collect();
    server.resume();
    let diagnoses: Vec<_> =
        pendings.into_iter().map(|p| p.wait().expect("reply").result.expect("diagnosis")).collect();
    let metrics = server.shutdown();
    assert_eq!(metrics.snapshot().max_batch, 2, "both requests must pop as one batch");

    let spans = sorted_spans(&reg);
    let roots: Vec<&SpanRecord> = spans.iter().filter(|r| r.parent_id == 0).collect();
    assert_eq!(roots.len(), 2);
    let span = |root: &SpanRecord, path: &str| -> SpanRecord {
        let found: Vec<&SpanRecord> = children(&spans, root.trace_id, root.span_id)
            .into_iter()
            .filter(|r| r.path == path)
            .collect();
        assert_eq!(found.len(), 1, "trace {} must carry one {path} span", root.trace_id);
        found[0].clone()
    };
    assert!(
        span(roots[1], "serve.enhance").start_ns >= span(roots[0], "serve.classify").end_ns,
        "the second job's enhance span must not contain the first job's stages"
    );

    let histograms = reg.snapshot().histograms;
    let samples = |stage: &str| {
        let key = format!("serve_stage_ms{{stage=\"{stage}\"}}");
        let h = histograms.iter().find(|h| h.key == key).expect("stage histogram registered");
        h.value.samples().to_vec()
    };
    let ms = |from: u64, to: u64| (to - from) as f64 / 1e6;
    for (k, root) in roots.iter().enumerate() {
        let (e2e, segs) = trace::trace_segments(&spans, root.trace_id).expect("completed trace");
        assert_eq!(segs.values().sum::<u64>(), e2e);
        assert!(!segs.contains_key("other"), "tiled stage spans must leave no residual: {segs:?}");

        let (queue, batch) = (span(root, "serve.queue"), span(root, "serve.batch"));
        let (enhance, classify) = (span(root, "serve.enhance"), span(root, "serve.classify"));
        assert_eq!(diagnoses[k].t_queue, Duration::from_nanos(batch.end_ns - queue.start_ns));
        assert_eq!(samples("queue")[k], ms(queue.start_ns, batch.end_ns), "queue sample {k}");
        for stage in ["enhance", "segment", "classify"] {
            let s = span(root, &format!("serve.{stage}"));
            assert_eq!(samples(stage)[k], ms(s.start_ns, s.end_ns), "{stage} sample {k}");
        }
        assert_eq!(samples("total")[k], ms(enhance.start_ns, classify.end_ns), "total sample {k}");
    }
}

/// Requests through a 3-worker cluster against a router registry on an
/// auto-tick manual clock; returns the stitched tree export.
fn run_cluster(studies: u64, kill: Option<(usize, usize)>) -> (String, Vec<SpanRecord>) {
    let reg = Arc::new(Registry::with_clock(Arc::new(ManualClock::with_tick(TICK))));
    let metrics = ClusterMetrics::with_registry(Arc::clone(&reg));
    let cfg = ClusterCfg {
        workers: 3,
        faults: FaultPlan::seeded(1234, FaultConfig { kill, ..FaultConfig::clean() }),
        ..ClusterCfg::default()
    };
    let cluster =
        ServeCluster::start_with_metrics(cfg, || Framework::untrained_reduced(MODEL_SEED), metrics)
            .expect("cluster starts");
    let client = cluster.client();
    for study in 0..studies {
        let resp = client
            .submit(study, ServeRequest::routine(volume(study)))
            .expect("admission")
            .wait()
            .expect("reply");
        resp.result.expect("diagnosis");
    }
    let metrics = cluster.shutdown();
    if let Some((_, _)) = kill {
        let snap = metrics.snapshot();
        assert_eq!(snap.worker_deaths, 1, "the scheduled kill must fire");
        assert!(snap.redispatched >= 1, "the orphan must be re-dispatched");
        assert_eq!(snap.completed, studies, "a study was lost to the kill");
    }
    (trace::tree_jsonl(&reg), sorted_spans(&reg))
}

fn children(spans: &[SpanRecord], trace_id: u64, parent: u64) -> Vec<&SpanRecord> {
    spans.iter().filter(|r| r.trace_id == trace_id && r.parent_id == parent).collect()
}

/// Assert one request's stitched shape: router root → dispatch span(s)
/// → exactly one grafted worker subtree with the five stage spans.
/// Returns how many aborted (`redispatched`) dispatch spans the trace
/// carries.
fn assert_stitched(spans: &[SpanRecord], root: &SpanRecord) -> usize {
    let wires = children(spans, root.trace_id, root.span_id);
    assert!(!wires.is_empty(), "trace {} has no dispatch span", root.trace_id);
    let mut aborted = 0;
    let mut grafted = 0;
    for wire in &wires {
        assert_eq!(wire.path, "serve.cluster.wire");
        match wire.status {
            SpanStatus::Redispatched => {
                aborted += 1;
                // The worker died with these spans; the aborted attempt
                // must still be in the tree, just childless.
                assert!(children(spans, root.trace_id, wire.span_id).is_empty());
            }
            SpanStatus::Ok => {
                let subtree = children(spans, root.trace_id, wire.span_id);
                assert_eq!(subtree.len(), 1, "one grafted worker root per dispatch");
                let wroot = subtree[0];
                assert_eq!(wroot.path, "serve.request");
                let mut paths: Vec<&str> = children(spans, root.trace_id, wroot.span_id)
                    .iter()
                    .map(|r| r.path.as_str())
                    .collect();
                paths.sort_unstable();
                assert_eq!(
                    paths,
                    ["serve.batch", "serve.classify", "serve.enhance", "serve.queue", "serve.segment"],
                    "worker subtree must carry the five stage spans"
                );
                grafted += 1;
            }
            SpanStatus::Failed => panic!("unexpected failed dispatch in trace {}", root.trace_id),
        }
    }
    assert_eq!(grafted, 1, "exactly one dispatch succeeds per request");
    aborted
}

#[test]
fn cluster_trees_stitch_and_mark_killed_attempts_redispatched() {
    const STUDIES: u64 = 12;

    // Healthy phase: every request yields one stitched tree whose
    // segments sum to its end-to-end latency.
    let (healthy_jsonl, spans) = run_cluster(STUDIES, None);
    let roots: Vec<&SpanRecord> =
        spans.iter().filter(|r| r.parent_id == 0 && r.path == "serve.request").collect();
    assert_eq!(roots.len() as u64, STUDIES, "one root per clustered request");
    for root in &roots {
        assert_eq!(root.status, SpanStatus::Ok);
        assert_eq!(assert_stitched(&spans, root), 0, "no aborted dispatch without a kill");
        let (e2e, segs) = trace::trace_segments(&spans, root.trace_id).expect("completed trace");
        assert_eq!(segs.values().sum::<u64>(), e2e, "segments must sum to end-to-end");
    }

    // Chaos phase: worker 1 silently dies on its third dispatch. The
    // orphaned request's aborted dispatch span survives as
    // `redispatched` and its retry carries the full worker subtree.
    let (chaos_jsonl, spans) = run_cluster(STUDIES, Some((1, 2)));
    let roots: Vec<&SpanRecord> =
        spans.iter().filter(|r| r.parent_id == 0 && r.path == "serve.request").collect();
    assert_eq!(roots.len() as u64, STUDIES, "the kill must not lose a trace");
    let aborted: usize = roots.iter().map(|root| assert_stitched(&spans, root)).sum();
    assert!(aborted >= 1, "the killed worker's dispatch span must be marked redispatched");

    if !deterministic_mode() {
        return; // wall-clock worker registries: exports not reproducible
    }

    // Deterministic mode: both phases must replay byte-identically, and
    // the concatenated export is tier-1's byte-compare artifact.
    let (healthy_again, _) = run_cluster(STUDIES, None);
    assert_eq!(healthy_jsonl, healthy_again, "healthy cluster trace must be reproducible");
    let (chaos_again, _) = run_cluster(STUDIES, Some((1, 2)));
    assert_eq!(chaos_jsonl, chaos_again, "chaos cluster trace must be reproducible");
    std::fs::write(results_path("trace_smoke.jsonl"), healthy_jsonl + &chaos_jsonl)
        .expect("write trace smoke artifact");
}
