//! `clustered_closed`: closed loop, two callers, submit and wait through
//! `ClusterClient::submit` against a two-worker `ServeCluster`, on the
//! smallest admissible study, so that routing, wire codec, batch delay
//! and thread hand-offs are most of each request.

use std::thread;
use std::time::{Duration, Instant};

use cc19_serve::{ClusterCfg, ClusterClient, ServeCluster, ServeRequest};
use computecovid19::Framework;

use super::{
    alternate_traced, answer_ok, direct_probe, ops_within, serve_one, set_trace_overhead,
    start_server, timed_setups, EndToEnd, Served, REPLY_TIMEOUT,
};
use crate::inputs::{framework, Pool, POOL};
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::schedule::Rng;
use crate::spans::Recorder;
use crate::stats::{median, Sample};

/// Slices per study: the classifier admits no fewer.
pub const SLICES: usize = 4;
/// In-plane extent: the enhancer admits no smaller.
pub const EXTENT: usize = 16;
/// Concurrent callers, one thread each.
pub const CALLERS: usize = 2;
/// Workers in the cluster under test.
pub const WORKERS: usize = 2;

struct Ctx {
    fw: Framework,
    pool: Pool,
    cluster: ServeCluster,
}

fn start_cluster(workers: usize) -> ServeCluster {
    let cfg = ClusterCfg {
        workers,
        per_worker_inflight: 16,
        ..ClusterCfg::default()
    };
    ServeCluster::start(cfg, framework).expect("cluster starts")
}

/// Submit one study under `id` and wait for it. Any refusal is a
/// failure: two callers never fill 32 in-flight slots.
fn cluster_one(client: &ClusterClient, pool: &Pool, id: u64, study: usize) -> bool {
    let req = ServeRequest::routine(pool.studies[study].clone());
    let resp = client
        .submit(id, req)
        .ok()
        .and_then(|p| p.wait_timeout(REPLY_TIMEOUT).ok());
    answer_ok(resp, pool.expected[study])
}

/// Direct model build, pool and expected answers, cluster start, and 16
/// clustered studies to warm both workers.
fn setup(seed: u64) -> Ctx {
    let fw = framework();
    let pool = Pool::build(&fw, seed, SLICES, EXTENT);
    let cluster = start_cluster(WORKERS);
    let client = cluster.client();
    for k in 0..16 {
        assert!(
            cluster_one(&client, &pool, WARM_IDS + k, k as usize % POOL),
            "warm-up study {k}"
        );
    }
    Ctx { fw, pool, cluster }
}

/// Study ids of warm-ups and probes, apart from the callers' ids.
const WARM_IDS: u64 = 1 << 60;

fn close(ctx: Ctx) {
    ctx.cluster.shutdown();
}

/// [`CALLERS`] threads submit and wait in a loop for `seconds`, each
/// with its own seeded draws and its own range of study ids. Returns
/// every correct operation and the counts.
fn closed_loop(
    client: &ClusterClient,
    pool: &Pool,
    seed: u64,
    seconds: f64,
) -> (Vec<Sample>, Outcome) {
    let start = Instant::now();
    let per_caller: Vec<(Vec<Sample>, Outcome)> = thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS as u64)
            .map(|c| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xCA11 + c));
                    let mut outcome = Outcome::default();
                    let mut latency = Vec::with_capacity(1 << 16);
                    let mut n = 0u64;
                    while start.elapsed().as_secs_f64() < seconds {
                        let study = rng.below(POOL);
                        let t = Instant::now();
                        let ok = cluster_one(&client, pool, (c << 40) | n, study);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        n += 1;
                        outcome.count(ok);
                        if ok {
                            let at_s = start.elapsed().as_secs_f64();
                            latency.push(Sample { at_s, ms });
                        }
                    }
                    (latency, outcome)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread ends"))
            .collect()
    });
    let mut outcome = Outcome::default();
    let mut latency = Vec::new();
    for (l, o) in per_caller {
        latency.extend(l);
        outcome.merge(o);
    }
    (latency, outcome)
}

/// Correct operations per second from the start to the last reply.
fn per_second(samples: &[Sample]) -> f64 {
    let end_s = samples.iter().map(|s| s.at_s).fold(0.0, f64::max);
    samples.len() as f64 / end_s.max(1e-9)
}

/// No fault is injected, so a re-dispatched study is a broken run.
fn check_no_redispatch(outcome: &mut Outcome, redispatched: u64) {
    if redispatched != 0 {
        outcome.broken_checks.push(format!(
            "{redispatched} studies re-dispatched without a fault"
        ));
    }
}

/// Two callers against two workers for `seconds`.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (ctx, setup_s) = timed_setups(|| setup(seed), close);
    let (latency, mut outcome) = closed_loop(&ctx.cluster.client(), &ctx.pool, seed, seconds);
    let snap = ctx.cluster.metrics().snapshot();
    check_no_redispatch(&mut outcome, snap.redispatched);
    close(ctx);
    EndToEnd {
        setup_s,
        throughput: latency.clone(),
        latency,
        outcome,
    }
}

/// One-at-a-time probes (direct, served, clustered) for the overhead of
/// each layer of serving, then the closed loop against two workers and
/// against one for the scaling, then the stage, `ddnet` and fixed probes
/// on this workload's study shape.
pub fn traced(seed: u64, seconds: f64, rec: &mut Recorder, layers: &mut Metrics) -> Outcome {
    let ctx = setup(seed);
    let client = ctx.cluster.client();
    let mut outcome = Outcome::default();

    let t = Instant::now();
    outcome.count(cluster_one(&client, &ctx.pool, WARM_IDS + 100, 0));
    let pairs = ops_within(0.05 * seconds, t.elapsed().as_secs_f64(), 10, 500);
    let probes = 2 * pairs;

    let direct = direct_probe(&ctx.fw, &ctx.pool, probes, &mut outcome);

    let server = start_server();
    let single = server.client();
    let probed: Vec<Served> = (0..probes)
        .map(|k| serve_one(&single, &ctx.pool, k % POOL))
        .collect();
    probed.iter().for_each(|p| outcome.count(p.ok));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let served: Vec<f64> = probed.iter().map(|p| ms(p.total)).collect();
    let submit_us: Vec<f64> = probed.iter().map(|p| ms(p.submit) * 1e3).collect();
    let queue_wait_ms: Vec<f64> = probed.iter().filter_map(|p| p.queue_wait).map(ms).collect();
    let snap = server.shutdown().snapshot();
    layers.set_median("serve.submit_us", &submit_us);
    layers.set_median("serve.queue_wait_p50_ms", &queue_wait_ms);
    layers.set(
        "serve.mean_batch_steady",
        snap.accepted as f64 / snap.batches.max(1) as f64,
        snap.batches as usize,
    );
    layers.set("serve.depth_max", snap.depth_max as f64, 1);

    let (bare, spanned) = alternate_traced(pairs, "request", rec, &mut outcome, |k, span| {
        let id = WARM_IDS + 1000 + 2 * k as u64 + u64::from(span.is_some());
        cluster_one(&client, &ctx.pool, id, k % POOL)
    });
    set_trace_overhead(layers, &bare, &spanned);
    let clustered: Vec<f64> = bare.iter().chain(&spanned).copied().collect();
    if let (Some(d), Some(s), Some(c)) = (median(&direct), median(&served), median(&clustered)) {
        layers.set("serve.overhead_ms", s - d, served.len());
        layers.set("cluster.overhead_ms", c - s, clustered.len());
    }

    let (two, counts) = closed_loop(&client, &ctx.pool, seed, 0.2 * seconds);
    outcome.merge(counts);
    let snap = ctx.cluster.metrics().snapshot();
    layers.set("cluster.dispatched", snap.dispatched as f64, 1);
    layers.set("cluster.redispatched", snap.redispatched as f64, 1);
    layers.set("cluster.inflight_max", snap.inflight_max as f64, 1);
    check_no_redispatch(&mut outcome, snap.redispatched);
    let lone = start_cluster(1);
    let (one, counts) = closed_loop(&lone.client(), &ctx.pool, seed, 0.2 * seconds);
    lone.shutdown();
    outcome.merge(counts);
    layers.set(
        "cluster.scaling_2w_over_1w",
        per_second(&two) / per_second(&one),
        2,
    );

    let studies: Vec<_> = (0..8 * POOL)
        .map(|k| (&ctx.pool.studies[k % POOL], ctx.pool.expected[k % POOL]))
        .collect();
    layers::staged_studies(rec, &mut outcome, &ctx.fw, &studies);
    layers::study_shape_probes(layers, &mut outcome, rec, &ctx.fw, &ctx.pool.studies[0], 50);
    close(ctx);
    outcome
}
