//! `served_open`: open loop, seeded exponential-gap arrivals from one
//! generator thread into an in-process `Server`. Phase `steady` runs at
//! about a quarter of capacity and gives the latencies; phase `overload`
//! offers several times capacity and gives the saturation throughput.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use cc19_serve::{MetricsSnapshot, Rejected, ServeRequest, Server};
use computecovid19::Framework;

use super::{
    alternate_traced, answer_ok, direct_probe, ops_within, serve_one, set_trace_overhead,
    start_server, timed_setups, EndToEnd, Served, REPLY_TIMEOUT,
};
use crate::inputs::{framework, Pool, POOL};
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::schedule::{late_ms, poisson, Arrival, Timing};
use crate::spans::Recorder;
use crate::stats::{median, Sample};

/// Slices per study.
pub const SLICES: usize = 4;
/// In-plane extent.
pub const EXTENT: usize = 32;
/// Arrivals per second in `steady`: about a quarter of capacity, so the
/// median request finds the server idle and p90 sees the queue.
pub const STEADY_PER_S: f64 = 25.0;
/// Arrivals per second in `overload`: about four times capacity, so the
/// queue fills and the broker sheds, with room left for a faster server.
pub const OVERLOAD_PER_S: f64 = 400.0;
/// Share of the run spent in each phase; the rest drains the queue.
const STEADY_SHARE: f64 = 0.6;
const OVERLOAD_SHARE: f64 = 0.25;
/// A reply later than this after its due time misses the limit.
pub const LIMIT_MS: f64 = 400.0;

struct Ctx {
    fw: Framework,
    pool: Pool,
    server: Server,
}

/// Direct model build, pool and expected answers, server start, and
/// four served studies to warm the server's replica.
fn setup(seed: u64) -> Ctx {
    let fw = framework();
    let pool = Pool::build(&fw, seed, SLICES, EXTENT);
    let server = start_server();
    let client = server.client();
    for study in 0..4 {
        assert!(
            serve_one(&client, &pool, study).ok,
            "warm-up study {study} answered wrongly"
        );
    }
    Ctx { fw, pool, server }
}

fn close(ctx: Ctx) {
    ctx.server.shutdown();
}

/// What one open-loop phase saw.
struct Phase {
    offered: usize,
    /// Timing of every answered request, and whether it was right.
    answered: Vec<(Timing, bool)>,
    /// Typed `QueueFull` refusals.
    shed: u64,
    /// Any other refusal, and replies that never came.
    lost: u64,
    /// Duration of each `submit` call, µs.
    submit_us: Vec<f64>,
    /// How late each request was sent, ms.
    late_ms: Vec<f64>,
    /// `Diagnosis.t_queue` of each reply, ms: reported by the program.
    queue_wait_ms: Vec<f64>,
    /// Server counters over the phase.
    accepted: u64,
    batches: u64,
    depth_max: usize,
}

impl Phase {
    fn correct(&self) -> impl Iterator<Item = &Timing> {
        self.answered.iter().filter(|(_, ok)| *ok).map(|(t, _)| t)
    }

    /// Every correct reply at its due time, for the latencies.
    fn by_due_time(&self) -> Vec<Sample> {
        self.samples(|t| t.due_ns)
    }

    /// Every correct reply at the time it came, for the throughput.
    fn by_reply_time(&self) -> Vec<Sample> {
        self.samples(|t| t.reply_ns)
    }

    fn samples(&self, at_ns: impl Fn(&Timing) -> u64) -> Vec<Sample> {
        self.correct()
            .map(|t| Sample {
                at_s: at_ns(t) as f64 / 1e9,
                ms: t.latency_ms(),
            })
            .collect()
    }

    fn mean_batch(&self) -> f64 {
        self.accepted as f64 / self.batches.max(1) as f64
    }

    /// Counts for `Outcome`; in `steady` a shed request is a failure too.
    fn outcome(&self, sheds_expected: bool) -> Outcome {
        let right = self.correct().count() as u64;
        let wrong = self.answered.len() as u64 - right;
        let (refused, unexpected) = if sheds_expected {
            (self.shed, 0)
        } else {
            (0, self.shed)
        };
        Outcome {
            attempted: self.offered as u64,
            completed: right,
            failed: wrong + self.lost + unexpected,
            refused,
            broken_checks: Vec::new(),
        }
    }
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (u64, u64) {
    (
        after.accepted - before.accepted,
        after.batches - before.batches,
    )
}

/// Send `schedule` on time whatever the server does, one waiting thread
/// per admitted request so that each reply is stamped when it arrives,
/// in whatever order the server answers.
fn open_loop(ctx: &Ctx, schedule: &[Arrival]) -> Phase {
    let client = ctx.server.client();
    let before = ctx.server.metrics().snapshot();
    let (tx, rx) = mpsc::channel();
    let mut waiters = Vec::with_capacity(schedule.len());
    let mut phase = Phase {
        offered: schedule.len(),
        answered: Vec::with_capacity(schedule.len()),
        shed: 0,
        lost: 0,
        submit_us: Vec::with_capacity(schedule.len()),
        late_ms: Vec::with_capacity(schedule.len()),
        queue_wait_ms: Vec::with_capacity(schedule.len()),
        accepted: 0,
        batches: 0,
        depth_max: 0,
    };
    let start = Instant::now();
    for a in schedule {
        let req = ServeRequest {
            volume: ctx.pool.studies[a.study].clone(),
            priority: a.priority,
            deadline: None,
        };
        let due = start + Duration::from_nanos(a.due_ns);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let sent = Instant::now();
        let admitted = client.submit(req);
        phase.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let sent_ns = (sent - start).as_nanos() as u64;
        phase.late_ms.push(late_ms(a.due_ns, sent_ns));
        match admitted {
            Ok(pending) => {
                let (tx, due_ns, expected) = (tx.clone(), a.due_ns, ctx.pool.expected[a.study]);
                let waiter = thread::Builder::new().stack_size(64 * 1024).spawn(move || {
                    let resp = pending.wait_timeout(REPLY_TIMEOUT).ok();
                    let reply_ns = start.elapsed().as_nanos() as u64;
                    let queue = resp
                        .as_ref()
                        .and_then(|r| r.result.as_ref().ok())
                        .map(|d| d.t_queue);
                    let answered = resp.is_some();
                    let ok = answer_ok(resp, expected);
                    let _ = tx.send((
                        Timing {
                            due_ns,
                            sent_ns,
                            reply_ns,
                        },
                        answered,
                        ok,
                        queue,
                    ));
                });
                waiters.push(waiter.expect("waiter thread spawns"));
            }
            Err(Rejected::QueueFull { .. }) => phase.shed += 1,
            Err(_) => phase.lost += 1,
        }
    }
    drop(tx);
    for w in waiters {
        w.join().expect("waiter thread ends");
    }
    for (timing, answered, ok, queue) in rx {
        if answered {
            phase.answered.push((timing, ok));
        } else {
            phase.lost += 1;
        }
        if let Some(q) = queue {
            phase.queue_wait_ms.push(q.as_secs_f64() * 1e3);
        }
    }
    let after = ctx.server.metrics().snapshot();
    (phase.accepted, phase.batches) = delta(&before, &after);
    phase.depth_max = after.depth_max;
    phase
}

fn steady(ctx: &Ctx, seed: u64, seconds: f64) -> Phase {
    open_loop(ctx, &poisson(seed, STEADY_PER_S, seconds, POOL))
}

fn overload(ctx: &Ctx, seed: u64, seconds: f64) -> Phase {
    open_loop(ctx, &poisson(seed ^ 0x0FE2, OVERLOAD_PER_S, seconds, POOL))
}

/// `steady` for the latencies, then `overload` for the throughput.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (ctx, setup_s) = timed_setups(|| setup(seed), close);
    let calm = steady(&ctx, seed, STEADY_SHARE * seconds);
    let flood = overload(&ctx, seed, OVERLOAD_SHARE * seconds);
    close(ctx);
    let mut outcome = calm.outcome(false);
    outcome.merge(flood.outcome(true));
    EndToEnd {
        setup_s,
        latency: calm.by_due_time(),
        throughput: flood.by_reply_time(),
        outcome,
    }
}

/// One-at-a-time probes for the overhead of serving, then both phases
/// again, shorter, with a span per request, then the stage, `ddnet` and
/// fixed probes on this workload's study shape.
pub fn traced(seed: u64, seconds: f64, rec: &mut Recorder, layers: &mut Metrics) -> Outcome {
    let ctx = setup(seed);
    let client = ctx.server.client();
    let mut outcome = Outcome::default();

    // Direct against served, one study at a time, same studies.
    let t = Instant::now();
    outcome.count(serve_one(&client, &ctx.pool, 0).ok);
    let pairs = ops_within(0.1 * seconds, t.elapsed().as_secs_f64(), 5, 150);
    let direct = direct_probe(&ctx.fw, &ctx.pool, 2 * pairs, &mut outcome);
    let mut submit_us = Vec::with_capacity(2 * pairs);
    let (bare, spanned) = alternate_traced(pairs, "request", rec, &mut outcome, |k, span| {
        let Served { ok, submit, .. } = serve_one(&client, &ctx.pool, k % POOL);
        submit_us.push(submit.as_secs_f64() * 1e6);
        if let Some((rec, root)) = span {
            let start = rec.spans()[root].start_ns;
            rec.record(
                "serve.submit",
                k as u64,
                Some(root),
                start,
                start + submit.as_nanos() as u64,
            );
        }
        ok
    });
    set_trace_overhead(layers, &bare, &spanned);
    let served: Vec<f64> = bare.iter().chain(&spanned).copied().collect();
    if let (Some(s), Some(d)) = (median(&served), median(&direct)) {
        layers.set("serve.overhead_ms", s - d, served.len());
    }

    let calm = steady(&ctx, seed, 0.35 * seconds);
    let flood = overload(&ctx, seed, 0.1 * seconds);
    for (op, (t, _)) in calm.answered.iter().enumerate() {
        let root = rec.record("request", op as u64, None, t.due_ns, t.reply_ns);
        rec.record("bench.late", op as u64, Some(root), t.due_ns, t.sent_ns);
    }
    submit_us.extend(&calm.submit_us);
    layers.set_median("serve.submit_us", &submit_us);
    layers.set_median("serve.queue_wait_p50_ms", &calm.queue_wait_ms);
    layers.set(
        "serve.mean_batch_steady",
        calm.mean_batch(),
        calm.batches as usize,
    );
    layers.set(
        "serve.mean_batch_overload",
        flood.mean_batch(),
        flood.batches as usize,
    );
    layers.set("serve.depth_max", flood.depth_max as f64, 1);
    layers.set(
        "serve.shed_frac",
        flood.shed as f64 / flood.offered.max(1) as f64,
        flood.offered,
    );
    let within = calm
        .correct()
        .filter(|t| t.latency_ms() <= LIMIT_MS)
        .count();
    layers.set(
        "serve.within_limit_frac",
        within as f64 / calm.offered.max(1) as f64,
        calm.offered,
    );
    layers.set_percentile("bench.gen_late_p90_ms", &calm.late_ms, 90.0);
    outcome.merge(calm.outcome(false));
    outcome.merge(flood.outcome(true));

    let studies: Vec<_> = ctx
        .pool
        .studies
        .iter()
        .zip(ctx.pool.expected.iter().copied())
        .collect();
    layers::staged_studies(rec, &mut outcome, &ctx.fw, &studies);
    layers::study_shape_probes(layers, &mut outcome, rec, &ctx.fw, &ctx.pool.studies[0], 10);
    close(ctx);
    outcome
}
