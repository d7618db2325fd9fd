//! The four workloads. Each has an untraced pass that yields the
//! end-to-end samples and a traced pass that yields the per-layer ones.

use std::time::{Duration, Instant};

use cc19_serve::{Client, ServeRequest, ServeResponse, Server, ServerCfg};
use computecovid19::Framework;

use crate::inputs::{framework, Pool, POOL};
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, Sample};

pub mod clustered_closed;
pub mod direct_study;
pub mod served_open;
pub mod slice_512;

/// Names accepted by `--workload`, in the order `run.sh` runs them.
pub const NAMES: [&str; 4] = [
    "direct_study",
    "slice_512",
    "served_open",
    "clustered_closed",
];

/// Times the set-up of a workload is repeated; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// How long a caller waits for one reply before counting it lost.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// An in-process server on the default configuration.
pub fn start_server() -> Server {
    Server::start(ServerCfg::default(), framework).expect("server starts")
}

/// Whether a reply came and its probability has the expected bits.
pub fn answer_ok(resp: Option<ServeResponse>, expected: u64) -> bool {
    matches!(resp, Some(ServeResponse { result: Ok(d), .. }) if d.probability.to_bits() == expected)
}

/// What one served study cost.
pub struct Served {
    /// Whether the answer was right.
    pub ok: bool,
    /// Duration of the `submit` call.
    pub submit: Duration,
    /// From before `submit` to the reply in hand.
    pub total: Duration,
    /// `Diagnosis.t_queue` of the reply: reported by the program.
    pub queue_wait: Option<Duration>,
}

/// Submit one pool study as routine and wait for it.
pub fn serve_one(client: &Client, pool: &Pool, study: usize) -> Served {
    let req = ServeRequest::routine(pool.studies[study].clone());
    let t = Instant::now();
    let pending = client.submit(req);
    let submit = t.elapsed();
    let resp = pending
        .ok()
        .and_then(|p| p.wait_timeout(REPLY_TIMEOUT).ok());
    let total = t.elapsed();
    let queue_wait = resp
        .as_ref()
        .and_then(|r| r.result.as_ref().ok())
        .map(|d| d.t_queue);
    Served {
        ok: answer_ok(resp, pool.expected[study]),
        submit,
        total,
        queue_wait,
    }
}

/// `n` direct `diagnose` calls round the pool, one at a time: the
/// latency (ms) of each, for the overhead of serving to be taken from.
pub fn direct_probe(fw: &Framework, pool: &Pool, n: usize, outcome: &mut Outcome) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let t = Instant::now();
            let d = fw.diagnose(&pool.studies[k % POOL], 0.5);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            outcome.count(d.is_ok_and(|d| d.probability.to_bits() == pool.expected[k % POOL]));
            ms
        })
        .collect()
}

/// Samples and counts of an untraced pass.
pub struct EndToEnd {
    /// Duration of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Every correctly answered operation of the phase that gives the
    /// latencies.
    pub latency: Vec<Sample>,
    /// Every correctly answered operation of the phase that gives the
    /// throughput, at its completion time: the same phase in a closed
    /// loop.
    pub throughput: Vec<Sample>,
    /// What happened to the operations.
    pub outcome: Outcome,
}

/// Run `setup` [`SETUPS`] times, closing all but the last, and return
/// the last context with every duration.
pub fn timed_setups<C>(mut setup: impl FnMut() -> C, close: impl Fn(C)) -> (C, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(prev) = kept.take() {
            close(prev);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS is at least 1"), times)
}

/// How many operations of about `op_s` seconds fit in `budget_s`.
pub fn ops_within(budget_s: f64, op_s: f64, min: usize, max: usize) -> usize {
    ((budget_s / op_s.max(1e-6)) as usize).clamp(min, max)
}

/// Alternate an operation bare and under a span, `pairs` times, one at a
/// time; `op` gets the pair's index, so both calls of a pair can take
/// the same input, and returns whether the answer was right. Returns the
/// bare and the traced latencies (ms) of the right answers.
pub fn alternate_traced(
    pairs: usize,
    span: &'static str,
    rec: &mut Recorder,
    outcome: &mut Outcome,
    mut op: impl FnMut(usize, Option<(&mut Recorder, usize)>) -> bool,
) -> (Vec<f64>, Vec<f64>) {
    let (mut bare, mut traced) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for k in 0..pairs {
        let t = Instant::now();
        let ok = op(k, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        outcome.count(ok);
        if ok {
            bare.push(ms);
        }
        let root = rec.open(span, k as u64, None);
        let ok = op(k, Some((rec, root)));
        let ms = rec.close(root);
        outcome.count(ok);
        if ok {
            traced.push(ms);
        }
    }
    (bare, traced)
}

/// `bench.trace_overhead_frac`: traced median over bare median, minus 1.
pub fn set_trace_overhead(layers: &mut Metrics, bare: &[f64], traced: &[f64]) {
    if let (Some(b), Some(t)) = (median(bare), median(traced)) {
        layers.set(
            "bench.trace_overhead_frac",
            t / b - 1.0,
            bare.len().min(traced.len()),
        );
    }
}
