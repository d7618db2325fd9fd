//! End-to-end serving tests: concurrent clients against a live server,
//! exactly-once delivery, bit-identity with direct `Framework` calls —
//! in-process and across the TCP front end — and exact latency
//! accounting under an injected frozen clock.

use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use cc19_obs::{Clock, ManualClock, Registry};
use cc19_serve::{
    serve_on, BatchPolicy, Priority, Rejected, ServeMetrics, ServeRequest, Server, ServerCfg,
    TcpServeClient,
};
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;
use computecovid19::framework::Framework;

const SEED: u64 = 0x5EED_2026;
const THRESHOLD: f64 = 0.5;

fn factory() -> Framework {
    Framework::untrained_reduced(SEED)
}

fn volume(seed: u64) -> Tensor {
    let mut rng = Xorshift::new(0x9E3779B9 ^ seed.wrapping_mul(0x85EB_CA6B));
    rng.uniform_tensor([4, 32, 32], -1000.0, 400.0)
}

fn priority_for(i: u64) -> Priority {
    Priority::DISPATCH_ORDER[(i % 3) as usize]
}

#[test]
fn concurrent_clients_get_exactly_once_bit_identical_answers() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 6;

    let cfg = ServerCfg {
        queue_bound: 64,
        batch: BatchPolicy { max_batch: 4 },
        pipelines: 2,
        threshold: THRESHOLD,
        ..ServerCfg::default()
    };
    let server = Server::start(cfg, factory).expect("server starts");

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = server.client();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..PER_CLIENT {
                    let seed = c * PER_CLIENT + i;
                    let pending = client
                        .submit(ServeRequest {
                            volume: volume(seed),
                            priority: priority_for(seed),
                            deadline: None,
                        })
                        .expect("queue bound is above total offered load");
                    let expected_id = pending.id();
                    let resp = pending.wait().expect("server dropped a reply");
                    assert_eq!(resp.id, expected_id, "reply routed to the wrong request");
                    out.push((seed, resp));
                }
                out
            })
        })
        .collect();

    let mut responses = Vec::new();
    for h in handles {
        responses.extend(h.join().unwrap());
    }
    let metrics = server.shutdown();

    // Exactly once: every submission answered, every admission id unique.
    assert_eq!(responses.len(), (CLIENTS * PER_CLIENT) as usize);
    let ids: HashSet<u64> = responses.iter().map(|(_, r)| r.id).collect();
    assert_eq!(ids.len(), responses.len(), "an admission id was reused");
    let snap = metrics.snapshot();
    assert_eq!(snap.accepted, CLIENTS * PER_CLIENT);
    assert_eq!(snap.completed, CLIENTS * PER_CLIENT);
    assert_eq!(snap.failed, 0);

    // Bit-identity: the served diagnosis equals a direct Framework call
    // on an identically-constructed replica, per volume.
    let reference = factory();
    for (seed, resp) in &responses {
        let served = resp.result.as_ref().expect("stage failure");
        let direct = reference.diagnose(&volume(*seed), THRESHOLD).unwrap();
        assert_eq!(
            served.probability.to_bits(),
            direct.probability.to_bits(),
            "seed {seed}: served probability differs from direct diagnose"
        );
        assert_eq!(served.positive, direct.positive);
    }
}

/// [`factory`] with every enhancer weight nudged by +0.01: the untrained
/// enhancer is the identity map, so without this no serve test sees the
/// enhancement network's (deconvolution) numerics at all.
fn nudged_factory() -> Framework {
    let fw = factory();
    let net = fw.enhancer.as_ref().expect("reduced framework has an enhancer");
    for p in net.store.params() {
        for v in p.borrow_mut().value.data_mut() {
            *v += 0.01;
        }
    }
    fw
}

#[test]
fn served_equals_direct_with_a_non_identity_enhancer() {
    let reference = nudged_factory();
    let net = reference.enhancer.as_ref().unwrap();
    let slice = Xorshift::new(3).uniform_tensor([32, 32], 0.0, 1.0);
    assert!(!net.enhance(&slice).unwrap().all_close(&slice, 1e-3), "enhancer must not be the identity");

    let cfg = ServerCfg {
        batch: BatchPolicy { max_batch: 4 },
        pipelines: 2,
        threshold: THRESHOLD,
        ..ServerCfg::default()
    };
    let server = Server::start(cfg, nudged_factory).expect("server starts");
    let client = server.client();
    let pending: Vec<_> = (0..8u64)
        .map(|seed| {
            let req = ServeRequest::routine(volume(200 + seed));
            (seed, client.submit(req).expect("queue bound is above offered load"))
        })
        .collect();
    for (seed, p) in pending {
        let served = p.wait().expect("server dropped a reply").result.expect("stage failure");
        let direct = reference.diagnose(&volume(200 + seed), THRESHOLD).unwrap();
        assert_eq!(
            served.probability.to_bits(),
            direct.probability.to_bits(),
            "seed {seed}: served probability differs from direct diagnose"
        );
    }
    assert_eq!(server.shutdown().snapshot().completed, 8);
}

#[test]
fn tcp_front_end_serves_bit_identical_answers() {
    let server = Server::start(
        ServerCfg { threshold: THRESHOLD, ..ServerCfg::default() },
        factory,
    )
    .expect("server starts");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let conn_client = server.client();
    std::thread::spawn(move || serve_on(listener, conn_client));

    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut remote = TcpServeClient::connect(addr).expect("connect");
                let mut out = Vec::new();
                for i in 0..3u64 {
                    let seed = 100 + c * 3 + i;
                    let req = ServeRequest {
                        volume: volume(seed),
                        priority: priority_for(seed),
                        deadline: Some(Duration::from_secs(60)),
                    };
                    let (id, d) = remote
                        .diagnose(&req)
                        .expect("transport")
                        .expect("admission");
                    out.push((seed, id, d));
                }
                out
            })
        })
        .collect();

    let mut responses = Vec::new();
    for h in handles {
        responses.extend(h.join().unwrap());
    }

    let ids: HashSet<u64> = responses.iter().map(|&(_, id, _)| id).collect();
    assert_eq!(ids.len(), 9, "admission ids must be unique across connections");

    let reference = factory();
    for (seed, _, served) in &responses {
        let direct = reference.diagnose(&volume(*seed), THRESHOLD).unwrap();
        assert_eq!(
            served.probability.to_bits(),
            direct.probability.to_bits(),
            "seed {seed}: TCP answer differs from direct diagnose"
        );
        assert_eq!(served.positive, direct.positive);
    }

    // A malformed study is rejected with the typed reason, across the wire.
    let mut remote = TcpServeClient::connect(addr).unwrap();
    let bad = ServeRequest::routine(Tensor::zeros([4, 32])); // rank 2
    match remote.diagnose(&bad).expect("transport") {
        Err(Rejected::Invalid(_)) => {}
        other => panic!("expected Invalid rejection, got {other:?}"),
    }
    // So is a rank-4 one, as in-process submission rejects it: the wire
    // carries three dims, so `[4, 32, 32, 1]` would otherwise arrive as
    // a `[4, 32, 32]` study and `[2, 4, 32, 32]` as a truncated one.
    for dims in [[4, 32, 32, 1], [2, 4, 32, 32]] {
        let rank4 = ServeRequest::routine(Tensor::zeros(dims));
        assert!(matches!(server.client().submit(rank4.clone()), Err(Rejected::Invalid(_))));
        match remote.diagnose(&rank4).expect("transport") {
            Err(Rejected::Invalid(_)) => {}
            other => panic!("{dims:?}: expected Invalid rejection, got {other:?}"),
        }
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.snapshot().completed, 9);
}

/// With a frozen [`ManualClock`] injected into the metrics registry —
/// the clock every serving timestamp reads — latency accounting stops
/// being "roughly" testable and becomes *exact*: queue wait equals
/// precisely what the test advanced the clock by, the compute stages
/// measure exactly zero, and the deadline-miss decision flips at the
/// exact nanosecond the budget expires.
#[test]
fn frozen_clock_makes_serving_latencies_exactly_assertable() {
    let clock = Arc::new(ManualClock::new()); // frozen at t=0
    let reg = Arc::new(Registry::with_clock(clock.clone() as Arc<dyn Clock>));
    let metrics = ServeMetrics::with_registry(Arc::clone(&reg));
    // The pause gate holds both studies in the queue while the test
    // advances the clock; nothing in the serving path waits on real time.
    let cfg = ServerCfg { start_paused: true, threshold: THRESHOLD, ..ServerCfg::default() };
    let server = Server::start_with_metrics(cfg, factory, metrics).expect("server starts");
    let client = server.client();

    // Submitted at t=0: one stat read with a 2 ms budget, one routine
    // study without a deadline.
    let p_stat = client
        .submit(ServeRequest {
            volume: volume(7),
            priority: Priority::Stat,
            deadline: Some(Duration::from_millis(2)),
        })
        .unwrap();
    let p_routine = client.submit(ServeRequest::routine(volume(8))).unwrap();

    // Exactly 5 ms pass while the server is paused, then it drains.
    clock.advance(5_000_000);
    server.resume();
    let d_stat = p_stat.wait().unwrap().result.unwrap();
    let d_routine = p_routine.wait().unwrap().result.unwrap();

    // Queue wait is exactly the advance; nothing else moved the clock.
    assert_eq!(d_stat.t_queue, Duration::from_millis(5));
    assert_eq!(d_routine.t_queue, Duration::from_millis(5));

    let metrics = server.shutdown();
    let snap = metrics.snapshot();
    assert_eq!(snap.completed, 2);
    // The 2 ms budget expired 3 ms before dispatch; the no-deadline
    // study cannot miss. Exactly one miss, deterministically.
    assert_eq!(snap.deadline_missed, 1);
    // The registry histograms recorded the exact queue waits (in ms),
    // and on a frozen clock the compute stages measure exactly zero.
    let histograms = reg.snapshot().histograms;
    let samples = |stage: &str| {
        let key = format!("serve_stage_ms{{stage=\"{stage}\"}}");
        let h = histograms.iter().find(|h| h.key == key).expect("stage histogram registered");
        h.value.samples().to_vec()
    };
    assert_eq!(samples("queue"), [5.0, 5.0]);
    for stage in ["enhance", "segment", "classify", "total"] {
        assert_eq!(samples(stage), [0.0, 0.0], "{stage} must measure zero on a frozen clock");
    }
    // The wait from pop to each job's start takes no time on the frozen
    // clock.
    let spans = reg.trace_records();
    assert!(spans.iter().filter(|s| s.path == "serve.batch").all(|s| s.end_ns == s.start_ns));
}
