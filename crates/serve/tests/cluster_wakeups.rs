//! "Woken, not polled": every hand-off on the cluster's submit → reply
//! chain must ring its receiver's doorbell. With `liveness` = 40 s the
//! only timed wait left in the router and node loops (the heartbeat /
//! staleness tick, `liveness / 4`) is 10 s, so a forgotten ring costs a
//! whole tick and fails the time budget instead of hiding behind a poll.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::{Duration, Instant};

use cc19_dist::{FaultConfig, FaultPlan};
use cc19_serve::{ClusterCfg, ServeCluster, ServeRequest};
use computecovid19::framework::Framework;

/// Half a tick; twenty debug-build studies take about a second.
const BUDGET: Duration = Duration::from_secs(5);

fn start(workers: usize, faults: FaultPlan) -> ServeCluster {
    let liveness = Duration::from_secs(40);
    let cfg = ClusterCfg { workers, liveness, faults, ..ClusterCfg::default() };
    ServeCluster::start(cfg, || Framework::untrained_reduced(42)).expect("cluster starts")
}

/// `n` submit-and-wait round trips, one at a time.
fn round_trips(cluster: &ServeCluster, n: u64) {
    let client = cluster.client();
    for study in 0..n {
        let mut rng = cc19_tensor::rng::Xorshift::new(0xD00_12BE11 ^ study);
        let req = ServeRequest::routine(rng.uniform_tensor([4, 16, 16], -1000.0, 400.0));
        let pending = client.submit(study, req).expect("admission");
        let resp = pending.wait_timeout(Duration::from_secs(60)).expect("a reply");
        resp.result.unwrap_or_else(|e| panic!("study {study} failed: {e}"));
    }
}

#[test]
fn sequential_round_trips_and_shutdown_never_wait_for_the_tick() {
    let cluster = start(2, FaultPlan::none());
    round_trips(&cluster, 2); // both replicas warm
    let t0 = Instant::now();
    round_trips(&cluster, 20);
    // The Close command, shutdown frames and link hang-ups are events too.
    let snap = cluster.shutdown().snapshot();
    assert!(t0.elapsed() < BUDGET, "something slept to its tick: {:?}", t0.elapsed());
    assert_eq!((snap.completed, snap.failed, snap.redispatched), (22, 0, 0));
}

/// With every frame dropped (then corrupted) on the wire, each dispatch
/// and reply exists only in its sender's retransmit buffer. The sender
/// rings after the buffer insert, wire-dropped sends included, so the
/// receiver's next poll pulls the frame: recovery costs no tick, and each
/// frame is pulled exactly once. (The other test in this process injects
/// no faults and pulls nothing, so the global counter is this test's.)
#[test]
fn dropped_and_corrupt_frames_are_recovered_on_the_wake_up_of_their_own_send() {
    const N: u64 = 6;
    let pulls = || cc19_obs::global().counter("dist_retransmit_pulls_total").get();
    for faulty in [
        FaultConfig { p_drop: 1.0, ..FaultConfig::clean() },
        FaultConfig { p_corrupt: 1.0, ..FaultConfig::clean() },
    ] {
        let cluster = start(1, FaultPlan::seeded(7, faulty));
        let (t0, pulls0) = (Instant::now(), pulls());
        round_trips(&cluster, N);
        assert_eq!(pulls() - pulls0, 2 * N, "one pull per dispatch and per reply");
        assert!(t0.elapsed() < BUDGET, "{faulty:?}: recovery waited for a tick");
        let snap = cluster.shutdown().snapshot();
        assert_eq!((snap.completed, snap.failed, snap.redispatched), (N, 0, 0));
    }
}
