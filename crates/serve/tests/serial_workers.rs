//! Request workers keep one core each: a serve worker and a cluster node
//! run inside `rayon::serial`, so a served request makes zero forks on
//! the rayon pool, while a direct `diagnose` of the same study — the
//! control — does fork. Parallelism in serving is per request.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use cc19_serve::{ClusterCfg, ServeCluster, ServeRequest, Server, ServerCfg};
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;
use computecovid19::framework::Framework;

/// One test at a time: the fork counter is process-wide.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn factory() -> Framework {
    Framework::untrained_reduced(42)
}

/// A 4×64² study: large enough that a direct `diagnose` forks.
fn study(seed: u64) -> Tensor {
    Xorshift::new(0xF0_4C ^ seed).uniform_tensor([4, 64, 64], -1000.0, 400.0)
}

/// Forks made while `f` runs.
fn forks_during(f: impl FnOnce()) -> u64 {
    let before = rayon::fork_count();
    f();
    rayon::fork_count() - before
}

/// The control: a warm direct `diagnose` of `vol` forks wherever the
/// pool has helpers.
fn direct_diagnose_forks(vol: &Tensor) {
    let fw = factory();
    fw.diagnose(vol, 0.5).unwrap();
    let forks = forks_during(|| {
        fw.diagnose(vol, 0.5).unwrap();
    });
    assert!(forks > 0 || rayon::current_num_threads() == 1, "a direct diagnose of the study must fork");
}

#[test]
fn a_served_request_makes_no_fork() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    direct_diagnose_forks(&study(0));
    let server = Server::start(ServerCfg::default(), factory).expect("server starts");
    let client = server.client();
    let studies: Vec<Tensor> = (1..4).map(study).collect();
    let forks = forks_during(|| {
        for vol in &studies {
            let pending = client.submit(ServeRequest::routine(vol.clone())).expect("admission");
            let resp = pending.wait_timeout(Duration::from_secs(60)).expect("a reply");
            resp.result.expect("a diagnosis");
        }
    });
    server.shutdown();
    assert_eq!(forks, 0, "served requests forked on the pool");
}

#[test]
fn a_clustered_request_makes_no_fork() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    direct_diagnose_forks(&study(0));
    let cluster = ServeCluster::start(ClusterCfg { workers: 2, ..ClusterCfg::default() }, factory).expect("cluster starts");
    let client = cluster.client();
    let studies: Vec<Tensor> = (1..5).map(study).collect();
    let forks = forks_during(|| {
        for (id, vol) in studies.iter().enumerate() {
            let pending = client.submit(id as u64, ServeRequest::routine(vol.clone())).expect("admission");
            let resp = pending.wait_timeout(Duration::from_secs(60)).expect("a reply");
            resp.result.expect("a diagnosis");
        }
    });
    cluster.shutdown();
    assert_eq!(forks, 0, "clustered requests forked on the pool");
}
