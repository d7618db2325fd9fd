//! Serving quickstart: stand up the diagnosis service, drive it with a
//! burst of mixed-priority studies from concurrent in-process clients
//! plus one TCP client, and print the serve-side metrics.
//!
//! ```text
//! cargo run --release -p cc19-serve --example serve_demo
//! ```

use std::net::TcpListener;
use std::time::Duration;

use cc19_serve::{
    serve_on, BatchPolicy, Priority, ServeRequest, Server, ServerCfg, TcpServeClient,
};
use cc19_tensor::rng::Xorshift;
use computecovid19::framework::Framework;

fn main() {
    // 1. Start the service: two workers, each one thread with one warm
    //    replica running enhance → segment → classify, batches of up to
    //    4 queued studies, a 32-deep admission queue.
    let cfg = ServerCfg {
        queue_bound: 32,
        batch: BatchPolicy { max_batch: 4 },
        pipelines: 2,
        ..ServerCfg::default()
    };
    let server = Server::start(cfg, || Framework::untrained_reduced(7)).expect("server starts");
    println!("server up: 2 workers × 1 thread (enhance → segment → classify), queue bound 32");

    // 2. Expose it over TCP (the same CRC framing the distributed
    //    trainer uses on its wire).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let tcp_client = server.client();
    std::thread::spawn(move || serve_on(listener, tcp_client));

    // 3. A burst of studies from four concurrent in-process clients.
    let priorities = [Priority::Stat, Priority::Urgent, Priority::Routine];
    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            let client = server.client();
            std::thread::spawn(move || {
                let mut rng = Xorshift::new(0xC0FFEE ^ c);
                let mut served = 0usize;
                for i in 0..6u64 {
                    let req = ServeRequest {
                        volume: rng.uniform_tensor([4, 32, 32], -1000.0, 400.0),
                        priority: priorities[((c + i) % 3) as usize],
                        deadline: None,
                    };
                    match client.submit(req) {
                        Ok(pending) => {
                            let resp = pending.wait().expect("server dropped a reply");
                            resp.result.expect("stage failure");
                            served += 1;
                        }
                        Err(why) => println!("client {c}: rejected ({why})"),
                    }
                }
                served
            })
        })
        .collect();

    // 4. One more study over the TCP front end.
    let mut remote = TcpServeClient::connect(addr).expect("connect");
    let mut rng = Xorshift::new(0xBEEF);
    let req = ServeRequest {
        volume: rng.uniform_tensor([4, 32, 32], -1000.0, 400.0),
        priority: Priority::Stat,
        deadline: Some(Duration::from_secs(30)),
    };
    let clock = cc19_obs::global_clock();
    let t0 = clock.now_ns();
    let (id, d) = remote.diagnose(&req).expect("transport").expect("admission");
    let round_trip = Duration::from_nanos(clock.now_ns().saturating_sub(t0));
    println!(
        "tcp study id={id}: p={:.3} positive={} (queue {:?}, round trip {:?})",
        d.probability,
        d.positive,
        d.t_queue,
        round_trip
    );

    let served: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    println!("in-process clients served: {served}/24");

    // 5. Tear down and inspect metrics.
    let metrics = server.shutdown();
    let snap = metrics.snapshot();
    let (p50, p95, p99) = metrics.total_latency_quantiles_ms();
    println!(
        "\nmetrics: accepted={} completed={} rejected={} batches={} max_batch={}",
        snap.accepted, snap.completed, snap.rejected, snap.batches, snap.max_batch
    );
    println!("total latency ms: p50={p50:.2} p95={p95:.2} p99={p99:.2}");
    print!("{}", metrics.to_csv());
}
