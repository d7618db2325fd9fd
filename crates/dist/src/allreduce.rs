//! All-reduce implementations over the fault-tolerant transport.
//!
//! [`ring_allreduce`] is the bandwidth-optimal algorithm gloo/NCCL use:
//! reduce-scatter (N−1 steps, each rank ends owning the full sum of one
//! segment) followed by all-gather (N−1 steps distributing the owned
//! segments). Every rank finishes with the *identical* summed buffer,
//! which is what keeps DDP replicas synchronized bit-for-bit.
//!
//! [`naive_allreduce`] is the parameter-server baseline for the ablation
//! bench: gather everything to rank 0, reduce there, broadcast back.
//!
//! Both run over sequence-numbered, CRC-checked frames with timeout +
//! retransmit recovery (see [`crate::transport`]), and return `Result`
//! instead of panicking: a dead rank surfaces as
//! [`Error::RankDead`](crate::Error::RankDead), which the trainer
//! recovers from by rebuilding the ring and retrying from saved
//! gradients.

use crate::error::Error;
use crate::transport::{RingTransport, StarTransport};

pub use crate::transport::{make_ring, make_ring_in, make_ring_with, make_star, make_star_in, make_star_with};

pub(crate) fn segment_bounds(len: usize, n: usize, seg: usize) -> (usize, usize) {
    let base = len / n;
    let rem = len % n;
    let start = seg * base + seg.min(rem);
    let extra = if seg < rem { 1 } else { 0 };
    (start, start + base + extra)
}

/// Ring all-reduce (sum) of `buf` across the transport's current live
/// ring. Call from every live rank's thread; all ranks return with the
/// identical summed buffer.
///
/// On error the buffer is left partially reduced — callers that want to
/// retry (after [`RingTransport::recover`]) must restart from a saved
/// copy of their local contribution.
pub fn ring_allreduce(buf: &mut [f32], ring: &mut RingTransport) -> Result<(), Error> {
    let n = ring.live();
    let rank = ring.pos();
    if n <= 1 {
        return Ok(());
    }
    let len = buf.len();
    let t0 = ring.stats.clock.now_ns();

    // --- reduce-scatter ---
    // step s: send segment (rank - s), receive and accumulate segment
    // (rank - s - 1).
    for s in 0..n - 1 {
        let send_seg = (rank + n - s) % n;
        let (lo, hi) = segment_bounds(len, n, send_seg);
        ring.send_next(&buf[lo..hi])?;
        let recv_seg = (rank + n - s - 1) % n;
        let (lo, hi) = segment_bounds(len, n, recv_seg);
        let incoming = ring.recv_prev()?;
        debug_assert_eq!(incoming.len(), hi - lo);
        for (b, v) in buf[lo..hi].iter_mut().zip(incoming) {
            *b += v;
        }
    }

    // --- all-gather ---
    // after reduce-scatter, rank owns the fully-reduced segment
    // (rank + 1) % n.
    for s in 0..n - 1 {
        let send_seg = (rank + 1 + n - s) % n;
        let (lo, hi) = segment_bounds(len, n, send_seg);
        ring.send_next(&buf[lo..hi])?;
        let recv_seg = (rank + n - s) % n;
        let (lo, hi) = segment_bounds(len, n, recv_seg);
        let incoming = ring.recv_prev()?;
        debug_assert_eq!(incoming.len(), hi - lo);
        buf[lo..hi].copy_from_slice(&incoming);
    }
    let dt = ring.stats.clock.now_ns().saturating_sub(t0);
    ring.stats.allreduce_seconds.observe(dt as f64 / 1e9);
    Ok(())
}

/// Single-threaded, lockstep ring all-reduce over a whole set of
/// transports: every rank's send for a step is issued before any rank's
/// receive (the channels are unbounded, so sends never block). Produces
/// exactly the same sums as [`ring_allreduce`] run on `n` threads, but
/// with a *causally ordered* sequence of clock reads — which is what lets
/// the deterministic bench (`obs_report`) emit byte-identical timing
/// metrics run over run under the manual clock.
pub fn ring_allreduce_lockstep(
    bufs: &mut [Vec<f32>],
    rings: &mut [RingTransport],
) -> Result<(), Error> {
    let n = rings.len();
    if bufs.len() != n {
        return Err(Error::InvalidConfig(format!(
            "ring_allreduce_lockstep: {} buffers for {n} transports",
            bufs.len()
        )));
    }
    if n <= 1 {
        return Ok(());
    }
    let len = bufs[0].len();
    if bufs.iter().any(|b| b.len() != len) {
        return Err(Error::InvalidConfig("ring_allreduce_lockstep: buffer lengths differ".into()));
    }
    let t0 = rings[0].stats.clock.now_ns();

    // reduce-scatter
    for s in 0..n - 1 {
        for ring in rings.iter_mut() {
            let rank = ring.pos();
            let send_seg = (rank + n - s) % n;
            let (lo, hi) = segment_bounds(len, n, send_seg);
            ring.send_next(&bufs[rank][lo..hi])?;
        }
        for ring in rings.iter_mut() {
            let rank = ring.pos();
            let recv_seg = (rank + n - s - 1) % n;
            let (lo, hi) = segment_bounds(len, n, recv_seg);
            let incoming = ring.recv_prev()?;
            debug_assert_eq!(incoming.len(), hi - lo);
            for (b, v) in bufs[rank][lo..hi].iter_mut().zip(incoming) {
                *b += v;
            }
        }
    }

    // all-gather
    for s in 0..n - 1 {
        for ring in rings.iter_mut() {
            let rank = ring.pos();
            let send_seg = (rank + 1 + n - s) % n;
            let (lo, hi) = segment_bounds(len, n, send_seg);
            ring.send_next(&bufs[rank][lo..hi])?;
        }
        for ring in rings.iter_mut() {
            let rank = ring.pos();
            let recv_seg = (rank + n - s) % n;
            let (lo, hi) = segment_bounds(len, n, recv_seg);
            let incoming = ring.recv_prev()?;
            debug_assert_eq!(incoming.len(), hi - lo);
            bufs[rank][lo..hi].copy_from_slice(&incoming);
        }
    }

    let dt = rings[0].stats.clock.now_ns().saturating_sub(t0);
    rings[0].stats.allreduce_seconds.observe(dt as f64 / 1e9);
    Ok(())
}

/// Ring all-reduce with bounded recovery: on a recoverable fault (a rank
/// died and the ring was rebuilt) the reduce restarts from the caller's
/// original contribution, up to `max_recoveries` times. Returns the
/// number of recoveries performed.
pub fn ring_allreduce_resilient(
    buf: &mut [f32],
    ring: &mut RingTransport,
    max_recoveries: usize,
) -> Result<usize, Error> {
    let original = buf.to_vec();
    let mut recoveries = 0;
    loop {
        match ring_allreduce(buf, ring) {
            Ok(()) => return Ok(recoveries),
            Err(e) => {
                if recoveries >= max_recoveries {
                    return Err(e);
                }
                ring.recover(&e)?;
                recoveries += 1;
                buf.copy_from_slice(&original);
            }
        }
    }
}

/// Naive all-reduce: every rank ships its whole buffer to rank 0, which
/// sums and broadcasts. `2·(n−1)` full-buffer transfers through one link —
/// the bandwidth bottleneck the ring avoids.
pub fn naive_allreduce(buf: &mut [f32], star: &mut StarTransport) -> Result<(), Error> {
    let n = star.n();
    if n <= 1 {
        return Ok(());
    }
    if star.rank() == 0 {
        for (_, incoming) in star.server_gather()? {
            for (b, v) in buf.iter_mut().zip(incoming) {
                *b += v;
            }
        }
        star.server_broadcast(buf)?;
    } else {
        star.send_to_server(buf)?;
        let reduced = star.recv_from_server()?;
        buf.copy_from_slice(&reduced);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::transport::TimeoutCfg;

    pub(crate) fn run_ring_with(n: usize, len: usize, faults: FaultPlan) -> Vec<Vec<f32>> {
        let (_cluster, rings) = make_ring_with(n, faults, TimeoutCfg::fast());
        let handles: Vec<_> = rings
            .into_iter()
            .enumerate()
            .map(|(rank, mut ring)| {
                std::thread::spawn(move || {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| (rank * len + i) as f32 * 0.5).collect();
                    ring_allreduce(&mut buf, &mut ring).unwrap();
                    buf
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn run_ring(n: usize, len: usize) -> Vec<Vec<f32>> {
        run_ring_with(n, len, FaultPlan::none())
    }

    #[test]
    fn ring_computes_global_sum() {
        for n in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let results = run_ring(n, len);
                // expected sum per element i: sum over ranks of (rank*len+i)*0.5
                for i in 0..len {
                    let expect: f32 = (0..n).map(|r| (r * len + i) as f32 * 0.5).sum();
                    for (rank, buf) in results.iter().enumerate() {
                        assert!(
                            (buf[i] - expect).abs() < 1e-4,
                            "n={n} len={len} rank={rank} i={i}: {} vs {expect}",
                            buf[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_results_identical_across_ranks() {
        // bit-identity matters for replica synchronization
        let results = run_ring(5, 101);
        for r in 1..5 {
            assert_eq!(results[0], results[r], "rank {r} differs");
        }
    }

    #[test]
    fn ring_survives_message_faults_bit_identically() {
        // Drops, delays, duplicates, and corruption recover exactly: the
        // faulty run must produce the same bits as the clean run.
        let clean = run_ring(4, 57);
        let cfg = FaultConfig {
            p_drop: 0.15,
            p_delay: 0.1,
            delay_ms_max: 2,
            p_duplicate: 0.15,
            p_corrupt: 0.1,
            kill: None,
        };
        let noisy = run_ring_with(4, 57, FaultPlan::seeded(1234, cfg));
        assert_eq!(clean, noisy);
    }

    #[test]
    fn ring_len_smaller_than_ranks() {
        // len < n leaves some segments empty; zero-length messages must
        // still flow.
        for (n, len) in [(4usize, 2usize), (5, 0), (3, 1)] {
            let results = run_ring(n, len);
            for i in 0..len {
                let expect: f32 = (0..n).map(|r| (r * len + i) as f32 * 0.5).sum();
                for buf in &results {
                    assert!((buf[i] - expect).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn naive_matches_ring() {
        let n = 4;
        let len = 37;
        let stars = make_star(n);
        let handles: Vec<_> = stars
            .into_iter()
            .enumerate()
            .map(|(rank, mut star)| {
                std::thread::spawn(move || {
                    let mut buf: Vec<f32> = (0..len).map(|i| ((rank + 1) * (i + 1)) as f32).collect();
                    naive_allreduce(&mut buf, &mut star).unwrap();
                    buf
                })
            })
            .collect();
        let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for i in 0..len {
            let expect: f32 = (0..n).map(|r| ((r + 1) * (i + 1)) as f32).sum();
            for buf in &results {
                assert_eq!(buf[i], expect);
            }
        }
    }

    /// Values whose f32 sum depends on the order they are added in: the
    /// server must fold the workers in rank order on every run.
    #[test]
    fn naive_sum_is_rank_ordered_bit_for_bit() {
        fn input(rank: usize, i: usize) -> f32 {
            if rank == 0 { 0.5 } else { [1e8, 1.0, -1e8][(rank + i) % 3] }
        }
        let (n, len) = (4, 6);
        let expect: Vec<f32> = (0..len)
            .map(|i| (1..n).fold(input(0, i), |acc, r| acc + input(r, i)))
            .collect();
        for _ in 0..20 {
            let handles: Vec<_> = make_star(n)
                .into_iter()
                .enumerate()
                .map(|(rank, mut star)| {
                    std::thread::spawn(move || {
                        let mut buf: Vec<f32> = (0..len).map(|i| input(rank, i)).collect();
                        naive_allreduce(&mut buf, &mut star).unwrap();
                        buf
                    })
                })
                .collect();
            for h in handles {
                let got: Vec<u32> = h.join().unwrap().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let mut rings = make_ring(1);
        let mut buf = vec![1.0f32, 2.0, 3.0];
        ring_allreduce(&mut buf, &mut rings[0]).unwrap();
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn segment_bounds_partition() {
        for len in [10usize, 16, 17, 3] {
            for n in [2usize, 3, 4] {
                let mut covered = 0;
                for seg in 0..n {
                    let (lo, hi) = segment_bounds(len, n, seg);
                    assert_eq!(lo, covered, "gap at seg {seg}");
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }
}
