//! The reliable link — cc19-dist's one reliability layer.
//!
//! A link is one directed in-process channel between two ranks that
//! behaves like TCP over a lossy wire. The ring and star all-reduce
//! topologies ([`crate::transport`]) carry `Vec<f32>` gradient segments
//! over links; the serve cluster (`cc19_serve::cluster`) carries encoded
//! dispatch/reply bytes (`Vec<u8>`). Both run exactly this code:
//!
//! - every `Frame` carries a per-link **sequence number** and the
//!   **CRC-32** of its [`Payload`], so duplicates and reorders are
//!   detected and a corrupted payload is rejected instead of consumed;
//! - [`LinkTx::send`] decides the frame's faults from the seeded
//!   [`FaultPlan`], takes the CRC, pushes the wire copy (possibly
//!   dropped, delayed, duplicated or corrupted) to the channel, *then*
//!   inserts the authoritative copy into a **retransmit buffer** shared
//!   with the receiver, and finally rings the optional wake-up
//!   ([`LinkTx::on_send`]);
//! - the receiver has one classify step: stale frames are discarded,
//!   bad CRCs rejected, frames that arrive ahead stashed, and when the
//!   wire has nothing the authoritative copy of `want` is pulled from
//!   the buffer — the in-process analogue of a NACK/retransmit round
//!   trip. Delivery prunes the buffer up to what was consumed.
//!
//! Two receives share that step. [`LinkRx::try_recv`] never blocks: it
//! serves event loops that own several links (the serve router and
//! worker nodes), which sleep until a send's wake-up rings and then poll
//! once. [`LinkRx::recv`] blocks (ring and star): it waits on the wire
//! along the jittered [`backoff_delay`] schedule, counts every empty wait
//! as a receive timeout, gives up after [`TimeoutCfg::hard_cap`], and,
//! given a [`Cluster`], asks it for a stale-heartbeat death verdict once
//! the retries are spent. A peer that dropped its sender surfaces as
//! [`Error::RankDead`] only after every frame it sent, wire or buffer,
//! has been delivered — no acknowledged work is lost.
//!
//! Wire before buffer is determinism-critical: an empty wire plus a
//! buffered `want` then means the wire genuinely dropped (or corrupted)
//! that frame, so the retransmit-pull counters are a pure function of
//! the fault plan — which is what lets `obs_report` demand
//! byte-identical metrics across runs.
//!
//! This file is on the cc19-lint panic-surface path: every recoverable
//! failure must surface as a typed [`Error`], never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cc19_obs::lock;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::Error;
use crate::fault::{FaultKind, FaultPlan};
use crate::framing::crc32_f32s;
use crate::obs::LinkStats;
use crate::transport::{backoff_delay, link_stream, Cluster, TimeoutCfg};

/// What a link can carry: a payload with a CRC-32 and a one-bit
/// corruption for the fault injector.
pub trait Payload: Clone + Send + 'static {
    /// CRC-32 of the payload's little-endian bytes.
    fn crc(&self) -> u32;
    /// Flip one bit of the first element (no-op when empty).
    fn corrupt(&mut self);
}

impl Payload for Vec<f32> {
    fn crc(&self) -> u32 {
        crc32_f32s(self)
    }

    fn corrupt(&mut self) {
        if let Some(v) = self.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 0x0040_0000);
        }
    }
}

impl Payload for Vec<u8> {
    fn crc(&self) -> u32 {
        cc19_nn::checkpoint::crc32(self)
    }

    fn corrupt(&mut self) {
        if let Some(b) = self.first_mut() {
            *b ^= 0x40;
        }
    }
}

/// One message on a link: sequence-numbered, checksummed payload.
#[derive(Clone)]
struct Frame<P> {
    /// Per-link sequence number.
    seq: u64,
    /// CRC-32 of the *original* payload (a corrupt fault flips bits in
    /// the wire copy only, so the mismatch is detectable).
    crc: u32,
    /// The payload as sent (possibly corrupted in flight).
    payload: P,
}

/// Sender-side retransmit buffer, shared with the link's receiver.
type Slot<P> = Arc<Mutex<HashMap<u64, P>>>;

/// The receiver's wake-up ([`LinkTx::on_send`]). Ringing on drop is what
/// turns a hang-up into an event: `LinkTx` declares this field after its
/// channel sender, so the disconnect is visible before the receiver wakes.
struct Wake(Option<Box<dyn Fn() + Send + Sync>>);

impl Wake {
    fn ring(&self) {
        if let Some(f) = &self.0 {
            f();
        }
    }
}

impl Drop for Wake {
    fn drop(&mut self) {
        self.ring();
    }
}

/// Sending half of a reliable link.
pub struct LinkTx<P> {
    src: usize,
    dst: usize,
    /// Ring generation the link was built in (keys the fault plan).
    generation: u64,
    seq: u64,
    tx: Sender<Frame<P>>,
    slot: Slot<P>,
    faults: FaultPlan,
    stats: LinkStats,
    /// Must stay below `tx` (fields drop in declaration order).
    wake: Wake,
}

/// Receiving half of a reliable link.
pub struct LinkRx<P> {
    src: usize,
    dst: usize,
    /// Fault-plan seed (keys the backoff jitter).
    seed: u64,
    want: u64,
    rx: Receiver<Frame<P>>,
    slot: Slot<P>,
    stash: HashMap<u64, P>,
    stats: LinkStats,
}

/// Build a reliable link carrying traffic from rank `src` to rank
/// `dst`, with metrics on `reg`.
pub fn link<P: Payload>(
    src: usize,
    dst: usize,
    faults: FaultPlan,
    reg: &cc19_obs::Registry,
) -> (LinkTx<P>, LinkRx<P>) {
    link_in(src, dst, 0, faults, LinkStats::from_registry(reg))
}

/// [`link`] in ring `generation`, with pre-resolved metric handles.
pub(crate) fn link_in<P: Payload>(
    src: usize,
    dst: usize,
    generation: u64,
    faults: FaultPlan,
    stats: LinkStats,
) -> (LinkTx<P>, LinkRx<P>) {
    let (tx, rx) = unbounded();
    let slot: Slot<P> = Arc::new(Mutex::new(HashMap::new()));
    (
        LinkTx {
            src,
            dst,
            generation,
            seq: 0,
            tx,
            slot: slot.clone(),
            faults,
            stats: stats.clone(),
            wake: Wake(None),
        },
        LinkRx { src, dst, seed: faults.seed(), want: 0, rx, slot, stash: HashMap::new(), stats },
    )
}

impl<P: Payload> LinkTx<P> {
    /// Call `wake` after every [`LinkTx::send`] (wire-dropped frames
    /// included: the retransmit buffer has them by then) and when this
    /// half is dropped; the receiver follows up with [`LinkRx::try_recv`].
    pub fn on_send(&mut self, wake: impl Fn() + Send + Sync + 'static) {
        self.wake = Wake(Some(Box::new(wake)));
    }

    /// Ship `payload` down the link. Never blocks and never fails: the
    /// authoritative copy is retained in the retransmit buffer until the
    /// receiver consumes past its sequence number, so even a frame the
    /// fault plan drops or corrupts on the wire is recoverable.
    pub fn send(&mut self, payload: P) {
        let seq = self.seq;
        self.seq += 1;
        let mut wire = Frame { seq, crc: payload.crc(), payload: payload.clone() };
        let mut copies = 1;
        for a in self.faults.decide(self.src, self.dst, seq, self.generation) {
            match a {
                FaultKind::Drop => {
                    self.stats.drop.inc();
                    copies = 0;
                }
                FaultKind::Delay(ms) => {
                    self.stats.delay.inc();
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultKind::Duplicate => {
                    self.stats.duplicate.inc();
                    copies = 2;
                }
                FaultKind::Corrupt => {
                    self.stats.corrupt.inc();
                    wire.payload.corrupt();
                }
            }
        }
        if copies == 2 {
            let _ = self.tx.send(wire.clone());
        }
        if copies > 0 {
            let _ = self.tx.send(wire);
        }
        lock(&self.slot).insert(seq, payload);
        self.wake.ring();
    }
}

/// What one classify step found.
enum Step<P> {
    /// The next in-sequence payload, delivered.
    Ready(P),
    /// A frame was discarded as stale or stashed; look again.
    Absorbed,
    /// A frame failed its CRC; the buffer holds the good copy.
    Rejected,
    /// The wire stayed empty and `want` is not buffered yet.
    Empty,
}

impl<P: Payload> LinkRx<P> {
    /// Non-blocking poll for the next in-sequence payload.
    ///
    /// - `Ok(Some(p))` — the next payload, exactly once, in order;
    /// - `Ok(None)` — nothing deliverable right now;
    /// - `Err(RankDead)` — the peer dropped its sender *and* everything it
    ///   ever sent (wire or retransmit buffer) has been delivered.
    pub fn try_recv(&mut self) -> Result<Option<P>, Error> {
        loop {
            match self.step(None)? {
                Step::Ready(p) => return Ok(Some(p)),
                Step::Empty => return Ok(None),
                Step::Absorbed | Step::Rejected => {}
            }
        }
    }

    /// Blocking receive of the next in-sequence payload, retrying through
    /// injected faults. With `hb`, this rank heartbeats on every attempt
    /// and a peer silent past `t.liveness` is named dead once the retries
    /// are spent; `op` labels the [`Error::Timeout`] after `t.hard_cap`.
    pub fn recv(
        &mut self,
        t: &TimeoutCfg,
        hb: Option<&Cluster>,
        op: &'static str,
    ) -> Result<P, Error> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            if let Some(c) = hb {
                c.beat(self.dst);
            }
            if start.elapsed() > t.hard_cap {
                return Err(Error::Timeout { rank: self.dst, peer: self.src, op });
            }
            let backoff = backoff_delay(t, self.seed, link_stream(self.src, self.dst), attempt);
            match self.step(Some(backoff))? {
                Step::Ready(p) => return Ok(p),
                Step::Absorbed => {}
                Step::Rejected => attempt += 1,
                Step::Empty => {
                    attempt += 1;
                    if attempt >= t.retries {
                        if let Some(dead) = hb.and_then(|c| c.stale_rank(self.dst, t.liveness)) {
                            self.stats.heartbeat_miss.inc();
                            self.stats.rank_dead.inc();
                            return Err(Error::RankDead { rank: dead });
                        }
                        // Everyone still alive: keep waiting (bounded by
                        // the hard cap) without growing the backoff.
                        attempt = t.retries;
                    }
                }
            }
        }
    }

    /// The classify step. `wait: None` polls the wire; `Some(d)` waits up
    /// to `d` for a frame and counts a receive timeout if none came.
    fn step(&mut self, wait: Option<Duration>) -> Result<Step<P>, Error> {
        if let Some(p) = self.stash.remove(&self.want) {
            return Ok(Step::Ready(self.deliver(p)));
        }
        let frame = match self.rx.recv_timeout(wait.unwrap_or(Duration::ZERO)) {
            Ok(frame) => frame,
            Err(end) => {
                let hung_up = end == RecvTimeoutError::Disconnected;
                if wait.is_some() && !hung_up {
                    self.stats.recv_timeouts.inc();
                }
                // Wire empty: what is still owed sits in the buffer.
                let buffered = lock(&self.slot).get(&self.want).cloned();
                if let Some(p) = buffered {
                    self.stats.retransmit_pulls.inc();
                    return Ok(Step::Ready(self.deliver(p)));
                }
                if !hung_up {
                    return Ok(Step::Empty);
                }
                self.stats.rank_dead.inc();
                return Err(Error::RankDead { rank: self.src });
            }
        };
        if frame.seq < self.want {
            // A duplicate, or the late original of a pulled frame.
            self.stats.duplicates_discarded.inc();
            return Ok(Step::Absorbed);
        }
        if frame.payload.crc() != frame.crc {
            self.stats.crc_rejects.inc();
            return Ok(Step::Rejected);
        }
        if frame.seq > self.want {
            self.stats.reorder_stash.inc();
        }
        self.stash.insert(frame.seq, frame.payload);
        Ok(Step::Absorbed)
    }

    fn deliver(&mut self, payload: P) -> P {
        let consumed = self.want;
        self.want += 1;
        lock(&self.slot).retain(|&s, _| s > consumed);
        payload
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::fault::FaultConfig;

    fn fresh_reg() -> cc19_obs::Registry {
        cc19_obs::Registry::new()
    }

    #[test]
    fn bytes_roundtrip_in_order() {
        let reg = fresh_reg();
        let (mut tx, mut rx) = link(0, 1, FaultPlan::none(), &reg);
        tx.send(b"alpha".to_vec());
        tx.send(b"beta".to_vec());
        assert_eq!(rx.try_recv().unwrap(), Some(b"alpha".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), Some(b"beta".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_and_corrupt_frames_recover_from_the_buffer() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_drop: 0.5, p_corrupt: 0.5, ..FaultConfig::clean() };
        let (mut tx, mut rx) = link(0, 1, FaultPlan::seeded(5, cfg), &reg);
        for i in 0..64u8 {
            tx.send(vec![i, i.wrapping_mul(3)]);
        }
        for i in 0..64u8 {
            assert_eq!(rx.try_recv().unwrap(), Some(vec![i, i.wrapping_mul(3)]));
        }
    }

    #[test]
    fn duplicates_are_discarded_exactly_once_delivery() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_duplicate: 1.0, ..FaultConfig::clean() };
        let (mut tx, mut rx) = link(0, 1, FaultPlan::seeded(5, cfg), &reg);
        tx.send(b"x".to_vec());
        tx.send(b"y".to_vec());
        assert_eq!(rx.try_recv().unwrap(), Some(b"x".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), Some(b"y".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn death_is_reported_only_after_all_sent_frames_drain() {
        let reg = fresh_reg();
        // Drop every frame on the wire: the payloads survive only in the
        // retransmit buffer, and must still all be delivered before the
        // dropped sender turns into a death verdict.
        let cfg = FaultConfig { p_drop: 1.0, ..FaultConfig::clean() };
        let (mut tx, mut rx) = link(2, 0, FaultPlan::seeded(9, cfg), &reg);
        tx.send(b"last words".to_vec());
        drop(tx);
        assert_eq!(rx.try_recv().unwrap(), Some(b"last words".to_vec()));
        assert_eq!(rx.try_recv().unwrap_err(), Error::RankDead { rank: 2 });
    }

    /// The receiver sleeps on the wake-up alone (no timeout: a send path
    /// that forgets to ring hangs the test) and polls once per wake-up.
    #[test]
    fn on_send_wakes_the_receiver_for_faulted_frames_and_for_the_hang_up() {
        for cfg in [
            FaultConfig { p_drop: 1.0, ..FaultConfig::clean() },
            FaultConfig { p_corrupt: 1.0, ..FaultConfig::clean() },
        ] {
            let reg = fresh_reg();
            let (mut tx, mut rx) = link(1, 0, FaultPlan::seeded(3, cfg), &reg);
            let (bell, woken) = unbounded::<()>();
            tx.on_send(move || drop(bell.send(())));
            let receiver = std::thread::spawn(move || {
                woken.recv().unwrap();
                let frame = rx.try_recv();
                woken.recv().unwrap();
                (frame, rx.try_recv())
            });
            tx.send(b"reply".to_vec());
            drop(tx);
            let (frame, hang_up) = receiver.join().unwrap();
            assert_eq!(frame.unwrap(), Some(b"reply".to_vec()));
            assert_eq!(hang_up.unwrap_err(), Error::RankDead { rank: 1 });
            assert_eq!(reg.counter("dist_retransmit_pulls_total").get(), 1, "{cfg:?}");
        }
    }

    #[test]
    fn try_recv_is_nonblocking_on_an_idle_link() {
        let reg = fresh_reg();
        let (_tx, mut rx) = link::<Vec<u8>>(0, 1, FaultPlan::none(), &reg);
        let t0 = std::time::Instant::now();
        assert_eq!(rx.try_recv().unwrap(), None);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
