//! Reliable point-to-point **byte** links — the serve cluster's wire.
//!
//! [`crate::transport`] moves `Vec<f32>` gradient payloads around rings
//! and stars; the serve cluster needs the same reliability guarantees
//! (sequence numbers, CRC, retransmit buffer, deterministic fault
//! injection) for its RPC-style dispatch/reply traffic, whose payloads
//! are encoded request/response bytes, not gradients. This module is that
//! transport gap filled: a single directed link carrying `Vec<u8>` frames
//! with exactly the reliability layer of the f32 transport.
//!
//! Receiving never blocks: [`ByteRx::try_recv`] serves an event loop that
//! owns several links (the serve router and worker nodes). A `None` means
//! "nothing ready"; an `Err(RankDead)` means the peer dropped its sender
//! (died) *and* every frame it ever sent has been drained — so by the
//! time a death verdict surfaces, no acknowledged work can be lost. Such
//! a loop does not poll either: [`ByteTx::on_send`] installs a wake-up
//! the sender calls once a frame is recoverable (on the wire or, for a
//! frame the fault plan dropped, in the retransmit buffer) and again when
//! the sending half is dropped, so the receiver sleeps until the event
//! itself wakes it and one `try_recv` then finds the frame or the hang-up.
//!
//! Send-side ordering is determinism-critical: a frame is pushed to the
//! channel *before* its authoritative copy lands in the retransmit slot,
//! so an empty channel plus a buffered `want` can only mean the wire
//! genuinely dropped (or corrupted) that frame — the retransmit-pull
//! counters are then a pure function of the fault plan, which is what
//! lets `obs_report` demand byte-identical metrics across runs.
//!
//! This file is on the cc19-lint panic-surface path: every recoverable
//! failure must surface as a typed [`Error`], never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::Error;
use crate::fault::{FaultKind, FaultPlan};
use crate::obs::LinkStats;
use crate::transport::lock;

/// One message on a byte link: sequence-numbered, checksummed payload.
#[derive(Debug, Clone)]
pub struct ByteFrame {
    /// Per-link sequence number.
    pub seq: u64,
    /// CRC-32 of the *original* payload (corrupt faults flip bits in the
    /// wire copy only, so the mismatch is detectable).
    pub crc: u32,
    /// The payload as sent (possibly corrupted in flight).
    pub payload: Vec<u8>,
}

/// Sender-side reliability buffer, shared with the link's receiver.
type ByteSlot = Arc<Mutex<HashMap<u64, Vec<u8>>>>;

/// The receiver's wake-up ([`ByteTx::on_send`]). Ringing on drop is what
/// turns a hang-up into an event: `ByteTx` declares this field after its
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

fn crc32_bytes(bytes: &[u8]) -> u32 {
    cc19_nn::checkpoint::crc32(bytes)
}

/// Sending half of a reliable byte link.
pub struct ByteTx {
    src: usize,
    dst: usize,
    seq: u64,
    generation: u64,
    tx: Sender<ByteFrame>,
    slot: ByteSlot,
    faults: FaultPlan,
    stats: LinkStats,
    /// Must stay below `tx` (fields drop in declaration order).
    wake: Wake,
}

/// Receiving half of a reliable byte link.
pub struct ByteRx {
    peer: usize,
    want: u64,
    rx: Receiver<ByteFrame>,
    slot: ByteSlot,
    stash: HashMap<u64, Vec<u8>>,
    stats: LinkStats,
}

/// Build a reliable byte link carrying traffic from node `src` to node
/// `dst`, with metrics on `reg`.
pub fn byte_link(
    src: usize,
    dst: usize,
    faults: FaultPlan,
    reg: &cc19_obs::Registry,
) -> (ByteTx, ByteRx) {
    let stats = LinkStats::from_registry(reg);
    let (tx, rx) = unbounded();
    let slot: ByteSlot = Arc::new(Mutex::new(HashMap::new()));
    (
        ByteTx {
            src,
            dst,
            seq: 0,
            generation: 0,
            tx,
            slot: slot.clone(),
            faults,
            stats: stats.clone(),
            wake: Wake(None),
        },
        ByteRx { peer: src, want: 0, rx, slot, stash: HashMap::new(), stats },
    )
}

impl ByteTx {
    /// Call `wake` after every [`ByteTx::send`] (wire-dropped frames
    /// included: the retransmit buffer has them by then) and when this
    /// half is dropped; the receiver follows up with [`ByteRx::try_recv`].
    pub fn on_send(&mut self, wake: impl Fn() + Send + Sync + 'static) {
        self.wake = Wake(Some(Box::new(wake)));
    }

    /// Ship `payload` down the link. Never blocks and never fails: the
    /// authoritative copy is retained in the retransmit buffer until the
    /// receiver consumes past its sequence number, so even a frame the
    /// fault plan drops or corrupts on the wire is recoverable.
    pub fn send(&mut self, payload: &[u8]) {
        let seq = self.seq;
        self.seq += 1;
        let actions = self.faults.decide(self.src, self.dst, seq, self.generation);
        self.stats.record_faults(&actions);
        if actions.contains(&FaultKind::Drop) {
            // Dropped on the wire: only the reliability buffer gets it.
            lock(&self.slot).insert(seq, payload.to_vec());
            self.wake.ring();
            return;
        }
        let crc = crc32_bytes(payload);
        let mut wire = payload.to_vec();
        let mut duplicate = false;
        for a in &actions {
            match a {
                FaultKind::Delay(ms) => std::thread::sleep(Duration::from_millis(*ms)),
                FaultKind::Corrupt => {
                    if let Some(b) = wire.first_mut() {
                        *b ^= 0x40;
                    }
                }
                FaultKind::Duplicate => duplicate = true,
                FaultKind::Drop => {} // handled by the early return above
            }
        }
        let frame = ByteFrame { seq, crc, payload: wire };
        if duplicate {
            let _ = self.tx.send(frame.clone());
        }
        let _ = self.tx.send(frame);
        // Channel push *before* slot insert: an empty channel with a
        // buffered `want` then unambiguously means a wire fault, keeping
        // the receiver's retransmit-pull count deterministic.
        lock(&self.slot).insert(seq, payload.to_vec());
        self.wake.ring();
    }
}

impl ByteRx {
    /// Non-blocking poll for the next in-sequence payload.
    ///
    /// - `Ok(Some(p))` — the next payload, exactly once, in order;
    /// - `Ok(None)` — nothing deliverable right now;
    /// - `Err(RankDead)` — the peer dropped its sender *and* everything it
    ///   ever sent (wire or retransmit buffer) has been delivered.
    pub fn try_recv(&mut self) -> Result<Option<Vec<u8>>, Error> {
        loop {
            if let Some(p) = self.stash.remove(&self.want) {
                return Ok(Some(self.deliver(p)));
            }
            match self.rx.recv_timeout(Duration::ZERO) {
                Ok(frame) => self.absorb(frame),
                // Wire empty: what is still owed sits in the buffer.
                Err(end) => {
                    if let Some(p) = self.pull_buffered() {
                        return Ok(Some(self.deliver(p)));
                    }
                    if end == RecvTimeoutError::Timeout {
                        return Ok(None);
                    }
                    self.stats.rank_dead.inc();
                    return Err(Error::RankDead { rank: self.peer });
                }
            }
        }
    }

    /// Classify one wire frame: discard stale duplicates, reject CRC
    /// failures (the retransmit buffer holds the good copy), stash
    /// in-order and reordered-ahead payloads.
    fn absorb(&mut self, frame: ByteFrame) {
        if frame.seq < self.want {
            self.stats.duplicates_discarded.inc();
            return;
        }
        if crc32_bytes(&frame.payload) != frame.crc {
            self.stats.crc_rejects.inc();
            return;
        }
        if frame.seq > self.want {
            self.stats.reorder_stash.inc();
        }
        self.stash.insert(frame.seq, frame.payload);
    }

    /// NACK/retransmit round trip: the authoritative copy of `want` from
    /// the sender's reliability buffer, if it was ever sent.
    fn pull_buffered(&mut self) -> Option<Vec<u8>> {
        let buffered = lock(&self.slot).get(&self.want).cloned();
        if buffered.is_some() {
            self.stats.retransmit_pulls.inc();
        }
        buffered
    }

    fn deliver(&mut self, payload: Vec<u8>) -> Vec<u8> {
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
        let (mut tx, mut rx) =
            byte_link(0, 1, FaultPlan::none(), &reg);
        tx.send(b"alpha");
        tx.send(b"beta");
        assert_eq!(rx.try_recv().unwrap(), Some(b"alpha".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), Some(b"beta".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_and_corrupt_frames_recover_from_the_buffer() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_drop: 0.5, p_corrupt: 0.5, ..FaultConfig::clean() };
        let (mut tx, mut rx) =
            byte_link(0, 1, FaultPlan::seeded(5, cfg), &reg);
        for i in 0..64u8 {
            tx.send(&[i, i.wrapping_mul(3)]);
        }
        for i in 0..64u8 {
            assert_eq!(rx.try_recv().unwrap(), Some(vec![i, i.wrapping_mul(3)]));
        }
    }

    #[test]
    fn duplicates_are_discarded_exactly_once_delivery() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_duplicate: 1.0, ..FaultConfig::clean() };
        let (mut tx, mut rx) =
            byte_link(0, 1, FaultPlan::seeded(5, cfg), &reg);
        tx.send(b"x");
        tx.send(b"y");
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
        let (mut tx, mut rx) =
            byte_link(2, 0, FaultPlan::seeded(9, cfg), &reg);
        tx.send(b"last words");
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
            let (mut tx, mut rx) = byte_link(1, 0, FaultPlan::seeded(3, cfg), &reg);
            let (bell, woken) = unbounded::<()>();
            tx.on_send(move || drop(bell.send(())));
            let receiver = std::thread::spawn(move || {
                woken.recv().unwrap();
                let frame = rx.try_recv();
                woken.recv().unwrap();
                (frame, rx.try_recv())
            });
            tx.send(b"reply");
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
        let (_tx, mut rx) = byte_link(0, 1, FaultPlan::none(), &reg);
        let t0 = std::time::Instant::now();
        assert_eq!(rx.try_recv().unwrap(), None);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
