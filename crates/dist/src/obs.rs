//! Cached `cc19-obs` counters for the reliable links.
//!
//! Every link holds a [`LinkStats`]: one set of pre-resolved counter
//! handles (atomics shared through the registry, so cloning is cheap) plus
//! the registry clock. The counters make the reliability layer's internal
//! traffic observable — and exactly testable: with a seeded
//! [`crate::fault::FaultPlan`], the injected-fault counters are a pure
//! function of the plan (see `tests/obs_counters.rs`).

use std::sync::Arc;

use cc19_obs::{Clock, Counter, HistogramHandle, Registry};

/// Pre-resolved per-link observability handles.
#[derive(Clone)]
pub(crate) struct LinkStats {
    /// `dist_faults_injected_total{kind=...}` by fault class.
    pub drop: Counter,
    pub delay: Counter,
    pub duplicate: Counter,
    pub corrupt: Counter,
    /// `dist_recv_timeouts_total`: receive attempts that hit the backoff
    /// timeout.
    pub recv_timeouts: Counter,
    /// `dist_retransmit_pulls_total`: payloads recovered from the
    /// sender's reliability buffer instead of the wire.
    pub retransmit_pulls: Counter,
    /// `dist_duplicates_discarded_total`: already-consumed frames seen
    /// again and thrown away.
    pub duplicates_discarded: Counter,
    /// `dist_crc_rejects_total`: frames whose payload failed the CRC.
    pub crc_rejects: Counter,
    /// `dist_reorder_stash_total`: frames that arrived ahead of sequence
    /// and were stashed.
    pub reorder_stash: Counter,
    /// `dist_rank_dead_total`: `RankDead` verdicts returned to callers.
    pub rank_dead: Counter,
    /// `dist_heartbeat_miss_total`: stale-heartbeat verdicts from the
    /// liveness oracle.
    pub heartbeat_miss: Counter,
    /// `dist_allreduce_seconds` latency histogram.
    pub allreduce_seconds: HistogramHandle,
    /// The registry clock (times the all-reduce).
    pub clock: Arc<dyn Clock>,
}

impl LinkStats {
    /// Resolve all handles against `reg`.
    pub fn from_registry(reg: &Registry) -> Self {
        LinkStats {
            drop: reg.counter_with("dist_faults_injected_total", &[("kind", "drop")]),
            delay: reg.counter_with("dist_faults_injected_total", &[("kind", "delay")]),
            duplicate: reg.counter_with("dist_faults_injected_total", &[("kind", "duplicate")]),
            corrupt: reg.counter_with("dist_faults_injected_total", &[("kind", "corrupt")]),
            recv_timeouts: reg.counter("dist_recv_timeouts_total"),
            retransmit_pulls: reg.counter("dist_retransmit_pulls_total"),
            duplicates_discarded: reg.counter("dist_duplicates_discarded_total"),
            crc_rejects: reg.counter("dist_crc_rejects_total"),
            reorder_stash: reg.counter("dist_reorder_stash_total"),
            rank_dead: reg.counter("dist_rank_dead_total"),
            heartbeat_miss: reg.counter("dist_heartbeat_miss_total"),
            allreduce_seconds: reg.histogram("dist_allreduce_seconds"),
            clock: reg.clock(),
        }
    }
}

impl std::fmt::Debug for LinkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkStats").finish_non_exhaustive()
    }
}
