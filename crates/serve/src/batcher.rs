//! Batching policy and the worker start gate.
//!
//! A dispatch takes what is queued, up to `max_batch`, the moment a
//! worker is free; nothing is held back to let a batch fill. Batches
//! grow by themselves when arrivals outpace the workers and are batches
//! of one on an idle server. A coalescing window would only pay once a
//! batch runs as one N>1 forward pass; today a worker diagnoses a
//! batch's studies one after another (DESIGN.md §10).

use std::sync::{Condvar, Mutex};

use crate::sync::{lock, wait, RANK_GATE};

/// Batch-forming policy for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch a single dispatch may carry.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 8 }
    }
}

/// A start gate for the workers: a paused server queues admissions
/// but dispatches nothing until resumed. This makes batching
/// deterministic in tests (queue 64 requests, open the gate, observe
/// full batches) and mirrors a warm-standby deployment.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new(open: bool) -> Self {
        Gate { open: Mutex::new(open), cv: Condvar::new() }
    }

    /// Block until the gate is open.
    pub(crate) fn wait_open(&self) {
        let mut open = lock(&self.open, &RANK_GATE);
        while !*open {
            open = wait(&self.cv, open);
        }
    }

    /// Open the gate and wake all waiters.
    pub(crate) fn open(&self) {
        *lock(&self.open, &RANK_GATE) = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::broker::{Broker, BrokerCfg};
    use crate::metrics::ServeMetrics;
    use crate::request::{Priority, ServeRequest};
    use cc19_tensor::Tensor;
    use std::sync::Arc;

    /// Queue N behind a closed gate (nothing dispatches), open it: the
    /// dispatcher forms `ceil(N / max_batch)` batches, full ones first,
    /// and never takes a lower class while a higher one is queued.
    #[test]
    fn gated_backlog_drains_in_full_batches_in_strict_class_order() {
        const N: usize = 19;
        let policy = BatchPolicy::default();
        let cfg = BrokerCfg { queue_bound: N, ..BrokerCfg::default() };
        let broker = Arc::new(Broker::new(cfg, ServeMetrics::new()));
        let gate = Arc::new(Gate::new(false));
        let (b, g) = (Arc::clone(&broker), Arc::clone(&gate));
        let dispatcher = std::thread::spawn(move || {
            g.wait_open();
            std::iter::from_fn(|| b.pop_batch(policy))
                .map(|batch| batch.iter().map(|j| j.priority.class()).collect())
                .collect::<Vec<Vec<usize>>>()
        });
        let (tx, _rx) = crossbeam::channel::unbounded();
        for i in 0..N {
            let priority = Priority::DISPATCH_ORDER[2 - i % 3]; // lowest class first
            let req = ServeRequest { volume: Tensor::zeros([2, 4, 4]), priority, deadline: None };
            broker.submit(req, tx.clone()).unwrap();
        }
        assert_eq!(broker.depth(), N, "the closed gate holds the dispatcher");
        broker.close(); // queued work is still served; then the dispatcher ends
        gate.open();
        let batches = dispatcher.join().unwrap();
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes.len(), N.div_ceil(policy.max_batch), "{sizes:?}");
        assert!(sizes[..sizes.len() - 1].iter().all(|&n| n == policy.max_batch), "{sizes:?}");
        let classes = batches.concat();
        assert!(classes.windows(2).all(|w| w[0] <= w[1]), "class order inverted: {classes:?}");
    }
}
