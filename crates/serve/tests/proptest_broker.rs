//! Property tests for the request broker: random interleavings of
//! submissions and dispatches must never lose or double-serve an
//! accepted request, never invert priorities at dispatch, and never let
//! the queue depth exceed its bound.

use std::time::Duration;

use cc19_serve::{BatchPolicy, Broker, BrokerCfg, Priority, Rejected, ServeMetrics, ServeRequest};
use cc19_tensor::Tensor;
use crossbeam::channel::unbounded;
use proptest::prelude::*;

const QUEUE_BOUND: usize = 8;

/// One scripted step against the broker.
#[derive(Debug, Clone)]
enum Op {
    Submit { priority: Priority, deadline_ms: Option<u64> },
    Dispatch { max_batch: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ((0u8..4, 0u8..3), (proptest::bool::ANY, 1u64..50, 1usize..5)).prop_map(
        |((kind, prio), (has_deadline, ms, max_batch))| {
            if kind < 3 {
                Op::Submit {
                    priority: Priority::from_code(prio).unwrap(),
                    deadline_ms: has_deadline.then_some(ms),
                }
            } else {
                Op::Dispatch { max_batch }
            }
        },
    )
}

fn tiny_request(priority: Priority, deadline_ms: Option<u64>) -> ServeRequest {
    ServeRequest {
        volume: Tensor::zeros([1, 2, 2]),
        priority,
        deadline: deadline_ms.map(Duration::from_millis),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn broker_never_loses_inverts_or_overflows(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let broker = Broker::new(
            BrokerCfg { queue_bound: QUEUE_BOUND, est_service: Duration::ZERO },
            ServeMetrics::new(),
        );
        let (reply_tx, _reply_rx) = unbounded();

        // Ledger of accepted-but-not-yet-dispatched jobs, mirrored from
        // the broker's replies (id -> priority).
        let mut queued: Vec<(u64, Priority)> = Vec::new();
        let mut dispatched: Vec<u64> = Vec::new();
        let mut accepted = 0usize;

        for op in &ops {
            match *op {
                Op::Submit { priority, deadline_ms } => {
                    match broker.submit(tiny_request(priority, deadline_ms), reply_tx.clone()) {
                        Ok(id) => {
                            prop_assert!(
                                queued.len() < QUEUE_BOUND,
                                "admission above the bound (depth {})", queued.len()
                            );
                            queued.push((id, priority));
                            accepted += 1;
                        }
                        Err(why) => {
                            // The only reject reachable with valid
                            // volumes and est_service=0 is QueueFull, and
                            // only at the bound.
                            prop_assert_eq!(queued.len(), QUEUE_BOUND, "spurious reject: {}", why);
                        }
                    }
                    prop_assert!(broker.depth() <= QUEUE_BOUND);
                }
                Op::Dispatch { max_batch } => {
                    if queued.is_empty() {
                        continue; // pop_batch would block forever
                    }
                    let batch = broker.pop_batch(BatchPolicy { max_batch }).unwrap();
                    prop_assert!(!batch.is_empty());
                    prop_assert!(batch.len() <= max_batch);
                    for job in &batch {
                        let pos = queued.iter().position(|&(id, _)| id == job.id);
                        prop_assert!(
                            pos.is_some(),
                            "dispatched id {} was not queued (double-serve or phantom)", job.id
                        );
                        queued.remove(pos.unwrap());
                        dispatched.push(job.id);
                    }
                    // No inversion: everything still queued is of equal
                    // or lower priority than everything just dispatched.
                    let batch_min =
                        batch.iter().map(|j| j.priority).min().unwrap();
                    if let Some(left_max) = queued.iter().map(|&(_, p)| p).max() {
                        prop_assert!(
                            batch_min >= left_max,
                            "priority inversion: dispatched {:?} while {:?} queued",
                            batch_min, left_max
                        );
                    }
                    // And the batch itself is ordered highest-first.
                    for pair in batch.windows(2) {
                        prop_assert!(pair[0].priority >= pair[1].priority);
                    }
                }
            }
        }

        // Drain: close, then pop until None — every accepted request
        // must come out exactly once.
        broker.close();
        while let Some(batch) = broker.pop_batch(BatchPolicy { max_batch: 4 }) {
            for job in batch {
                prop_assert!(
                    queued.iter().any(|&(id, _)| id == job.id),
                    "drained id {} not in ledger", job.id
                );
                queued.retain(|&(id, _)| id != job.id);
                dispatched.push(job.id);
            }
        }
        prop_assert!(queued.is_empty(), "{} accepted requests lost", queued.len());
        prop_assert_eq!(dispatched.len(), accepted);
        let mut ids = dispatched.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), dispatched.len(), "a request was served twice");
    }

    /// Shutdown drain: whatever interleaving of submits and dispatches
    /// ran before `close()`, afterwards (a) every new submission is
    /// turned away with the typed `ShuttingDown` rejection, and (b)
    /// every request accepted before the close comes out of the drain
    /// exactly once — completed or already dispatched, never stranded.
    #[test]
    fn close_rejects_typed_and_drains_every_accepted_request(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        close_at in 0usize..40,
        late_submits in 1usize..5,
    ) {
        let broker = Broker::new(
            BrokerCfg { queue_bound: QUEUE_BOUND, est_service: Duration::ZERO },
            ServeMetrics::new(),
        );
        let (reply_tx, _reply_rx) = unbounded();

        let mut queued: Vec<u64> = Vec::new();
        let mut served: Vec<u64> = Vec::new();
        let mut accepted = 0usize;
        let mut closed = false;

        for (step, op) in ops.iter().enumerate() {
            if step == close_at {
                broker.close();
                closed = true;
            }
            match *op {
                Op::Submit { priority, deadline_ms } => {
                    match broker.submit(tiny_request(priority, deadline_ms), reply_tx.clone()) {
                        Ok(id) => {
                            prop_assert!(!closed, "admission after close");
                            queued.push(id);
                            accepted += 1;
                        }
                        Err(why) => {
                            if closed {
                                prop_assert_eq!(
                                    why,
                                    Rejected::ShuttingDown,
                                    "post-close rejection must be the typed shutdown"
                                );
                            }
                        }
                    }
                }
                Op::Dispatch { max_batch } => {
                    if queued.is_empty() && !closed {
                        continue; // pop_batch would block on an open, empty queue
                    }
                    match broker.pop_batch(BatchPolicy { max_batch }) {
                        Some(batch) => {
                            for job in batch {
                                let pos = queued.iter().position(|&id| id == job.id);
                                prop_assert!(pos.is_some(), "phantom dispatch of id {}", job.id);
                                queued.remove(pos.unwrap());
                                served.push(job.id);
                            }
                        }
                        None => prop_assert!(
                            closed && queued.is_empty(),
                            "pop_batch returned None with work still queued"
                        ),
                    }
                }
            }
        }
        if !closed {
            broker.close();
        }

        // After close, every further submission is a typed rejection.
        for _ in 0..late_submits {
            let verdict = broker.submit(tiny_request(Priority::Stat, None), reply_tx.clone());
            prop_assert_eq!(verdict.unwrap_err(), Rejected::ShuttingDown);
        }

        // Drain to None: nothing accepted before the close may strand.
        while let Some(batch) = broker.pop_batch(BatchPolicy { max_batch: 4 }) {
            for job in batch {
                let pos = queued.iter().position(|&id| id == job.id);
                prop_assert!(pos.is_some(), "drained id {} not in ledger", job.id);
                queued.remove(pos.unwrap());
                served.push(job.id);
            }
        }
        prop_assert!(queued.is_empty(), "{} accepted requests stranded by close", queued.len());
        prop_assert_eq!(served.len(), accepted);
        let mut ids = served.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), served.len(), "a request drained twice");
        prop_assert!(broker.pop_batch(BatchPolicy { max_batch: 4 }).is_none(), "drain is terminal");
    }
}
