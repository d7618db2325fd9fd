//! Request/response types and typed admission rejections.

use std::fmt;
use std::time::Duration;

use cc19_tensor::Tensor;
use computecovid19::Diagnosis;

/// Clinical priority classes, ordered `Routine < Urgent < Stat`
/// (emergency-department "stat" reads dispatch first; the broker never
/// dispatches a lower class while a higher one is queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Scheduled / screening studies.
    Routine,
    /// Symptomatic-patient studies.
    Urgent,
    /// Emergency reads.
    Stat,
}

impl Priority {
    /// All classes, highest first (dispatch order).
    pub const DISPATCH_ORDER: [Priority; 3] = [Priority::Stat, Priority::Urgent, Priority::Routine];

    /// Queue index (0 = Stat) used by the broker's per-class queues.
    pub(crate) fn class(self) -> usize {
        match self {
            Priority::Stat => 0,
            Priority::Urgent => 1,
            Priority::Routine => 2,
        }
    }

    /// Stable wire/metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Stat => "stat",
            Priority::Urgent => "urgent",
            Priority::Routine => "routine",
        }
    }

    /// Wire discriminant (see [`crate::wire`]).
    pub fn code(self) -> u8 {
        self.class() as u8
    }

    /// Inverse of [`Priority::code`].
    pub fn from_code(code: u8) -> Option<Priority> {
        match code {
            0 => Some(Priority::Stat),
            1 => Some(Priority::Urgent),
            2 => Some(Priority::Routine),
            _ => None,
        }
    }
}

/// One study submitted for diagnosis.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// `(D, H, W)` HU volume.
    pub volume: Tensor,
    /// Scheduling class.
    pub priority: Priority,
    /// Optional latency budget measured from submission; requests whose
    /// budget cannot possibly be met are rejected at admission
    /// ([`Rejected::DeadlineImpossible`]) instead of wasting worker time.
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// Routine request without a deadline.
    pub fn routine(volume: Tensor) -> Self {
        ServeRequest { volume, priority: Priority::Routine, deadline: None }
    }

    /// The admission screen broker and cluster router share: a non-empty
    /// `(D, H, W)` volume, and a budget no shorter than `est_service`.
    pub(crate) fn screen(&self, est_service: Duration) -> Result<(), Rejected> {
        let dims = self.volume.dims();
        if dims.len() != 3 || dims.contains(&0) {
            let why = format!("expected a non-empty (D, H, W) volume, got {dims:?}");
            return Err(Rejected::Invalid(why));
        }
        match self.deadline {
            Some(deadline) if deadline < est_service => {
                Err(Rejected::DeadlineImpossible { deadline, est_service })
            }
            _ => Ok(()),
        }
    }
}

/// The answer for one accepted request (delivered exactly once).
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Server-assigned admission id.
    pub id: u64,
    /// The diagnosis, or a stage-failure description. Admission-time
    /// validation makes stage failures unreachable for well-formed
    /// volumes; the error arm exists so a worker never silently drops
    /// an accepted request.
    pub result: Result<Diagnosis, String>,
}

/// Typed admission backpressure: why a submission was turned away
/// *synchronously* (accepted requests are always answered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded admission queue is at capacity.
    QueueFull {
        /// Queue depth observed at submission.
        depth: usize,
        /// Configured bound.
        bound: usize,
    },
    /// The request's latency budget is smaller than the configured
    /// estimated service time, so it would miss its deadline even on an
    /// idle server.
    DeadlineImpossible {
        /// The budget the client asked for.
        deadline: Duration,
        /// The server's estimated minimum service time.
        est_service: Duration,
    },
    /// The volume failed validation (wrong rank, empty extent, …).
    Invalid(String),
    /// The server is draining and no longer admits work.
    ShuttingDown,
}

impl Rejected {
    /// Stable wire code.
    pub fn code(&self) -> u8 {
        match self {
            Rejected::QueueFull { .. } => 0,
            Rejected::DeadlineImpossible { .. } => 1,
            Rejected::Invalid(_) => 2,
            Rejected::ShuttingDown => 3,
        }
    }

    /// Stable metrics label.
    pub fn label(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::DeadlineImpossible { .. } => "deadline_impossible",
            Rejected::Invalid(_) => "invalid",
            Rejected::ShuttingDown => "shutting_down",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth, bound } => {
                write!(f, "admission queue full ({depth}/{bound})")
            }
            Rejected::DeadlineImpossible { deadline, est_service } => write!(
                f,
                "deadline {deadline:?} impossible: estimated service time is {est_service:?}"
            ),
            Rejected::Invalid(why) => write!(f, "invalid request: {why}"),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_dispatch_order_is_descending() {
        assert!(Priority::Stat > Priority::Urgent);
        assert!(Priority::Urgent > Priority::Routine);
        for (i, p) in Priority::DISPATCH_ORDER.iter().enumerate() {
            assert_eq!(p.class(), i);
            assert_eq!(Priority::from_code(p.code()), Some(*p));
        }
    }

    #[test]
    fn reject_codes_are_stable() {
        assert_eq!(Rejected::QueueFull { depth: 1, bound: 1 }.code(), 0);
        assert_eq!(
            Rejected::DeadlineImpossible {
                deadline: Duration::ZERO,
                est_service: Duration::from_millis(1)
            }
            .code(),
            1
        );
        assert_eq!(Rejected::Invalid("x".into()).code(), 2);
        assert_eq!(Rejected::ShuttingDown.code(), 3);
    }
}
