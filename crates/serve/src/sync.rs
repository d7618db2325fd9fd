//! Poison-tolerant wrappers over `std::sync` locking, with a debug-only
//! lock-rank sentinel.
//!
//! The serve dispatch path must never panic (cc19-lint panic-surface
//! rule): a worker thread that dies mid-study must degrade to a failed
//! response for that study, not take the broker lock's poison flag down
//! with it and cascade panics into every other client. All state guarded
//! by these locks is plain owned data (queues, counters, histograms)
//! that remains structurally valid wherever a panicking holder stopped,
//! so recovering the inner value is always sound here.
//!
//! # Lock-rank sentinel
//!
//! Every lock acquired through [`lock`] carries a static [`LockRank`].
//! In debug builds (`cargo test`) a thread-local stack of held ranks
//! asserts that acquisitions happen in strictly ascending rank order —
//! the dynamic twin of the static `lock-order` lint rule: the lint
//! proves the checked-in code has no cycle, the sentinel catches an
//! out-of-order interleaving the moment a new code path introduces one.
//! In release builds [`Guard`] is a plain `MutexGuard` type alias and
//! the rank argument compiles to nothing.
//!
//! # Rank table
//!
//! Ascending rank = outer-to-inner acquisition order. Today no code
//! path holds two of these locks at once (the `lock-order` rule keeps
//! the may-hold-while-acquiring graph empty), so the table is the
//! *intended* nesting if one ever becomes necessary:
//!
//! | rank | lock            | guarded state                      |
//! |------|-----------------|------------------------------------|
//! | 10   | `batcher::open` | [`crate::batcher::Gate`] open flag |
//! | 20   | `broker::inner` | [`crate::broker::Broker`] queues    |
//! | 30   | `sync::rung`    | [`Doorbell`] pending-event flag     |

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// A static lock rank: the acquisition-order position of one lock.
/// Acquiring a lock whose rank is not strictly greater than every rank
/// already held panics in debug builds.
// In release builds the sentinel compiles away and the fields go unread.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub(crate) struct LockRank {
    /// Position in the global acquisition order (see the rank table).
    pub(crate) rank: u16,
    /// Canonical lock name (matches the lint report's `lock_sites`).
    pub(crate) name: &'static str,
}

/// Rank of the batcher gate's open flag (outermost).
pub(crate) static RANK_GATE: LockRank = LockRank { rank: 10, name: "batcher::open" };
/// Rank of the broker's queue state.
pub(crate) static RANK_BROKER_INNER: LockRank = LockRank { rank: 20, name: "broker::inner" };
/// Rank of a doorbell's flag (innermost: a leaf, nothing is taken under it).
pub(crate) static RANK_DOORBELL: LockRank = LockRank { rank: 30, name: "sync::rung" };

#[cfg(debug_assertions)]
mod sentinel {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks held by this thread, in acquisition order.
        static HELD: RefCell<Vec<&'static LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition, panicking on a rank inversion.
    pub(super) fn push(rank: &'static LockRank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(top) = h.last() {
                assert!(
                    rank.rank > top.rank,
                    "lock-rank sentinel: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                     locks must be taken in ascending rank order (see the rank table in \
                     crates/serve/src/sync.rs)",
                    rank.name,
                    rank.rank,
                    top.name,
                    top.rank
                );
            }
            h.push(rank);
        });
    }

    /// Release the most recent acquisition of `rank`.
    pub(super) fn pop(rank: &'static LockRank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|r| std::ptr::eq(*r, rank)) {
                h.remove(pos);
            }
        });
    }
}

/// A rank-tracked mutex guard (debug builds). The inner `Option` exists
/// only so condvar waits can temporarily move the `MutexGuard` out and
/// back without running the rank-popping destructor; it is `Some` at
/// every point user code can observe.
#[cfg(debug_assertions)]
pub(crate) struct Guard<'a, T: ?Sized> {
    g: Option<MutexGuard<'a, T>>,
    rank: &'static LockRank,
}

// The expect() calls below are unreachable by construction (the Option
// is None only *inside* a wait call, where no deref can occur) and the
// whole Guard exists only in debug builds — see the lint.toml
// panic-surface entry for this file.
#[cfg(debug_assertions)]
impl<T: ?Sized> std::ops::Deref for Guard<'_, T> {
    type Target = T;
    #[allow(clippy::expect_used)]
    fn deref(&self) -> &T {
        self.g.as_ref().expect("guard invariantly present outside wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> std::ops::DerefMut for Guard<'_, T> {
    #[allow(clippy::expect_used)]
    fn deref_mut(&mut self) -> &mut T {
        self.g.as_mut().expect("guard invariantly present outside wait")
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for Guard<'_, T> {
    fn drop(&mut self) {
        sentinel::pop(self.rank);
    }
}

/// In release builds the guard is untracked: zero size, zero checks.
#[cfg(not(debug_assertions))]
pub(crate) type Guard<'a, T> = MutexGuard<'a, T>;

/// [`cc19_obs::lock`] (poison-recovering) that, in debug builds, also
/// enforces the rank order.
#[cfg(debug_assertions)]
pub(crate) fn lock<'a, T: ?Sized>(m: &'a Mutex<T>, rank: &'static LockRank) -> Guard<'a, T> {
    sentinel::push(rank);
    Guard { g: Some(cc19_obs::lock(m)), rank }
}

/// [`cc19_obs::lock`]: recovers from poisoning instead of panicking.
#[cfg(not(debug_assertions))]
pub(crate) fn lock<'a, T: ?Sized>(m: &'a Mutex<T>, _rank: &'static LockRank) -> Guard<'a, T> {
    cc19_obs::lock(m)
}

/// `Condvar::wait` that recovers from poisoning instead of panicking.
/// The guard's rank slot stays held across the wait (the condvar
/// re-acquires the same mutex before returning).
#[cfg(debug_assertions)]
#[allow(clippy::expect_used)] // unreachable: Some outside wait (see Guard)
pub(crate) fn wait<'a, T>(cv: &Condvar, mut guard: Guard<'a, T>) -> Guard<'a, T> {
    let g = guard.g.take().expect("guard invariantly present outside wait");
    guard.g = Some(cv.wait(g).unwrap_or_else(PoisonError::into_inner));
    guard
}

/// `Condvar::wait` that recovers from poisoning instead of panicking.
#[cfg(not(debug_assertions))]
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout` that recovers from poisoning instead of
/// panicking. The guard's rank slot stays held across the wait.
#[cfg(debug_assertions)]
#[allow(clippy::expect_used)] // unreachable: Some outside wait (see Guard)
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    mut guard: Guard<'a, T>,
    dur: Duration,
) -> (Guard<'a, T>, WaitTimeoutResult) {
    let g = guard.g.take().expect("guard invariantly present outside wait");
    let (g, res) = cv.wait_timeout(g, dur).unwrap_or_else(PoisonError::into_inner);
    guard.g = Some(g);
    (guard, res)
}

/// `Condvar::wait_timeout` that recovers from poisoning instead of
/// panicking.
#[cfg(not(debug_assertions))]
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: Guard<'a, T>,
    dur: Duration,
) -> (Guard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur).unwrap_or_else(PoisonError::into_inner)
}

/// The wake-up of an event loop with several sources (cluster router:
/// commands, reply links; worker node: dispatch link, local completions).
/// A source makes its event visible and *then* rings; the loop drains
/// every source and then waits. The flag stays set until a wait consumes
/// it, so an event landing mid-drain costs an empty pass, never a sleep.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    /// Record an event and wake the waiter.
    pub(crate) fn ring(&self) {
        *lock(&self.rung, &RANK_DOORBELL) = true;
        self.cv.notify_one();
    }

    /// Block until rung since the last wait, or until `tick` passes (a
    /// spurious condvar wake-up is just an early tick).
    pub(crate) fn wait(&self, tick: Duration) {
        let mut rung = lock(&self.rung, &RANK_DOORBELL);
        if !*rung {
            rung = wait_timeout(&self.cv, rung, tick).0;
        }
        *rung = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LOW: LockRank = LockRank { rank: 1, name: "test::low" };
    static HIGH: LockRank = LockRank { rank: 2, name: "test::high" };

    #[test]
    fn ascending_rank_acquisition_is_permitted() {
        let a = Mutex::new(1u32);
        let b = Mutex::new(2u32);
        let ga = lock(&a, &LOW);
        let gb = lock(&b, &HIGH);
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        // Sequential (non-nested) acquisition is rank-free.
        drop(lock(&b, &HIGH));
        drop(lock(&a, &LOW));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "acquiring `test::low` (rank 1) while holding `test::high` (rank 2)"
    )]
    fn out_of_rank_acquisition_panics_naming_both_locks() {
        let a = Mutex::new(1u32);
        let b = Mutex::new(2u32);
        let _gb = lock(&b, &HIGH);
        let _ga = lock(&a, &LOW); // inversion: rank 1 under rank 2
    }

    #[test]
    fn waits_keep_and_then_release_exactly_one_rank_slot() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let g = lock(&m, &LOW);
        let (g, res) = wait_timeout(&cv, g, Duration::from_millis(1));
        assert!(res.timed_out());
        assert!(!*g);
        drop(g);
        // If the wait had leaked its rank slot, this same-rank
        // re-acquisition would trip the sentinel (1 > 1 is false).
        drop(lock(&m, &LOW));
    }

    #[test]
    fn rank_table_is_strictly_ascending() {
        assert!(RANK_GATE.rank < RANK_BROKER_INNER.rank);
        assert!(RANK_BROKER_INNER.rank < RANK_DOORBELL.rank);
        assert_eq!(RANK_GATE.name, "batcher::open");
        assert_eq!(RANK_BROKER_INNER.name, "broker::inner");
        assert_eq!(RANK_DOORBELL.name, "sync::rung");
    }

    #[test]
    fn doorbell_keeps_a_ring_for_the_next_wait_and_wakes_a_sleeper() {
        const NEVER: Duration = Duration::from_secs(3600); // a lost ring hangs the test
        let bell = std::sync::Arc::new(Doorbell::default());
        bell.ring();
        bell.wait(NEVER); // rung before the wait
        let b = std::sync::Arc::clone(&bell);
        let sleeper = std::thread::spawn(move || b.wait(NEVER));
        bell.ring(); // rung during (or, again, before) the wait
        assert!(sleeper.join().is_ok());
        bell.wait(Duration::from_millis(5)); // unrung: runs to its tick
    }
}
