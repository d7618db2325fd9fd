//! Poison-recovering `Mutex` locking — the workspace's one copy.
//!
//! All state guarded by obs locks is plain owned data (metric maps,
//! histograms, the trace ring) that stays structurally valid wherever a
//! panicking holder stopped, so recovering the inner value is always
//! sound. Routing every acquisition through [`lock`] means a panicked
//! instrumented thread can never blank a trace dump or a snapshot — the
//! exporters see whatever state the store had, instead of an error arm
//! quietly returning empty output. The same argument holds for
//! `cc19-dist`'s retransmit buffers and membership table, which call
//! this helper directly, and `cc19_serve::sync`'s rank-checked `lock`
//! delegates its poison recovery here.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// `Mutex::lock` that recovers from poisoning instead of panicking.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_state_written_before_a_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock().expect("first lock");
            *g = 7;
            panic!("poison the mutex");
        })
        .join();
        // A plain .lock().unwrap() would panic here; the helper hands
        // back the last written state.
        assert_eq!(*lock(&m), 7);
    }
}
