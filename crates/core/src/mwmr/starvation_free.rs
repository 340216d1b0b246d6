//! Figure 3 over Figure 1: the multi-writer multi-reader lock with
//! **starvation freedom and no priority** (Theorem 3).
//!
//! The transformation `T` is exactly the paper's, written once in
//! [`super::fig3`]: writers serialize through a mutual-exclusion lock `M`
//! (Anderson's array lock by default) and then run Figure 1's writer
//! protocol; readers run Figure 1's reader protocol untouched.
//!
//! Because `M` is FCFS and starvation free and the inner Figure 1 lock is
//! starvation free in both roles, every property of Theorem 1 lifts to the
//! multi-writer setting: P1–P7 with O(1) RMR complexity (Theorem 3).

use super::fig3::{self, Fig3};
use crate::raw::RawTryReadLock;
use crate::registry::Pid;
use crate::swmr::writer_priority::{ReadSession, SwmrWriterPriority, WriteSession};
use rmr_mutex::mem::{Backend, Native};
use rmr_mutex::{AndersonLock, RawMutex};

/// Proof of a held write lock: the inner Figure 1 write session plus the
/// `M` token.
pub type WriteToken<M> = fig3::WriteToken<WriteSession, M>;

/// Figure 3 instantiated with Figure 1: multi-writer multi-reader lock
/// satisfying P1–P7 (mutual exclusion, bounded exit, FCFS writers, FIFE
/// readers, concurrent entering, livelock freedom, starvation freedom) with
/// O(1) RMR complexity in the CC model (Theorem 3).
///
/// Generic over the writer-side mutex `M` (default [`AndersonLock`], the
/// lock the paper names; [`rmr_mutex::McsLock`] is a drop-in alternative
/// exercised by the test suite) and the memory backend `B` ([`Native`] by
/// default; use [`Fig3::new_in`] with [`rmr_mutex::Counting`] to measure
/// RMRs on the real implementation). Constructors and the lock interface
/// are [`Fig3`]'s.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrStarvationFree;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrStarvationFree::new(8);
/// let w = lock.write_lock(Pid::from_index(3));
/// lock.write_unlock(Pid::from_index(3), w);
/// ```
pub type MwmrStarvationFree<M = AndersonLock, B = Native> = Fig3<SwmrWriterPriority<B>, M>;

/// Readers run Figure 1's protocol unchanged, so its bounded read attempt
/// carries over verbatim. No `RawTryRwLock`: the writer path blocks on `M`
/// and on the inner irrevocable Figure 1 doorway.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrStarvationFree;
/// use rmr_core::raw::{RawRwLock, RawTryReadLock};
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrStarvationFree::new(4);
/// let w = lock.write_lock(Pid::from_index(0));
/// assert!(lock.try_read_lock(Pid::from_index(1)).is_none());
/// lock.write_unlock(Pid::from_index(0), w);
/// assert!(lock.try_read_lock(Pid::from_index(1)).is_some());
/// ```
impl<M: RawMutex, B: Backend> RawTryReadLock for MwmrStarvationFree<M, B> {
    #[inline]
    fn try_read_lock(&self, pid: Pid) -> Option<ReadSession> {
        RawTryReadLock::try_read_lock(self.inner(), pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmr::fig3::tests as fig3;
    use crate::raw::RawRwLock;
    use crate::registry::Pid;
    use rmr_mutex::McsLock;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    fn single_thread_read_write_cycles() {
        fig3::read_write_cycles(MwmrStarvationFree::new(4));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_processes_panics() {
        let _ = MwmrStarvationFree::new(0);
    }

    #[test]
    fn works_over_mcs_mutex_too() {
        fig3::read_write_cycles(MwmrStarvationFree::with_mutex(McsLock::new(), 4));
    }

    #[test]
    fn exclusion_stress_anderson() {
        fig3::exclusion_stress(MwmrStarvationFree::new(8));
    }

    #[test]
    fn exclusion_stress_mcs() {
        fig3::exclusion_stress(MwmrStarvationFree::with_mutex(McsLock::new(), 8));
    }

    #[test]
    fn writers_queue_fcfs_behind_holder() {
        // FCFS smoke test: writer A holds; B then C queue (with sequencing
        // sleeps); releases must grant in order B, C.
        let lock = Arc::new(MwmrStarvationFree::new(4));
        let wa = lock.write_lock(pid(0));
        let order = Arc::new(AtomicUsize::new(0));

        let lb = Arc::clone(&lock);
        let ob = Arc::clone(&order);
        let b = std::thread::spawn(move || {
            let w = lb.write_lock(pid(1));
            let slot = ob.fetch_add(1, Ordering::SeqCst);
            lb.write_unlock(pid(1), w);
            slot
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let lc = Arc::clone(&lock);
        let oc = Arc::clone(&order);
        let c = std::thread::spawn(move || {
            let w = lc.write_lock(pid(2));
            let slot = oc.fetch_add(1, Ordering::SeqCst);
            lc.write_unlock(pid(2), w);
            slot
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        lock.write_unlock(pid(0), wa);
        let slot_b = b.join().unwrap();
        let slot_c = c.join().unwrap();
        assert!(slot_b < slot_c, "FCFS violated: B entered the doorway first");
    }

    #[test]
    fn readers_do_not_starve_writers() {
        // P7 smoke test: a writer must complete even while readers churn.
        let lock = Arc::new(MwmrStarvationFree::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for i in 1..4 {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let r = lock.read_lock(pid(i));
                    lock.read_unlock(pid(i), r);
                }
            }));
        }
        for _ in 0..10 {
            let w = lock.write_lock(pid(0));
            lock.write_unlock(pid(0), w);
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
    }
}
