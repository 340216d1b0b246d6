//! Figure 3 over Figure 2: the multi-writer multi-reader lock with
//! **reader priority** (Theorem 4).
//!
//! Same transformation `T` as [`super::MwmrStarvationFree`], written once
//! in [`super::fig3`] and instantiated with the Figure 2 reader-priority
//! single-writer lock: writers serialize through `M` and then play the
//! single writer of Figure 2; readers run Figure 2's reader protocol
//! unchanged. RP1/RP2 lift to the multi-writer setting because readers
//! never interact with `M` at all — a reader that outranks every active
//! writer (in the `>rp` relation) finds the inner lock's `X ≠ true` or an
//! open gate exactly as in the single-writer proof.

use super::fig3::{self, Fig3};
use crate::raw::RawTryReadLock;
use crate::registry::Pid;
use crate::swmr::reader_priority::{ReadSession, SwmrReaderPriority, WriteSession};
use rmr_mutex::mem::{Backend, Native};
use rmr_mutex::{AndersonLock, RawMutex};

/// Proof of a held write lock: the inner Figure 2 write session plus the
/// `M` token.
pub type WriteToken<M> = fig3::WriteToken<WriteSession, M>;

/// Figure 3 instantiated with Figure 2: multi-writer multi-reader lock
/// satisfying P1–P6 plus RP1 (reader priority) and RP2 (unstoppable
/// readers), with O(1) RMR complexity in the CC model (Theorem 4).
///
/// Writers may starve under a continuous stream of readers — by design;
/// use [`super::MwmrStarvationFree`] when no class may starve.
///
/// Generic over the writer-side mutex `M` and the memory backend `B`
/// ([`Native`] by default; use [`Fig3::new_in`] with
/// [`rmr_mutex::Counting`] to measure RMRs on the real implementation).
/// Constructors and the lock interface are [`Fig3`]'s.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrReaderPriority;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrReaderPriority::new(8);
/// let r = lock.read_lock(Pid::from_index(0));
/// lock.read_unlock(Pid::from_index(0), r);
/// ```
pub type MwmrReaderPriority<M = AndersonLock, B = Native> = Fig3<SwmrReaderPriority<B>, M>;

/// Readers run Figure 2's protocol unchanged, so its bounded read attempt
/// carries over verbatim. No `RawTryRwLock`: the writer path blocks on `M`
/// and on the inner Figure 2 promotion wait.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrReaderPriority;
/// use rmr_core::raw::{RawRwLock, RawTryReadLock};
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrReaderPriority::new(4);
/// let r = lock.try_read_lock(Pid::from_index(0)).expect("no writer");
/// lock.read_unlock(Pid::from_index(0), r);
/// ```
impl<M: RawMutex, B: Backend> RawTryReadLock for MwmrReaderPriority<M, B> {
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    fn single_thread_cycles() {
        fig3::read_write_cycles(MwmrReaderPriority::new(4));
    }

    #[test]
    fn works_over_mcs_mutex_too() {
        fig3::read_write_cycles(MwmrReaderPriority::with_mutex(McsLock::new(), 4));
    }

    #[test]
    fn two_writers_take_turns() {
        let lock = Arc::new(MwmrReaderPriority::new(4));
        let mut handles = Vec::new();
        for i in 0..2 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let w = lock.write_lock(pid(i));
                    lock.write_unlock(pid(i), w);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn readers_overtake_waiting_writers() {
        // RP1: with a reader pinning the CS and a writer queued, a brand-new
        // reader must still enter without blocking.
        let lock = Arc::new(MwmrReaderPriority::new(4));
        let r1 = lock.read_lock(pid(2));

        let lw = Arc::clone(&lock);
        let writer = std::thread::spawn(move || {
            let w = lw.write_lock(pid(0));
            lw.write_unlock(pid(0), w);
        });
        std::thread::sleep(Duration::from_millis(50));

        let r2 = lock.read_lock(pid(3)); // must not block
        lock.read_unlock(pid(3), r2);

        lock.read_unlock(pid(2), r1);
        writer.join().unwrap();
    }

    #[test]
    fn exclusion_stress() {
        fig3::exclusion_stress(MwmrReaderPriority::new(8));
    }

    #[test]
    fn exclusion_stress_mcs() {
        fig3::exclusion_stress(MwmrReaderPriority::with_mutex(McsLock::new(), 8));
    }

    #[test]
    fn writer_completes_once_readers_pause() {
        // Not starvation freedom (readers *may* starve writers here), but
        // the writer must finish when the reader stream stops (P6).
        let lock = Arc::new(MwmrReaderPriority::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let lr = Arc::clone(&lock);
        let sr = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            while !sr.load(Ordering::SeqCst) {
                let r = lr.read_lock(pid(1));
                lr.read_unlock(pid(1), r);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        let w = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), w);
        reader.join().unwrap();
    }
}
