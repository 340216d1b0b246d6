//! Per-reader-flag reader-writer lock (the "distributed reader indicator"
//! class of Lev–Luchangco–Olszewski \[24\] and Krieger et al. \[25\]).

use rmr_core::raw::{RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::mem::{Backend, Native, Ordering, SharedBool, Site};
use rmr_mutex::CachePadded;
use rmr_mutex::{spin_until, RawMutex, TtasLock};
use std::fmt;

/// A reader-writer lock with one flag per reader slot: readers raise their
/// own cache-padded flag (one RMR) and check for a writer; writers raise a
/// global flag and then **scan all n reader flags**, waiting for each to
/// drop.
///
/// This reproduces the cost profile of the scalable read-mostly designs the
/// paper cites as prior art \[24, 25\]: reads are cheap and truly concurrent
/// (O(1) RMRs while no writer is active), but the writer pays **O(n)
/// RMRs** per attempt — exactly the asymmetry Bhatt & Jayanti remove.
/// Writer preference: a raised writer flag makes arriving readers retreat
/// (lower their flag and park), so the scan terminates.
///
/// # Example
///
/// ```
/// use rmr_baselines::DistributedFlagRwLock;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::registry::Pid;
///
/// let lock = DistributedFlagRwLock::new(8);
/// let t = lock.read_lock(Pid::from_index(3));
/// lock.read_unlock(Pid::from_index(3), t);
/// ```
pub struct DistributedFlagRwLock<B: Backend = Native> {
    /// One presence flag per reader slot, cache padded so raising one is a
    /// single line transfer.
    reader_flags: Box<[CachePadded<B::Bool>]>,
    /// Serializes writers.
    writer_mutex: TtasLock<B>,
    /// Raised while a writer is draining readers or in the CS.
    writer_present: B::Bool,
}

impl DistributedFlagRwLock {
    /// Creates the lock with `max_processes` reader slots.
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0`.
    pub fn new(max_processes: usize) -> Self {
        Self::new_in(max_processes, Native)
    }
}

impl<B: Backend> DistributedFlagRwLock<B> {
    /// Creates the lock over the given memory backend (same contract as
    /// [`DistributedFlagRwLock::new`]).
    pub fn new_in(max_processes: usize, backend: B) -> Self {
        assert!(max_processes > 0, "max_processes must be positive");
        Self {
            reader_flags: (0..max_processes)
                .map(|_| CachePadded::new(B::Bool::new(false)))
                .collect(),
            writer_mutex: TtasLock::new_in(backend),
            writer_present: B::Bool::new(false),
        }
    }

    /// Number of raised reader flags (diagnostic; O(n) scan).
    pub fn readers_visible(&self) -> usize {
        self.reader_flags.iter().filter(|f| f.load(Ordering::Relaxed)).count()
    }

    /// Checker entry point: every reader flag is down and no writer is
    /// present. Only meaningful while no passage is in flight.
    pub fn is_quiescent(&self) -> bool {
        // Relaxed: at-rest reads, like `readers_visible`.
        self.readers_visible() == 0 && !self.writer_present.load(Ordering::Relaxed)
    }
}

impl<B: Backend> RawRwLock for DistributedFlagRwLock<B> {
    type ReadToken = ();
    type WriteToken = ();

    fn read_lock(&self, pid: Pid) {
        let flag = &self.reader_flags[pid.index()];
        loop {
            // Site BL-FLAGS, a Dekker square: the reader raises its flag and
            // then reads writer_present; the writer raises writer_present and
            // then scans the flags. SC of these four accesses is the whole
            // mutual-exclusion argument ("one of us observes the other"), so
            // both store/load pairs are SeqCst. This raise is tagged apart
            // (site BL-FLAGS-RAISE): demoting it to Release is the
            // `DemoteFlagRaise` fault (DESIGN.md §13).
            flag.store_at(Site::BL_FLAGS_RAISE, true, Ordering::SeqCst);
            if !self.writer_present.load(Ordering::SeqCst) {
                // Flag-then-check: the writer's check-then-scan order
                // guarantees one of us observes the other.
                return;
            }
            // Retreat so the writer's scan can finish, then wait it out.
            // Relaxed: the reader is not in the CS, so there is nothing to
            // publish; coherence alone delivers the lowered flag to the
            // writer's Acquire scan.
            flag.store(false, Ordering::Relaxed);
            // Acquire pairs with the writer's Release in write_unlock so the
            // reader's critical-section reads see the writer's writes.
            spin_until(|| !self.writer_present.load(Ordering::Acquire));
        }
    }

    fn read_unlock(&self, pid: Pid, (): ()) {
        // Release: the writer's Acquire scan must order this reader's
        // critical-section reads before the writer's subsequent writes.
        self.reader_flags[pid.index()].store(false, Ordering::Release);
    }

    fn write_lock(&self, _pid: Pid) {
        self.writer_mutex.lock();
        // Store half of site BL-FLAGS (see read_lock): SeqCst so it cannot
        // pass the flag scan below.
        self.writer_present.store(true, Ordering::SeqCst);
        // O(n): drain every reader slot. Acquire pairs with the readers'
        // Release in read_unlock.
        for flag in self.reader_flags.iter() {
            spin_until(|| !flag.load(Ordering::Acquire));
        }
    }

    fn write_unlock(&self, _pid: Pid, (): ()) {
        // Release publishes the writer's critical-section writes to readers
        // spinning on writer_present with Acquire.
        self.writer_present.store(false, Ordering::Release);
        self.writer_mutex.unlock(());
    }

    fn max_processes(&self) -> usize {
        self.reader_flags.len()
    }
}

// SAFETY: writers serialize through `writer_mutex` for the whole critical
// section.
unsafe impl<B: Backend> rmr_core::raw::RawMultiWriter for DistributedFlagRwLock<B> {}

impl<B: Backend> RawTryReadLock for DistributedFlagRwLock<B> {
    fn try_read_lock(&self, pid: Pid) -> Option<()> {
        let flag = &self.reader_flags[pid.index()];
        // One round of the blocking loop, with "park" replaced by "abort":
        // flag-then-check keeps the same visibility argument (sites BL-FLAGS
        // and BL-FLAGS-RAISE).
        flag.store_at(Site::BL_FLAGS_RAISE, true, Ordering::SeqCst);
        if !self.writer_present.load(Ordering::SeqCst) {
            Some(())
        } else {
            // Abort: nothing to publish (never entered the CS).
            flag.store(false, Ordering::Relaxed);
            None
        }
    }
}

impl<B: Backend> RawTryRwLock for DistributedFlagRwLock<B> {
    fn try_write_lock(&self, _pid: Pid) -> Option<()> {
        if !self.writer_mutex.try_lock() {
            return None;
        }
        self.writer_present.store(true, Ordering::SeqCst); // site BL-FLAGS
                                                           // One scan instead of n spin-waits; any raised flag aborts. Acquire
                                                           // pairs with the readers' Release in read_unlock.
        if self.reader_flags.iter().any(|f| f.load(Ordering::Acquire)) {
            // Abort: the writer wrote nothing, so there is nothing to
            // publish; coherence delivers the lowered flag.
            self.writer_present.store(false, Ordering::Relaxed);
            self.writer_mutex.unlock(());
            return None;
        }
        Some(())
    }
}

rmr_core::advisory_parked_waiters! {
    /// Advisory doorway (`QUEUED = false`): a parked writer holds neither
    /// the writer mutex nor the `writer_present` flag, so readers stream
    /// past with no bypass bound.
    impl[B: Backend] RawParkedWaiters for DistributedFlagRwLock<B>
}

impl<B: Backend> fmt::Debug for DistributedFlagRwLock<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedFlagRwLock")
            .field("slots", &self.reader_flags.len())
            .field("readers_visible", &self.readers_visible())
            .field("writer_present", &self.writer_present.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rw_exclusion_stress;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    fn reader_alone_is_wait_free() {
        let lock = DistributedFlagRwLock::new(4);
        for _ in 0..100 {
            let t = lock.read_lock(pid(2));
            lock.read_unlock(pid(2), t);
        }
        assert_eq!(lock.readers_visible(), 0);
    }

    #[test]
    fn readers_overlap() {
        let lock = DistributedFlagRwLock::new(4);
        let a = lock.read_lock(pid(0));
        let b = lock.read_lock(pid(1));
        assert_eq!(lock.readers_visible(), 2);
        lock.read_unlock(pid(0), a);
        lock.read_unlock(pid(1), b);
    }

    #[test]
    fn writer_waits_for_reader() {
        let lock = Arc::new(DistributedFlagRwLock::new(4));
        let r = lock.read_lock(pid(0));
        let entered = Arc::new(AtomicBool::new(false));
        let lw = Arc::clone(&lock);
        let e2 = Arc::clone(&entered);
        let w = std::thread::spawn(move || {
            let t = lw.write_lock(pid(1));
            e2.store(true, Ordering::SeqCst);
            lw.write_unlock(pid(1), t);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!entered.load(Ordering::SeqCst));
        lock.read_unlock(pid(0), r);
        w.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn exclusion_stress() {
        rw_exclusion_stress(DistributedFlagRwLock::new(8), 2, 4, 100);
    }
}
