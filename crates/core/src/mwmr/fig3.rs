//! Figure 3: the transformation `T` from a single-writer lock to a
//! multi-writer one, written once for both single-writer locks.
//!
//! Writers serialize through a mutual-exclusion lock `M` (Anderson's array
//! lock by default) and then run the single-writer algorithm's writer
//! protocol; readers run the single-writer reader protocol untouched.
//!
//! ```text
//! procedure Write-lock()            procedure Read-lock()
//! 2. acquire(M)                     8. SW-Read-try()
//! 3. SW-Write-try()                 9. CRITICAL SECTION
//! 4. CRITICAL SECTION              10. SW-Read-exit()
//! 5. SW-Write-exit()
//! 6. release(M)
//! ```
//!
//! The paper applies `T` twice: to Figure 1 in Theorem 3
//! ([`MwmrStarvationFree`](super::MwmrStarvationFree)) and to Figure 2 in
//! Theorem 4 ([`MwmrReaderPriority`](super::MwmrReaderPriority)). Both are
//! aliases of [`Fig3`] and carry their theorem's guarantees in their docs.

use crate::raw::{RawMultiWriter, RawRwLock, RawTryReadLock};
use crate::registry::Pid;
use crate::swmr::{SwmrReaderPriority, SwmrWriterPriority};
use rmr_mutex::mem::{Backend, Native};
use rmr_mutex::{AndersonLock, RawMutex};
use std::fmt;

mod sealed {
    use super::{Backend, RawRwLock, RawTryReadLock};

    /// A single-writer lock `T` lifts to many writers: Figure 1 or Figure 2.
    /// Sealed: `T`'s guarantees are proved for these two only.
    pub trait SingleWriter: RawRwLock + RawTryReadLock + Default {
        /// The memory backend of the lock's shared variables; it lets the
        /// constructors pick the matching backend for `M`.
        type Backend: Backend;

        /// True when the lock is at rest (see the lock's own
        /// `is_quiescent`).
        fn is_quiescent(&self) -> bool;
    }
}

use sealed::SingleWriter;

impl<B: Backend> SingleWriter for SwmrWriterPriority<B> {
    type Backend = B;

    fn is_quiescent(&self) -> bool {
        SwmrWriterPriority::is_quiescent(self)
    }
}

impl<B: Backend> SingleWriter for SwmrReaderPriority<B> {
    type Backend = B;

    fn is_quiescent(&self) -> bool {
        SwmrReaderPriority::is_quiescent(self)
    }
}

/// Proof of a held write lock: the inner write session `W` plus the `M`
/// token.
#[derive(Debug)]
#[must_use = "the write lock must be released with write_unlock"]
pub struct WriteToken<W, M: RawMutex> {
    session: W,
    mutex_token: M::Token,
}

/// Figure 3's transformation `T` over the single-writer lock `S`
/// ([`SwmrWriterPriority`] or [`SwmrReaderPriority`]) with the writers'
/// mutex `M`.
///
/// Use it through its aliases, which state what each instance guarantees:
/// [`MwmrStarvationFree`](super::MwmrStarvationFree) (Theorem 3) and
/// [`MwmrReaderPriority`](super::MwmrReaderPriority) (Theorem 4).
///
/// `M` defaults to [`AndersonLock`], the lock the paper names;
/// [`rmr_mutex::McsLock`] is a drop-in alternative exercised by the test
/// suite. `M` must be starvation free with a bounded doorway (the paper's
/// requirements on `M`); `mutex.capacity()`, if bounded, must be at least
/// `max_processes`.
pub struct Fig3<S, M = AndersonLock> {
    swmr: S,
    mutex: M,
    max_processes: usize,
}

impl<S: SingleWriter<Backend = Native>> Fig3<S> {
    /// Creates a lock for up to `max_processes` concurrently registered
    /// processes, using an [`AndersonLock`] sized accordingly as `M`.
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0`.
    pub fn new(max_processes: usize) -> Self {
        Self::with_mutex(AndersonLock::new(max_processes), max_processes)
    }
}

impl<S: SingleWriter> Fig3<S, AndersonLock<S::Backend>> {
    /// Creates a lock for up to `max_processes` processes over the given
    /// memory backend, with a matching-backend [`AndersonLock`] as `M` —
    /// the whole construction (inner lock *and* the mutex) is then
    /// measured when the backend is [`rmr_mutex::Counting`].
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0`.
    pub fn new_in(max_processes: usize, backend: S::Backend) -> Self {
        Self::with_mutex_in(AndersonLock::new_in(max_processes, backend), max_processes, backend)
    }
}

impl<S: SingleWriter<Backend = Native>, M: RawMutex> Fig3<S, M> {
    /// Creates the lock over a caller-supplied mutex `M` (see [`Fig3`] for
    /// the requirements on `M`).
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0` or exceeds the mutex capacity.
    pub fn with_mutex(mutex: M, max_processes: usize) -> Self {
        Self::with_mutex_in(mutex, max_processes, Native)
    }
}

impl<S: SingleWriter, M: RawMutex> Fig3<S, M> {
    /// Creates the lock over a caller-supplied mutex `M` and memory backend
    /// (same contract as [`Fig3::with_mutex`]; the mutex may use a
    /// different backend than the inner lock).
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0` or exceeds the mutex capacity.
    pub fn with_mutex_in(mutex: M, max_processes: usize, _backend: S::Backend) -> Self {
        super::assert_mutex_fits(&mutex, max_processes);
        Self { swmr: S::default(), mutex, max_processes }
    }

    /// The inner single-writer lock (for diagnostics and tests).
    pub fn inner(&self) -> &S {
        &self.swmr
    }

    /// True when the construction is at rest: the inner single-writer lock
    /// is quiescent (the mutex `M` offers no generic freeness query, but a
    /// held `M` implies a non-quiescent inner lock once the holder
    /// proceeds). Checker entry point asserted by `rmr-check` at teardown;
    /// only meaningful while no attempt is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.swmr.is_quiescent()
    }
}

// The passage methods are `#[inline]` under DESIGN.md §3's hot-path rule:
// without the hints, perfbench's partitions put SipHash out of line in the
// `kv-zipf` loop (EXPERIMENTS.md E19, "One Fig. 3").
impl<S: SingleWriter, M: RawMutex> RawRwLock for Fig3<S, M> {
    type ReadToken = S::ReadToken;
    type WriteToken = WriteToken<S::WriteToken, M>;

    /// `T` line 8: readers run the inner reader protocol unchanged.
    #[inline]
    fn read_lock(&self, pid: Pid) -> S::ReadToken {
        self.swmr.read_lock(pid)
    }

    /// `T` line 10.
    #[inline]
    fn read_unlock(&self, pid: Pid, token: S::ReadToken) {
        self.swmr.read_unlock(pid, token);
    }

    /// `T` lines 2–3: acquire `M`, then the inner writer try section.
    #[inline]
    fn write_lock(&self, pid: Pid) -> Self::WriteToken {
        let mutex_token = self.mutex.lock(); // line 2: acquire(M)
        let session = self.swmr.write_lock(pid); // line 3: SW-Write-try()
        WriteToken { session, mutex_token }
    }

    /// `T` lines 5–6: the inner writer exit, then release `M`.
    #[inline]
    fn write_unlock(&self, pid: Pid, token: Self::WriteToken) {
        self.swmr.write_unlock(pid, token.session); // line 5: SW-Write-exit()
        self.mutex.unlock(token.mutex_token); // line 6: release(M)
    }

    fn max_processes(&self) -> usize {
        self.max_processes
    }
}

// SAFETY: writers serialize through the mutex `M` before entering the
// inner single-writer protocol, so any number of concurrent write_lock
// callers are mutually excluded (Theorems 3 and 4).
unsafe impl<S: SingleWriter, M: RawMutex> RawMultiWriter for Fig3<S, M> {}

impl<S: fmt::Debug, M> fmt::Debug for Fig3<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fig3")
            .field("max_processes", &self.max_processes)
            .field("inner", &self.swmr)
            .finish()
    }
}

/// The unit-test bodies both aliases share; each alias's test module runs
/// them over [`AndersonLock`] and [`rmr_mutex::McsLock`].
#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::mwmr::{MwmrReaderPriority, MwmrStarvationFree};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    /// Fifty single-thread read then write passages, ending at rest.
    pub(in crate::mwmr) fn read_write_cycles<S: SingleWriter, M: RawMutex>(lock: Fig3<S, M>) {
        for _ in 0..50 {
            let r = lock.read_lock(pid(0));
            lock.read_unlock(pid(0), r);
            let w = lock.write_lock(pid(0));
            lock.write_unlock(pid(0), w);
        }
        assert!(lock.is_quiescent());
    }

    /// Two writers and four readers; no writer shares the CS with anyone.
    pub(in crate::mwmr) fn exclusion_stress<S, M>(lock: Fig3<S, M>)
    where
        S: SingleWriter + 'static,
        M: RawMutex + 'static,
    {
        let lock = Arc::new(lock);
        let readers_in = Arc::new(AtomicUsize::new(0));
        let writers_in = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..2 {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writers_in = Arc::clone(&writers_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let w = lock.write_lock(pid(i));
                    assert_eq!(writers_in.fetch_add(1, Ordering::SeqCst), 0, "two writers in CS");
                    assert_eq!(readers_in.load(Ordering::SeqCst), 0, "reader with writer in CS");
                    writers_in.fetch_sub(1, Ordering::SeqCst);
                    lock.write_unlock(pid(i), w);
                }
            }));
        }
        for i in 2..6 {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writers_in = Arc::clone(&writers_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let r = lock.read_lock(pid(i));
                    readers_in.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(writers_in.load(Ordering::SeqCst), 0, "writer with reader in CS");
                    readers_in.fetch_sub(1, Ordering::SeqCst);
                    lock.read_unlock(pid(i), r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_processes_panics() {
        let _ = MwmrReaderPriority::new(0);
    }

    #[test]
    #[should_panic(expected = "mutex capacity 2 below max_processes 4")]
    fn mutex_below_max_processes_panics() {
        let _ = MwmrStarvationFree::with_mutex(AndersonLock::new(2), 4);
    }
}
