//! Typed front end for the **single-writer** locks (Figures 1 and 2),
//! expressed as a thin wrapper over the unified guard module in
//! [`crate::rwlock`].
//!
//! Unlike the multi-writer [`RwLock`], the SWMR algorithms admit at most
//! one process in the writer role. This wrapper enforces that statically:
//! [`SwmrRwLock::split`] yields exactly one [`SwmrWriter`] plus a
//! [`SwmrReaders`] factory for reader handles, so a second concurrent
//! writer cannot be constructed without going through the multi-writer
//! transformation (which is what the paper does too).
//!
//! The guard types are plain aliases of the unified [`ReadGuard`] /
//! [`WriteGuard`] — there is no SWMR-specific guard machinery anymore.

use crate::raw::{RawRwLock, RawTryReadLock};
use crate::registry::{Pid, RegistryFull};
use crate::rwlock::{PidSource, ReadGuard, RwLock, WriteGuard};
use crate::swmr::reader_priority::SwmrReaderPriority;
use crate::swmr::writer_priority::SwmrWriterPriority;
use std::fmt;
use std::sync::Arc;

/// RAII shared access through a [`SwmrReader`] — an alias of the unified
/// guard.
pub type SwmrReadGuard<'a, T, P> = ReadGuard<'a, T, P>;
/// RAII exclusive access through the [`SwmrWriter`] — an alias of the
/// unified guard.
pub type SwmrWriteGuard<'a, T, P> = WriteGuard<'a, T, P>;

/// A typed single-writer multi-reader lock over the Figure 1 or Figure 2
/// algorithm.
///
/// [`split`](SwmrRwLock::split) consumes the constructor output and
/// produces the unique writer endpoint plus a cloneable reader factory.
///
/// # Example
///
/// ```
/// use rmr_core::swmr_rwlock::SwmrRwLock;
/// use rmr_core::swmr::SwmrWriterPriority;
///
/// let (mut writer, readers) =
///     SwmrRwLock::<u64, SwmrWriterPriority>::new(0, 4).split();
///
/// let mut r1 = readers.reader().unwrap();
/// let handle = std::thread::spawn(move || *r1.read());
///
/// *writer.write() += 7;
/// let seen = handle.join().unwrap();
/// assert!(seen == 0 || seen == 7);
/// assert_eq!(*writer.write(), 7);
/// ```
pub struct SwmrRwLock<T, P: RawRwLock> {
    shared: Arc<RwLock<T, P>>,
}

/// Figure 1 flavor: writer priority + starvation freedom (Theorem 1).
pub type WriterPrioritySwmr<T> = SwmrRwLock<T, SwmrWriterPriority>;
/// Figure 2 flavor: reader priority (Theorem 2).
pub type ReaderPrioritySwmr<T> = SwmrRwLock<T, SwmrReaderPriority>;

impl<T, P: RawRwLock + Default> SwmrRwLock<T, P> {
    /// Creates the lock for up to `max_readers` concurrent reader handles
    /// (plus the one writer).
    ///
    /// # Panics
    ///
    /// Panics if `max_readers == 0`.
    pub fn new(value: T, max_readers: usize) -> Self {
        assert!(max_readers > 0, "max_readers must be positive");
        Self {
            shared: Arc::new(RwLock::with_raw_and_capacity(value, P::default(), max_readers + 1)),
        }
    }
}

impl<T, P: RawRwLock> SwmrRwLock<T, P> {
    /// Splits into the unique writer endpoint and the reader factory.
    pub fn split(self) -> (SwmrWriter<T, P>, SwmrReaders<T, P>) {
        let writer_pid = self.shared.registry.allocate().expect("fresh registry");
        (
            SwmrWriter { shared: Arc::clone(&self.shared), pid: writer_pid },
            SwmrReaders { shared: self.shared },
        )
    }
}

impl<T, P: RawRwLock> fmt::Debug for SwmrRwLock<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrRwLock").finish_non_exhaustive()
    }
}

/// The unique writer endpoint of a [`SwmrRwLock`]. Not `Clone`.
pub struct SwmrWriter<T, P: RawRwLock> {
    shared: Arc<RwLock<T, P>>,
    pid: Pid,
}

impl<T, P: RawRwLock> SwmrWriter<T, P> {
    /// Acquires the write lock.
    pub fn write(&mut self) -> SwmrWriteGuard<'_, T, P> {
        let token = self.shared.raw.write_lock(self.pid);
        self.shared.write_guard(self.pid, PidSource::Handle, token)
    }
}

impl<T, P: RawRwLock> Drop for SwmrWriter<T, P> {
    fn drop(&mut self) {
        self.shared.registry.release(self.pid);
    }
}

impl<T, P: RawRwLock> fmt::Debug for SwmrWriter<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrWriter").field("pid", &self.pid).finish()
    }
}

/// Factory for reader handles of a [`SwmrRwLock`]. Cloneable and `Send`.
pub struct SwmrReaders<T, P: RawRwLock> {
    shared: Arc<RwLock<T, P>>,
}

impl<T, P: RawRwLock> Clone for SwmrReaders<T, P> {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T, P: RawRwLock> SwmrReaders<T, P> {
    /// Registers one reader.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] when `max_readers` handles are live.
    pub fn reader(&self) -> Result<SwmrReader<T, P>, RegistryFull> {
        let pid = self.shared.registry.allocate()?;
        Ok(SwmrReader { shared: Arc::clone(&self.shared), pid })
    }
}

impl<T, P: RawRwLock> fmt::Debug for SwmrReaders<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrReaders").finish_non_exhaustive()
    }
}

/// One registered reader of a [`SwmrRwLock`].
pub struct SwmrReader<T, P: RawRwLock> {
    shared: Arc<RwLock<T, P>>,
    pid: Pid,
}

impl<T, P: RawRwLock> SwmrReader<T, P> {
    /// Acquires the read lock.
    pub fn read(&mut self) -> SwmrReadGuard<'_, T, P> {
        let token = self.shared.raw.read_lock(self.pid);
        self.shared.read_guard(self.pid, PidSource::Handle, token)
    }
}

impl<T, P: RawTryReadLock> SwmrReader<T, P> {
    /// Attempts to acquire the read lock without blocking (both SWMR
    /// algorithms have abortable reader try sections).
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::swmr::SwmrWriterPriority;
    /// use rmr_core::swmr_rwlock::SwmrRwLock;
    ///
    /// let (mut w, readers) = SwmrRwLock::<u8, SwmrWriterPriority>::new(0, 2).split();
    /// let mut r = readers.reader().unwrap();
    ///
    /// let g = w.write();
    /// assert!(r.try_read().is_none(), "writer holds the lock");
    /// drop(g);
    /// assert_eq!(*r.try_read().expect("writer gone"), 0);
    /// ```
    pub fn try_read(&mut self) -> Option<SwmrReadGuard<'_, T, P>> {
        let token = self.shared.raw.try_read_lock(self.pid)?;
        Some(self.shared.read_guard(self.pid, PidSource::Handle, token))
    }
}

impl<T, P: RawRwLock> Drop for SwmrReader<T, P> {
    fn drop(&mut self) {
        self.shared.registry.release(self.pid);
    }
}

impl<T, P: RawRwLock> fmt::Debug for SwmrReader<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrReader").field("pid", &self.pid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn split_gives_one_writer_many_readers() {
        let (mut w, readers) = WriterPrioritySwmr::new(vec![1u8], 3).split();
        let mut r1 = readers.reader().unwrap();
        let mut r2 = readers.reader().unwrap();
        let mut r3 = readers.reader().unwrap();
        assert!(readers.reader().is_err(), "capacity is max_readers");
        assert_eq!(r1.read().len(), 1);
        w.write().push(2);
        assert_eq!(*r2.read(), vec![1, 2]);
        assert_eq!(*r3.read(), vec![1, 2]);
    }

    #[test]
    fn reader_slots_recycle() {
        let (_w, readers) = ReaderPrioritySwmr::new(0u8, 1).split();
        for _ in 0..5 {
            let mut r = readers.reader().unwrap();
            let _ = *r.read();
        }
    }

    #[test]
    fn try_read_is_denied_while_writer_holds() {
        let (mut w, readers) = WriterPrioritySwmr::new(0u32, 2).split();
        let mut r = readers.reader().unwrap();
        assert!(r.try_read().is_some(), "no writer yet");
        let g = w.write();
        assert!(r.try_read().is_none(), "must not block or enter");
        drop(g);
        assert!(r.try_read().is_some());

        let (mut w, readers) = ReaderPrioritySwmr::new(0u32, 2).split();
        let mut r = readers.reader().unwrap();
        let g = w.write();
        assert!(r.try_read().is_none(), "must not block or enter");
        drop(g);
        assert!(r.try_read().is_some());
    }

    #[test]
    fn concurrent_stress_both_policies() {
        fn stress<P: RawRwLock + Default + 'static>() {
            let (mut w, readers) = SwmrRwLock::<u64, P>::new(0, 4).split();
            let stop = Arc::new(AtomicBool::new(false));
            let overlap = Arc::new(AtomicUsize::new(0));
            let mut threads = Vec::new();
            for _ in 0..3 {
                let readers = readers.clone();
                let stop = Arc::clone(&stop);
                let overlap = Arc::clone(&overlap);
                threads.push(std::thread::spawn(move || {
                    let mut r = readers.reader().unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let g = r.read();
                        overlap.fetch_add(1, Ordering::Relaxed);
                        std::hint::black_box(*g);
                        overlap.fetch_sub(1, Ordering::Relaxed);
                    }
                }));
            }
            for _ in 0..200 {
                let mut g = w.write();
                assert_eq!(overlap.load(Ordering::Relaxed), 0, "reader overlapped a write session");
                *g += 1;
            }
            stop.store(true, Ordering::Relaxed);
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(*w.write(), 200);
        }
        stress::<SwmrWriterPriority>();
        stress::<SwmrReaderPriority>();
    }
}
