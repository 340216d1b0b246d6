//! The unified typed, RAII-guarded front end over the raw locks.
//!
//! One guard machinery serves every lock in the workspace — the paper's
//! three multi-writer policies, the two single-writer algorithms (through
//! [`crate::swmr_rwlock`], which is a thin wrapper over this module), and
//! the baselines in `rmr-baselines`.
//!
//! Two ways to use a [`RwLock`]:
//!
//! * **Leased pids (ergonomic default).** Call [`RwLock::read`] /
//!   [`RwLock::write`] directly, like `std::sync::RwLock`. The first
//!   acquisition on a thread leases a [`Pid`] from the lock's
//!   [`PidRegistry`]; the lease is cached in thread-local storage, reused
//!   by every later acquisition on that thread, and returned automatically
//!   when the thread exits.
//! * **Pinned pids (explicit control).** Call [`RwLock::register`] once
//!   per participant to obtain a [`LockHandle`] that owns its pid until
//!   dropped. Guard-taking methods borrow the handle mutably, which
//!   enforces the paper's "one attempt at a time per process" discipline
//!   at compile time. Use this when pid identity matters (e.g. pinning
//!   pids to cores) or when registration failure must be handled as a
//!   `Result` rather than a panic.
//!
//! Where the raw lock supports the non-blocking tier
//! ([`RawTryReadLock`] / [`RawTryRwLock`]), the front end additionally
//! exposes [`RwLock::try_read`] / [`RwLock::try_write`].

use crate::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use crate::observed::Observed;
use crate::raw::{RawMultiWriter, RawRwLock, RawTryReadLock, RawTryRwLock};
use crate::registry::{Pid, PidRegistry, RegistryFull};
use rmr_obs::{NoopRecorder, Recorder};
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------
// Thread-local pid leasing
// ---------------------------------------------------------------------

/// One cached lease: this thread holds `pid` of the registry behind `reg`.
///
/// `busy` is set while a leased guard is open, so a nested acquisition on
/// the same thread takes a distinct (transient) pid instead of reusing one
/// that is mid-attempt — reusing it would violate the raw contract's "one
/// attempt at a time per process".
struct LeaseEntry {
    /// Pins the registry's allocation, so no other registry can take this
    /// entry's key (the registry's address) while the entry exists.
    reg: Weak<PidRegistry>,
    pid: Pid,
    busy: bool,
}

/// One-multiply hasher for registry addresses (the table's only key).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = n as u64;
    }

    fn finish(&self) -> u64 {
        // The multiply carries the address bits upward; the rotation brings
        // the well-mixed high half down to the low bits the table indexes
        // by (aligned addresses share their low bits).
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26)
    }
}

/// The sweep threshold's floor: a table this small is never swept.
const SWEEP_MIN: usize = 32;

/// Per-thread lease table, keyed by the registry's `Arc` address, so a
/// lease and its release cost O(1) however many registries the thread has
/// touched. Dropped at thread exit, returning every still-live pid to its
/// registry.
struct LeaseTable {
    /// One lease kept out of the map and checked first, so a thread
    /// working one lock never hashes: the first lease taken while it was
    /// empty or its lock gone.
    front: Option<(usize, LeaseEntry)>,
    map: HashMap<usize, LeaseEntry, BuildHasherDefault<AddrHasher>>,
    /// Sweep dead entries once the map holds this many — see
    /// [`LeaseTable::sweep`].
    sweep_at: usize,
}

impl LeaseTable {
    fn new() -> Self {
        Self {
            front: None,
            map: HashMap::with_hasher(BuildHasherDefault::new()),
            sweep_at: SWEEP_MIN,
        }
    }

    #[inline]
    fn get_mut(&mut self, key: usize) -> Option<&mut LeaseEntry> {
        count_probes(1);
        match &mut self.front {
            Some((k, entry)) if *k == key => Some(entry),
            _ => self.map.get_mut(&key),
        }
    }

    /// The common case: this thread's idle lease on the registry at `key`,
    /// marked busy. `None` on a miss or a busy lease, which
    /// [`LeaseTable::lease_slow`] handles out of line.
    #[inline]
    fn take_idle(&mut self, key: usize) -> Option<Pid> {
        let entry = self.get_mut(key)?;
        if entry.busy {
            return None;
        }
        entry.busy = true;
        Some(entry.pid)
    }

    /// A lease [`LeaseTable::take_idle`] could not hand out: a nested
    /// acquisition (the lease is busy) or this thread's first acquisition
    /// against the registry.
    #[cold]
    #[inline(never)]
    fn lease_slow(
        &mut self,
        registry: &Arc<PidRegistry>,
    ) -> Result<(Pid, PidSource), RegistryFull> {
        let key = Arc::as_ptr(registry) as usize;
        if self.get_mut(key).is_some() {
            // Nested acquisition: the cached pid is mid-attempt.
            return transient_pid(registry);
        }
        if self.map.len() >= self.sweep_at {
            self.sweep();
        }
        let pid = registry.allocate()?;
        let entry = LeaseEntry { reg: Arc::downgrade(registry), pid, busy: true };
        match &self.front {
            Some((_, front)) if front.reg.strong_count() > 0 => {
                self.map.insert(key, entry);
            }
            // A dead front entry has nothing left to release.
            _ => self.front = Some((key, entry)),
        }
        Ok((pid, PidSource::Lease))
    }

    /// Drops every map entry whose lock is gone. (A dead entry may still
    /// be busy — its guard was leaked — but nothing can release it any
    /// more.)
    ///
    /// A sweep walks the map's whole capacity, which never shrinks, so the
    /// next sweep waits until the map has doubled what this one left *and*
    /// filled that capacity: each sweep is paid for by at least half as
    /// many new leases as it walks.
    fn sweep(&mut self) {
        count_probes(self.map.capacity() as u64);
        self.map.retain(|_, e| e.reg.strong_count() > 0);
        self.sweep_at = (2 * self.map.len()).max(SWEEP_MIN).max(self.map.capacity());
    }

    #[inline]
    fn unbusy(&mut self, key: usize, pid: Pid) {
        // A source from another thread (the public API lets one cross
        // threads) may meet a different lease of ours on the same
        // registry; only the lease that issued `pid` is cleared.
        if let Some(entry) = self.get_mut(key) {
            if entry.pid == pid {
                entry.busy = false;
            }
        }
    }
}

impl Drop for LeaseTable {
    fn drop(&mut self) {
        for entry in self.front.iter().map(|(_, e)| e).chain(self.map.values()) {
            // A still-busy lease means its guard was leaked (mem::forget):
            // the raw lock session for that pid is still open, so the pid
            // must stay reserved forever rather than be re-issued into the
            // middle of an unfinished attempt.
            if entry.busy {
                continue;
            }
            // A dead Weak means the lock (and its registry) is already
            // gone; nothing to return.
            if let Some(reg) = entry.reg.upgrade() {
                reg.release(entry.pid);
            }
        }
    }
}

thread_local! {
    static LEASES: RefCell<LeaseTable> = RefCell::new(LeaseTable::new());
}

#[cfg(test)]
thread_local! {
    static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts lease-table lookups and swept entries, for the probe-count
/// tests; compiles to nothing outside this crate's tests.
#[inline(always)]
fn count_probes(_n: u64) {
    #[cfg(test)]
    PROBES.with(|p| p.set(p.get() + _n));
}

/// Lease-table probes the calling thread has made so far, across
/// [`lease_pid`], [`release_pid`] and the dead-entry sweeps.
#[cfg(test)]
fn lease_probes() -> u64 {
    PROBES.with(std::cell::Cell::get)
}

/// The calling thread's lease table: (map capacity, entries whose lock is
/// still alive).
#[cfg(test)]
fn lease_table_size() -> (usize, usize) {
    LEASES.with(|t| {
        let t = t.borrow();
        let entries = t.front.iter().map(|(_, e)| e).chain(t.map.values());
        let live = entries.filter(|e| e.reg.strong_count() > 0).count();
        (t.map.capacity(), live)
    })
}

/// A pid for this guard alone, returned on its release: for a nested
/// acquisition, or once the thread's lease table is gone.
#[cold]
#[inline(never)]
fn transient_pid(registry: &PidRegistry) -> Result<(Pid, PidSource), RegistryFull> {
    registry.allocate().map(|pid| (pid, PidSource::Transient))
}

/// How a guard came by its pid; decides what its release must undo.
///
/// Returned by [`lease_pid`] and consumed by [`release_pid`]. Mostly an
/// internal detail of the guard machinery, but public so other tiers that
/// borrow a pid per passage (the `rmr-swap` snapshot guards) can share the
/// same thread-local lease cache instead of duplicating it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PidSource {
    /// Owned by a [`LockHandle`]; the handle releases it.
    Handle,
    /// The thread's cached lease; clear the busy flag on drop.
    Lease,
    /// Allocated just for this (nested) guard; return it on drop.
    Transient,
}

/// Leases a pid from `registry` for the calling thread: the thread's
/// cached lease if it is free, a transient pid if the lease is mid-attempt
/// (a nested guard), a fresh cached lease otherwise.
///
/// This is the leasing engine behind [`RwLock::read`] / [`RwLock::write`],
/// exposed so sibling tiers (e.g. `rmr-swap`'s `Snapshot::load`) can
/// participate in the same per-thread cache. Every successful call must be
/// paired with exactly one [`release_pid`] with the returned source, on the
/// same thread.
///
/// Costs O(1) whatever the number of registries the thread holds leases
/// on: one address compare, else one hash lookup keyed by the registry's
/// address. Inlined into the caller's passage (dependents build without
/// LTO); everything but an idle cached lease is the cold `lease_miss`.
#[inline]
pub fn lease_pid(registry: &Arc<PidRegistry>) -> Result<(Pid, PidSource), RegistryFull> {
    let key = Arc::as_ptr(registry) as usize;
    match LEASES.try_with(|table| table.borrow_mut().take_idle(key)) {
        Ok(Some(pid)) => Ok((pid, PidSource::Lease)),
        _ => lease_miss(registry),
    }
}

/// A lease [`lease_pid`]'s fast path could not hand out: see
/// [`LeaseTable::lease_slow`].
#[cold]
#[inline(never)]
fn lease_miss(registry: &Arc<PidRegistry>) -> Result<(Pid, PidSource), RegistryFull> {
    LEASES
        .try_with(|table| table.borrow_mut().lease_slow(registry))
        // During thread teardown the lease table may already be destroyed
        // (acquiring from another thread_local's destructor, which
        // std::sync::RwLock supports). Fall back to a transient pid —
        // matching the try_with tolerance on the release side.
        .unwrap_or_else(|_destroyed| transient_pid(registry))
}

/// Releases whatever hold `source` has on `pid`: the inverse of
/// [`lease_pid`] (guard drops and failed try-acquires share this), at the
/// same O(1) cost. Inlined, like [`lease_pid`].
#[inline]
pub fn release_pid(registry: &Arc<PidRegistry>, pid: Pid, source: PidSource) {
    match source {
        PidSource::Handle => {}
        PidSource::Transient => registry.release(pid),
        PidSource::Lease => {
            let key = Arc::as_ptr(registry) as usize;
            let cleared = LEASES.try_with(|table| {
                if let Ok(mut table) = table.try_borrow_mut() {
                    table.unbusy(key, pid);
                }
            });
            // During thread teardown the table may already be destroyed.
            // Its Drop deliberately *skipped* this pid (the guard was
            // still open, busy = true), so the guard must return it to
            // the registry itself or the slot would leak; no double
            // release is possible for the same reason.
            if cleared.is_err() {
                registry.release(pid);
            }
        }
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader-writer lock protecting a value of type `T`, generic over the
/// raw lock policy `L`.
///
/// Use the policy-named constructors:
/// [`RwLock::starvation_free`] (Theorem 3), [`RwLock::reader_priority`]
/// (Theorem 4), [`RwLock::writer_priority`] (Theorem 5) — or
/// [`RwLock::with_raw`] for any other [`RawRwLock`] (e.g. the baselines in
/// `rmr-baselines`).
///
/// # Example
///
/// No registration ceremony — threads acquire directly and pids are leased
/// behind the scenes:
///
/// ```
/// use rmr_core::RwLock;
/// use std::sync::Arc;
///
/// let lock = Arc::new(RwLock::starvation_free(0u64, 4));
/// let mut threads = Vec::new();
/// for _ in 0..4 {
///     let lock = Arc::clone(&lock);
///     threads.push(std::thread::spawn(move || {
///         for _ in 0..100 {
///             *lock.write() += 1;
///             let _sum = *lock.read();
///         }
///     }));
/// }
/// for t in threads {
///     t.join().unwrap();
/// }
/// assert_eq!(*lock.read(), 400);
/// ```
///
/// # Observability
///
/// The third type parameter is an `rmr-obs` [`Recorder`], defaulted to
/// [`NoopRecorder`]. The lock holds its raw lock as an
/// [`Observed<L, R>`](Observed), and every passage (leased or handle,
/// blocking or try, and each guard's release) goes through that
/// wrapper's hooks: this type has none of its own. With the default
/// recorder they const-fold away, so the default lock is bit-identical
/// to the uninstrumented one (the `Counting` backend proves it op for op
/// in `observed::tests::noop_recorder_footprint_is_identical_op_for_op`).
/// [`RwLock::with_recorder`] swaps in a live recorder — typically an
/// `Arc<StatsRecorder>` — and every passage is then counted and
/// classified contended/uncontended, and 1 in `rmr_obs::SAMPLE_PERIOD`
/// per pid is latency-histogrammed. A count is the owner thread's plain
/// store to the pid's recorder slot, or a `fetch_add` from any other
/// thread that records for that pid.
pub struct RwLock<T: ?Sized, L, R = NoopRecorder> {
    pub(crate) raw: Observed<L, R>,
    pub(crate) registry: Arc<PidRegistry>,
    // Must stay the last field: `T: ?Sized` requires the unsized field in
    // tail position.
    pub(crate) data: UnsafeCell<T>,
}

// SAFETY: the raw lock guarantees that a `&mut T` (through WriteGuard) never
// coexists with any other access, and `&T` (ReadGuard) only coexists with
// other `&T`. Sending the lock additionally moves the value. (`Recorder`
// already implies `Send + Sync`.)
unsafe impl<T: ?Sized + Send, L: RawRwLock, R: Recorder> Send for RwLock<T, L, R> {}
unsafe impl<T: ?Sized + Send + Sync, L: RawRwLock, R: Recorder> Sync for RwLock<T, L, R> {}

/// [`RwLock`] over the no-priority, starvation-free policy (Theorem 3).
pub type StarvationFreeRwLock<T> = RwLock<T, MwmrStarvationFree>;
/// [`RwLock`] over the reader-priority policy (Theorem 4).
pub type ReaderPriorityRwLock<T> = RwLock<T, MwmrReaderPriority>;
/// [`RwLock`] over the writer-priority policy (Theorem 5).
pub type WriterPriorityRwLock<T> = RwLock<T, MwmrWriterPriority>;

impl<T> RwLock<T, MwmrStarvationFree> {
    /// Creates a starvation-free (no-priority) lock for up to
    /// `max_processes` concurrent threads.
    pub fn starvation_free(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrStarvationFree::new(max_processes))
    }
}

impl<T> RwLock<T, MwmrReaderPriority> {
    /// Creates a reader-priority lock for up to `max_processes` concurrent
    /// threads. Writers may starve under continuous read traffic.
    pub fn reader_priority(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrReaderPriority::new(max_processes))
    }
}

impl<T> RwLock<T, MwmrWriterPriority> {
    /// Creates a writer-priority lock for up to `max_processes` concurrent
    /// threads. Readers may starve under continuous write traffic.
    pub fn writer_priority(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrWriterPriority::new(max_processes))
    }
}

impl<T, L: RawRwLock> RwLock<T, L> {
    /// Wraps `value` behind an arbitrary raw lock, sizing the pid registry
    /// to `raw.max_processes()`.
    ///
    /// # Panics
    ///
    /// Panics if the raw lock reports an unbounded process count
    /// (`usize::MAX`) — use [`RwLock::with_raw_and_capacity`] for those.
    pub fn with_raw(value: T, raw: L) -> Self {
        let cap = raw.max_processes();
        assert!(cap != usize::MAX, "raw lock has no process bound; use with_raw_and_capacity");
        Self::with_raw_and_capacity(value, raw, cap)
    }

    /// Wraps `value` behind `raw` with an explicit pid capacity — for raw
    /// locks with no per-process state (e.g. the single-writer algorithms,
    /// whose `max_processes()` is unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0, exceeds `u32::MAX`, or exceeds
    /// `raw.max_processes()`.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::swmr::SwmrReaderPriority;
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::with_raw_and_capacity(7u32, SwmrReaderPriority::new(), 2);
    /// assert_eq!(*lock.read(), 7);
    /// ```
    pub fn with_raw_and_capacity(value: T, raw: L, capacity: usize) -> Self {
        assert!(
            capacity <= raw.max_processes(),
            "capacity {capacity} exceeds the raw lock's bound {}",
            raw.max_processes()
        );
        Self {
            raw: Observed::new(raw, NoopRecorder),
            registry: Arc::new(PidRegistry::new(capacity)),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawRwLock, R: Recorder> RwLock<T, L, R> {
    /// Replaces the lock's recorder, re-typing the lock: the raw lock is
    /// re-wrapped as `Observed<L, R2>`, so every subsequent passage
    /// (leased or handle, blocking or try) reports to `recorder`.
    ///
    /// Builder-style, because the recorder is a *type* parameter — that is
    /// what lets the disabled hooks const-fold to nothing instead of
    /// costing a runtime branch.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    /// use rmr_obs::{Event, StatsRecorder};
    /// use std::sync::Arc;
    ///
    /// let rec = Arc::new(StatsRecorder::new(4));
    /// let lock = RwLock::starvation_free(0u32, 4).with_recorder(Arc::clone(&rec));
    /// *lock.write() += 1;
    /// assert_eq!(rec.counter(Event::WriteAcquire), 1);
    /// assert_eq!(rec.counter(Event::WriteRelease), 1);
    /// ```
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> RwLock<T, L, R2> {
        let (raw, _) = self.raw.into_parts();
        RwLock { raw: Observed::new(raw, recorder), registry: self.registry, data: self.data }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> RwLock<T, L, R> {
    /// Registers the calling context as a participating process with a
    /// pinned pid.
    ///
    /// The handle owns a [`Pid`] until dropped. Registration is not on the
    /// lock fast path; keep the handle around rather than re-registering
    /// per operation. Prefer the plain [`RwLock::read`] / [`RwLock::write`]
    /// (which lease a pid per thread) unless you need explicit pid control
    /// or `Result`-based capacity handling.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] if `capacity` pids are live.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::writer_priority(vec![1u8], 2);
    /// let mut handle = lock.register()?;
    /// handle.write().push(2);
    /// assert_eq!(*handle.read(), vec![1, 2]);
    /// # Ok::<(), rmr_core::RegistryFull>(())
    /// ```
    pub fn register(&self) -> Result<LockHandle<'_, T, L, R>, RegistryFull> {
        let pid = self.registry.allocate()?;
        Ok(LockHandle { lock: self, pid })
    }

    /// Acquires the lock for reading with this thread's leased pid,
    /// blocking (spinning) until granted.
    ///
    /// The first acquisition on a thread leases a pid from the registry;
    /// the lease is cached and returned when the thread exits. Nested
    /// acquisitions on the same thread (a second guard while one is open)
    /// lease an extra pid for the inner guard, so nesting never violates
    /// the raw locks' "one attempt at a time per pid" contract.
    ///
    /// # Deadlock
    ///
    /// Nesting carries `std::sync::RwLock`'s deadlock semantics,
    /// policy-sharpened: a nested *read* deadlocks if a writer is already
    /// waiting — under the starvation-free policy (FIFO doorway) and
    /// especially the writer-priority policy (WP1 makes the waiting writer
    /// overtake the inner reader, which in turn can never drain while the
    /// outer guard is held), so a reentrant read on a writer-priority lock
    /// self-deadlocks whenever a reload is pending. Only the
    /// reader-priority policy is immune (RP1 lets the inner reader
    /// overtake the waiting writer). "Waiting" is not only a blocked
    /// thread: since the doorway redesign, a parked `write().await`
    /// future on the same raw lock holds a tokened queue position
    /// ([`RawParkedWaiters`](crate::raw::RawParkedWaiters), `QUEUED`
    /// doorways) that closes the reader admission path exactly like a
    /// blocked writer — a nested read can therefore deadlock against a
    /// suspended *future*, though dropping that future revokes its
    /// position and unwedges the reader. A nested *write* while holding
    /// any guard on the same thread always deadlocks. Avoid holding a
    /// guard across calls that may re-acquire — or, for read-mostly data
    /// where reentrant reads are structural, use `rmr-swap`'s `Snapshot`,
    /// whose wait-free `load` never blocks and is safely reentrant.
    ///
    /// # Panics
    ///
    /// Panics if the registry is exhausted (more concurrent threads than
    /// the lock's capacity). Use [`RwLock::register`] or
    /// [`RwLock::try_read`] for non-panicking capacity handling.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(String::from("hi"), 2);
    /// assert_eq!(lock.read().len(), 2);
    /// ```
    #[inline]
    pub fn read(&self) -> ReadGuard<'_, T, L, R> {
        let (pid, source) =
            lease_pid(&self.registry).unwrap_or_else(|e| panic!("{}", lease_panic(e)));
        let token = self.raw.read_lock(pid);
        self.read_guard(pid, source, token)
    }

    /// Runs `f` with shared access (convenience over [`RwLock::read`]).
    pub fn read_with<U>(&self, f: impl FnOnce(&T) -> U) -> U {
        f(&self.read())
    }

    /// Mutable access without locking — safe because `&mut self` proves
    /// exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying raw lock.
    pub fn raw(&self) -> &L {
        self.raw.inner()
    }

    /// The lock's recorder (the default is the inert [`NoopRecorder`]).
    pub fn recorder(&self) -> &R {
        self.raw.recorder()
    }

    /// Number of threads that may participate simultaneously.
    pub fn max_processes(&self) -> usize {
        self.registry.capacity()
    }

    /// Number of pids currently leased or registered (approximate under
    /// concurrency). Checker entry point: after every participating thread
    /// has exited, this must be zero — thread-local leases are reclaimed
    /// at thread exit — which the real-code checker (`rmr-check`) and the
    /// registry tests assert.
    pub fn registered(&self) -> usize {
        self.registry.allocated()
    }

    pub(crate) fn read_guard(
        &self,
        pid: Pid,
        source: PidSource,
        token: L::ReadToken,
    ) -> ReadGuard<'_, T, L, R> {
        ReadGuard { lock: self, pid, source, token: Some(token), _not_send: PhantomData }
    }

    pub(crate) fn write_guard(
        &self,
        pid: Pid,
        source: PidSource,
        token: L::WriteToken,
    ) -> WriteGuard<'_, T, L, R> {
        WriteGuard { lock: self, pid, source, token: Some(token), _not_send: PhantomData }
    }
}

impl<T: ?Sized, L: RawMultiWriter, R: Recorder> RwLock<T, L, R> {
    /// Acquires the lock for writing with this thread's leased pid,
    /// blocking (spinning) until granted. See [`RwLock::read`] for the
    /// leasing rules.
    ///
    /// Only available where the raw lock is a [`RawMultiWriter`]: handing
    /// out `&mut T` from arbitrary threads relies on writer-writer
    /// exclusion, which the single-writer algorithms (Figures 1–2) do not
    /// provide — use their [`SwmrWriter`](crate::swmr_rwlock::SwmrWriter)
    /// endpoint instead.
    ///
    /// # Deadlock
    ///
    /// A nested `write` while this thread holds *any* guard on the same
    /// lock always deadlocks, under every policy: the writer's entry waits
    /// for the critical section to drain, and the outer guard never will.
    /// The same holds against parked asynchronous state: blocking here
    /// while a `write().await` future on the same raw lock sits suspended
    /// with its doorway token
    /// ([`RawParkedWaiters`](crate::raw::RawParkedWaiters)) deadlocks if
    /// nothing ever polls or drops that future — the token is a real
    /// queue position, not a lazy retry, and only its revocation
    /// (dropping the future) or its grant clears it. See [`RwLock::read`]
    /// for the full nesting matrix.
    ///
    /// # Panics
    ///
    /// Panics if the registry is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::reader_priority(0u32, 2);
    /// *lock.write() += 5;
    /// assert_eq!(*lock.read(), 5);
    /// ```
    pub fn write(&self) -> WriteGuard<'_, T, L, R> {
        let (pid, source) =
            lease_pid(&self.registry).unwrap_or_else(|e| panic!("{}", lease_panic(e)));
        let token = self.raw.write_lock(pid);
        self.write_guard(pid, source, token)
    }

    /// Runs `f` with exclusive access (convenience over [`RwLock::write`]).
    pub fn write_with<U>(&self, f: impl FnOnce(&mut T) -> U) -> U {
        f(&mut self.write())
    }
}

fn lease_panic(e: RegistryFull) -> String {
    format!(
        "cannot lease a pid: {e}; raise the lock's capacity, or use register()/try_read()/\
         try_write() to handle exhaustion without panicking"
    )
}

impl<T: ?Sized, L: RawTryReadLock, R: Recorder> RwLock<T, L, R> {
    /// Attempts to acquire the lock for reading without blocking, with this
    /// thread's leased pid.
    ///
    /// Returns `None` if the raw lock denied the bounded attempt (a writer
    /// holds or is entering the critical section) **or** the pid registry
    /// is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(3u32, 2);
    /// let g = lock.try_read().expect("no writer active");
    /// assert_eq!(*g, 3);
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_read(&self) -> Option<ReadGuard<'_, T, L, R>> {
        let (pid, source) = lease_pid(&self.registry).ok()?;
        match self.raw.try_read_lock(pid) {
            Some(token) => Some(self.read_guard(pid, source, token)),
            None => {
                release_pid(&self.registry, pid, source);
                None
            }
        }
    }
}

impl<T: ?Sized, L: RawTryRwLock + RawMultiWriter, R: Recorder> RwLock<T, L, R> {
    /// Attempts to acquire the lock for writing without blocking, with this
    /// thread's leased pid.
    ///
    /// Returns `None` if the raw lock denied the bounded attempt or the pid
    /// registry is exhausted. Only available where the raw lock implements
    /// [`RawTryRwLock`] — the paper's core locks do not (their writer
    /// doorway cannot be revoked), the baselines do.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_baselines::StdRwLock;
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::with_raw(0u32, StdRwLock::new(2));
    /// *lock.try_write().expect("uncontended") += 1;
    /// assert_eq!(*lock.read(), 1);
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_write(&self) -> Option<WriteGuard<'_, T, L, R>> {
        let (pid, source) = lease_pid(&self.registry).ok()?;
        match self.raw.try_write_lock(pid) {
            Some(token) => Some(self.write_guard(pid, source, token)),
            None => {
                release_pid(&self.registry, pid, source);
                None
            }
        }
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for RwLock<T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does not read `data` (would need the lock).
        f.debug_struct("RwLock")
            .field("max_processes", &self.max_processes())
            .field("registered", &self.registry.allocated())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// LockHandle — the pinned-pid path
// ---------------------------------------------------------------------

/// A registered participant of an [`RwLock`]; owns a [`Pid`].
///
/// Guard-taking methods borrow the handle mutably: one attempt at a time
/// per process, enforced at compile time.
pub struct LockHandle<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
}

impl<'l, T: ?Sized, L: RawRwLock, R: Recorder> LockHandle<'l, T, L, R> {
    /// The pid this handle registered.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Acquires the lock for reading.
    pub fn read(&mut self) -> ReadGuard<'_, T, L, R> {
        let token = self.lock.raw.read_lock(self.pid);
        self.lock.read_guard(self.pid, PidSource::Handle, token)
    }

    /// Runs `f` with shared access (convenience over [`Self::read`]).
    pub fn read_with<U>(&mut self, f: impl FnOnce(&T) -> U) -> U {
        f(&self.read())
    }
}

impl<'l, T: ?Sized, L: RawMultiWriter, R: Recorder> LockHandle<'l, T, L, R> {
    /// Acquires the lock for writing.
    ///
    /// Requires [`RawMultiWriter`]: any number of handles may exist, so
    /// `&mut T` safety needs writer-writer exclusion from the raw lock
    /// (the single-writer algorithms go through
    /// [`SwmrWriter`](crate::swmr_rwlock::SwmrWriter) instead).
    pub fn write(&mut self) -> WriteGuard<'_, T, L, R> {
        let token = self.lock.raw.write_lock(self.pid);
        self.lock.write_guard(self.pid, PidSource::Handle, token)
    }

    /// Runs `f` with exclusive access (convenience over [`Self::write`]).
    pub fn write_with<U>(&mut self, f: impl FnOnce(&mut T) -> U) -> U {
        f(&mut self.write())
    }
}

impl<'l, T: ?Sized, L: RawTryReadLock, R: Recorder> LockHandle<'l, T, L, R> {
    /// Attempts to acquire the lock for reading without blocking.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(1u8, 2);
    /// let mut h = lock.register()?;
    /// assert_eq!(*h.try_read().expect("no writer"), 1);
    /// # Ok::<(), rmr_core::RegistryFull>(())
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_read(&mut self) -> Option<ReadGuard<'_, T, L, R>> {
        let token = self.lock.raw.try_read_lock(self.pid)?;
        Some(self.lock.read_guard(self.pid, PidSource::Handle, token))
    }
}

impl<'l, T: ?Sized, L: RawTryRwLock + RawMultiWriter, R: Recorder> LockHandle<'l, T, L, R> {
    /// Attempts to acquire the lock for writing without blocking.
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_write(&mut self) -> Option<WriteGuard<'_, T, L, R>> {
        let token = self.lock.raw.try_write_lock(self.pid)?;
        Some(self.lock.write_guard(self.pid, PidSource::Handle, token))
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for LockHandle<'_, T, L, R> {
    fn drop(&mut self) {
        self.lock.registry.release(self.pid);
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for LockHandle<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockHandle").field("pid", &self.pid).finish()
    }
}

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/// RAII shared access to the protected value; released on drop
/// (bounded exit: the unlock path performs O(1) steps).
///
/// Not `Send`: the guard's pid belongs to the acquiring thread (leases are
/// thread-cached, and several raw unlock paths — e.g. Figure 2's `Promote`
/// — stamp the pid into shared CAS variables, so unlocking from a thread
/// that may concurrently reuse the pid would break the raw contract).
#[must_use = "dropping the guard immediately releases the read lock"]
pub struct ReadGuard<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
    source: PidSource,
    token: Option<L::ReadToken>,
    /// Suppresses the auto `Send`/`Sync` impls; `Sync` is re-added below.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared reference to the guard only exposes `&T` (plus pid
// metadata); the token is touched solely through `&mut`/drop.
unsafe impl<T: ?Sized + Sync, L: RawRwLock, R: Recorder> Sync for ReadGuard<'_, T, L, R> {}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Deref for ReadGuard<'_, T, L, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the raw lock admits no writer while this read session is
        // open, so shared access is sound.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for ReadGuard<'_, T, L, R> {
    #[inline]
    fn drop(&mut self) {
        let token = self.token.take().expect("read token taken twice");
        self.lock.raw.read_unlock(self.pid, token);
        release_pid(&self.lock.registry, self.pid, self.source);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for ReadGuard<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ReadGuard").field(&&**self).finish()
    }
}

/// RAII exclusive access to the protected value; released on drop
/// (bounded exit: the unlock path performs O(1) steps).
///
/// Not `Send` for the same reason as [`ReadGuard`].
#[must_use = "dropping the guard immediately releases the write lock"]
pub struct WriteGuard<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
    source: PidSource,
    token: Option<L::WriteToken>,
    /// Suppresses the auto `Send`/`Sync` impls; `Sync` is re-added below.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared reference to the guard only exposes `&T`; exclusive
// access to `T` requires `&mut WriteGuard`, which shared references cannot
// produce.
unsafe impl<T: ?Sized + Sync, L: RawRwLock, R: Recorder> Sync for WriteGuard<'_, T, L, R> {}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Deref for WriteGuard<'_, T, L, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this write session excludes all other access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> DerefMut for WriteGuard<'_, T, L, R> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this write session excludes all other access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for WriteGuard<'_, T, L, R> {
    fn drop(&mut self) {
        let token = self.token.take().expect("write token taken twice");
        self.lock.raw.write_unlock(self.pid, token);
        release_pid(&self.lock.registry, self.pid, self.source);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for WriteGuard<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WriteGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_and_write_guards_deref() {
        let lock = RwLock::starvation_free(vec![1, 2, 3], 2);
        let mut h = lock.register().unwrap();
        assert_eq!(h.read().len(), 3);
        h.write().push(4);
        assert_eq!(*h.read(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn all_three_policies_construct_and_lock() {
        let sf = RwLock::starvation_free(1u32, 2);
        let rp = RwLock::reader_priority(2u32, 2);
        let wp = RwLock::writer_priority(3u32, 2);
        let mut h = sf.register().unwrap();
        assert_eq!(*h.read(), 1);
        let mut h = rp.register().unwrap();
        assert_eq!(*h.read(), 2);
        let mut h = wp.register().unwrap();
        assert_eq!(*h.read(), 3);
    }

    #[test]
    fn registration_respects_capacity() {
        let lock = RwLock::starvation_free((), 2);
        let a = lock.register().unwrap();
        let b = lock.register().unwrap();
        assert!(lock.register().is_err());
        drop(a);
        let c = lock.register().unwrap();
        drop(b);
        drop(c);
    }

    #[test]
    fn pids_are_released_on_handle_drop() {
        let lock = RwLock::writer_priority(0u8, 1);
        for _ in 0..10 {
            let mut h = lock.register().unwrap();
            *h.write() += 1;
        }
        let mut h = lock.register().unwrap();
        assert_eq!(*h.read(), 10);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = RwLock::reader_priority(String::from("a"), 2);
        lock.get_mut().push('b');
        assert_eq!(lock.into_inner(), "ab");
    }

    #[test]
    fn closure_helpers() {
        let lock = RwLock::starvation_free(10i64, 2);
        let mut h = lock.register().unwrap();
        h.write_with(|v| *v += 5);
        assert_eq!(h.read_with(|v| *v), 15);

        lock.write_with(|v| *v += 1);
        assert_eq!(lock.read_with(|v| *v), 16);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 8));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            threads.push(std::thread::spawn(move || {
                let mut h = lock.register().unwrap();
                for _ in 0..100 {
                    *h.write() += 1;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut h = lock.register().unwrap();
        assert_eq!(*h.read(), 800);
    }

    #[test]
    fn guards_are_debug() {
        let lock = RwLock::starvation_free(7u8, 2);
        let mut h = lock.register().unwrap();
        assert_eq!(format!("{:?}", h.read()), "ReadGuard(7)");
        assert_eq!(format!("{:?}", h.write()), "WriteGuard(7)");
        assert!(format!("{lock:?}").contains("RwLock"));
    }

    // --- thread-local pid leasing ---

    #[test]
    fn leased_reads_and_writes_need_no_registration() {
        let lock = RwLock::starvation_free(0u32, 2);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 1);
        // The lease is cached: repeated ops reuse one pid.
        for _ in 0..100 {
            *lock.write() += 1;
        }
        assert_eq!(*lock.read(), 101);
        assert_eq!(lock.registry.allocated(), 1);
    }

    #[test]
    fn concurrent_leased_increments_are_not_lost() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 8));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            threads.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    *lock.write() += 1;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.read(), 800);
    }

    #[test]
    fn thread_exit_returns_leased_pid() {
        let lock = Arc::new(RwLock::starvation_free(0u32, 1));
        for _ in 0..5 {
            let l2 = Arc::clone(&lock);
            std::thread::spawn(move || {
                *l2.write() += 1;
            })
            .join()
            .unwrap();
            // Capacity 1: each iteration only works if the previous
            // thread's lease was reclaimed at exit.
        }
        assert_eq!(lock.registry.allocated(), 0);
        assert_eq!(*lock.read(), 5);
    }

    #[test]
    fn nested_reads_take_a_transient_pid() {
        let lock = RwLock::starvation_free(9u8, 3);
        let outer = lock.read();
        let inner = lock.read(); // second pid, not a contract violation
        assert_eq!(*outer, *inner);
        assert_eq!(lock.registry.allocated(), 2);
        drop(inner);
        assert_eq!(lock.registry.allocated(), 1, "transient pid returned");
        drop(outer);
        assert_eq!(lock.registry.allocated(), 1, "cached lease survives");
    }

    #[test]
    #[should_panic(expected = "cannot lease a pid")]
    fn lease_exhaustion_panics_with_guidance() {
        let lock = RwLock::starvation_free((), 1);
        let _handle = lock.register().unwrap(); // eat the only pid
        let _ = lock.read();
    }

    #[test]
    fn leases_are_per_lock_instance() {
        let a = RwLock::starvation_free(1u8, 2);
        let b = RwLock::starvation_free(2u8, 2);
        let ga = a.read();
        let gb = b.read();
        assert_eq!(*ga, 1);
        assert_eq!(*gb, 2);
        drop((ga, gb));
        assert_eq!(a.registry.allocated(), 1);
        assert_eq!(b.registry.allocated(), 1);
    }

    #[test]
    fn try_read_on_core_lock_succeeds_uncontended() {
        let lock = RwLock::starvation_free(5u64, 2);
        let g = lock.try_read().expect("no writer");
        assert_eq!(*g, 5);
    }

    #[test]
    fn try_read_fails_under_held_write_lock() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 4));
        let l2 = Arc::clone(&lock);
        let w = lock.write();
        // Another thread's bounded read attempt must return None, not spin.
        let denied = std::thread::spawn(move || l2.try_read().is_none()).join().unwrap();
        assert!(denied, "try_read blocked or succeeded under a write lock");
        drop(w);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn leaked_guard_pins_its_pid() {
        // A mem::forget'd guard leaves its raw read session open forever;
        // the thread-exit reclaim must NOT return that pid, or another
        // thread would be issued a pid with an unfinished attempt.
        let lock = Arc::new(RwLock::starvation_free(0u8, 1));
        let l2 = Arc::clone(&lock);
        std::thread::spawn(move || std::mem::forget(l2.read())).join().unwrap();
        assert_eq!(lock.registry.allocated(), 1, "leaked pid must stay reserved");
        assert!(lock.register().is_err());
    }

    #[test]
    fn recorder_observes_typed_passages() {
        use rmr_obs::{Event, Metric, StatsRecorder};
        let rec = Arc::new(StatsRecorder::new(4));
        let lock = RwLock::starvation_free(0u32, 4).with_recorder(Arc::clone(&rec));
        *lock.write() += 1;
        assert_eq!(*lock.read(), 1);
        drop(lock.try_read().expect("no writer active"));
        // Handle path reports through the same hooks.
        let mut h = lock.register().unwrap();
        assert_eq!(*h.read(), 1);
        assert_eq!(rec.counter(Event::WriteAcquire), 1);
        assert_eq!(rec.counter(Event::WriteRelease), 1);
        assert_eq!(rec.counter(Event::ReadAcquire), 2);
        assert_eq!(rec.counter(Event::ReadRelease), 3);
        assert_eq!(rec.counter(Event::TryReadOk), 1);
        assert_eq!(rec.samples(Metric::ReadAcquireNs), 2);
        assert_eq!(rec.samples(Metric::WriteAcquireNs), 1);
    }

    // --- lease table: held leases across sweeps, amortized sweeps, probes ---

    /// Runs `f` on a fresh thread, so it starts with an empty lease table.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().unwrap())
    }

    /// Leases and drops `n` short-lived locks: `n` dead entries.
    fn churn(n: usize) {
        for i in 0..n {
            let l = RwLock::starvation_free(i, 1);
            drop(l.read());
        }
    }

    #[test]
    fn sweeps_keep_a_held_lease() {
        on_fresh_thread(|| {
            // A live first lease takes the front entry, so A's lease and
            // the churn below go in the swept map.
            let front = RwLock::starvation_free(0u8, 1);
            drop(front.read());
            churn(3);
            let a = RwLock::starvation_free(0u8, 2);
            let outer = a.read();
            let pid = outer.pid;
            churn(4 * SWEEP_MIN);
            let (capacity, _) = lease_table_size();
            assert!(capacity < 4 * SWEEP_MIN, "no sweep ran: capacity {capacity}");
            drop(outer);
            let again = a.read();
            assert_eq!(again.pid, pid, "A's lease was not reused");
            assert_eq!(a.registered(), 1, "A's next read took a transient pid");
        });
    }

    #[test]
    fn sweeps_are_amortized_and_bounded() {
        let survivor = Arc::new(RwLock::starvation_free(0u8, 1));
        let s2 = Arc::clone(&survivor);
        std::thread::spawn(move || {
            drop(s2.read());
            let before = lease_probes();
            for i in 0..10_000 {
                let l = RwLock::starvation_free(i, 1);
                drop(l.read());
                drop(l);
                let (capacity, live) = lease_table_size();
                assert!(capacity <= 4 * live.max(SWEEP_MIN), "capacity {capacity}, {live} live");
            }
            let probes = lease_probes() - before;
            assert!(probes <= 8 * 10_000, "{probes} probes to lease 10,000 short-lived locks");
            assert_eq!(s2.registered(), 1);
        })
        .join()
        .unwrap();
        assert_eq!(survivor.registered(), 0, "thread exit returned the surviving lease");
    }

    #[test]
    fn sweeps_stay_amortized_after_the_live_set_shrinks() {
        on_fresh_thread(|| {
            // A live first lease takes the front entry, so every lease
            // below goes in the map.
            let front = RwLock::starvation_free(0u8, 1);
            drop(front.read());
            // A peak of 10,000 live leases grows the map, which never
            // shrinks; then every one of those locks dies.
            let peak: Vec<_> = (0..10_000).map(|i| RwLock::starvation_free(i, 1)).collect();
            for l in &peak {
                drop(l.read());
            }
            drop(peak);
            let before = lease_probes();
            churn(20_000);
            // Sweeping the peak-sized map every few misses would cost
            // hundreds of probes per first touch.
            let probes = lease_probes() - before;
            assert!(probes <= 8 * 20_000, "{probes} probes to lease 20,000 short-lived locks");
            let (capacity, _) = lease_table_size();
            assert!(capacity <= 4 * 10_000, "capacity {capacity} after a peak of 10,000");
        });
    }

    /// Lease-table probes per leased read passage over `n` locks touched
    /// round-robin, once every lock holds a lease.
    fn probes_per_read(n: usize) -> u64 {
        on_fresh_thread(|| {
            let locks: Vec<_> = (0..n).map(|i| RwLock::starvation_free(i, 2)).collect();
            let before = lease_probes();
            for l in &locks {
                drop(l.read());
            }
            // First touches, sweeps included, stay O(1) amortized each.
            let first = lease_probes() - before;
            assert!(first <= 8 * n as u64, "{first} probes to lease {n} locks");
            let before = lease_probes();
            for _ in 0..2 {
                for l in &locks {
                    drop(l.read());
                }
            }
            let probes = lease_probes() - before;
            let passages = 2 * n as u64;
            assert_eq!(probes % passages, 0, "{probes} probes over {passages} passages");
            probes / passages
        })
    }

    #[test]
    fn lease_probes_per_passage_do_not_grow_with_locks_touched() {
        let one = probes_per_read(1);
        assert_eq!(probes_per_read(4096), one);
        assert!(one <= 2, "{one} probes per passage");
    }

    #[test]
    fn guards_are_not_send() {
        // Compile-time property, checked with the ambiguity trick: if the
        // guards ever became `Send`, both blanket impls would apply and
        // these calls would stop compiling.
        trait AmbiguousIfSend<A> {
            fn probe() {}
        }
        struct NotSendProbe;
        impl<T: ?Sized> AmbiguousIfSend<NotSendProbe> for T {}
        struct SendProbe;
        impl<T: ?Sized + Send> AmbiguousIfSend<SendProbe> for T {}
        <ReadGuard<'_, u8, MwmrStarvationFree> as AmbiguousIfSend<_>>::probe();
        <WriteGuard<'_, u8, MwmrStarvationFree> as AmbiguousIfSend<_>>::probe();
    }
}
