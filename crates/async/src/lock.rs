//! [`AsyncRwLock`] — the typed, waker-parking front end.
//!
//! # How parking composes with the raw locks
//!
//! The raw locks block by *spinning*; a service tier cannot burn a core
//! per waiter. This module converts every futile-spin point into
//! `Poll::Pending`:
//!
//! * **Readers** make one bounded call per poll into the lock's
//!   non-blocking tier ([`RawTryReadLock`]), whose failure path retires
//!   through the ordinary exit section — a pending read future holds
//!   *no* lock state between polls, so dropping it mid-acquisition
//!   (future cancellation) is safe by construction.
//! * **Writers** hold a real queue position: `write().await` claims the
//!   lock's single *writer doorway* ([`RawParkedWaiters`]) and keeps the
//!   parked [`WriteDoorway`](rmr_core::raw::RawParkedWaiters::WriteDoorway)
//!   across polls — the awaiting writer is **tokened**, counted by the
//!   raw lock exactly like a blocking writer standing in line, so the
//!   lock's own anti-starvation policy (ticket FIFO, Figure 1's
//!   writer-priority doorway) protects it and readers cannot bypass it
//!   more than the lock's bound allows (`QUEUED` locks; `rmr-check`'s
//!   bounded-bypass oracle enforces k = in-flight readers).
//!   Cancellation-safety is restored *revocably*: dropping the future
//!   calls `cancel_write`, which unwinds or hands off the half-entered
//!   passage (each lock's documented zombie/adoption protocol).
//!
//! A failed attempt parks the task's waker in the per-pid
//! [`WakerTable`] and **retries once** before returning `Pending` — the
//! retry is the lost-wakeup linchpin (see the protocol argument below).
//! Wake-ups ride the release paths:
//!
//! * a write guard drop wakes every parked future (readers and writers —
//!   who may actually proceed is the raw lock's policy, and losers simply
//!   re-park);
//! * the last read guard drop also wakes everyone: almost always that
//!   means parked writers, but a reader can transiently park behind
//!   another *reader* (a raw read entry is not atomic — e.g. the ticket
//!   lock's drawn-ticket-to-grant-bump window — and an attempt failing
//!   inside that window parks), so a completed read entry additionally
//!   re-polls parked readers. The model-checked battery caught exactly
//!   this reader-parked-behind-reader stranding in an earlier version
//!   that woke only writers;
//! * **every** read guard drop re-polls parked *writers* while any
//!   exist: a tokened doorway typically becomes grantable when one
//!   *side* of the lock drains (Figure 1's previous-side count, a ticket
//!   predecessor), long before the global reader count reaches zero —
//!   waking only on last-reader-out would strand the doorway behind
//!   overlapping read sessions, the very starvation the token exists to
//!   end. The common no-writer case is one `SeqCst` load;
//! * a Bravo-wrapped lock's fast-path readers stay zero-inner-op: the
//!   async layer touches only its own counters and table, never the
//!   inner lock.
//!
//! # Why no wake-up is lost
//!
//! A future parks only after the sequence *attempt fails → register waker
//! → attempt fails again*. The parked-count announce in the registration
//! and the release paths' scan-skip checks are SeqCst (sites AS-ANNOUNCE
//! and AS-COUNT, DESIGN.md §13), so when the second attempt fails some
//! holder `H` exists at that point; `H`'s release runs strictly later,
//! and its wake scan therefore observes the registration.
//! Any *other* failed attempt leaves the lock state untouched (the try
//! tier is abortable), so "holder exists" is the only way an attempt can
//! fail — the wake-delivering release is always still in the future when
//! a future parks. Spurious wake-ups (thundering herd on writer exit,
//! stale wakers) merely cause a re-poll that re-parks.
//!
//! # The writer-claim word
//!
//! [`RawParkedWaiters`] grants **one** doorway per lock at a time; the
//! async tier serializes its writers through a word-sized claim
//! (CAS 0 → 1 to start a doorway, store 0 on guard drop or cancel).
//! Losers park as writers and re-CAS on wake — so on a *single-writer*
//! paper lock (Figure 1), concurrent `write().await` callers are safe:
//! the claim word is the serialization the `RawMultiWriter` bound used
//! to demand, which is why that gate is lifted for `write()`.
//! [`AsyncRwLock::try_write`] still requires `RawMultiWriter` (a bounded
//! attempt never takes the claim).
//!
//! Fairness across classes is the raw lock's, not the claim word's: the
//! claim hands the doorway to *some* awaiting writer (wake order is the
//! waiter-FIFO, but a fresh `write()` can CAS first); once claimed, the
//! doorway's queue position is what readers must respect.
//!
//! # `write_blocking` (deprecated)
//!
//! [`AsyncRwLock::write_blocking`] predates the doorway: a *blocking*
//! writer acquisition through the raw lock's own spin (under a
//! [`park hint`](rmr_mutex::spin::with_park_hint)), for locks that offer
//! `RawMultiWriter`. `write().await` + [`block_on`](crate::exec::block_on)
//! now covers every lock with a doorway — including the core SWMR locks,
//! which never had `write_blocking` — so this method is deprecated and
//! kept only for multi-writer locks without a fair doorway.
//!
//! [`RawParkedWaiters`]: rmr_core::raw::RawParkedWaiters
//! [`RawTryReadLock`]: rmr_core::raw::RawTryReadLock
//! [`RawTryRwLock`]: rmr_core::raw::RawTryRwLock
//! [`RwLock`]: rmr_core::rwlock::RwLock
//! [`WakerTable`]: crate::park::WakerTable

use crate::park::{WaitKind, WakeSet, WakerTable};
use rmr_core::raw::{RawMultiWriter, RawParkedWaiters, RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::{Pid, PidRegistry};
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedWord};
use rmr_mutex::{spin, CachePadded};
use rmr_obs::{Event, Metric, NoopRecorder, Recorder};
use std::cell::UnsafeCell;
use std::fmt;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::task::{Context, Poll};

/// An async reader-writer lock over any raw lock `L`, generic over the
/// memory backend `B` of its own parking state (the raw lock keeps
/// whatever backend it was built with).
///
/// `read().await` suits services that must not burn a core per waiter;
/// the cost model is spelled out in DESIGN.md §11 (parking trades the
/// paper's RMR-bounded spinning for wake-up latency and an O(capacity)
/// release-path scan *when waiters exist*).
///
/// Each acquisition leases a [`Pid`] from the lock's registry for exactly
/// the guard's (or pending future's) lifetime, so futures may migrate
/// threads freely — there is no thread-local leasing here.
///
/// # Example
///
/// ```
/// use rmr_async::exec::block_on;
/// use rmr_async::AsyncRwLock;
/// use rmr_baselines::TicketRwLock;
///
/// let lock = AsyncRwLock::with_raw(0u64, TicketRwLock::new(4));
/// block_on(async {
///     *lock.write().await += 1;
///     assert_eq!(*lock.read().await, 1);
/// });
/// ```
pub struct AsyncRwLock<T: ?Sized, L, B: Backend = Native, R: Recorder = NoopRecorder> {
    raw: L,
    registry: PidRegistry,
    table: WakerTable<B>,
    /// Currently held async read guards; the 1 → 0 transition wakes
    /// parked writers.
    readers: CachePadded<B::Word>,
    /// The writer-claim word (see the module docs): 1 while some writer
    /// future or blocking writer owns the lock's single doorway, from
    /// `start_write` until the guard drops or the future cancels.
    writer_claim: CachePadded<B::Word>,
    /// Passages reported here; inert by default ([`AsyncRwLock::with_recorder`]).
    recorder: R,
    /// `recorder.now()` at the latest wake scan that found someone
    /// parked — the subtrahend for
    /// [`Metric::WakeToGrantNs`]. A plain `std` atomic (never `B`-typed):
    /// recorder-private state must stay invisible to the `Counting`
    /// backend and the `Sched` explorer alike.
    wake_ts: CachePadded<AtomicU64>,
    data: UnsafeCell<T>,
}

// SAFETY: same argument as `rmr_core::rwlock::RwLock` — the raw lock
// guarantees `&mut T` never coexists with any other access and `&T` only
// with other `&T`; the parking layer never hands out access, it only
// schedules retries.
unsafe impl<T: ?Sized + Send, L: RawRwLock, B: Backend, R: Recorder> Send
    for AsyncRwLock<T, L, B, R>
{
}
unsafe impl<T: ?Sized + Send + Sync, L: RawRwLock, B: Backend, R: Recorder> Sync
    for AsyncRwLock<T, L, B, R>
{
}

impl<T, L: RawRwLock> AsyncRwLock<T, L> {
    /// Wraps `value` behind `raw` over the [`Native`] backend, sizing the
    /// pid registry and waker table to `raw.max_processes()`.
    ///
    /// # Panics
    ///
    /// Panics if the raw lock reports an unbounded process count
    /// (`usize::MAX`) — use [`AsyncRwLock::with_raw_and_capacity`].
    pub fn with_raw(value: T, raw: L) -> Self {
        Self::with_raw_in(value, raw, Native)
    }

    /// Wraps `value` behind `raw` over [`Native`] with an explicit
    /// capacity — the maximum number of *concurrent* acquisitions
    /// (pending futures plus held guards).
    pub fn with_raw_and_capacity(value: T, raw: L, capacity: usize) -> Self {
        Self::with_raw_and_capacity_in(value, raw, capacity, Native)
    }
}

impl<T, L: RawRwLock, B: Backend> AsyncRwLock<T, L, B> {
    /// Like [`AsyncRwLock::with_raw`], with the parking state (waker
    /// table, reader counter) over an explicit backend — `Sched` is what
    /// lets `rmr-check` model-check the parking protocol on this very
    /// code.
    pub fn with_raw_in(value: T, raw: L, backend: B) -> Self {
        let cap = raw.max_processes();
        assert!(cap != usize::MAX, "raw lock has no process bound; use with_raw_and_capacity");
        Self::with_raw_and_capacity_in(value, raw, cap, backend)
    }

    /// Like [`AsyncRwLock::with_raw_and_capacity`], over an explicit
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `raw.max_processes()`.
    pub fn with_raw_and_capacity_in(value: T, raw: L, capacity: usize, _backend: B) -> Self {
        assert!(
            capacity <= raw.max_processes(),
            "capacity {capacity} exceeds the raw lock's bound {}",
            raw.max_processes()
        );
        Self {
            raw,
            registry: PidRegistry::new(capacity),
            table: WakerTable::new(capacity),
            readers: CachePadded::new(B::Word::new(0)),
            writer_claim: CachePadded::new(B::Word::new(0)),
            recorder: NoopRecorder,
            wake_ts: CachePadded::new(AtomicU64::new(0)),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawRwLock, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// Re-types the lock to report every passage — acquires, releases,
    /// parks, wakes, cancellations, wake-to-grant latency — to
    /// `recorder`. Pass an `Arc<StatsRecorder>` and keep a clone for
    /// reading; with the default [`NoopRecorder`] every hook const-folds
    /// away.
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> AsyncRwLock<T, L, B, R2> {
        let Self { raw, registry, table, readers, writer_claim, recorder: _, wake_ts, data } = self;
        AsyncRwLock { raw, registry, table, readers, writer_claim, recorder, wake_ts, data }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// The underlying raw lock.
    pub fn raw(&self) -> &L {
        &self.raw
    }

    /// The recorder passages are reported to.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access without locking — safe because `&mut self` proves
    /// exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Maximum number of concurrent acquisitions (pids / waker slots).
    pub fn max_processes(&self) -> usize {
        self.registry.capacity()
    }

    /// Pids currently leased to guards or pending futures (approximate
    /// under concurrency). Checker entry point: zero once every future
    /// and guard is gone.
    pub fn registered(&self) -> usize {
        self.registry.allocated()
    }

    /// Read futures currently parked (approximate under concurrency).
    pub fn parked_readers(&self) -> usize {
        self.table.parked_readers()
    }

    /// Write futures currently parked (approximate under concurrency).
    pub fn parked_writers(&self) -> usize {
        self.table.parked_writers()
    }

    /// Async read guards currently held (approximate under concurrency).
    pub fn reading(&self) -> usize {
        // Diagnostic snapshot only.
        self.readers.load(MemOrdering::Relaxed) as usize
    }

    /// Wake-ups delivered by the release paths so far (diagnostics).
    pub fn wakeups(&self) -> u64 {
        self.table.wakeups()
    }

    /// Checker entry point: nothing parked, nothing held, no pid leased,
    /// no doorway claimed. Combine with the raw lock's own
    /// `is_quiescent` where one exists.
    pub fn is_quiescent(&self) -> bool {
        self.table.parked_readers() == 0
            && self.table.parked_writers() == 0
            && self.readers.load(MemOrdering::Relaxed) == 0
            && self.registry.allocated() == 0
            && self.writer_claim.load(MemOrdering::Relaxed) == 0
    }

    /// One bounded attempt to claim the lock's single writer doorway.
    fn claim_doorway(&self) -> bool {
        // Site AS-CLAIM: both ends of the claim word ride the same
        // lost-wakeup square as AS-COUNT — the freeing store (guard drop
        // / cancel) precedes a wake scan, the claiming CAS follows a
        // waker registration — so both are SeqCst.
        self.writer_claim.compare_exchange(0, 1, MemOrdering::SeqCst, MemOrdering::SeqCst).is_ok()
    }

    /// Frees the doorway claim. The caller must follow with a wake scan
    /// so a parked claimer re-CASes.
    fn release_doorway_claim(&self) {
        // Site AS-CLAIM: see `claim_doorway`.
        self.writer_claim.store(0, MemOrdering::SeqCst);
    }

    fn allocate_pid(&self) -> Pid {
        self.registry.allocate().unwrap_or_else(|e| {
            panic!(
                "cannot lease a pid for an async acquisition: {e}; size the capacity to the \
                 maximum number of concurrent acquisitions (pending futures + held guards)"
            )
        })
    }

    fn finish_read(&self, pid: Pid, token: L::ReadToken) -> AsyncReadGuard<'_, T, L, B, R> {
        // SeqCst: this counter's 1 → 0 edge (in the guard drop) gates a
        // wake_all scan, the same lost-wakeup square as AS-COUNT; keep
        // both ends of the guard count in the total order.
        self.readers.fetch_add(1, MemOrdering::SeqCst);
        // A raw read *entry* is not atomic (e.g. the ticket lock's
        // drawn-ticket-to-grant-bump window), and a concurrent reader's
        // attempt failing inside that window parks it behind *us* — a
        // reader. The window is closed now, so re-poll any parked
        // readers; the common case is one load of a zero counter.
        if self.table.parked_readers() > 0 {
            self.wake_scan(pid.index(), WakeSet::Readers);
        }
        AsyncReadGuard { lock: self, pid, token: Some(token) }
    }

    fn finish_write(
        &self,
        pid: Pid,
        token: L::WriteToken,
        claimed: bool,
    ) -> AsyncWriteGuard<'_, T, L, B, R> {
        AsyncWriteGuard { lock: self, pid, token: Some(token), claimed }
    }

    /// Runs one wake scan over `set`, crediting the delivered wake-ups to
    /// `pid`. A scan that gets past the table's skip checks stamps
    /// [`Self::wake_ts`] before delivering (so a woken future can
    /// attribute its grant); a release with nobody parked reads no clock.
    fn wake_scan(&self, pid: usize, set: WakeSet) {
        let woken = self.table.wake_with(set, || {
            if R::ENABLED {
                self.wake_ts.store(self.recorder.now(), StdOrdering::Relaxed);
            }
        });
        if R::ENABLED && woken > 0 {
            self.recorder.add(pid, Event::AsyncWake, woken as u64);
        }
    }

    /// Records one granted (future-completing) acquisition: the acquire
    /// event, its latency since the future's first poll when that poll
    /// was stamped (`t0`, see [`Recorder::stamp`]), and — when the future
    /// had parked — the wake-to-grant latency.
    fn grant_obs(&self, pid: usize, write: bool, t0: Option<u64>, parked: bool) {
        let now = if t0.is_some() || parked { self.recorder.now() } else { 0 };
        self.recorder.count(pid, if write { Event::WriteAcquire } else { Event::ReadAcquire });
        if let Some(t0) = t0 {
            let metric = if write { Metric::WriteAcquireNs } else { Metric::ReadAcquireNs };
            self.recorder.record(pid, metric, now.saturating_sub(t0));
        }
        if parked {
            let woke = self.wake_ts.load(StdOrdering::Relaxed);
            self.recorder.record(pid, Metric::WakeToGrantNs, now.saturating_sub(woke));
        }
    }
}

impl<T: ?Sized, L: RawTryReadLock, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// Acquires the lock for reading, suspending (never spinning) while a
    /// writer is in the way.
    ///
    /// Cancel-safe: dropping the returned future before completion
    /// unwinds everything — the doorway announcement (inside the failed
    /// bounded attempt), the parked waker, and the leased pid.
    ///
    /// # Panics
    ///
    /// The future's first poll panics if the lock's capacity is
    /// exhausted (more concurrent acquisitions than `max_processes()`).
    pub fn read(&self) -> AsyncRead<'_, T, L, B, R> {
        AsyncRead { lock: self, pid: None, done: false, parked: false, t0: None }
    }

    /// Attempts to acquire the lock for reading without blocking or
    /// suspending — one bounded attempt, exactly [`RawTryReadLock`]'s.
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_read(&self) -> Option<AsyncReadGuard<'_, T, L, B, R>> {
        let pid = self.registry.allocate().ok()?;
        let token = self.raw.try_read_lock(pid);
        if R::ENABLED {
            let ev = if token.is_some() { Event::TryReadOk } else { Event::TryReadFail };
            self.recorder.count(pid.index(), ev);
        }
        match token {
            Some(token) => Some(self.finish_read(pid, token)),
            None => {
                self.registry.release(pid);
                None
            }
        }
    }
}

impl<T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// Acquires the lock for writing, suspending while readers or another
    /// writer are in the way.
    ///
    /// Requires only [`RawParkedWaiters`] — **every** lock in the
    /// workspace, including the paper's single-writer core locks: the
    /// writer-claim word serializes concurrent `write()` callers (see
    /// the module docs), and the claimed doorway is a *real, tokened
    /// queue position* the raw lock counts like a blocking writer, so on
    /// `QUEUED` locks readers cannot bypass an awaiting writer beyond
    /// the lock's bound.
    ///
    /// Cancel-safe: dropping the future before completion unwinds
    /// everything — a parked doorway is revoked through the lock's own
    /// `cancel_write` protocol, the claim is freed (waking the next
    /// claimer), and the waker and pid lease are returned.
    ///
    /// Locks without any write capability stay a compile error:
    ///
    /// ```compile_fail
    /// use rmr_async::AsyncRwLock;
    /// use rmr_core::mwmr::MwmrStarvationFree;
    ///
    /// let lock = AsyncRwLock::with_raw(0u32, MwmrStarvationFree::new(2));
    /// let _ = lock.write(); // ERROR: MwmrStarvationFree is not RawParkedWaiters
    /// ```
    pub fn write(&self) -> AsyncWrite<'_, T, L, B, R> {
        AsyncWrite { lock: self, pid: None, stage: WriteStage::Claiming, parked: false, t0: None }
    }
}

impl<T: ?Sized, L: RawTryRwLock + RawMultiWriter, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// Attempts to acquire the lock for writing without blocking or
    /// suspending — one bounded attempt, exactly [`RawTryRwLock`]'s.
    ///
    /// Keeps the [`RawMultiWriter`] bound (unlike [`AsyncRwLock::write`]):
    /// a bounded attempt never takes the writer-claim word, so on a
    /// single-writer lock it could race the claimed doorway.
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_write(&self) -> Option<AsyncWriteGuard<'_, T, L, B, R>> {
        let pid = self.registry.allocate().ok()?;
        let token = self.raw.try_write_lock(pid);
        if R::ENABLED {
            let ev = if token.is_some() { Event::TryWriteOk } else { Event::TryWriteFail };
            self.recorder.count(pid.index(), ev);
        }
        match token {
            Some(token) => Some(self.finish_write(pid, token, false)),
            None => {
                self.registry.release(pid);
                None
            }
        }
    }
}

impl<T: ?Sized, L: RawMultiWriter, B: Backend, R: Recorder> AsyncRwLock<T, L, B, R> {
    /// Acquires the lock for writing by *blocking* (the raw lock's own
    /// spin, under a yield-first [`park hint`](rmr_mutex::spin::with_park_hint)).
    ///
    /// Call it from a dedicated writer thread or a
    /// `spawn_blocking`-style offload, never from inside a future. The
    /// returned guard is the ordinary [`AsyncWriteGuard`], so its drop
    /// wakes parked async readers exactly like `write().await`'s.
    ///
    /// Deprecated: this writer bypasses the claim word and holds no
    /// revocable doorway, so it predates — and forfeits — the tokened
    /// fairness story. `write().await` (or
    /// [`block_on`](crate::exec::block_on)`(lock.write())` from sync
    /// code) works on every lock with a [`RawParkedWaiters`] doorway.
    /// This method remains the only async-tier writer for the
    /// multi-writer locks without one: Fig. 3 ∘ {1, 2}
    /// (`MwmrStarvationFree`, `MwmrReaderPriority`), Fig. 4
    /// (`MwmrWriterPriority`) and `CourtoisWriterPrefRwLock`.
    #[deprecated(
        since = "0.1.0",
        note = "use write().await (or block_on(lock.write()) from sync code) where the raw lock \
                has a RawParkedWaiters doorway; only the Fig. 3 ∘ {1, 2}, Fig. 4 and Courtois \
                multi-writer locks lack one"
    )]
    pub fn write_blocking(&self) -> AsyncWriteGuard<'_, T, L, B, R> {
        let pid = self.allocate_pid();
        let t0 =
            if R::ENABLED { self.recorder.stamp(pid.index(), Event::WriteAcquire) } else { None };
        let token = spin::with_park_hint(std::thread::yield_now, || self.raw.write_lock(pid));
        if R::ENABLED {
            self.grant_obs(pid.index(), true, t0, false);
        }
        self.finish_write(pid, token, false)
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, B: Backend, R: Recorder> fmt::Debug
    for AsyncRwLock<T, L, B, R>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does not read `data` (would need the lock).
        f.debug_struct("AsyncRwLock")
            .field("max_processes", &self.max_processes())
            .field("registered", &self.registered())
            .field("parked_readers", &self.parked_readers())
            .field("parked_writers", &self.parked_writers())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Futures
// ---------------------------------------------------------------------

/// Future of [`AsyncRwLock::read`]. One bounded attempt per poll; parks
/// the waker (and retries once) on failure.
#[must_use = "futures do nothing unless polled"]
pub struct AsyncRead<'l, T: ?Sized, L: RawRwLock, B: Backend, R: Recorder = NoopRecorder> {
    lock: &'l AsyncRwLock<T, L, B, R>,
    /// Leased on first poll; consumed by the guard on success, returned
    /// by Drop on cancellation.
    pid: Option<Pid>,
    done: bool,
    /// Whether this future ever returned `Pending` — a granted parked
    /// future records its wake-to-grant latency.
    parked: bool,
    /// The recorder's [`stamp`](Recorder::stamp) at the first poll
    /// (`None` when inert, or when this passage is counted but not timed).
    t0: Option<u64>,
}

impl<'l, T: ?Sized, L: RawTryReadLock, B: Backend, R: Recorder> Future
    for AsyncRead<'l, T, L, B, R>
{
    type Output = AsyncReadGuard<'l, T, L, B, R>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "AsyncRead polled after completion");
        let lock = this.lock;
        let pid = match this.pid {
            Some(pid) => pid,
            None => {
                let pid = *this.pid.insert(lock.allocate_pid());
                if R::ENABLED {
                    this.t0 = lock.recorder.stamp(pid.index(), Event::ReadAcquire);
                }
                pid
            }
        };
        if let Some(token) = lock.raw.try_read_lock(pid) {
            lock.table.deregister(pid.index());
            this.pid = None;
            this.done = true;
            if R::ENABLED {
                lock.grant_obs(pid.index(), false, this.t0, this.parked);
            }
            return Poll::Ready(lock.finish_read(pid, token));
        }
        lock.table.register(pid.index(), WaitKind::Reader, cx.waker());
        // The lost-wakeup linchpin: a release between the failed attempt
        // and the registration must not strand us, so try once more now
        // that the waker is visible to release scans.
        if let Some(token) = lock.raw.try_read_lock(pid) {
            lock.table.deregister(pid.index());
            this.pid = None;
            this.done = true;
            if R::ENABLED {
                lock.grant_obs(pid.index(), false, this.t0, this.parked);
            }
            return Poll::Ready(lock.finish_read(pid, token));
        }
        // A failed attempt is not a silent no-op to a *tokened doorway*:
        // its transient admission announcement (fig. 1's `C[side]`
        // increment, a conditionally-drawn ticket probe) may be exactly
        // what a parked writer's last `poll_write` observed before it
        // parked — and the attempt's unwind, unlike a read session's
        // exit, passes through no release path. Re-polling parked
        // writers after the unwind closes that square: either the
        // writer's re-poll already ran after our unwind (it is granted),
        // or its SeqCst parked announce precedes its re-poll and this
        // SeqCst count check sees it.
        if lock.table.parked_writers() > 0 {
            lock.wake_scan(pid.index(), WakeSet::Writers);
        }
        if R::ENABLED {
            lock.recorder.count(pid.index(), Event::AsyncPark);
        }
        this.parked = true;
        Poll::Pending
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> Drop for AsyncRead<'_, T, L, B, R> {
    fn drop(&mut self) {
        if let Some(pid) = self.pid.take() {
            // Cancelled mid-acquisition: the failed bounded attempt
            // already unwound the doorway, so only the parked waker and
            // the pid lease remain.
            self.lock.table.deregister(pid.index());
            self.lock.registry.release(pid);
            if R::ENABLED {
                self.lock.recorder.count(pid.index(), Event::AsyncCancel);
            }
        }
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> fmt::Debug for AsyncRead<'_, T, L, B, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncRead").field("pid", &self.pid).field("done", &self.done).finish()
    }
}

/// Where an [`AsyncWrite`] passage stands between polls.
enum WriteStage<D> {
    /// No claim yet: CAS the writer-claim word each poll, parking as a
    /// writer on failure (woken when a guard drop / cancel frees it).
    Claiming,
    /// Claim held; the raw lock's revocable doorway is parked in here
    /// between polls — this *is* the tokened queue position. The
    /// `Option` is only transiently `None` inside a poll.
    Doorway(Option<D>),
    /// Granted; the guard owns everything now.
    Done,
}

/// Future of [`AsyncRwLock::write`]: claim the writer doorway, then poll
/// the parked [`WriteDoorway`](RawParkedWaiters::WriteDoorway) — a real,
/// tokened queue position in the raw lock — to the grant.
#[must_use = "futures do nothing unless polled"]
pub struct AsyncWrite<'l, T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder = NoopRecorder> {
    lock: &'l AsyncRwLock<T, L, B, R>,
    /// Leased on first poll; consumed by the guard on success, returned
    /// by Drop on cancellation.
    pid: Option<Pid>,
    stage: WriteStage<L::WriteDoorway>,
    /// Whether this future ever returned `Pending` — a granted parked
    /// future records its wake-to-grant latency.
    parked: bool,
    /// The recorder's [`stamp`](Recorder::stamp) at the first poll
    /// (`None` when inert, or when this passage is counted but not timed).
    t0: Option<u64>,
}

// The future owns the doorway by value and holds no self-references, so
// pinning is not structural — `poll` may freely `get_mut` even when the
// lock's doorway type is not `Unpin`.
impl<T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> Unpin for AsyncWrite<'_, T, L, B, R> {}

impl<'l, T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> AsyncWrite<'l, T, L, B, R> {
    /// Grant epilogue: retire the waker, hand pid + token + claim to the
    /// guard.
    fn complete(&mut self, pid: Pid, token: L::WriteToken) -> AsyncWriteGuard<'l, T, L, B, R> {
        let lock = self.lock;
        lock.table.deregister(pid.index());
        self.pid = None;
        self.stage = WriteStage::Done;
        if R::ENABLED {
            lock.grant_obs(pid.index(), true, self.t0, self.parked);
        }
        lock.finish_write(pid, token, true)
    }
}

impl<'l, T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> Future
    for AsyncWrite<'l, T, L, B, R>
{
    type Output = AsyncWriteGuard<'l, T, L, B, R>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!matches!(this.stage, WriteStage::Done), "AsyncWrite polled after completion");
        let lock = this.lock;
        let pid = match this.pid {
            Some(pid) => pid,
            None => {
                let pid = *this.pid.insert(lock.allocate_pid());
                if R::ENABLED {
                    this.t0 = lock.recorder.stamp(pid.index(), Event::WriteAcquire);
                }
                pid
            }
        };
        if matches!(this.stage, WriteStage::Claiming) {
            if !lock.claim_doorway() {
                lock.table.register(pid.index(), WaitKind::Writer, cx.waker());
                // The lost-wakeup linchpin: the claim may have been freed
                // (and its wake scanned past us) between the failed CAS
                // and the registration — retry now that the waker is
                // visible.
                if !lock.claim_doorway() {
                    if R::ENABLED {
                        lock.recorder.count(pid.index(), Event::AsyncPark);
                    }
                    this.parked = true;
                    return Poll::Pending;
                }
            }
            // Claim won: take the real queue position. From here on the
            // raw lock counts this passage like a blocking writer's.
            this.stage = WriteStage::Doorway(Some(lock.raw.start_write(pid)));
        }
        let doorway = match &mut this.stage {
            WriteStage::Doorway(doorway) => doorway.take().expect("doorway parked between polls"),
            _ => unreachable!("Claiming was advanced above, Done asserted on entry"),
        };
        let doorway = match lock.raw.poll_write(pid, doorway) {
            Ok(token) => return Poll::Ready(this.complete(pid, token)),
            Err(doorway) => doorway,
        };
        lock.table.register(pid.index(), WaitKind::Writer, cx.waker());
        // Same linchpin, doorway flavor: the release that would have
        // granted us may have scanned before the registration.
        match lock.raw.poll_write(pid, doorway) {
            Ok(token) => Poll::Ready(this.complete(pid, token)),
            Err(doorway) => {
                this.stage = WriteStage::Doorway(Some(doorway));
                if R::ENABLED {
                    lock.recorder.count(pid.index(), Event::AsyncPark);
                }
                this.parked = true;
                Poll::Pending
            }
        }
    }
}

impl<T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> Drop for AsyncWrite<'_, T, L, B, R> {
    fn drop(&mut self) {
        let Some(pid) = self.pid.take() else { return };
        // Cancelled mid-acquisition.
        if let WriteStage::Doorway(doorway) = &mut self.stage {
            // Revoke the half-entered passage through the lock's own
            // cancellation protocol (unwind or zombie-handoff), free the
            // claim, then wake everyone: cancellation may have reopened
            // reader admission, and the claim is up for grabs.
            if let Some(doorway) = doorway.take() {
                self.lock.raw.cancel_write(pid, doorway);
            }
            self.lock.release_doorway_claim();
            self.lock.table.deregister(pid.index());
            self.lock.wake_scan(pid.index(), WakeSet::All);
        } else {
            // Claiming stage: no lock state exists beyond the parked
            // waker and the pid lease.
            self.lock.table.deregister(pid.index());
        }
        self.lock.registry.release(pid);
        if R::ENABLED {
            self.lock.recorder.count(pid.index(), Event::AsyncCancel);
        }
    }
}

impl<T: ?Sized, L: RawParkedWaiters, B: Backend, R: Recorder> fmt::Debug
    for AsyncWrite<'_, T, L, B, R>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = match self.stage {
            WriteStage::Claiming => "claiming",
            WriteStage::Doorway(_) => "doorway",
            WriteStage::Done => "done",
        };
        f.debug_struct("AsyncWrite").field("pid", &self.pid).field("stage", &stage).finish()
    }
}

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/// RAII shared access; the drop releases the raw lock and, when it was
/// the last reader out, wakes parked writers.
///
/// Unlike the sync [`ReadGuard`](rmr_core::rwlock::ReadGuard), this guard
/// is `Send` (where `T` and the token allow): its pid is owned by the
/// guard alone — never thread-leased, never reusable elsewhere — so
/// whichever thread drops the guard is, for the raw contract's purposes,
/// that pid. Futures holding a guard across an `.await` can therefore
/// migrate threads.
#[must_use = "dropping the guard immediately releases the read lock"]
pub struct AsyncReadGuard<'l, T: ?Sized, L: RawRwLock, B: Backend, R: Recorder = NoopRecorder> {
    lock: &'l AsyncRwLock<T, L, B, R>,
    pid: Pid,
    token: Option<L::ReadToken>,
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> Deref for AsyncReadGuard<'_, T, L, B, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the raw lock admits no writer while this read session
        // is open.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> Drop for AsyncReadGuard<'_, T, L, B, R> {
    fn drop(&mut self) {
        let token = self.token.take().expect("read token taken twice");
        self.lock.raw.read_unlock(self.pid, token);
        if R::ENABLED {
            self.lock.recorder.count(self.pid.index(), Event::ReadRelease);
        }
        // Raw release first, then the wake: a woken waiter's attempt must
        // be able to succeed. The last reader out wakes *everyone*, not
        // just writers: a reader parked behind another reader's entry
        // window (see `finish_read`) may have this release as its only
        // remaining wake source.
        // SeqCst: the last-reader edge decides whether anyone scans at
        // all — it must be ordered after the raw release above and
        // before the wake scan's skip checks (the AS-COUNT square).
        if self.lock.readers.fetch_sub(1, MemOrdering::SeqCst) == 1 {
            self.lock.wake_scan(self.pid.index(), WakeSet::All);
        } else if self.lock.table.parked_writers() > 0 {
            // Not the last reader, but a *tokened doorway* may already be
            // grantable: Figure 1's writer waits only for its previous
            // side (a ticket writer only for its predecessor), so the
            // drain it needs can complete long before the global count
            // hits zero. Re-poll parked writers on every reader exit
            // while any exist — the no-writer common case is this one
            // SeqCst load (site AS-COUNT).
            self.lock.wake_scan(self.pid.index(), WakeSet::Writers);
        }
        self.lock.registry.release(self.pid);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, B: Backend, R: Recorder> fmt::Debug
    for AsyncReadGuard<'_, T, L, B, R>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AsyncReadGuard").field(&&**self).finish()
    }
}

/// RAII exclusive access; the drop releases the raw lock and wakes every
/// parked future (readers and writers — the raw lock's policy arbitrates,
/// losers re-park).
///
/// `Send` for the same reason as [`AsyncReadGuard`].
#[must_use = "dropping the guard immediately releases the write lock"]
pub struct AsyncWriteGuard<'l, T: ?Sized, L: RawRwLock, B: Backend, R: Recorder = NoopRecorder> {
    lock: &'l AsyncRwLock<T, L, B, R>,
    pid: Pid,
    token: Option<L::WriteToken>,
    /// Whether this guard owns the writer-claim word (true for doorway
    /// passages, false for `try_write` / `write_blocking`).
    claimed: bool,
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> Deref for AsyncWriteGuard<'_, T, L, B, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this write session excludes all other access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> DerefMut
    for AsyncWriteGuard<'_, T, L, B, R>
{
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this write session excludes all other access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, B: Backend, R: Recorder> Drop for AsyncWriteGuard<'_, T, L, B, R> {
    fn drop(&mut self) {
        let token = self.token.take().expect("write token taken twice");
        self.lock.raw.write_unlock(self.pid, token);
        if R::ENABLED {
            self.lock.recorder.count(self.pid.index(), Event::WriteRelease);
        }
        // Free the doorway claim *before* the wake scan so a woken
        // claimer's CAS succeeds (the AS-CLAIM square).
        if self.claimed {
            self.lock.release_doorway_claim();
        }
        self.lock.wake_scan(self.pid.index(), WakeSet::All);
        self.lock.registry.release(self.pid);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, B: Backend, R: Recorder> fmt::Debug
    for AsyncWriteGuard<'_, T, L, B, R>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AsyncWriteGuard").field(&&**self).finish()
    }
}
