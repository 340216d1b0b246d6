//! The raw reader-writer lock interface and its capability ladder.
//!
//! Five traits form the surface every lock in the workspace implements
//! some prefix of — one mandatory base plus four opt-in capabilities:
//!
//! * [`RawRwLock`] — blocking acquire/release with explicit pids; mandatory.
//! * [`RawTryReadLock`] — adds a bounded (non-blocking) read attempt. All
//!   five of the paper's locks implement this: their reader try sections are
//!   *abortable* (a registered reader can retire through the ordinary exit
//!   section without ever entering the critical section).
//! * [`RawTryRwLock`] — adds a bounded write attempt on top. Only locks
//!   whose write path can be revoked implement this (the baselines); the
//!   paper's writer doorway irrevocably toggles the shared side variable
//!   `D`, so the core locks deliberately do **not** claim this capability.
//! * [`RawMultiWriter`] — the `&mut T` safety marker: arbitrarily many
//!   concurrent processes may exercise the writer role.
//! * [`RawParkedWaiters`] — a **revocable, pollable writer doorway**
//!   (`start_write` / `poll_write` / `cancel_write`): a parked asynchronous
//!   writer holds a *waiter token* the lock counts like a queued process,
//!   so `write().await` works even where the write attempt cannot be made
//!   bounded-and-abortable ([`RawTryRwLock`]) — in particular on the
//!   paper's core single-writer locks.
//!
//! # Capability matrix
//!
//! | lock | [`RawRwLock`] | [`RawTryReadLock`] | [`RawTryRwLock`] | [`RawMultiWriter`] | [`RawParkedWaiters`] |
//! |---|---|---|---|---|---|
//! | `SwmrWriterPriority` (Fig. 1) | ✓ | ✓ | — irrevocable doorway | — single writer | ✓ queued (doorway + helper cancel) |
//! | `SwmrReaderPriority` (Fig. 2) | ✓ | ✓ | — irrevocable doorway | — single writer | — readers overtake by design |
//! | `MwmrStarvationFree` (Fig. 3 ∘ Fig. 1) | ✓ | ✓ | — irrevocable doorway | ✓ | — writer role queues in the mutex |
//! | `MwmrWriterPriority` (Fig. 4) | ✓ | ✓ | — irrevocable doorway | ✓ | — writer role queues in the mutex |
//! | `MwmrReaderPriority` (Fig. 3 ∘ Fig. 2) | ✓ | ✓ | — irrevocable doorway | ✓ | — readers overtake by design |
//! | `TicketRwLock` | ✓ | ✓ | ✓ | ✓ | ✓ queued (real FIFO ticket) |
//! | `StdRwLock`, `CentralizedRwLock`, `DistributedFlagRwLock`, `TournamentRwLock` | ✓ | ✓ | ✓ | ✓ | ✓ advisory (`QUEUED = false`) |
//! | `Bravo<L>` | ✓ | where `L` is | where `L` is | where `L` is | where `L` is (+ revocation stage) |
//!
//! "Queued" vs. "advisory" is the fairness distinction
//! ([`RawParkedWaiters::QUEUED`]): a queued doorway closes the reader
//! admission path the moment `start_write` returns — exactly like a
//! blocking writer in the protocol — so a parked writer is bypassed by at
//! most the readers already in flight. An advisory doorway (`poll` =
//! `try_write_lock`) grants eventually but promises no bypass bound.
//!
//! The typed front end ([`RwLock`](crate::rwlock::RwLock)) surfaces
//! `try_read` only where `L: RawTryReadLock` and `try_write` only where
//! `L: RawTryRwLock`, so "does this policy support try?" is a compile-time
//! question.
//!
//! The ladder also composes: a *wrapper* lock can implement [`RawRwLock`]
//! around another [`RawRwLock`] and conditionally forward each capability
//! (`RawTryReadLock where L: RawTryReadLock`, and — because it is the
//! marker `&mut T` safety hangs on — [`RawMultiWriter`] **only** where the
//! inner lock is one). `rmr-bravo`'s `Bravo<L>` reader-biased fast path is
//! the workspace's reference wrapper: wrapping a single-writer algorithm
//! keeps the typed `write()` path a compile error, exactly as for the bare
//! lock.
//!
//! The ladder is also what powers the **async front end** (`rmr-async`):
//! `AsyncRwLock::read().await` is gated on [`RawTryReadLock`] (a pending
//! *read* future holds no lock state between polls), while
//! `write().await` is gated on [`RawParkedWaiters`] — the awaiting writer
//! holds a doorway between polls, so the lock counts it like a queued
//! process and continuously overlapping readers cannot starve it. The
//! historical `RawMultiWriter`-gated `write_blocking` endpoint survives
//! only as a deprecated escape hatch for the Fig. 3 ∘ {1, 2} and Fig. 4
//! multi-writer locks, whose writer role queues inside an embedded mutex.

use crate::registry::Pid;

/// A raw reader-writer lock usable by any number of readers and writers.
///
/// This is the common interface over the paper's three multi-writer
/// algorithms (Theorems 3–5), the two single-writer algorithms (whose
/// writer role must additionally be confined to one process at a time — see
/// [`crate::swmr_rwlock`] for the typed enforcement), and the baselines in
/// `rmr-baselines`; the typed [`RwLock`](crate::rwlock::RwLock) front end,
/// the examples and the benchmark harness are all generic over it.
///
/// # Contract
///
/// * `pid` values of concurrently active processes must be distinct and in
///   `0..max_processes()` (use [`PidRegistry`](crate::registry::PidRegistry)).
/// * A process performs one attempt at a time: `read_lock` must be matched
///   by `read_unlock` with the returned token before the same pid starts
///   another attempt, and likewise for writes.
/// * Tokens must be returned to the lock they came from, from any thread
///   that currently *is* that pid (the typed layer pins a guard — and hence
///   the pid — to one thread for exactly this reason).
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrStarvationFree;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrStarvationFree::new(4);
/// let me = Pid::from_index(0);
/// let t = lock.read_lock(me);
/// lock.read_unlock(me, t);
/// let t = lock.write_lock(me);
/// lock.write_unlock(me, t);
/// ```
pub trait RawRwLock: Send + Sync {
    /// Proof of a held read lock.
    type ReadToken;
    /// Proof of a held write lock.
    type WriteToken;

    /// Acquires the lock for reading; blocks (spins) until granted.
    fn read_lock(&self, pid: Pid) -> Self::ReadToken;

    /// Releases a read lock. Bounded: completes in O(1) steps.
    fn read_unlock(&self, pid: Pid, token: Self::ReadToken);

    /// Acquires the lock for writing; blocks (spins) until granted.
    fn write_lock(&self, pid: Pid) -> Self::WriteToken;

    /// Releases a write lock. Bounded: completes in O(1) steps.
    fn write_unlock(&self, pid: Pid, token: Self::WriteToken);

    /// Number of pids supported (the `n` of the theorems).
    ///
    /// Locks with no per-process state may return `usize::MAX` to mean
    /// "unbounded"; the typed front end then requires an explicit capacity
    /// (see [`RwLock::with_raw_and_capacity`](crate::rwlock::RwLock::with_raw_and_capacity)).
    fn max_processes(&self) -> usize;
}

/// Capability marker: **any number of processes may concurrently exercise
/// the writer role.**
///
/// The typed front end's leased/handle write paths
/// ([`RwLock::write`](crate::rwlock::RwLock::write),
/// [`RwLock::try_write`](crate::rwlock::RwLock::try_write),
/// `LockHandle::write`) require this bound: they hand out `&mut T` on the
/// strength of the raw lock's writer exclusion, and the single-writer
/// algorithms (Figures 1–2) only exclude a writer from *readers*, not from
/// a second concurrent writer. Those types therefore do **not** implement
/// this trait — their unique writer endpoint is
/// [`SwmrWriter`](crate::swmr_rwlock::SwmrWriter), which enforces the
/// single writer statically — and `RwLock<_, SwmrWriterPriority>::write()`
/// is a compile error rather than undefined behavior.
///
/// # Safety
///
/// Implementors must guarantee mutual exclusion among arbitrarily many
/// concurrent `write_lock` callers (distinct pids), not merely between the
/// writer role and readers. The typed layer's `unsafe impl Sync` relies on
/// it.
pub unsafe trait RawMultiWriter: RawRwLock {}

/// Capability marker: the lock supports a **bounded read attempt**.
///
/// `try_read_lock` performs the reader doorway, tests the entry condition
/// a bounded number of times, and on failure retires through the ordinary
/// reader exit section — it never waits on another process. For the
/// paper's locks this is sound because an aborting reader is
/// indistinguishable (to every counter and permit) from a reader whose
/// read session was empty.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrStarvationFree;
/// use rmr_core::raw::{RawRwLock, RawTryReadLock};
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrStarvationFree::new(4);
/// let me = Pid::from_index(0);
/// let t = lock.try_read_lock(me).expect("uncontended try_read succeeds");
/// lock.read_unlock(me, t);
/// ```
pub trait RawTryReadLock: RawRwLock {
    /// Attempts to acquire the lock for reading without blocking.
    ///
    /// Returns `None` if the lock could not be acquired in a bounded number
    /// of steps (a writer holds or is entering the critical section). The
    /// attempt may fail spuriously under contention; it never blocks.
    fn try_read_lock(&self, pid: Pid) -> Option<Self::ReadToken>;
}

/// Capability marker: the lock additionally supports a **bounded write
/// attempt** — the full non-blocking tier.
///
/// The paper's core locks do not implement this: their writer doorway
/// (Fig. 1 line 3 / Fig. 2 line 2 / Fig. 4 line 8) irrevocably publishes
/// the new side in `D`, and aborting after it would strand readers parked
/// on the still-closed gate. The baselines, whose write paths are built
/// from mutexes and counters, revoke cleanly.
///
/// # Example
///
/// ```
/// use rmr_baselines::StdRwLock;
/// use rmr_core::raw::{RawRwLock, RawTryRwLock};
/// use rmr_core::registry::Pid;
///
/// let lock = StdRwLock::new(4);
/// let me = Pid::from_index(0);
/// let t = lock.try_write_lock(me).expect("uncontended try_write succeeds");
/// lock.write_unlock(me, t);
/// ```
pub trait RawTryRwLock: RawTryReadLock {
    /// Attempts to acquire the lock for writing without blocking.
    ///
    /// Returns `None` if the lock could not be acquired in a bounded number
    /// of steps. The attempt may fail spuriously under contention; it never
    /// blocks.
    fn try_write_lock(&self, pid: Pid) -> Option<Self::WriteToken>;
}

/// Capability: a **revocable, pollable writer doorway** — the parked-waiter
/// token that makes `write().await` work on locks whose write attempt
/// cannot be made bounded-and-abortable.
///
/// The blocking `write_lock` is, conceptually, three phases: a bounded
/// *doorway* that publishes the writer's intent (Fig. 1 lines 2–5: toggle
/// `D`, announce on `C`), an unbounded *waiting room* (spin until the
/// displaced readers drain), and the grant. This trait splits those phases
/// so an asynchronous caller can run the doorway eagerly, **park between
/// bounded polls while still counted by the lock**, and — the hard part —
/// revoke the intent if the future is dropped:
///
/// * [`start_write`](Self::start_write) runs the doorway and returns a
///   [`WriteDoorway`](Self::WriteDoorway) token. For a *queued*
///   implementation ([`QUEUED`](Self::QUEUED) = `true`) the lock now
///   counts the caller like a blocked writer: the reader admission path is
///   closed, so later readers wait behind the token.
/// * [`poll_write`](Self::poll_write) tests the waiting-room condition a
///   bounded number of times: `Ok(token)` grants the write lock,
///   `Err(doorway)` hands the token back to park on.
/// * [`cancel_write`](Self::cancel_write) revokes a not-yet-granted
///   doorway in a bounded number of steps. Where the protocol's state
///   cannot be unwound inline (the paper's doorway has irrevocably
///   published the new side in `D`), the implementation *defers*: it marks
///   the passage abandoned and the next process through the relevant exit
///   path completes it on the canceller's behalf (helping), restoring the
///   lock to a state indistinguishable from an empty write passage.
///
/// # Contract
///
/// * **One doorway at a time.** At most one doorway may be outstanding per
///   lock; `start_write` must not be called again until the previous
///   doorway was granted-and-released (`write_unlock`) or cancelled. The
///   async front end enforces this with a writer-claim word; other callers
///   must serialize the same way. (Blocking `write_lock`/`try_write_lock`
///   calls by *other* pids remain allowed exactly where the lock's own
///   contract allows them — for single-writer locks they are not.)
/// * A granted `Ok` token is released with the ordinary
///   [`write_unlock`](RawRwLock::write_unlock).
/// * `poll_write` and `cancel_write` must be passed the pid that called
///   `start_write`.
///
/// # Safety
///
/// Implementors must guarantee that a token returned by `poll_write`
/// confers exactly the exclusion of [`write_lock`](RawRwLock::write_lock)
/// — no reader and no other writer is in the critical section — provided
/// the one-doorway-at-a-time contract above holds. The async front end
/// hands out `&mut T` on the strength of this guarantee (its claim word
/// supplies the serialization), which is what lifts the historical
/// `RawMultiWriter`-only gate on async writes.
pub unsafe trait RawParkedWaiters: RawRwLock {
    /// Whether the doorway is **queued** (fairness teeth): once
    /// `start_write` returns, the lock admits no new readers until the
    /// doorway is granted or cancelled, so a parked writer is bypassed by
    /// at most the readers already past the admission point. Advisory
    /// implementations (`false`) poll an ordinary revocable try attempt
    /// and promise no bypass bound — the bounded-bypass oracle in
    /// `rmr-check` only applies where this is `true`.
    const QUEUED: bool;

    /// Proof of a published, not-yet-granted write intent.
    type WriteDoorway;

    /// Runs the writer doorway: bounded, never waits on another process.
    fn start_write(&self, pid: Pid) -> Self::WriteDoorway;

    /// Tests whether the doorway's waiting-room condition has been met, in
    /// a bounded number of steps. `Ok` grants the write lock; `Err`
    /// returns the doorway token unchanged in meaning (park and re-poll
    /// after the lock's release paths make progress).
    fn poll_write(
        &self,
        pid: Pid,
        doorway: Self::WriteDoorway,
    ) -> Result<Self::WriteToken, Self::WriteDoorway>;

    /// Revokes a not-yet-granted doorway. Bounded; may defer completion to
    /// the next exiting process (helping) where the protocol state cannot
    /// be unwound inline. After the cancellation *settles* (all in-flight
    /// passages drain), the lock is indistinguishable from one that served
    /// an empty write passage.
    fn cancel_write(&self, pid: Pid, doorway: Self::WriteDoorway);
}

/// Implements an **advisory** [`RawParkedWaiters`] doorway (`QUEUED =
/// false`) for a type that already implements
/// [`RawTryRwLock`](crate::raw::RawTryRwLock): `start_write` publishes
/// nothing, `poll_write` forwards to `try_write_lock`, `cancel_write` is a
/// no-op. This keeps `write().await` available on every full-try-tier
/// baseline without promising the bypass bound the queued doorways carry.
#[macro_export]
macro_rules! advisory_parked_waiters {
    ($(#[$attr:meta])* impl[$($gen:tt)*] RawParkedWaiters for $ty:ty) => {
        // SAFETY: `poll_write` only succeeds when `try_write_lock` grants,
        // which carries the full write exclusion of the underlying lock.
        $(#[$attr])*
        unsafe impl<$($gen)*> $crate::raw::RawParkedWaiters for $ty {
            const QUEUED: bool = false;
            type WriteDoorway = ();

            fn start_write(&self, _pid: $crate::registry::Pid) {}

            fn poll_write(
                &self,
                pid: $crate::registry::Pid,
                (): (),
            ) -> Result<Self::WriteToken, ()> {
                $crate::raw::RawTryRwLock::try_write_lock(self, pid).ok_or(())
            }

            fn cancel_write(&self, _pid: $crate::registry::Pid, (): ()) {}
        }
    };
}
