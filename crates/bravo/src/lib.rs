//! **rmr-bravo** — a reader-biased fast path over *any* reader-writer
//! lock, after Dice & Kogan's BRAVO (*"BRAVO — Biased Locking for
//! Reader-Writer Locks"*, USENIX ATC 2019; PAPERS.md).
//!
//! The paper's locks achieve O(1) RMR, but every reader still performs at
//! least one store to a *shared* gate or indicator on the hot path; under
//! read-mostly traffic those stores are the coherence bottleneck. BRAVO's
//! observation is that the reader path of an existing lock can be skipped
//! entirely while the lock is **biased** toward readers: a reader instead
//! publishes itself in a *distributed visible-readers table* (one slot per
//! cache line), and a writer **revokes** the bias — flip the bias word
//! off, then scan the table and wait for every published reader to drain
//! — before entering its critical section.
//!
//! [`Bravo<L, B>`] packages that protocol as a wrapper implementing
//! [`RawRwLock`] around any inner lock `L: RawRwLock`, so every consumer of
//! the capability tier — the typed [`RwLock`](rmr_core::rwlock::RwLock)
//! front end, the benches, the `rmr-check` schedule explorer — works
//! unchanged. Like every lock in this workspace it is generic over the
//! memory backend `B` ([`Native`] by default), so the fast path can be
//! RMR-accounted with `Counting` and model-checked with `Sched` on the
//! *shipped* code.
//!
//! # The protocol
//!
//! Shared state added by the wrapper: a bias flag `rbias`, a table of
//! cache-padded slots, **one per pid** (`0` = empty, else `pid + 1`), and
//! a slow-read counter for the re-bias policy. BRAVO hashes sparse thread
//! ids into a shared table; pids here are dense and below
//! `max_processes()`, so slot `pid` belongs to pid `pid` alone.
//!
//! * **Reader fast path.** If `rbias` is set, store `pid + 1` into the
//!   reader's own slot, then **re-check** `rbias`. Still set → the reader
//!   is in (zero operations on the inner lock). Cleared → a revocation is
//!   racing; retract the slot and fall back to the slow path. The publish
//!   is a plain store, not a CAS: `RawRwLock`'s contract gives a pid one
//!   attempt at a time, so its slot is empty and nobody else writes it.
//!   Fast unlock is one store (slot ← empty) to the same line.
//! * **Reader slow path.** `inner.read_lock`, exactly as without the
//!   wrapper, plus one counter bump for the re-bias policy.
//! * **Writer.** `inner.write_lock` first; then, if `rbias` is set: clear
//!   it and scan the n slots, waiting for each published one to drain.
//!   Writer unlock is a pure pass-through.
//! * **Re-bias.** Revocation leaves the bias off (readers go through `L`
//!   again). After `rebias_after` slow reads (default 2), the slow path
//!   switches the bias back on. BRAVO sizes its re-bias inhibition to what
//!   a revocation costs; here a revocation scans n lines, so the window is
//!   a couple of slow passages. The policy is a deterministic counter —
//!   **time-free by design**, unlike the original BRAVO's timestamp
//!   inhibition — so schedules under the `Sched` backend replay
//!   bit-for-bit.
//!
//! # Why revocation preserves exclusion
//!
//! The exclusion predicate (`rmr_sim::predicates::rw_exclusion`, P1) needs:
//! no fast reader inside its read session while the writer is in the CS.
//! The writer's order is *clear `rbias`, then scan*; the reader's order is
//! *publish, then re-check `rbias`*. The four accesses that carry this
//! argument — the reader's publish store and bias re-check, the writer's
//! bias clear and slot scan — are `SeqCst` (sites BR-PUB, BR-RECHECK,
//! BR-CLEAR, BR-SCAN in DESIGN.md §13), so in the single total order
//! either the reader's re-check precedes the writer's clear — then the
//! publish precedes the scan and the writer waits for that slot — or the
//! re-check observes the cleared flag and the reader retracts without
//! ever entering. There is no third interleaving; the re-check after
//! publish is the linchpin (and exactly what the seeded
//! `SkipRevocationScan` mutant in `rmr-check` breaks). Every other
//! access — bias pre-checks, the re-bias store, retract, counters — is
//! deliberately weaker, with the justification written at each site; the
//! `Sched` backend's `StoreBuffer` mode re-checks the whole protocol
//! under store reordering, and the `DemoteBiasClear` and `DemotePublish`
//! faults in `rmr-check` prove that demoting either store half of the
//! square would be caught.
//!
//! # RMR cost — an honest accounting
//!
//! Readers get cheaper: in the biased steady state a read passage performs
//! **zero** operations on the inner lock and only own-cache-line traffic on
//! the table (the CC model charges nothing for a sole-holder update).
//! Writers pay: a revoking writer's scan is **O(n)** RMRs, one per pid, on
//! top of the inner lock's cost — the wrapper deliberately trades the
//! paper's per-writer O(1) bound for reader throughput, which is the right
//! trade only for read-mostly traffic. A write-heavy mix revokes on nearly
//! every write, since two slow reads restore the bias. The `hot-bravo`
//! workload of `perfbench` measures both sides.
//!
//! # Example
//!
//! ```
//! use rmr_bravo::Bravo;
//! use rmr_core::mwmr::MwmrStarvationFree;
//! use rmr_core::RwLock;
//!
//! // Any RawRwLock can be wrapped; multi-writer inner locks keep the
//! // typed write path.
//! let lock = RwLock::with_raw(0u64, Bravo::new(MwmrStarvationFree::new(8)));
//! *lock.write() += 1;
//! assert_eq!(*lock.read(), 1);
//! ```
//!
//! Wrapping a single-writer lock keeps the compile-time write restriction:
//! `Bravo<L>` implements [`RawMultiWriter`] only when `L` does.
//!
//! ```compile_fail
//! use rmr_bravo::Bravo;
//! use rmr_core::swmr::SwmrWriterPriority;
//! use rmr_core::RwLock;
//!
//! let lock = RwLock::with_raw_and_capacity(0u32, Bravo::new(SwmrWriterPriority::new()), 2);
//! let _ = lock.write(); // ERROR: Bravo<SwmrWriterPriority> is not RawMultiWriter
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rmr_core::raw::{RawMultiWriter, RawParkedWaiters, RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedBool, SharedWord, Site};
use rmr_mutex::{spin_until, CachePadded};
use rmr_obs::{Event, NoopRecorder, Recorder};
use std::fmt;

/// An empty visible-readers slot; published slots hold `pid + 1`.
const EMPTY: u64 = 0;

/// Configuration of the wrapper's table and re-bias policy.
///
/// # Example
///
/// ```
/// use rmr_bravo::{Bravo, BravoConfig};
/// use rmr_baselines::TicketRwLock;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::swmr::SwmrWriterPriority;
///
/// // A bounded inner lock sizes the table: one slot per pid.
/// let lock = Bravo::with_config(TicketRwLock::new(4), BravoConfig::default());
/// assert_eq!(lock.table_slots(), 4);
/// // An unbounded one takes `table_slots`, which also caps the pids.
/// let cfg = BravoConfig { table_slots: 8, rebias_after: 4, ..BravoConfig::default() };
/// let lock = Bravo::with_config(SwmrWriterPriority::new(), cfg);
/// assert_eq!((lock.table_slots(), lock.max_processes()), (8, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BravoConfig {
    /// Visible-readers slots (min 1), and so the pid bound, for an inner
    /// lock that reports none (`max_processes() == usize::MAX`: the SWMR
    /// locks). A bounded inner lock gets one slot per pid instead.
    pub table_slots: usize,
    /// Slow reads after a revocation before the bias switches back on;
    /// `0` disables re-biasing (one revocation turns the wrapper off for
    /// good). Deliberately a counter, not a clock: the policy must be
    /// deterministic under the `Sched` backend. The default, 2, is sized
    /// to an n-line revocation and is what the `rmr-check` batteries
    /// explore.
    pub rebias_after: u32,
    /// Whether the lock starts biased toward readers.
    pub initial_bias: bool,
}

impl Default for BravoConfig {
    fn default() -> Self {
        Self { table_slots: 64, rebias_after: 2, initial_bias: true }
    }
}

/// Proof of a held [`Bravo`] read session: either a published table slot
/// (fast path) or the inner lock's own token (slow path).
pub struct BravoReadToken<T> {
    path: ReadPath<T>,
}

enum ReadPath<T> {
    Fast { slot: usize },
    Slow(T),
}

impl<T> BravoReadToken<T> {
    /// True if this session took the biased fast path (never touched the
    /// inner lock).
    pub fn is_fast(&self) -> bool {
        matches!(self.path, ReadPath::Fast { .. })
    }
}

impl<T> fmt::Debug for BravoReadToken<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            ReadPath::Fast { slot } => {
                f.debug_struct("BravoReadToken::Fast").field("slot", slot).finish()
            }
            ReadPath::Slow(_) => f.debug_struct("BravoReadToken::Slow").finish_non_exhaustive(),
        }
    }
}

/// A reader-biased fast path bolted onto the inner lock `L` (see the
/// module docs for the protocol).
///
/// Implements [`RawRwLock`] always, and passes through the capability
/// tier: [`RawTryReadLock`] where `L` has it, [`RawTryRwLock`] where `L`
/// has it, and (crucially for the typed front end) [`RawMultiWriter`]
/// **only** where `L` is one — wrapping a single-writer algorithm keeps
/// `RwLock::write()` a compile error.
/// The third type parameter is an `rmr-obs` [`Recorder`] (default:
/// inert [`NoopRecorder`], hooks const-fold away). With a live recorder
/// ([`Bravo::with_recorder`]) every passage reports which path it took
/// ([`Event::BravoFastRead`] / [`Event::BravoSlowRead`]) plus the
/// policy transitions ([`Event::BravoRevoke`] / [`Event::BravoRebias`]) —
/// the wrapper's bias effectiveness becomes directly measurable.
pub struct Bravo<L, B: Backend = Native, R: Recorder = NoopRecorder> {
    inner: L,
    recorder: R,
    /// The bias word: readers may use the table iff set.
    rbias: B::Bool,
    /// Slow reads since construction; drives the counter re-bias policy.
    slow_reads: B::Word,
    /// Completed revocations (diagnostics; bumped inside the writer's
    /// already-expensive revocation, never on a reader path).
    revocations: B::Word,
    /// The visible-readers table, one slot per cache line.
    slots: Box<[CachePadded<B::Word>]>,
    rebias_after: u64,
}

impl<L: RawRwLock> Bravo<L> {
    /// Wraps `inner` with the default [`BravoConfig`] over the [`Native`]
    /// backend.
    pub fn new(inner: L) -> Self {
        Self::with_config(inner, BravoConfig::default())
    }

    /// Wraps `inner` with an explicit configuration over [`Native`].
    pub fn with_config(inner: L, config: BravoConfig) -> Self {
        Self::new_in(inner, config, Native)
    }
}

impl<L: RawRwLock, B: Backend> Bravo<L, B> {
    /// Wraps `inner` over the given memory backend. The wrapper's own
    /// shared variables (bias word, table, counters) live on `B`; the
    /// inner lock keeps whatever backend it was built with, which is what
    /// lets a `Counting` inner lock prove the fast path performs zero
    /// operations on it.
    pub fn new_in(inner: L, config: BravoConfig, _backend: B) -> Self {
        let slots = match inner.max_processes() {
            usize::MAX => config.table_slots.max(1),
            n => n,
        };
        Self {
            inner,
            recorder: NoopRecorder,
            rbias: B::Bool::new(config.initial_bias),
            slow_reads: B::Word::new(0),
            revocations: B::Word::new(0),
            slots: (0..slots).map(|_| CachePadded::new(B::Word::new(EMPTY))).collect(),
            rebias_after: u64::from(config.rebias_after),
        }
    }
}

impl<L: RawRwLock, B: Backend, R: Recorder> Bravo<L, B, R> {
    /// Replaces the wrapper's recorder, re-typing the wrapper — see the
    /// struct docs. Builder-style because the recorder is a type
    /// parameter (that is what lets disabled hooks const-fold away).
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> Bravo<L, B, R2> {
        Bravo {
            inner: self.inner,
            recorder,
            rbias: self.rbias,
            slow_reads: self.slow_reads,
            revocations: self.revocations,
            slots: self.slots,
            rebias_after: self.rebias_after,
        }
    }

    /// The wrapper's recorder (the default is the inert [`NoopRecorder`]).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Number of visible-readers slots: one per pid.
    pub fn table_slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether the lock is currently biased toward readers.
    pub fn bias(&self) -> bool {
        // Diagnostic snapshot only; no synchronization rides on it.
        self.rbias.load(MemOrdering::Relaxed)
    }

    /// Completed bias revocations so far.
    pub fn revocations(&self) -> u64 {
        // Diagnostic snapshot only.
        self.revocations.load(MemOrdering::Relaxed)
    }

    /// Number of currently published visible-reader slots.
    pub fn published(&self) -> usize {
        // Diagnostic/quiescence snapshot; callers quote it only at rest.
        self.slots.iter().filter(|s| s.load(MemOrdering::Relaxed) != EMPTY).count()
    }

    /// The table slot `pid` owns: its own index.
    pub fn slot_index(&self, pid: Pid) -> usize {
        pid.index()
    }

    /// Checker entry point: the visible-readers table has fully drained.
    /// At-rest bias may legitimately be either value (it records history,
    /// not occupancy); combine with the inner lock's own `is_quiescent`
    /// where one exists.
    pub fn is_quiescent(&self) -> bool {
        self.published() == 0
    }

    /// Attempts the biased fast path. `Some` means the caller is in
    /// (published + bias re-checked); `None` means bias off or a racing
    /// revocation — take the slow path.
    #[inline]
    fn try_fast_read(&self, pid: Pid) -> Option<BravoReadToken<L::ReadToken>> {
        // Relaxed pre-check: purely an optimization hint. A stale `true`
        // is corrected by the SeqCst re-check below; a stale `false` only
        // costs a slow-path detour.
        if !self.rbias.load(MemOrdering::Relaxed) {
            return None;
        }
        let slot = self.slot_index(pid);
        // Site BR-PUB (DESIGN.md §13): the publish half of the
        // publish-then-re-check SB square — SeqCst so it cannot be
        // reordered after the re-check (`DemotePublish` in `rmr-check`).
        // A store, not a CAS: the slot is this pid's alone, and a pid
        // makes one attempt at a time, so it is empty here.
        self.slots[slot].store_at(Site::BR_PUB, pid.index() as u64 + 1, MemOrdering::SeqCst);
        // Site BR-RECHECK: the linchpin re-check — a revoking writer
        // clears the bias before scanning, so either this SeqCst load
        // still sees the bias (and the scan will see our published slot),
        // or we retract and go slow. Demoting the *writer's* half of this
        // square is the `DemoteBiasClear` fault in `rmr-check`.
        if self.rbias.load(MemOrdering::SeqCst) {
            if R::ENABLED {
                self.recorder.count(pid.index(), Event::BravoFastRead);
            }
            return Some(BravoReadToken { path: ReadPath::Fast { slot } });
        }
        // Retract before ever entering the CS: nothing was read under the
        // failed publish, so no ordering obligation — Relaxed.
        self.slots[slot].store(EMPTY, MemOrdering::Relaxed);
        None
    }

    /// The slow read path behind [`RawRwLock::read_lock`] and
    /// [`RawTryReadLock::try_read_lock`]: `acquire` takes the inner read
    /// lock (`None`: a bounded attempt was denied), then the re-bias
    /// policy and its hooks run. Kept out of line so the fast path inlines
    /// into the caller's passage.
    #[cold]
    #[inline(never)]
    fn read_slow(
        &self,
        pid: Pid,
        acquire: impl FnOnce(&L) -> Option<L::ReadToken>,
    ) -> Option<BravoReadToken<L::ReadToken>> {
        let token = acquire(&self.inner)?;
        let rebiased = self.note_slow_read();
        if R::ENABLED {
            self.recorder.count(pid.index(), Event::BravoSlowRead);
            if rebiased {
                self.recorder.count(pid.index(), Event::BravoRebias);
            }
        }
        Some(BravoReadToken { path: ReadPath::Slow(token) })
    }

    /// The counter re-bias policy. Must only be called while holding the
    /// inner read lock: that is what guarantees no writer is inside its
    /// critical section at the instant the bias switches back on. Returns
    /// whether this read restored the bias (the observability hook).
    fn note_slow_read(&self) -> bool {
        if self.rebias_after == 0 {
            return false;
        }
        // Relaxed: the counter is a policy heuristic, not a synchronizer.
        let n = self.slow_reads.fetch_add(1, MemOrdering::Relaxed) + 1;
        if n.is_multiple_of(self.rebias_after) {
            // Relaxed: we hold the inner read lock, so any writer that
            // could act on this bias first completes `inner.write_lock`,
            // and a correct inner lock's read-unlock → write-lock handoff
            // is itself a happens-before edge that carries this store.
            self.rbias.store(true, MemOrdering::Relaxed);
            return true;
        }
        false
    }

    /// Writer-side bias revocation: clear the bias word, then scan the
    /// table and wait for every published reader to drain. Must be called
    /// while holding the inner write lock. Returns whether a revocation
    /// actually happened (the observability hook).
    fn revoke(&self) -> bool {
        // Relaxed: the bias was last set by a slow reader holding the
        // inner read lock (or retained from init), and we hold the inner
        // write lock — the inner handoff already ordered that store
        // before this load.
        if !self.rbias.load(MemOrdering::Relaxed) {
            return false;
        }
        // Site BR-CLEAR: the writer's half of the revocation SB square.
        // MUST be SeqCst, not Release — a buffered (reordered-late) clear
        // would let the scan below run while a fast reader's SeqCst
        // re-check still observes the stale bias: both enter. This is the
        // `DemoteBiasClear` fault in `rmr-check`.
        self.rbias.store_at(Site::BR_CLEAR, false, MemOrdering::SeqCst);
        for slot in self.slots.iter() {
            // Site BR-SCAN: SeqCst keeps the scan after the clear in the
            // total order (the SB half) and acquires each reader's
            // retract/unlock store before the writer enters the CS.
            spin_until(|| slot.load_at(Site::BR_SCAN, MemOrdering::SeqCst) == EMPTY);
        }
        // Diagnostics only.
        self.revocations.fetch_add(1, MemOrdering::Relaxed);
        true
    }
}

impl<L: RawRwLock, B: Backend, R: Recorder> RawRwLock for Bravo<L, B, R> {
    type ReadToken = BravoReadToken<L::ReadToken>;
    type WriteToken = L::WriteToken;

    #[inline]
    fn read_lock(&self, pid: Pid) -> Self::ReadToken {
        self.try_fast_read(pid)
            .or_else(|| self.read_slow(pid, |inner| Some(inner.read_lock(pid))))
            .expect("a blocking read lock always grants")
    }

    #[inline]
    fn read_unlock(&self, pid: Pid, token: Self::ReadToken) {
        match token.path {
            ReadPath::Fast { slot } => {
                debug_assert_eq!(slot, self.slot_index(pid), "token returned by a foreign pid");
                // Release: publishes the read session's effects to the
                // revoking writer, whose SeqCst scan load acquires it.
                self.slots[slot].store(EMPTY, MemOrdering::Release);
            }
            ReadPath::Slow(t) => self.inner.read_unlock(pid, t),
        }
    }

    fn write_lock(&self, pid: Pid) -> Self::WriteToken {
        let token = self.inner.write_lock(pid);
        let revoked = self.revoke();
        if R::ENABLED && revoked {
            self.recorder.count(pid.index(), Event::BravoRevoke);
        }
        token
    }

    fn write_unlock(&self, pid: Pid, token: Self::WriteToken) {
        self.inner.write_unlock(pid, token);
    }

    /// The inner lock's bound, capped by the table: every pid owns a slot.
    fn max_processes(&self) -> usize {
        self.inner.max_processes().min(self.slots.len())
    }
}

// SAFETY: writer-writer exclusion is delegated verbatim to the inner lock
// (`write_lock` is inner-first); the wrapper only adds readers that every
// writer drains before entering. So `Bravo<L>` excludes concurrent writers
// exactly when `L` does.
unsafe impl<L: RawMultiWriter, B: Backend, R: Recorder> RawMultiWriter for Bravo<L, B, R> {}

impl<L: RawTryReadLock, B: Backend, R: Recorder> RawTryReadLock for Bravo<L, B, R> {
    fn try_read_lock(&self, pid: Pid) -> Option<Self::ReadToken> {
        self.try_fast_read(pid).or_else(|| self.read_slow(pid, |inner| inner.try_read_lock(pid)))
    }
}

impl<L: RawTryRwLock, B: Backend, R: Recorder> RawTryRwLock for Bravo<L, B, R> {
    /// Bounded write attempt: inner `try_write_lock`, then a **one-shot**
    /// revocation — clear the bias and scan the table once, without
    /// waiting. An all-empty scan proves no fast reader can be inside
    /// (same SeqCst argument as the blocking revocation), so the attempt
    /// succeeds and stays bounded by the n slots. Any published slot
    /// fails the attempt, and the failure path **restores the bias it
    /// cleared**: `revoke` keys its scan off the bias word, so leaving it
    /// cleared with readers still published would let a later *blocking*
    /// writer skip the scan and enter over a fast reader — the
    /// cleared-bias state is only ever allowed to persist once the table
    /// has been observed (or made) empty.
    fn try_write_lock(&self, pid: Pid) -> Option<Self::WriteToken> {
        let token = self.inner.try_write_lock(pid)?;
        // Relaxed pre-check: same inner-handoff argument as `revoke`.
        let was_biased = self.rbias.load(MemOrdering::Relaxed);
        if was_biased {
            // Site BR-CLEAR (one-shot variant): same SB square as the
            // blocking revocation — SeqCst for the same reason.
            self.rbias.store_at(Site::BR_CLEAR, false, MemOrdering::SeqCst);
        }
        // Site BR-SCAN (one-shot variant): SeqCst, as in `revoke`.
        if self.slots.iter().any(|slot| slot.load_at(Site::BR_SCAN, MemOrdering::SeqCst) != EMPTY) {
            // Back out: un-clear the bias first (we hold the inner write
            // lock, so no revocation or re-bias can race this store),
            // then release. Fast readers resume as if the attempt never
            // happened. Relaxed: a reader acting on this restored bias
            // re-checks it with SeqCst after publishing, and the store is
            // also carried by the write-unlock handoff below.
            if was_biased {
                self.rbias.store(true, MemOrdering::Relaxed);
            }
            self.inner.write_unlock(pid, token);
            return None;
        }
        Some(token)
    }
}

/// A parked [`Bravo`] write passage: the inner lock's own doorway first,
/// then — once the inner lock granted — a **staged revocation** (bias
/// cleared; each poll is one bounded table scan).
#[must_use = "an abandoned doorway must be cancelled with cancel_write"]
pub enum BravoDoorway<D, T> {
    /// Still waiting on the inner lock's doorway. The bias is untouched,
    /// so fast readers are unaffected.
    Inner(D),
    /// Inner write lock granted and held (`token`); the bias has been
    /// cleared (site BR-CLEAR, recorded in `was_biased` so a cancel can
    /// restore it), and each poll scans the table once waiting for the
    /// published readers to drain.
    Revoking {
        /// The inner lock's write token, held across polls.
        token: T,
        /// Whether this passage cleared the bias (and must restore it on
        /// cancel / count the revocation on grant).
        was_biased: bool,
    },
}

impl<D, T> fmt::Debug for BravoDoorway<D, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Inner(_) => f.debug_struct("BravoDoorway::Inner").finish_non_exhaustive(),
            Self::Revoking { was_biased, .. } => f
                .debug_struct("BravoDoorway::Revoking")
                .field("was_biased", was_biased)
                .finish_non_exhaustive(),
        }
    }
}

// SAFETY: a granted poll holds the inner lock's own write token *and* has
// observed an all-empty table after clearing the bias — exactly the
// exclusion proof of `write_lock` (inner grant, then revocation), just
// staged across bounded polls. `cancel_write` unwinds precisely like
// `try_write_lock`'s failure path: restore the bias it cleared (sound —
// the inner write lock is still held), then release the inner lock.
unsafe impl<L: RawParkedWaiters, B: Backend, R: Recorder> RawParkedWaiters for Bravo<L, B, R> {
    /// **Advisory for fairness purposes** even when `L` is queued: while
    /// the bias is on, fast readers enter through the table without ever
    /// consulting the inner lock, so a doorway parked in `Inner` stage
    /// has **no bypass bound** — arbitrarily many biased readers can
    /// stream past before the inner grant. (Once the inner lock grants,
    /// the bias clear closes admission and the drain is bounded by the
    /// in-flight readers — but a static `QUEUED = true` would promise the
    /// bound from token time, which the biased window breaks.) This is
    /// BRAVO's deliberate trade: reader throughput over writer latency.
    const QUEUED: bool = false;
    type WriteDoorway = BravoDoorway<L::WriteDoorway, L::WriteToken>;

    fn start_write(&self, pid: Pid) -> Self::WriteDoorway {
        BravoDoorway::Inner(self.inner.start_write(pid))
    }

    fn poll_write(
        &self,
        pid: Pid,
        doorway: Self::WriteDoorway,
    ) -> Result<Self::WriteToken, Self::WriteDoorway> {
        let (token, was_biased) = match doorway {
            BravoDoorway::Inner(inner) => match self.inner.poll_write(pid, inner) {
                Ok(token) => {
                    // Inner write lock granted: run the revocation's first
                    // half now, while we are here. Relaxed pre-check and
                    // SeqCst clear exactly as in `revoke` — we hold the
                    // inner write lock, so the same arguments apply.
                    let was_biased = self.rbias.load(MemOrdering::Relaxed);
                    if was_biased {
                        // Site BR-CLEAR (staged variant): SeqCst for the
                        // same SB-square reason as the blocking revocation.
                        self.rbias.store_at(Site::BR_CLEAR, false, MemOrdering::SeqCst);
                    }
                    (token, was_biased)
                }
                Err(inner) => return Err(BravoDoorway::Inner(inner)),
            },
            BravoDoorway::Revoking { token, was_biased } => (token, was_biased),
        };
        // Site BR-SCAN (staged variant): one bounded pass per poll. An
        // all-empty scan after the clear proves no fast reader can be
        // inside (the one-shot `try_write_lock` argument verbatim); a
        // published slot parks the writer until that reader drains — its
        // unlock is what re-polls us in the async tier.
        if self.slots.iter().any(|slot| slot.load_at(Site::BR_SCAN, MemOrdering::SeqCst) != EMPTY) {
            return Err(BravoDoorway::Revoking { token, was_biased });
        }
        if was_biased {
            // Diagnostics only, as in `revoke`.
            self.revocations.fetch_add(1, MemOrdering::Relaxed);
            if R::ENABLED {
                self.recorder.count(pid.index(), Event::BravoRevoke);
            }
        }
        Ok(token)
    }

    fn cancel_write(&self, pid: Pid, doorway: Self::WriteDoorway) {
        match doorway {
            BravoDoorway::Inner(inner) => self.inner.cancel_write(pid, inner),
            BravoDoorway::Revoking { token, was_biased } => {
                // The `try_write_lock` failure path: un-clear the bias
                // first (we hold the inner write lock, so no revocation
                // or re-bias can race this store), then release. Leaving
                // the bias cleared with readers still published would let
                // a later blocking writer skip its scan — see the try
                // tier's comment.
                if was_biased {
                    self.rbias.store(true, MemOrdering::Relaxed);
                }
                self.inner.write_unlock(pid, token);
            }
        }
    }
}

impl<L: RawRwLock, B: Backend, R: Recorder> fmt::Debug for Bravo<L, B, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bravo")
            .field("bias", &self.bias())
            .field("published", &self.published())
            .field("table_slots", &self.table_slots())
            .field("revocations", &self.revocations())
            .field("rebias_after", &self.rebias_after)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_baselines::TicketRwLock;
    use rmr_core::mwmr::MwmrStarvationFree;
    use rmr_core::swmr::SwmrWriterPriority;
    use rmr_core::RwLock;
    use rmr_mutex::mem::{self, Counting};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    fn fast_path_publishes_and_retracts() {
        let lock = Bravo::new(TicketRwLock::new(4));
        assert!(lock.bias());
        let t = lock.read_lock(pid(0));
        assert!(t.is_fast());
        assert_eq!(lock.published(), 1);
        assert!(!lock.is_quiescent());
        lock.read_unlock(pid(0), t);
        assert_eq!(lock.published(), 0);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn table_is_one_slot_per_pid() {
        // Bounded inner lock: its bound sizes the table, whatever the
        // config says, and every pid reads fast in its own slot at once.
        let cfg = BravoConfig { table_slots: 1, ..BravoConfig::default() };
        let lock = Bravo::with_config(TicketRwLock::new(3), cfg);
        assert_eq!((lock.table_slots(), lock.max_processes()), (3, 3));
        let tokens: Vec<_> = (0..3).map(|i| (i, lock.read_lock(pid(i)))).collect();
        for (i, t) in tokens {
            assert!(t.is_fast(), "pid {i} fell off the fast path");
            assert_eq!(lock.slot_index(pid(i)), i);
            lock.read_unlock(pid(i), t);
        }
        assert!(lock.is_quiescent());
        // Unbounded inner lock: `table_slots` sizes the table and caps
        // `max_processes`.
        let lock = Bravo::new(SwmrWriterPriority::new());
        assert_eq!((lock.table_slots(), lock.max_processes()), (64, 64));
        let cfg = BravoConfig { table_slots: 0, ..BravoConfig::default() };
        let lock = Bravo::with_config(SwmrWriterPriority::new(), cfg);
        assert_eq!((lock.table_slots(), lock.max_processes()), (1, 1));
    }

    #[test]
    fn writer_revokes_and_waits_for_published_readers() {
        let lock = Arc::new(Bravo::new(TicketRwLock::new(4)));
        let t = lock.read_lock(pid(0));
        assert!(t.is_fast());

        let w_in = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let w_in2 = Arc::clone(&w_in);
        let w = std::thread::spawn(move || {
            let () = l2.write_lock(pid(1));
            w_in2.store(true, Ordering::SeqCst);
            l2.write_unlock(pid(1), ());
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!w_in.load(Ordering::SeqCst), "writer entered over a published fast reader");
        assert!(!lock.bias(), "revocation must clear the bias before the scan");

        lock.read_unlock(pid(0), t);
        w.join().unwrap();
        assert!(w_in.load(Ordering::SeqCst));
        assert_eq!(lock.revocations(), 1);
    }

    #[test]
    fn readers_after_revocation_take_the_slow_path() {
        let lock = Bravo::new(TicketRwLock::new(4));
        let () = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), ());
        assert!(!lock.bias());
        let t = lock.read_lock(pid(1));
        assert!(!t.is_fast());
        lock.read_unlock(pid(1), t);
    }

    #[test]
    fn counter_policy_rebiases_after_n_slow_reads() {
        let cfg = BravoConfig { rebias_after: 3, ..BravoConfig::default() };
        let lock = Bravo::with_config(TicketRwLock::new(4), cfg);
        let () = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), ());
        assert!(!lock.bias());
        for i in 0..3 {
            assert!(!lock.bias(), "rebias fired early, after {i} slow reads");
            let t = lock.read_lock(pid(1));
            assert!(!t.is_fast());
            lock.read_unlock(pid(1), t);
        }
        assert!(lock.bias(), "3 slow reads must restore the bias");
        let t = lock.read_lock(pid(1));
        assert!(t.is_fast());
        lock.read_unlock(pid(1), t);
    }

    #[test]
    fn default_policy_rebiases_after_two_slow_reads() {
        let lock = Bravo::new(TicketRwLock::new(2));
        let () = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), ());
        for fast in [false, false, true] {
            let t = lock.read_lock(pid(1));
            assert_eq!(t.is_fast(), fast);
            lock.read_unlock(pid(1), t);
        }
        assert_eq!(lock.revocations(), 1);
    }

    #[test]
    fn rebias_zero_disables_the_policy() {
        let cfg = BravoConfig { rebias_after: 0, ..BravoConfig::default() };
        let lock = Bravo::with_config(TicketRwLock::new(4), cfg);
        let () = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), ());
        for _ in 0..100 {
            let t = lock.read_lock(pid(1));
            assert!(!t.is_fast());
            lock.read_unlock(pid(1), t);
        }
        assert!(!lock.bias());
    }

    #[test]
    fn try_read_uses_the_fast_path() {
        let lock = Bravo::new(TicketRwLock::new(4));
        let t = lock.try_read_lock(pid(0)).expect("biased try_read");
        assert!(t.is_fast());
        lock.read_unlock(pid(0), t);
    }

    #[test]
    fn try_write_revokes_once_and_stays_bounded() {
        let lock = Bravo::new(TicketRwLock::new(4));
        // Uncontended: the one-shot revocation finds an empty table.
        lock.try_write_lock(pid(0)).expect("uncontended try_write");
        lock.write_unlock(pid(0), ());
        assert!(!lock.bias());

        // A published fast reader bounds the next attempt to a failure —
        // and the failure must restore the bias it cleared (leaving it
        // revoked would desynchronize the bias word from the table; see
        // the regression test below).
        let cfg = BravoConfig::default();
        let lock = Bravo::with_config(TicketRwLock::new(4), cfg);
        let rt = lock.read_lock(pid(1));
        assert!(rt.is_fast());
        assert!(lock.try_write_lock(pid(0)).is_none(), "must fail, not wait");
        assert!(lock.bias(), "failed try_write must restore the bias");
        lock.read_unlock(pid(1), rt);
        lock.try_write_lock(pid(0)).expect("drained table");
        lock.write_unlock(pid(0), ());
    }

    #[test]
    fn blocking_writer_after_failed_try_write_still_waits_for_fast_reader() {
        // Regression: a failed try_write clears the bias to scan, and
        // must NOT leave it cleared — revoke() keys its scan off the bias
        // word, so a later blocking writer would skip the scan and enter
        // the critical section over the still-published fast reader.
        let lock = Arc::new(Bravo::new(TicketRwLock::new(4)));
        let rt = lock.read_lock(pid(0));
        assert!(rt.is_fast());
        assert!(lock.try_write_lock(pid(1)).is_none());

        let w_in = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let w_in2 = Arc::clone(&w_in);
        let w = std::thread::spawn(move || {
            let () = l2.write_lock(pid(2));
            w_in2.store(true, Ordering::SeqCst);
            l2.write_unlock(pid(2), ());
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !w_in.load(Ordering::SeqCst),
            "writer entered the CS over a published fast reader (bias/table desync)"
        );
        lock.read_unlock(pid(0), rt);
        w.join().unwrap();
        assert!(w_in.load(Ordering::SeqCst));
        assert!(lock.is_quiescent());
    }

    /// `readers` threads run `passages` biased read passages each, after
    /// one warm-up passage, over a wrapper whose inner lock alone is on
    /// `Counting`: every passage must take the fast path and perform zero
    /// inner-lock operations. Returns the lock for follow-up checks.
    fn assert_biased_readers_skip_inner<L>(
        inner: L,
        readers: usize,
        passages: usize,
    ) -> Arc<Bravo<L>>
    where
        L: RawRwLock + Send + Sync + 'static,
    {
        let lock = Arc::new(Bravo::new_in(inner, BravoConfig::default(), Native));
        let barrier = Arc::new(std::sync::Barrier::new(readers));
        let threads: Vec<_> = (0..readers)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Meet before anything can panic, so a failing reader
                    // never strands the others at the barrier.
                    barrier.wait();
                    mem::set_thread_slot(i + 1);
                    let t = lock.read_lock(pid(i));
                    lock.read_unlock(pid(i), t);
                    for _ in 0..passages {
                        mem::reset_thread_tally();
                        let t = lock.read_lock(pid(i));
                        assert!(t.is_fast(), "pid {i} fell off the fast path");
                        lock.read_unlock(pid(i), t);
                        let tally = mem::thread_tally();
                        assert_eq!(
                            tally.ops, 0,
                            "pid {i}'s biased read touched the inner lock: {tally:?}"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(lock.is_quiescent());
        lock
    }

    #[test]
    fn biased_steady_state_performs_zero_inner_lock_ops() {
        // The acceptance criterion of the subsystem: inner lock over
        // `Counting`, wrapper over `Native` — the thread tally then counts
        // *only* inner-lock operations, and a biased read passage must
        // score zero, for a lone reader and for concurrent readers alike.
        for readers in [1, 4] {
            assert_biased_readers_skip_inner(TicketRwLock::new_in(4, Counting), readers, 500);
            assert_biased_readers_skip_inner(SwmrWriterPriority::new_in(Counting), readers, 500);
        }

        // Contrast: after a revocation the slow path pays the inner cost.
        let lock = assert_biased_readers_skip_inner(TicketRwLock::new_in(4, Counting), 1, 1);
        let () = lock.write_lock(pid(1));
        lock.write_unlock(pid(1), ());
        mem::set_thread_slot(1);
        mem::reset_thread_tally();
        let t = lock.read_lock(pid(0));
        assert!(!t.is_fast());
        lock.read_unlock(pid(0), t);
        assert!(mem::thread_tally().ops > 0, "slow path must go through the inner lock");
    }

    #[test]
    fn instrumented_steady_state_still_performs_zero_inner_lock_ops() {
        // Tentpole acceptance criterion: attach a live StatsRecorder and
        // the biased read passage must STILL score zero inner-lock
        // operations (and zero CC RMRs) — the recorder writes only to the
        // calling pid's own cache-padded slot via plain std atomics,
        // which the Counting backend does not (and must not) see.
        use rmr_obs::StatsRecorder;
        let rec = Arc::new(StatsRecorder::new(8));
        let lock: Bravo<TicketRwLock<Counting>, Native, Arc<StatsRecorder>> =
            Bravo::new_in(TicketRwLock::new_in(4, Counting), BravoConfig::default(), Native)
                .with_recorder(Arc::clone(&rec));
        mem::set_thread_slot(1);
        let t = lock.read_lock(pid(0));
        assert!(t.is_fast());
        lock.read_unlock(pid(0), t);

        mem::reset_thread_tally();
        for _ in 0..100 {
            let t = lock.read_lock(pid(0));
            lock.read_unlock(pid(0), t);
        }
        let tally = mem::thread_tally();
        assert_eq!(tally.ops, 0, "instrumentation leaked onto the inner lock: {tally:?}");
        assert_eq!(tally.cc, 0, "instrumentation cost CC RMRs: {tally:?}");
        assert_eq!(rec.counter(Event::BravoFastRead), 101);
        assert_eq!(rec.counter(Event::BravoSlowRead), 0);
    }

    #[test]
    fn recorder_sees_path_split_revocation_and_rebias() {
        use rmr_obs::StatsRecorder;
        type Lock = Bravo<TicketRwLock, Native, Arc<StatsRecorder>>;
        type Read = fn(&Lock) -> BravoReadToken<()>;
        // Both read entry points share the slow path and its counts.
        let blocking: Read = |lock| lock.read_lock(pid(0));
        let bounded: Read = |lock| lock.try_read_lock(pid(0)).expect("no writer holds the lock");
        for read in [blocking, bounded] {
            let rec = Arc::new(StatsRecorder::new(8));
            let cfg = BravoConfig { rebias_after: 2, ..BravoConfig::default() };
            let lock: Lock =
                Bravo::with_config(TicketRwLock::new(4), cfg).with_recorder(Arc::clone(&rec));

            let t = read(&lock);
            assert!(t.is_fast());
            lock.read_unlock(pid(0), t);
            let () = lock.write_lock(pid(1));
            lock.write_unlock(pid(1), ());
            assert_eq!(rec.counter(Event::BravoRevoke), 1);

            // Two slow reads: the second restores the bias.
            for _ in 0..2 {
                let t = read(&lock);
                assert!(!t.is_fast());
                lock.read_unlock(pid(0), t);
            }
            assert_eq!(rec.counter(Event::BravoSlowRead), 2);
            assert_eq!(rec.counter(Event::BravoRebias), 1);
            let t = read(&lock);
            assert!(t.is_fast());
            lock.read_unlock(pid(0), t);
            assert_eq!(rec.counter(Event::BravoFastRead), 2);
        }
    }

    #[test]
    fn typed_rwlock_front_end_compiles_and_works() {
        let lock = RwLock::with_raw(vec![1u8], Bravo::new(MwmrStarvationFree::new(4)));
        lock.write().push(2);
        assert_eq!(*lock.read(), vec![1, 2]);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn typed_concurrent_increments_are_not_lost() {
        let lock = Arc::new(RwLock::with_raw(0u64, Bravo::new(TicketRwLock::new(8))));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            threads.push(std::thread::spawn(move || {
                for i in 0..200 {
                    if i % 4 == 0 {
                        *lock.write() += 1;
                    } else {
                        let _ = *lock.read();
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.read(), 200);
        assert!(lock.raw().is_quiescent());
    }

    #[test]
    fn raw_exclusion_stress() {
        // Readers hammer the fast path while writers revoke and re-bias
        // churns: the protected pair must never tear.
        let lock = Arc::new(Bravo::with_config(
            TicketRwLock::new(8),
            BravoConfig { rebias_after: 4, ..BravoConfig::default() },
        ));
        let cell = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut threads = Vec::new();
        for t in 0..4 {
            let lock = Arc::clone(&lock);
            let cell = Arc::clone(&cell);
            threads.push(std::thread::spawn(move || {
                for i in 0..500 {
                    if (t + i) % 5 == 0 {
                        let () = lock.write_lock(pid(t));
                        let v = cell.load(Ordering::SeqCst);
                        cell.store(v + 1, Ordering::SeqCst);
                        lock.write_unlock(pid(t), ());
                    } else {
                        let tok = lock.read_lock(pid(t));
                        let _ = cell.load(Ordering::SeqCst);
                        lock.read_unlock(pid(t), tok);
                    }
                }
            }));
        }
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(cell.load(Ordering::SeqCst), 400, "lost update: exclusion broke");
        assert!(lock.is_quiescent());
    }

    #[test]
    fn debug_formats() {
        let lock = Bravo::new(TicketRwLock::new(2));
        let s = format!("{lock:?}");
        assert!(s.contains("Bravo") && s.contains("bias"), "{s}");
        let t = lock.read_lock(pid(0));
        assert!(format!("{t:?}").contains("Fast"));
        lock.read_unlock(pid(0), t);
    }

    #[test]
    fn doorway_revokes_bias_after_inner_grant() {
        let lock = Bravo::new(TicketRwLock::new(4));
        // A published fast reader holds the passage in the Revoking stage.
        let r = lock.read_lock(pid(0));
        assert!(r.is_fast());
        let d = lock.start_write(pid(1));
        // Inner ticket grants immediately (the fast reader never queued
        // there), so this poll clears the bias and parks on the drain.
        let d = lock.poll_write(pid(1), d).expect_err("published reader still inside");
        assert!(matches!(d, BravoDoorway::Revoking { was_biased: true, .. }));
        assert!(!lock.bias(), "doorway poll must have cleared the bias");
        // A new reader can no longer take the fast path.
        assert!(lock.try_read_lock(pid(2)).is_none(), "inner write held + bias off");
        lock.read_unlock(pid(0), r);
        lock.poll_write(pid(1), d).expect("table drained");
        assert_eq!(lock.revocations(), 1);
        lock.write_unlock(pid(1), ());
        assert!(lock.is_quiescent());
    }

    #[test]
    fn cancel_in_revoking_stage_restores_bias_and_releases_inner() {
        let lock = Bravo::new(TicketRwLock::new(4));
        let r = lock.read_lock(pid(0));
        let d = lock.start_write(pid(1));
        let d = lock.poll_write(pid(1), d).expect_err("fast reader published");
        lock.cancel_write(pid(1), d);
        assert!(lock.bias(), "cancel must restore the bias it cleared");
        // The inner lock was released: both paths admit readers again.
        let r2 = lock.read_lock(pid(2));
        assert!(r2.is_fast(), "bias restored, fast path live again");
        lock.read_unlock(pid(2), r2);
        lock.read_unlock(pid(0), r);
        // And a fresh writer passage completes normally.
        lock.write_lock(pid(3));
        lock.write_unlock(pid(3), ());
        assert!(lock.is_quiescent());
    }

    #[test]
    fn cancel_in_inner_stage_forwards_to_the_inner_doorway() {
        let lock = Bravo::new(TicketRwLock::new(4));
        // Hold the inner lock through a *slow* reader so the inner ticket
        // doorway actually queues.
        let r = lock.try_fast_read(pid(0)).expect("the lock starts biased");
        lock.read_unlock(pid(0), r); // retract helper probe
        lock.inner.read_lock(pid(0));
        let d = lock.start_write(pid(1));
        let d = lock.poll_write(pid(1), d).expect_err("inner reader ahead in the queue");
        assert!(matches!(d, BravoDoorway::Inner(_)));
        lock.cancel_write(pid(1), d);
        lock.inner.read_unlock(pid(0), ());
        assert!(lock.bias(), "inner-stage cancel never touched the bias");
        lock.write_lock(pid(2));
        lock.write_unlock(pid(2), ());
        assert!(lock.is_quiescent());
    }
}
