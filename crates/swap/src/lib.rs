//! **rmr-swap** — an epoch-swap snapshot tier with zero-RMR wait-free
//! reads over any of the workspace's raw locks.
//!
//! The paper's locks achieve O(1) RMR per passage; BRAVO (`rmr-bravo`)
//! drops a biased reader to a couple of ops. This tier takes the last
//! step for read-mostly data: a [`Snapshot<T>`](Snapshot) read is one
//! payload-pointer load plus an epoch stamp into the reader's *own*
//! cache-padded slot — **zero** shared-variable RMRs in steady state,
//! wait-free (no loop whose length another process controls). Writers
//! pay for it: an update clones-or-rebuilds the payload, swaps a
//! pointer, and retires the old payload through a grace period over the
//! reader epoch table — RCU's trade, with the age-vs-memory retirement
//! knob from Ramani et al. surfaced as the [`RetirePolicy`] type
//! parameter.
//!
//! # The protocol
//!
//! Shared state: a global epoch counter `G` (starts at 1), the current
//! payload pointer `P`, and the snapshot's *epoch table*: one
//! cache-padded slot per pid of its [`PidRegistry`] (0 = empty). The
//! accesses that carry the grace-period argument — the reader's epoch
//! publish and payload load, the writer's payload swap, epoch bump, and
//! table scan (sites SW-PUB, SW-LOAD, SW-SWAP, SW-BUMP, SW-SCAN in
//! DESIGN.md §13) — are `SeqCst`; everything else (the initial epoch
//! read, lock-protected accesses, diagnostics) is relaxed, with the
//! justification at each site.
//!
//! *Reader pin* ([`Snapshot::load`]):
//!
//! 1. `e ← G`; **publish** `e` into own slot;
//! 2. `p ← P` (the snapshot the guard will dereference);
//! 3. `e₂ ← G`; if `e₂ ≠ e`, republish `e₂` and reload `p` — one bounded
//!    round, so the whole passage is wait-free.
//!
//! Guard drop clears the slot.
//!
//! *Writer install* ([`Snapshot::update`] / [`Snapshot::store`]), under
//! the raw lock `L`'s write session (writers serialize through any of the
//! paper's locks, so readers never contend on anything):
//!
//! 1. build the new payload, `old ← swap(P, new)`;
//! 2. `r ← G + 1` (fetch&add — `old` is *retired at epoch `r`*);
//! 3. grace period: `old` (and any earlier retiree) may be freed once
//!    every slot is empty or holds an epoch ≥ its retirement epoch.
//!    [`RetireEager`] waits for that bound inside the write session;
//!    [`RetireBatched`] defers it until `high_water` payloads have
//!    accumulated and then frees whatever a single non-blocking scan
//!    proves unpinned.
//!
//! # Why the publish-then-load order is the linchpin
//!
//! A guard must never dereference a freed payload. The freeing rule is
//! "retired at `r`, freeable once `r` ≤ every published epoch". Suppose a
//! reader's guard holds payload `p` and some writer frees `p`:
//!
//! * the reader loaded `P` **after** publishing `v`, so at load time `p`
//!   was current, not yet retired;
//! * the retiring swap therefore happened after the reader's load, and
//!   the epoch bump gives `r ≥ v + 1 > v` (G was already ≥ `v` when the
//!   reader read it, and it only grows);
//! * the retiring writer's grace scan runs after its swap, hence after
//!   the reader's publish — so it reads the slot as `v < r` and the
//!   freeing rule forbids freeing `p` until the slot changes.
//!
//! Publishing a *stale* epoch (G advanced between reading `e` and
//! publishing it) only over-pins — a lower published epoch pins more,
//! never less. The step-3 re-check bounds that staleness to one round so
//! a reader never blocks reclamation by more than one epoch of slack.
//! The model-checked battery in `rmr-check` (see `tests/swap.rs` there)
//! drives exactly these oracles — no guard observes a retired payload,
//! no payload is freed while an epoch pins it — and the
//! `Mutation::PrematureRetire` mutant (the grace scan skips one slot)
//! verifies the battery would catch the bug this argument rules out. It
//! is seeded into an arena model of this protocol (`rmr_check::mutants::
//! MutantSwap`), not into this code through a site fault: here the bug
//! would be a real use-after-free rather than an oracle panic.
//!
//! # RMR cost — an honest accounting
//!
//! * **Read passage, steady state**: `G` and `P` are cached after the
//!   first passage and invalidated only by an actual update; the epoch
//!   publish and clear hit the reader's own padded slot, which no one
//!   else writes — in the CC model that is **0 RMRs** while no write is
//!   in flight. The `Counting`-backend acceptance test
//!   `steady_state_load_performs_zero_cc_rmrs` asserts exactly this.
//! * **Write passage**: O(copy of `T`) + the raw lock's O(1) RMR
//!   passage + an **O(registry-capacity) grace scan** — every slot is
//!   read once (eager waits on each until it moves; batched reads each
//!   once). Writers are not the point of this tier; if writes matter,
//!   use the locks directly.
//! * **Memory**: a stalled reader (guard held across a long pause, or
//!   leaked) pins every payload retired after its published epoch.
//!   [`RetireEager`] converts that into writer *blocking* (bounded
//!   memory: at most one retired payload in flight); [`RetireBatched`]
//!   converts it into **unbounded memory growth** while the reader
//!   stalls — the retired list grows by one payload per update until the
//!   pin clears. That is the RCU age-memory trade-off; pick per
//!   workload and watch [`Snapshot::peak_retired`].
//!
//! # Reentrancy
//!
//! Unlike `RwLock::read` — where a nested read self-deadlocks whenever a
//! writer is waiting under the writer-priority or starvation-free
//! policies — [`Snapshot::load`] is safely reentrant: a nested load on
//! the same thread leases a distinct pid (the thread's cached lease is
//! busy while the outer guard is open), publishes in its own slot, and
//! never waits on anyone. The `load_is_reentrant` test proves it with a
//! writer mid-update.
//!
//! # Example
//!
//! ```
//! use rmr_swap::Snapshot;
//! use std::sync::Arc;
//!
//! let snap = Arc::new(Snapshot::new(vec![1, 2, 3], 4));
//! let reader = {
//!     let snap = Arc::clone(&snap);
//!     std::thread::spawn(move || snap.load().len())
//! };
//! snap.update(|v| {
//!     let mut next = v.clone();
//!     next.push(4);
//!     next
//! });
//! let seen = reader.join().unwrap();
//! assert!(seen == 3 || seen == 4); // a snapshot: one version or the other
//! assert_eq!(snap.load().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::RawRwLock;
use rmr_core::registry::{Pid, PidRegistry};
use rmr_core::rwlock::{lease_pid, release_pid, PidSource};
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedWord};
use rmr_mutex::spin_until;
use rmr_mutex::CachePadded;
use rmr_obs::{Event, Metric, NoopRecorder, Recorder};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel stored in an epoch slot that has nothing published. `G`
/// starts at 1 precisely so 0 can mean "empty".
const EPOCH_EMPTY: u64 = 0;

// ---------------------------------------------------------------------
// Retirement policies
// ---------------------------------------------------------------------

/// When a writer reclaims retired payloads — the RCU age-memory knob.
///
/// Implemented by [`RetireEager`] and [`RetireBatched`]; a policy is a
/// type parameter of [`Snapshot`] so the choice is zero-cost.
pub trait RetirePolicy: Send + Sync + 'static {
    /// Eager policies block the writer (inside its write session) until
    /// every payload it retired is provably unpinned, then free them all:
    /// bounded memory, writer waits on stalled readers.
    const EAGER: bool;

    /// For non-eager policies: whether a reclamation scan should run now,
    /// given the current retired-list length.
    fn should_scan(&self, retired: usize) -> bool;
}

/// Free every retired payload before the write session ends: at most one
/// retired payload in flight, at the cost of the writer waiting out any
/// reader that pins it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetireEager;

impl RetirePolicy for RetireEager {
    const EAGER: bool = true;

    fn should_scan(&self, _retired: usize) -> bool {
        true
    }
}

/// Let retired payloads age: accumulate until `high_water`, then free
/// whatever one non-blocking scan proves unpinned. Writers never wait on
/// readers, but a stalled reader makes the retired list grow without
/// bound (one payload per update).
#[derive(Clone, Copy, Debug)]
pub struct RetireBatched {
    /// Run a reclamation scan once this many payloads are retired.
    pub high_water: usize,
}

impl Default for RetireBatched {
    fn default() -> Self {
        RetireBatched { high_water: 8 }
    }
}

impl RetirePolicy for RetireBatched {
    const EAGER: bool = false;

    fn should_scan(&self, retired: usize) -> bool {
        retired >= self.high_water
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// An epoch-swap snapshot cell: wait-free zero-RMR reads of a `T`,
/// copy-swap-retire writes serialized through the raw lock `L`.
///
/// See the [module docs](self) for the protocol and its cost model.
/// Defaults: writers serialize through the paper's starvation-free lock,
/// retirement is [`RetireEager`], memory is the native backend, and the
/// recorder is the inert [`NoopRecorder`] (hooks const-fold away; swap
/// it via [`Snapshot::with_recorder`] to count loads/installs and
/// histogram retire depth and grace-scan duration).
pub struct Snapshot<T, L = MwmrStarvationFree, P = RetireEager, B = Native, R = NoopRecorder>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    recorder: R,
    /// The global epoch `G`. Starts at 1 (0 is the empty-slot sentinel)
    /// and is bumped once per install, *after* the payload swap.
    epoch: B::Word,
    /// The current payload: a `Box<T>` address. Readers only ever load
    /// it; the (lock-serialized) writer is the only swapper, so there is
    /// no ABA to defend against.
    payload: B::Word,
    /// Leases the pids that index `epochs`.
    registry: Arc<PidRegistry<B>>,
    /// The reader epoch table: slot `i` holds the epoch pid `i` reads
    /// under, or [`EPOCH_EMPTY`]. It is keyed by the registry's pids
    /// because ownership of a slot is exactly ownership of a pid: a
    /// leaked guard keeps its pid reserved, and a reserved pid keeps its
    /// published epoch pinned. Each slot is padded to its own line so a
    /// reader's publish and clear stay local (zero CC RMRs in steady
    /// state) and never contend with a neighbor's.
    epochs: Box<[CachePadded<B::Word>]>,
    /// Serializes writers. Readers never touch it.
    lock: L,
    policy: P,
    /// Retired `(payload address, retirement epoch)` pairs awaiting the
    /// grace bound. Only the lock-serialized writer and explicit
    /// [`Snapshot::reclaim`] calls touch it, so a plain mutex costs no
    /// reader anything.
    retired: Mutex<Vec<(u64, u64)>>,
    /// Diagnostics. Deliberately plain std atomics, not `B`-typed: they
    /// must not pollute `Counting` tallies or `Sched` schedules.
    swaps: AtomicU64,
    peak_retired: AtomicU64,
    _payload_owner: PhantomData<T>,
}

// The struct holds raw payload addresses (in `retired` and `payload`),
// which kills the auto impls.
//
// SAFETY: `Snapshot` owns every payload it points to. Guards hand out
// `&T` from any thread (needs `T: Sync`) and reclamation drops `Box<T>`
// on whichever thread runs the scan (needs `T: Send`). Everything else
// in the struct is already thread-safe (`L: RawRwLock` is `Send + Sync`,
// backend words are shared-memory cells, the retired list is mutexed).
unsafe impl<T, L, P, B, R> Send for Snapshot<T, L, P, B, R>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
}
unsafe impl<T, L, P, B, R> Sync for Snapshot<T, L, P, B, R>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
}

impl<T: Send + Sync> Snapshot<T> {
    /// Creates a snapshot of `value` for up to `capacity` concurrent
    /// threads, with the default starvation-free writer lock and eager
    /// retirement.
    pub fn new(value: T, capacity: usize) -> Self {
        Self::with_raw(value, MwmrStarvationFree::new(capacity), RetireEager)
    }
}

impl<T, L, P> Snapshot<T, L, P, Native>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
{
    /// Creates a snapshot over any raw lock and retirement policy. The
    /// registry (and thus the reader table) is sized to
    /// `lock.max_processes()`.
    ///
    /// # Panics
    ///
    /// Panics if the lock reports unbounded capacity (`usize::MAX`) —
    /// use [`Snapshot::with_raw_and_capacity`] for such locks.
    pub fn with_raw(value: T, lock: L, policy: P) -> Self {
        let capacity = lock.max_processes();
        assert!(
            capacity != usize::MAX,
            "lock reports unbounded capacity; use with_raw_and_capacity"
        );
        Self::with_raw_and_capacity(value, lock, policy, capacity)
    }

    /// [`Snapshot::with_raw`] with an explicit reader-table capacity, for
    /// raw locks that report unbounded `max_processes` (e.g. the
    /// `StdRwLock` baseline).
    pub fn with_raw_and_capacity(value: T, lock: L, policy: P, capacity: usize) -> Self {
        Self::with_raw_in(value, lock, policy, capacity, Native)
    }
}

impl<T, L, P, B> Snapshot<T, L, P, B>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
{
    /// Fully general constructor: any lock, policy, capacity, and memory
    /// backend (`Counting` for RMR proofs, `Sched` for model checking).
    pub fn with_raw_in(value: T, lock: L, policy: P, capacity: usize, backend: B) -> Self {
        Snapshot {
            recorder: NoopRecorder,
            epoch: B::Word::new(1),
            payload: B::Word::new(Box::into_raw(Box::new(value)) as u64),
            registry: Arc::new(PidRegistry::new_in(capacity, backend)),
            // Created right after the registry's `in_use` cells: `Sched`
            // numbers variables in creation order, and recorded schedules
            // and faults name them by number.
            epochs: (0..capacity).map(|_| CachePadded::new(B::Word::new(EPOCH_EMPTY))).collect(),
            lock,
            policy,
            retired: Mutex::new(Vec::new()),
            swaps: AtomicU64::new(0),
            peak_retired: AtomicU64::new(0),
            _payload_owner: PhantomData,
        }
    }
}

impl<T, L, P, B, R> Snapshot<T, L, P, B, R>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    /// Replaces the snapshot's recorder, re-typing the cell: every load
    /// then counts [`Event::SnapLoad`], every install counts
    /// [`Event::SnapInstall`] plus a [`Metric::RetireDepth`] sample, and
    /// an eager writer's grace wait is timed as [`Metric::GraceScanNs`].
    /// Builder-style because the recorder is a type parameter — disabled
    /// hooks const-fold away.
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> Snapshot<T, L, P, B, R2> {
        // `Snapshot` has a `Drop` impl, so its fields cannot be moved out
        // by destructuring; take them by `ptr::read` from a ManuallyDrop
        // shell instead.
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: every field is read out exactly once and the shell is
        // never dropped, so ownership transfers without a double free;
        // the old recorder is dropped explicitly.
        unsafe {
            drop(std::ptr::read(&this.recorder));
            Snapshot {
                recorder,
                epoch: std::ptr::read(&this.epoch),
                payload: std::ptr::read(&this.payload),
                registry: std::ptr::read(&this.registry),
                epochs: std::ptr::read(&this.epochs),
                lock: std::ptr::read(&this.lock),
                policy: std::ptr::read(&this.policy),
                retired: std::ptr::read(&this.retired),
                swaps: std::ptr::read(&this.swaps),
                peak_retired: std::ptr::read(&this.peak_retired),
                _payload_owner: PhantomData,
            }
        }
    }

    /// The snapshot's recorder (the default is the inert [`NoopRecorder`]).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    // -- read side ----------------------------------------------------

    /// [`Snapshot::load`] with an explicit pid (allocate one from
    /// [`Snapshot::registry`]): the wait-free pin passage, for callers
    /// that manage pids themselves (benchmarks, the checker).
    ///
    /// The pid must not already have an open guard — each pid owns one
    /// epoch slot, and a nested pin would overwrite the outer guard's
    /// published epoch.
    pub fn load_with(&self, pid: Pid) -> SnapGuard<'_, T, L, P, B, R> {
        debug_assert!(
            self.published_epoch(pid.index()).is_none(),
            "pid {pid} already has an open snapshot guard"
        );
        let (value, epoch) = self.pin(pid);
        SnapGuard { snap: self, pid, epoch, value, lease: None, _not_send: PhantomData }
    }

    /// The pin passage: publish the epoch, load the payload, re-check
    /// the epoch once (see the module docs for why this order is the
    /// exclusion linchpin).
    fn pin(&self, pid: Pid) -> (*const T, u64) {
        // Relaxed: G is monotone, so a stale read here only publishes a
        // lower epoch, which over-pins — safe (module docs). The ordering
        // the proof needs starts at the publish below.
        let mut e = self.epoch.load(MemOrdering::Relaxed);
        // `publish_epoch` is SeqCst (site SW-PUB).
        self.publish_epoch(pid, e);
        // Site SW-LOAD: the load half of the reader's publish-then-load
        // SB square. SeqCst keeps it after the publish in the single
        // total order — a writer's scan that misses the publication must
        // imply this load sees the post-swap payload.
        let mut p = self.payload.load(MemOrdering::SeqCst);
        // SeqCst re-check: ordered after the payload load, so it cannot
        // miss the bump of an install whose payload we just observed —
        // that is what bounds a guard's over-pin to one epoch of slack.
        let e2 = self.epoch.load(MemOrdering::SeqCst);
        if e2 != e {
            // An install landed mid-pin. Our published epoch is merely
            // stale (it over-pins, which is safe); republish the fresh
            // one and reload so we hold the newest payload and block no
            // reclamation beyond one round. Exactly one bounded retry:
            // wait-freedom does not depend on writers pausing.
            self.publish_epoch(pid, e2);
            p = self.payload.load(MemOrdering::SeqCst); // site SW-LOAD again
            e = e2;
        }
        if R::ENABLED {
            self.recorder.count(pid.index(), Event::SnapLoad);
        }
        (p as *const T, e)
    }

    // -- write side ---------------------------------------------------

    /// [`Snapshot::update`] with an explicit pid (used for the raw
    /// lock's write session).
    pub fn update_with(&self, pid: Pid, f: impl FnOnce(&T) -> T) {
        let token = self.lock.write_lock(pid);
        // SAFETY: we hold the write lock, so no other writer can swap or
        // retire the current payload out from under us; readers never
        // mutate it.
        // Relaxed: the last swap was performed under this same lock, so
        // the lock handoff already ordered it before this load.
        let current = unsafe { &*(self.payload.load(MemOrdering::Relaxed) as *const T) };
        let next = f(current);
        self.install(pid, next);
        self.lock.write_unlock(pid, token);
    }

    /// [`Snapshot::store`] with an explicit pid.
    pub fn store_with(&self, pid: Pid, value: T) {
        let token = self.lock.write_lock(pid);
        self.install(pid, value);
        self.lock.write_unlock(pid, token);
    }

    /// Swap-and-retire, under the caller's write session.
    fn install(&self, pid: Pid, next: T) {
        let new_ptr = Box::into_raw(Box::new(next)) as u64;
        // Site SW-SWAP: the store half of the writer's swap-then-scan SB
        // square — SeqCst so the grace scan below is ordered after it.
        let old = self.payload.swap(new_ptr, MemOrdering::SeqCst);
        // Site SW-BUMP: SeqCst keeps the bump between the swap and the
        // scan in the total order; a reader's re-check that sees the new
        // payload must also be able to see the bumped epoch.
        let r = self.epoch.fetch_add(1, MemOrdering::SeqCst) + 1;
        self.swaps.fetch_add(1, Ordering::Relaxed);

        let pending = {
            let mut retired = self.retired.lock().expect("retired list poisoned");
            retired.push((old, r));
            retired.len() as u64
        };
        self.peak_retired.fetch_max(pending, Ordering::Relaxed);
        if R::ENABLED {
            self.recorder.count(pid.index(), Event::SnapInstall);
            self.recorder.record(pid.index(), Metric::RetireDepth, pending);
        }

        if P::EAGER {
            let grace_t0 = if R::ENABLED { self.recorder.now() } else { 0 };
            // Wait out the grace period for everything retired so far:
            // once every slot is empty or holds an epoch ≥ r, no
            // published epoch is < r, so every retiree (all have epoch
            // ≤ r) is unpinned. One subtlety forces the outer loop: a
            // reader that read G *before* our bump can publish its stale
            // epoch *after* the scan passed its slot; it republishes the
            // fresh epoch within its own bounded pin passage (the step-3
            // re-check), so re-scanning drains in at most one extra
            // round per such straggler.
            loop {
                for slot in 0..self.capacity() {
                    spin_until(|| match self.published_epoch(slot) {
                        None => true,
                        Some(published) => published >= r,
                    });
                }
                self.reclaim();
                if self.retired.lock().expect("retired list poisoned").is_empty() {
                    break;
                }
            }
            if R::ENABLED {
                let spent = self.recorder.now().saturating_sub(grace_t0);
                self.recorder.record(pid.index(), Metric::GraceScanNs, spent);
            }
        } else if self.policy.should_scan(pending as usize) {
            self.reclaim();
        }
    }

    // -- reclamation and diagnostics ----------------------------------

    /// One non-blocking reclamation scan: frees every retired payload
    /// whose retirement epoch is ≤ the minimum published epoch, returns
    /// how many were freed. Runs automatically per the [`RetirePolicy`];
    /// call it directly to drain the batched list at a quiescent point.
    pub fn reclaim(&self) -> usize {
        // Read the epoch table *before* taking the list mutex: the scan
        // touches shared (possibly Sched-scheduled) memory, the mutex
        // must stay a leaf.
        let min = self.min_published_epoch().unwrap_or(u64::MAX);
        let mut freeable = Vec::new();
        {
            let mut retired = self.retired.lock().expect("retired list poisoned");
            retired.retain(|&(ptr, r)| {
                if r <= min {
                    freeable.push(ptr);
                    false
                } else {
                    true
                }
            });
        }
        let freed = freeable.len();
        for ptr in freeable {
            // SAFETY: `ptr` came from `Box::into_raw` in `install`, was
            // retired exactly once (the swap removed it from `payload`),
            // and the grace bound just proved no guard pins it.
            unsafe { drop(Box::from_raw(ptr as *mut T)) };
        }
        freed
    }

    /// Number of retired-but-unreclaimed payloads right now.
    pub fn retired(&self) -> usize {
        self.retired.lock().expect("retired list poisoned").len()
    }

    /// Number of reader slots with a published epoch (open guards).
    pub fn published(&self) -> usize {
        (0..self.capacity()).filter(|&i| self.published_epoch(i).is_some()).count()
    }

    /// The current global epoch (= number of installs + 1).
    pub fn current_epoch(&self) -> u64 {
        // Diagnostic snapshot only.
        self.epoch.load(MemOrdering::Relaxed)
    }

    /// Total installs ([`Snapshot::update`] + [`Snapshot::store`]).
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// High-water mark of the retired list — the memory half of the
    /// age-memory trade-off, for comparing [`RetirePolicy`] choices.
    pub fn peak_retired(&self) -> u64 {
        self.peak_retired.load(Ordering::Relaxed)
    }

    /// Quiescence: no open guard and nothing retired awaiting
    /// reclamation. The checker's post-trial oracle (after a final
    /// [`Snapshot::reclaim`]).
    pub fn is_quiescent(&self) -> bool {
        self.published() == 0 && self.retired() == 0
    }

    /// The pid registry whose pids index the reader epoch table. Allocate
    /// from it for the `*_with` methods.
    pub fn registry(&self) -> &Arc<PidRegistry<B>> {
        &self.registry
    }

    /// Number of threads that may participate simultaneously.
    pub fn capacity(&self) -> usize {
        self.registry.capacity()
    }

    /// The raw lock serializing writers.
    pub fn raw(&self) -> &L {
        &self.lock
    }
}

/// The reader epoch table. No `T` bounds: a guard's drop clears its slot.
impl<T, L, P, B, R> Snapshot<T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    /// Publishes `epoch` in `pid`'s epoch slot: from this store until
    /// [`Self::clear_epoch`], every payload retired at an epoch greater
    /// than `epoch` is pinned against reclamation.
    ///
    /// The store targets the pid's own cache-padded slot, so in steady
    /// state (the publisher is the slot's sole cached holder) it costs
    /// zero cache-coherence RMRs.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 (the empty sentinel).
    fn publish_epoch(&self, pid: Pid, epoch: u64) {
        assert!(epoch != EPOCH_EMPTY, "epoch 0 is the empty sentinel");
        // SeqCst — this store is one half of a store-buffer pattern and
        // may NOT be demoted: the reader publishes, then re-loads the
        // global epoch/payload; the writer swaps the payload, then scans
        // this table. Only the SC total order makes "writer missed the
        // publication ⇒ reader sees the new payload" exhaustive; with a
        // Release store the publication could sit in a write buffer while
        // the reader pins a payload the writer already freed. Guarded by
        // the `DemotePublishEpoch` mutant in `rmr-check` (DESIGN.md §13).
        self.epochs[pid.index()].store(epoch, MemOrdering::SeqCst);
    }

    /// Clears `pid`'s epoch slot, releasing whatever its published epoch
    /// pinned. Idempotent.
    fn clear_epoch(&self, pid: Pid) {
        // Release: the reader's payload accesses must complete before the
        // unpin becomes visible, or the writer could reclaim under them.
        self.epochs[pid.index()].store(EPOCH_EMPTY, MemOrdering::Release);
    }

    /// The epoch published in slot `index`, or `None` if the slot is
    /// empty.
    fn published_epoch(&self, index: usize) -> Option<u64> {
        // SeqCst: the grace-period scan is the load half of the
        // store-buffer pattern described at `publish_epoch` — it must be
        // ordered after the writer's epoch bump in the single total
        // order, or the scan could miss a publication the bump did not
        // forestall.
        match self.epochs[index].load(MemOrdering::SeqCst) {
            EPOCH_EMPTY => None,
            e => Some(e),
        }
    }

    /// The minimum epoch published across all slots, or `None` if no slot
    /// has anything published. One bounded O(capacity) scan — the
    /// grace-period read of [`Self::reclaim`]: every retired payload whose
    /// retirement epoch is ≤ the returned minimum is reclaimable.
    fn min_published_epoch(&self) -> Option<u64> {
        (0..self.epochs.len()).filter_map(|i| self.published_epoch(i)).min()
    }
}

impl<T, L, P, R> Snapshot<T, L, P, Native, R>
where
    T: Send + Sync,
    L: RawRwLock,
    P: RetirePolicy,
    R: Recorder,
{
    /// Takes a wait-free snapshot of the current value with this
    /// thread's leased pid: one pointer load plus an epoch stamp in the
    /// reader's own slot — zero shared-variable RMRs in steady state.
    ///
    /// Unlike `RwLock::read`, `load` never blocks: there is no writer to
    /// wait for and no doorway to pass. It is therefore also **safely
    /// reentrant** — a nested `load` while a guard is open leases a
    /// distinct pid and its own epoch slot, where a nested `RwLock::read`
    /// self-deadlocks whenever a writer is waiting (see that method's
    /// `# Deadlock` section). The guard pins its payload (and every
    /// later retiree) until dropped; don't hold it across long pauses
    /// under [`RetireBatched`] unless the memory is budgeted.
    ///
    /// # Panics
    ///
    /// Panics if the registry is exhausted (more simultaneous readers
    /// than capacity — remember nested guards take an extra pid each).
    pub fn load(&self) -> SnapGuard<'_, T, L, P, Native, R> {
        let (pid, source) = lease_pid(&self.registry)
            .unwrap_or_else(|e| panic!("cannot lease a pid for a snapshot read: {e}"));
        let lease = Some(LeaseToken {
            registry: &self.registry,
            epoch: &self.epochs[pid.index()],
            pid,
            source,
        });
        let (value, epoch) = self.pin(pid);
        SnapGuard { snap: self, pid, epoch, value, lease, _not_send: PhantomData }
    }

    /// Replaces the value with `f(&current)`, serialized through the
    /// writer lock with this thread's leased pid, then retires the old
    /// payload per the [`RetirePolicy`] (an eager writer waits out the
    /// grace period inside its write session).
    pub fn update(&self, f: impl FnOnce(&T) -> T) {
        let (pid, source) = lease_pid(&self.registry)
            .unwrap_or_else(|e| panic!("cannot lease a pid for a snapshot update: {e}"));
        self.update_with(pid, f);
        release_pid(&self.registry, pid, source);
    }

    /// Replaces the value outright — [`Snapshot::update`] without
    /// reading the current payload.
    pub fn store(&self, value: T) {
        let (pid, source) = lease_pid(&self.registry)
            .unwrap_or_else(|e| panic!("cannot lease a pid for a snapshot store: {e}"));
        self.store_with(pid, value);
        release_pid(&self.registry, pid, source);
    }
}

impl<T, L, P, B, R> Drop for Snapshot<T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    fn drop(&mut self) {
        // `&mut self` proves no guard is alive (guards borrow the
        // snapshot), so the current payload and every retiree are ours —
        // Relaxed: whatever synchronization delivered `&mut` ordered all
        // prior swaps before us.
        let current = self.payload.load(MemOrdering::Relaxed);
        // SAFETY: `current` came from `Box::into_raw` and nothing pins it.
        unsafe { drop(Box::from_raw(current as *mut T)) };
        let retired = self.retired.get_mut().expect("retired list poisoned");
        for (ptr, _epoch) in retired.drain(..) {
            // SAFETY: retired exactly once, never freed (still listed).
            unsafe { drop(Box::from_raw(ptr as *mut T)) };
        }
    }
}

impl<T, L, P, B, R> fmt::Debug for Snapshot<T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch.load(MemOrdering::Relaxed))
            .field("swaps", &self.swaps.load(Ordering::Relaxed))
            .field("capacity", &self.registry.capacity())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/// Returns a leased pid on drop. Kept as a separate owned field of
/// [`SnapGuard`], declared *after* the fields its drop must follow: the
/// guard's own `Drop` clears the published epoch first, then this token
/// releases the pid.
struct LeaseToken<'s> {
    registry: &'s Arc<PidRegistry>,
    /// The pid's epoch slot, checked empty before the pid is re-issued.
    epoch: &'s <Native as Backend>::Word,
    pid: Pid,
    source: PidSource,
}

impl Drop for LeaseToken<'_> {
    fn drop(&mut self) {
        // The epoch must be cleared before its pid can be re-issued, or
        // the next holder would inherit a stale pin.
        debug_assert_eq!(
            self.epoch.load(MemOrdering::Relaxed),
            EPOCH_EMPTY,
            "released pid {} with a published epoch still pinned",
            self.pid
        );
        release_pid(self.registry, self.pid, self.source);
    }
}

/// A wait-free snapshot of the payload: `Deref`s to the `T` that was
/// current when [`Snapshot::load`] pinned it. Later updates don't change
/// what this guard sees (snapshot isolation); they retire payloads that
/// stay allocated at least until this guard drops.
///
/// Holding the guard blocks no one's *progress* — writers keep
/// installing — but pins memory (and, under [`RetireEager`], makes the
/// writer's grace wait spin until the guard drops).
pub struct SnapGuard<'s, T, L, P, B = Native, R = NoopRecorder>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    snap: &'s Snapshot<T, L, P, B, R>,
    pid: Pid,
    epoch: u64,
    value: *const T,
    /// `Some` only for leased (ergonomic-tier) guards; `*_with` callers
    /// own their pids. Field order matters — see [`LeaseToken`].
    #[allow(dead_code)] // held solely for its Drop
    lease: Option<LeaseToken<'s>>,
    /// The guard must drop on the thread that published the epoch (its
    /// pid lease is thread-local), like the lock guards.
    _not_send: PhantomData<*const ()>,
}

impl<T, L, P, B, R> SnapGuard<'_, T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    /// The epoch this guard published — every payload retired at a
    /// later epoch is pinned until the guard drops.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pid whose slot carries the pin.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

impl<T, L, P, B, R> Deref for SnapGuard<'_, T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the pin passage published this guard's epoch before
        // loading `value`, so the grace bound keeps the payload
        // allocated until `drop` clears the slot (module docs, "why the
        // publish-then-load order is the linchpin").
        unsafe { &*self.value }
    }
}

impl<T, L, P, B, R> Drop for SnapGuard<'_, T, L, P, B, R>
where
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    fn drop(&mut self) {
        // Unpin first; the lease token (if any) then releases the pid —
        // struct Drop runs before field drops, giving exactly that order.
        self.snap.clear_epoch(self.pid);
    }
}

impl<T, L, P, B, R> fmt::Debug for SnapGuard<'_, T, L, P, B, R>
where
    T: fmt::Debug,
    L: RawRwLock,
    P: RetirePolicy,
    B: Backend,
    R: Recorder,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapGuard")
            .field("pid", &self.pid)
            .field("epoch", &self.epoch)
            .field("value", &**self)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_mutex::mem::{self, Counting};
    use std::sync::atomic::AtomicUsize;

    /// A payload that counts how many instances are alive, so tests can
    /// assert exactly when reclamation frees.
    struct Counted {
        value: u64,
        live: Arc<AtomicUsize>,
    }

    impl Counted {
        fn new(value: u64, live: &Arc<AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted { value, live: Arc::clone(live) }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn single_thread_round_trip() {
        let snap = Snapshot::new(41u64, 2);
        assert_eq!(*snap.load(), 41);
        snap.update(|v| v + 1);
        assert_eq!(*snap.load(), 42);
        snap.store(7);
        assert_eq!(*snap.load(), 7);
        assert_eq!(snap.swaps(), 2);
        assert_eq!(snap.current_epoch(), 3);
        assert!(snap.is_quiescent(), "eager retirement drains immediately");
    }

    #[test]
    fn guard_is_a_snapshot() {
        // Batched: an eager store would (correctly) wait for the open
        // guard to unpin, which on one thread never happens.
        let snap = Snapshot::with_raw(
            1u64,
            MwmrStarvationFree::new(2),
            RetireBatched { high_water: usize::MAX },
        );
        let guard = snap.load();
        snap.store(2);
        assert_eq!(*guard, 1, "guard still sees its pinned version");
        assert_eq!(*snap.load(), 2, "fresh load sees the new version");
        drop(guard);
    }

    #[test]
    fn load_is_reentrant() {
        // The satellite-2 proof: nested loads take distinct pids,
        // publish in their own slots, and never wait — with an update
        // squeezed between them, which is exactly where a nested
        // RwLock::read would self-deadlock on the waiting writer.
        // Batched retirement so the single-threaded writer doesn't wait
        // on its own outer guard's pin.
        let snap = Snapshot::with_raw(
            10u64,
            MwmrStarvationFree::new(4),
            RetireBatched { high_water: usize::MAX },
        );
        let outer = snap.load();
        snap.store(20); // never blocks: the outer pin just ages the retiree
        let inner = snap.load();
        assert_ne!(outer.pid(), inner.pid(), "nested load leased a distinct slot");
        assert_eq!(*outer, 10, "outer guard still sees its snapshot");
        assert_eq!(*inner, 20, "inner guard pinned the fresh payload");
        let innermost = snap.load();
        assert_eq!(*innermost, 20);
        drop(innermost);
        drop(inner);
        drop(outer);
        snap.reclaim();
        assert!(snap.is_quiescent(), "all guards unpinned, all retirees drained");
    }

    #[test]
    fn eager_writer_waits_out_pinned_readers() {
        let live = Arc::new(AtomicUsize::new(0));
        let snap = Arc::new(Snapshot::new(Counted::new(1, &live), 4));
        let guard = snap.load();
        let writer = {
            let snap = Arc::clone(&snap);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                snap.store(Counted::new(2, &live));
            })
        };
        // The eager writer cannot finish while `guard` pins epoch 1.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!writer.is_finished(), "eager grace wait returned early");
        assert_eq!(live.load(Ordering::SeqCst), 2, "old payload still allocated");
        drop(guard);
        writer.join().unwrap();
        assert_eq!(live.load(Ordering::SeqCst), 1, "old payload freed after unpin");
        assert!(snap.is_quiescent());
        drop(snap);
        assert_eq!(live.load(Ordering::SeqCst), 0, "snapshot drop frees the payload");
    }

    #[test]
    fn batched_retirement_ages_then_drains() {
        let live = Arc::new(AtomicUsize::new(0));
        let snap = Snapshot::with_raw(
            Counted::new(0, &live),
            MwmrStarvationFree::new(4),
            RetireBatched { high_water: 4 },
        );
        let guard = snap.load();
        for i in 1..=3 {
            snap.store(Counted::new(i, &live));
            // Writer never blocks: the guard pins, the list just grows.
        }
        assert_eq!(snap.retired(), 3);
        assert_eq!(snap.peak_retired(), 3);
        assert_eq!(live.load(Ordering::SeqCst), 4);
        assert_eq!((*guard).value, 0, "guard pinned the original payload");
        drop(guard);
        snap.store(Counted::new(4, &live)); // hits high_water → scan
        assert_eq!(snap.retired(), 0, "scan drained the whole list");
        assert_eq!(live.load(Ordering::SeqCst), 1);
        assert!(snap.is_quiescent());
    }

    #[test]
    fn reclaim_is_safe_to_call_anytime() {
        let snap = Snapshot::with_raw(
            0u64,
            MwmrStarvationFree::new(2),
            RetireBatched { high_water: usize::MAX },
        );
        assert_eq!(snap.reclaim(), 0);
        snap.store(1);
        snap.store(2);
        assert_eq!(snap.retired(), 2);
        assert_eq!(snap.reclaim(), 2);
        assert!(snap.is_quiescent());
    }

    #[test]
    fn concurrent_smoke() {
        const READERS: usize = 3;
        const UPDATES: u64 = 200;
        let snap = Arc::new(Snapshot::with_raw(
            (0u64, 1u64),
            MwmrStarvationFree::new(READERS + 1),
            RetireBatched { high_water: 8 },
        ));
        let mut threads = Vec::new();
        for _ in 0..READERS {
            let snap = Arc::clone(&snap);
            threads.push(std::thread::spawn(move || {
                let mut last = 0;
                loop {
                    let g = snap.load();
                    let (a, b) = *g;
                    assert_eq!(b, a + 1, "torn snapshot");
                    assert!(a >= last, "snapshot went backwards");
                    last = a;
                    if a == UPDATES {
                        return;
                    }
                }
            }));
        }
        for i in 1..=UPDATES {
            snap.store((i, i + 1));
        }
        for t in threads {
            t.join().unwrap();
        }
        snap.reclaim();
        assert!(snap.is_quiescent());
        assert_eq!(snap.swaps(), UPDATES);
    }

    /// `readers` threads run `passages` warm load passages each over a
    /// fully `Counting`-instrumented snapshot (no writer active): every
    /// passage must cost zero cache-coherent RMRs — the epoch stamp hits
    /// the reader's own padded slot, everything else is a cached read.
    fn assert_steady_state_loads_are_rmr_free<P>(policy: P, readers: usize, passages: usize)
    where
        P: RetirePolicy + Send + Sync + 'static,
    {
        let snap = Arc::new(Snapshot::with_raw_in(
            99u64,
            MwmrStarvationFree::new_in(readers, Counting),
            policy,
            readers,
            Counting,
        ));
        let barrier = Arc::new(std::sync::Barrier::new(readers));
        let threads: Vec<_> = (0..readers)
            .map(|i| {
                let snap = Arc::clone(&snap);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Meet before anything can panic, so a failing reader
                    // never strands the others at the barrier.
                    barrier.wait();
                    let pid = snap.registry().allocate().unwrap();
                    mem::set_thread_slot(i + 1);
                    // Warm-up passage: first touches are compulsory misses.
                    drop(snap.load_with(pid));
                    for _ in 0..passages {
                        mem::reset_thread_tally();
                        let g = snap.load_with(pid);
                        assert_eq!(*g, 99);
                        drop(g);
                        let tally = mem::thread_tally();
                        assert_eq!(tally.cc, 0, "steady-state load must be RMR-free: {tally:?}");
                        assert!(tally.ops > 0, "the passage does execute shared ops");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(snap.is_quiescent());
    }

    #[test]
    fn steady_state_load_performs_zero_cc_rmrs() {
        for readers in [1, 4] {
            assert_steady_state_loads_are_rmr_free(RetireEager, readers, 500);
            assert_steady_state_loads_are_rmr_free(RetireBatched { high_water: 8 }, readers, 500);
        }
    }

    #[test]
    fn epoch_publish_clear_round_trip() {
        let snap = Snapshot::new(0u8, 3);
        let pid = snap.registry().allocate().unwrap();
        assert_eq!(snap.published_epoch(pid.index()), None);
        snap.publish_epoch(pid, 7);
        assert_eq!(snap.published_epoch(pid.index()), Some(7));
        snap.publish_epoch(pid, 9); // republish overwrites
        assert_eq!(snap.published_epoch(pid.index()), Some(9));
        snap.clear_epoch(pid);
        assert_eq!(snap.published_epoch(pid.index()), None);
        snap.clear_epoch(pid); // idempotent
        snap.registry().release(pid);
    }

    #[test]
    fn min_published_epoch_scans_all_slots() {
        let snap = Snapshot::new(0u8, 4);
        assert_eq!(snap.min_published_epoch(), None);
        assert_eq!(snap.published(), 0);
        let reg = snap.registry();
        let (a, b, c) = (reg.allocate().unwrap(), reg.allocate().unwrap(), reg.allocate().unwrap());
        snap.publish_epoch(a, 12);
        snap.publish_epoch(b, 3);
        snap.publish_epoch(c, 44);
        assert_eq!(snap.min_published_epoch(), Some(3));
        assert_eq!(snap.published(), 3);
        snap.clear_epoch(b);
        assert_eq!(snap.min_published_epoch(), Some(12));
        assert_eq!(snap.published(), 2);
        for pid in [a, c] {
            snap.clear_epoch(pid);
        }
        assert_eq!(snap.min_published_epoch(), None);
        for pid in [a, b, c] {
            reg.release(pid);
        }
    }

    #[test]
    #[should_panic(expected = "empty sentinel")]
    fn epoch_zero_is_rejected() {
        let snap = Snapshot::new(0u8, 1);
        let pid = snap.registry().allocate().unwrap();
        snap.publish_epoch(pid, 0);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert-only oracle")]
    #[should_panic(expected = "published epoch still pinned")]
    fn release_with_published_epoch_is_caught() {
        // A leased guard's token returning its pid before the slot is
        // cleared (the guard's drop clears it first).
        let snap = Snapshot::new(0u8, 1);
        let (pid, source) = lease_pid(snap.registry()).unwrap();
        snap.publish_epoch(pid, 1);
        drop(LeaseToken {
            registry: snap.registry(),
            epoch: &snap.epochs[pid.index()],
            pid,
            source,
        });
    }

    #[test]
    fn debug_formats() {
        let snap = Snapshot::new(5u8, 2);
        let g = snap.load();
        assert!(format!("{snap:?}").contains("Snapshot"));
        assert!(format!("{g:?}").contains("epoch"));
    }

    #[test]
    fn recorder_sees_loads_installs_and_grace_scans() {
        use rmr_obs::StatsRecorder;
        let rec = Arc::new(StatsRecorder::new(4));
        let snap = Snapshot::new(1u64, 4).with_recorder(Arc::clone(&rec));
        assert_eq!(*snap.load(), 1);
        snap.store(2); // eager: install + grace scan
        snap.update(|v| v + 1); // install (update reads under the lock, not via pin)
        assert_eq!(*snap.load(), 3);

        assert_eq!(rec.counter(Event::SnapLoad), 2);
        assert_eq!(rec.counter(Event::SnapInstall), 2);
        assert_eq!(rec.samples(Metric::RetireDepth), 2);
        assert_eq!(rec.samples(Metric::GraceScanNs), 2, "one grace scan per eager install");
        // With no pinned reader, nothing outlives its install.
        assert!(snap.is_quiescent());
    }

    /// Runs `f` on a fresh thread, so it starts with an empty lease table.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().unwrap())
    }

    #[test]
    fn lease_sweeps_keep_a_held_snapshot_lease() {
        on_fresh_thread(|| {
            let churn = |n: u64| {
                for i in 0..n {
                    drop(Snapshot::new(i, 1).load());
                }
            };
            // A live first lease takes the lease table's front entry, so
            // A's lease sits in the swept map; then dead entries, and
            // enough more to force sweeps while A's guard is open.
            let front = Snapshot::new(0u64, 1);
            drop(front.load());
            churn(3);
            let a = Snapshot::new(0u64, 2);
            let outer = a.load();
            let pid = outer.pid();
            churn(1024);
            drop(outer);
            let again = a.load();
            assert_eq!(again.pid(), pid, "A's lease was not reused");
            assert_eq!(a.registry().allocated(), 1, "A's next load took a transient pid");
        });
    }
}
