//! The memory-backend layer: shared variables generic over *how* they are
//! measured.
//!
//! Every algorithm in this workspace is written against a small vocabulary
//! of shared variables — boolean flags (gates, permits, lock slots) and
//! 64-bit words (counters, CAS cells, the packed two-component fetch&add
//! variables of `rmr-core`). This module abstracts that vocabulary behind
//! the [`Backend`] trait so the *same* lock code can run in several modes:
//!
//! * [`Native`] — `#[repr(transparent)]` newtypes over `std::sync::atomic`
//!   types, every method `#[inline]` and forwarding its [`Ordering`]
//!   argument verbatim. After monomorphization this is exactly the
//!   hand-written code: zero cost, and the default everywhere
//!   (`Lock<B = Native>`), so public APIs are unchanged.
//! * [`Counting`] — the same `std` atomics plus per-variable *cached-copy
//!   accounting* that replicates `rmr-sim`'s CC and DSM cost models on the
//!   shipped implementations. Every access tallies, in thread-local
//!   counters, whether it was a remote memory reference (RMR) under each
//!   model. This closes the gap between "the line-level *model* of the
//!   algorithm is O(1) RMR" (experiments E6–E8) and "the code you would
//!   actually deploy is O(1) RMR" (experiment E13, the `real_rmr_table`
//!   binary in `rmr-bench`).
//!
//! A third backend, [`Sched`](crate::sched::Sched), lives in
//! [`crate::sched`]: it routes every operation through a deterministic
//! cooperative scheduler so the shipped lock code can be model-checked
//! interleaving by interleaving (the `rmr-check` crate, experiment E14).
//! Its weak-memory mode is the machine check behind every relaxed
//! annotation in the workspace (DESIGN.md §13).
//!
//! # The ordering policy (DESIGN.md §5 and §13)
//!
//! Until PR 7 every operation was `SeqCst` — a blanket rule baked into the
//! vocabulary. The vocabulary now takes an explicit [`Ordering`] per call,
//! and every call site in the workspace annotates the *weakest ordering
//! its proof obligation permits*, with the invariant argument written at
//! the site and collected in DESIGN.md §13. The annotations are verified,
//! not trusted: the `Sched` backend's weak-memory mode (per-task store
//! buffers with nondeterministic flush points) re-runs the full `rmr-check`
//! batteries over the relaxed code, and `Order` faults injected at the
//! load-bearing sites prove the batteries would catch a demotion there.
//!
//! # Fault sites
//!
//! A handful of accesses carry a [`Site`] — their DESIGN.md §13 tag as a
//! typed constant — through the `*_at` operations
//! ([`SharedBool::store_at`], [`SharedBool::swap_at`],
//! [`SharedWord::load_at`]). Under [`Native`] and [`Counting`] these are
//! the plain operations, so release code and RMR tallies are unchanged.
//! Only the [`Sched`](crate::sched::Sched) backend reads the site: it
//! applies a [`Fault`](crate::sched::Fault) armed for the run, which is
//! how the `rmr-check` mutation battery seeds its bugs into the shipped
//! locks instead of into copies of them.
//!
//! The RMR *accounting* is deliberately ordering-blind: [`Counting`]
//! charges a read or an update identically whatever the annotation, so the
//! E13/E17 acceptance proofs hold under any policy (pinned by a seeded
//! property test in `rmr-bench`).
//!
//! # The cost models (must match `rmr-sim/src/cost.rs`)
//!
//! **CC (cache-coherent, write-invalidate).** Each [`Counting`] variable
//! carries a 64-bit *cached-copy set*: bit `s` is set iff the thread
//! occupying slot `s` holds a valid cached copy. A read is an RMR iff the
//! reader's bit is clear (cold miss / invalidated), and then sets it. Any
//! update — store, swap, fetch&add, CAS *successful or not* — is an RMR
//! unless the updater is the *sole* holder, and leaves the updater as sole
//! holder (invalidating everyone else). Local spinning on a cached
//! variable is therefore free, which is exactly the property the paper's
//! algorithms exploit.
//!
//! **DSM (distributed shared memory).** Every variable is homed in the
//! memory module of process [`DSM_HOME`] (slot 0), matching the
//! `DsmModel::all_at(0)` placement the simulator sweeps use: an access is
//! an RMR iff the accessor occupies a different slot, and *every* poll of
//! a remote variable is charged — the reason the paper's constant bound is
//! CC-only.
//!
//! Threads participate by claiming a slot in `0..`[`MAX_SLOTS`] with
//! [`set_thread_slot`] (the measurement harness uses the thread's lock
//! pid). Tallies are read with [`thread_tally`] and cleared with
//! [`reset_thread_tally`], which is what a per-passage measurement loop
//! does around each acquire/release pair.
//!
//! Under concurrency the copy-set updates interleave with (rather than
//! atomically accompany) the accesses they describe, so concurrent tallies
//! are a faithful sample rather than a replay-exact trace; on a
//! single-threaded schedule the tallies equal `rmr-sim`'s models *exactly*
//! (cross-validated in `rmr-bench/tests/counting_backend.rs`).
//!
//! # Example
//!
//! ```
//! use rmr_mutex::mem::{self, Backend, Counting, Ordering, SharedWord};
//!
//! let w = <Counting as Backend>::Word::new(0);
//! mem::set_thread_slot(3);
//! mem::reset_thread_tally();
//! // update by slot 3: CC RMR (not sole holder), DSM RMR (home is slot 0)
//! w.fetch_add(1, Ordering::SeqCst);
//! // sole holder now: cached, CC-free; still a DSM RMR — and the tally is
//! // identical whatever ordering the call is annotated with
//! let _ = w.load(Ordering::Relaxed);
//! let t = mem::thread_tally();
//! assert_eq!((t.cc, t.dsm, t.ops), (1, 2, 2));
//! ```

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64};

pub use std::sync::atomic::Ordering;

/// Maximum number of concurrently measured threads under [`Counting`]
/// (one bit per thread in each variable's cached-copy set, like
/// `rmr-sim`'s `CcModel`).
pub const MAX_SLOTS: usize = 64;

/// The slot whose memory module homes every variable under the DSM model
/// (matching the simulator's `DsmModel::all_at(0)` placement).
pub const DSM_HOME: usize = 0;

// ---------------------------------------------------------------------
// Fault sites
// ---------------------------------------------------------------------

/// A tagged shared-memory access in the shipped code: the DESIGN.md §13
/// site tag of an access the `Sched` backend can inject a fault at (see
/// the module docs and [`crate::sched::Fault`]).
///
/// Sites exist only as the associated constants below, so a misspelled
/// site is a compile error rather than a fault that never fires.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Site(&'static str);

impl Site {
    /// Fig. 1 line 3, the writer's side flip `D ← currD`.
    pub const F1_L3: Site = Site("F1-L3");
    /// Fig. 1 line 8, `Gate[prevD] ← false` — in the writer's waiting
    /// room and in the completion of an abandoned passage.
    pub const F1_L8: Site = Site("F1-L8");
    /// Fig. 1 line 28, `Permit[d] ← true`: the last reader out wakes the
    /// writer.
    pub const F1_L28: Site = Site("F1-L28");
    /// The TTAS lock's acquire swap.
    pub const MX_TTAS: Site = Site("MX-TTAS");
    /// The Anderson lock's unlock, closing the releaser's own slot.
    pub const MX_ANDERSON_RESET: Site = Site("MX-ANDERSON-RESET");
    /// The distributed-flags baseline: a reader's flag raise.
    pub const BL_FLAGS_RAISE: Site = Site("BL-FLAGS-RAISE");
    /// Bravo: a fast reader's publish into its own visible-readers slot.
    pub const BR_PUB: Site = Site("BR-PUB");
    /// Bravo: the revoking writer's bias clear (all three variants).
    pub const BR_CLEAR: Site = Site("BR-CLEAR");
    /// Bravo: the revoking writer's visible-readers scan (all three
    /// variants).
    pub const BR_SCAN: Site = Site("BR-SCAN");
    /// The async tier: `WakerTable::wake_all`'s two scan-skip loads.
    pub const AS_WAKE_ALL: Site = Site("AS-WAKE-ALL");
}

impl fmt::Debug for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site {}", self.0)
    }
}

// ---------------------------------------------------------------------
// The backend trait and the shared-variable vocabulary
// ---------------------------------------------------------------------

/// A memory backend: the family of shared-variable types an algorithm's
/// shared state is built from.
///
/// Backends are zero-sized markers (`Native`, `Counting`); algorithm types
/// take `B: Backend = Native` so existing code compiles unchanged, and the
/// `new_in(.., backend)` constructors let callers pick the backend by
/// value without turbofish.
///
/// Every operation takes an explicit [`Ordering`]; call sites annotate the
/// weakest ordering their invariant argument permits (DESIGN.md §13), and
/// the `Sched` backend's weak-memory mode verifies those arguments by
/// model checking the relaxed code.
pub trait Backend: Copy + Default + Send + Sync + 'static {
    /// A shared boolean (gates, permits, flags, lock slots).
    type Bool: SharedBool;
    /// A shared 64-bit word (counters, CAS cells, packed F&A variables,
    /// pid-or-sentinel words like Figure 2's `X` and Figure 4's
    /// `W-token`).
    type Word: SharedWord;

    /// Short, stable name for reports ("native", "counting").
    const NAME: &'static str;

    /// A memory fence with the given ordering, affecting this backend's
    /// variables. For the std-atomic backends this is
    /// `std::sync::atomic::fence`; the `Sched` backend routes it through
    /// the scheduler (in weak-memory mode a `Release`-or-stronger fence
    /// drains the calling task's store buffer).
    ///
    /// # Panics
    ///
    /// Panics if `order` is `Relaxed` (like `std::sync::atomic::fence`).
    fn fence(order: Ordering);
}

/// A shared atomic boolean; every operation takes an explicit [`Ordering`].
pub trait SharedBool: Send + Sync + 'static {
    /// Creates the variable holding `value`.
    fn new(value: bool) -> Self
    where
        Self: Sized;

    /// Atomic read.
    fn load(&self, order: Ordering) -> bool;

    /// Atomic write.
    fn store(&self, value: bool, order: Ordering);

    /// Atomic swap; returns the previous value.
    fn swap(&self, value: bool, order: Ordering) -> bool;

    /// Atomic compare-and-swap; `Ok(previous)` iff the exchange happened.
    /// `success`/`failure` follow the `std` contract (`failure` must not
    /// be `Release` or `AcqRel`).
    fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool>;

    /// [`store`](Self::store) at a fault [`Site`]; only `Sched` reads the
    /// site.
    #[inline]
    fn store_at(&self, _site: Site, value: bool, order: Ordering) {
        self.store(value, order);
    }

    /// [`swap`](Self::swap) at a fault [`Site`]; only `Sched` reads the
    /// site.
    #[inline]
    fn swap_at(&self, _site: Site, value: bool, order: Ordering) -> bool {
        self.swap(value, order)
    }
}

/// A shared atomic 64-bit word; every operation takes an explicit
/// [`Ordering`].
pub trait SharedWord: Send + Sync + 'static {
    /// Creates the variable holding `value`.
    fn new(value: u64) -> Self
    where
        Self: Sized;

    /// Atomic read.
    fn load(&self, order: Ordering) -> u64;

    /// Atomic write.
    fn store(&self, value: u64, order: Ordering);

    /// Atomic swap; returns the previous value.
    fn swap(&self, value: u64, order: Ordering) -> u64;

    /// Wrapping atomic fetch&add; returns the previous value.
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64;

    /// Wrapping atomic fetch&subtract; returns the previous value.
    fn fetch_sub(&self, delta: u64, order: Ordering) -> u64;

    /// Atomic compare-and-swap; `Ok(previous)` iff the exchange happened.
    /// `success`/`failure` follow the `std` contract (`failure` must not
    /// be `Release` or `AcqRel`).
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;

    /// [`load`](Self::load) at a fault [`Site`]; only `Sched` reads the
    /// site.
    #[inline]
    fn load_at(&self, _site: Site, order: Ordering) -> u64 {
        self.load(order)
    }

    /// [`store`](Self::store) at a fault [`Site`]; only `Sched` reads the
    /// site.
    #[inline]
    fn store_at(&self, _site: Site, value: u64, order: Ordering) {
        self.store(value, order);
    }
}

// ---------------------------------------------------------------------
// Native: transparent newtypes over std atomics
// ---------------------------------------------------------------------

/// The production backend: transparent wrappers over `std::sync::atomic`,
/// zero-cost after monomorphization — each method is a single direct
/// delegation that forwards its [`Ordering`] argument verbatim, so the
/// per-site annotations reach the hardware unchanged. The default backend
/// of every lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Native;

impl Backend for Native {
    type Bool = NativeBool;
    type Word = NativeWord;

    const NAME: &'static str = "native";

    #[inline]
    fn fence(order: Ordering) {
        std::sync::atomic::fence(order);
    }
}

/// [`Native`]'s boolean: a `#[repr(transparent)]` `AtomicBool`.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct NativeBool(AtomicBool);

impl SharedBool for NativeBool {
    #[inline]
    fn new(value: bool) -> Self {
        Self(AtomicBool::new(value))
    }

    #[inline]
    fn load(&self, order: Ordering) -> bool {
        self.0.load(order)
    }

    #[inline]
    fn store(&self, value: bool, order: Ordering) {
        self.0.store(value, order);
    }

    #[inline]
    fn swap(&self, value: bool, order: Ordering) -> bool {
        self.0.swap(value, order)
    }

    #[inline]
    fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.0.compare_exchange(current, new, success, failure)
    }
}

/// [`Native`]'s word: a `#[repr(transparent)]` `AtomicU64`.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct NativeWord(AtomicU64);

impl SharedWord for NativeWord {
    #[inline]
    fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
    }

    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    #[inline]
    fn store(&self, value: u64, order: Ordering) {
        self.0.store(value, order);
    }

    #[inline]
    fn swap(&self, value: u64, order: Ordering) -> u64 {
        self.0.swap(value, order)
    }

    #[inline]
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64 {
        self.0.fetch_add(delta, order)
    }

    #[inline]
    fn fetch_sub(&self, delta: u64, order: Ordering) -> u64 {
        self.0.fetch_sub(delta, order)
    }

    #[inline]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.0.compare_exchange(current, new, success, failure)
    }
}

// ---------------------------------------------------------------------
// Counting: the same semantics plus RMR accounting
// ---------------------------------------------------------------------

/// The measurement backend: identical visible semantics to [`Native`],
/// with every access charged to the calling thread's CC/DSM tallies as
/// described in the module docs.
///
/// The accounting is **ordering-blind**: a read is a read and an update is
/// an update whatever [`Ordering`] the call is annotated with (the RMR
/// cost models predate the C++ memory model and charge coherence traffic,
/// not fences), and the underlying atomics run `SeqCst` so the recorded
/// semantics never depend on the annotation either. A seeded property
/// test in `rmr-bench` pins this, keeping the E13/E17 acceptance proofs
/// valid under any ordering policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counting;

impl Backend for Counting {
    type Bool = CountingBool;
    type Word = CountingWord;

    const NAME: &'static str = "counting";

    #[inline]
    fn fence(order: Ordering) {
        // A fence is not a shared-memory access: no copy-set traffic, no
        // tally. (Neither cost model charges for fences.)
        std::sync::atomic::fence(order);
    }
}

/// Per-thread measurement state: the claimed slot plus the running
/// tallies. Lives in one `Cell` so the accounting fast path is two loads
/// and a store.
#[derive(Clone, Copy)]
struct ThreadState {
    slot: usize,
    cc: u64,
    dsm: u64,
    ops: u64,
}

thread_local! {
    static THREAD: Cell<ThreadState> =
        const { Cell::new(ThreadState { slot: 0, cc: 0, dsm: 0, ops: 0 }) };
}

/// RMR tallies accumulated by the calling thread since the last
/// [`reset_thread_tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Remote references under the cache-coherent model.
    pub cc: u64,
    /// Remote references under the DSM model (all variables homed at slot
    /// [`DSM_HOME`]).
    pub dsm: u64,
    /// Total shared-memory operations performed (RMR or not).
    pub ops: u64,
}

/// Claims CC/DSM accounting slot `slot` for the calling thread.
///
/// The measurement harness assigns each thread its lock pid. Threads that
/// never call this share slot 0, which is harmless for semantics but
/// muddles attribution — always set the slot before measuring.
///
/// # Panics
///
/// Panics if `slot >= MAX_SLOTS`.
pub fn set_thread_slot(slot: usize) {
    assert!(slot < MAX_SLOTS, "slot {slot} out of range (max {MAX_SLOTS})");
    THREAD.with(|t| {
        let mut s = t.get();
        s.slot = slot;
        t.set(s);
    });
}

/// The calling thread's current accounting slot.
pub fn thread_slot() -> usize {
    THREAD.with(|t| t.get().slot)
}

/// Clears the calling thread's tallies (typically at the start of a
/// measured passage).
pub fn reset_thread_tally() {
    THREAD.with(|t| {
        let mut s = t.get();
        s.cc = 0;
        s.dsm = 0;
        s.ops = 0;
        t.set(s);
    });
}

/// The calling thread's tallies since the last [`reset_thread_tally`].
pub fn thread_tally() -> Tally {
    THREAD.with(|t| {
        let s = t.get();
        Tally { cc: s.cc, dsm: s.dsm, ops: s.ops }
    })
}

/// The cached-copy set of one [`Counting`] variable — the per-variable
/// `holders` word of `rmr-sim`'s `CcModel`, kept inline so no global
/// variable registry is needed.
struct CopySet(AtomicU64);

impl CopySet {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Accounts one read by the calling thread: CC-remote iff it holds no
    /// valid copy (which the read then establishes); DSM-remote iff it is
    /// not the home slot.
    fn read(&self) {
        THREAD.with(|t| {
            let mut s = t.get();
            let bit = 1u64 << s.slot;
            let holders = self.0.fetch_or(bit, Ordering::SeqCst);
            s.cc += u64::from(holders & bit == 0);
            s.dsm += u64::from(s.slot != DSM_HOME);
            s.ops += 1;
            t.set(s);
        });
    }

    /// Accounts one update (store, swap, F&A, CAS — successful or not):
    /// CC-remote unless the updater is the sole holder; afterwards it is.
    fn update(&self) {
        THREAD.with(|t| {
            let mut s = t.get();
            let bit = 1u64 << s.slot;
            let holders = self.0.swap(bit, Ordering::SeqCst);
            s.cc += u64::from(holders != bit);
            s.dsm += u64::from(s.slot != DSM_HOME);
            s.ops += 1;
            t.set(s);
        });
    }
}

/// [`Counting`]'s boolean: an `AtomicBool` plus its cached-copy set.
/// Ordering arguments are ignored (see [`Counting`]): the accounting and
/// the recorded value are both annotation-independent by construction.
pub struct CountingBool {
    value: AtomicBool,
    copies: CopySet,
}

impl SharedBool for CountingBool {
    fn new(value: bool) -> Self {
        Self { value: AtomicBool::new(value), copies: CopySet::new() }
    }

    fn load(&self, _order: Ordering) -> bool {
        self.copies.read();
        self.value.load(Ordering::SeqCst)
    }

    fn store(&self, value: bool, _order: Ordering) {
        self.copies.update();
        self.value.store(value, Ordering::SeqCst);
    }

    fn swap(&self, value: bool, _order: Ordering) -> bool {
        self.copies.update();
        self.value.swap(value, Ordering::SeqCst)
    }

    fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<bool, bool> {
        self.copies.update();
        self.value.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

impl fmt::Debug for CountingBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountingBool({})", self.value.load(Ordering::SeqCst))
    }
}

/// [`Counting`]'s word: an `AtomicU64` plus its cached-copy set.
/// Ordering arguments are ignored (see [`Counting`]).
pub struct CountingWord {
    value: AtomicU64,
    copies: CopySet,
}

impl SharedWord for CountingWord {
    fn new(value: u64) -> Self {
        Self { value: AtomicU64::new(value), copies: CopySet::new() }
    }

    fn load(&self, _order: Ordering) -> u64 {
        self.copies.read();
        self.value.load(Ordering::SeqCst)
    }

    fn store(&self, value: u64, _order: Ordering) {
        self.copies.update();
        self.value.store(value, Ordering::SeqCst);
    }

    fn swap(&self, value: u64, _order: Ordering) -> u64 {
        self.copies.update();
        self.value.swap(value, Ordering::SeqCst)
    }

    fn fetch_add(&self, delta: u64, _order: Ordering) -> u64 {
        self.copies.update();
        self.value.fetch_add(delta, Ordering::SeqCst)
    }

    fn fetch_sub(&self, delta: u64, _order: Ordering) -> u64 {
        self.copies.update();
        self.value.fetch_sub(delta, Ordering::SeqCst)
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<u64, u64> {
        self.copies.update();
        self.value.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

impl fmt::Debug for CountingWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountingWord({})", self.value.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Ordering::{Acquire, Relaxed, Release, SeqCst};

    /// Runs `f` with a clean slot/tally and returns the tally it produced.
    /// Serialized via the harness's per-test threads: each test body runs
    /// on its own thread, so thread-local state never crosses tests.
    fn tally_of(slot: usize, f: impl FnOnce()) -> Tally {
        set_thread_slot(slot);
        reset_thread_tally();
        f();
        thread_tally()
    }

    #[test]
    fn native_wrappers_are_transparent() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<NativeBool>(), size_of::<AtomicBool>());
        assert_eq!(align_of::<NativeBool>(), align_of::<AtomicBool>());
        assert_eq!(size_of::<NativeWord>(), size_of::<AtomicU64>());
        assert_eq!(align_of::<NativeWord>(), align_of::<AtomicU64>());
    }

    #[test]
    fn native_semantics_round_trip() {
        let b = NativeBool::new(false);
        assert!(!b.swap(true, Acquire));
        assert!(b.load(Relaxed));
        assert_eq!(b.compare_exchange(true, false, SeqCst, Relaxed), Ok(true));
        assert_eq!(b.compare_exchange(true, false, Relaxed, Relaxed), Err(false));

        let w = NativeWord::new(5);
        assert_eq!(w.fetch_add(2, Relaxed), 5);
        assert_eq!(w.fetch_sub(1, SeqCst), 7);
        assert_eq!(w.swap(0, Ordering::AcqRel), 6);
        w.store(9, Release);
        assert_eq!(w.compare_exchange(9, 10, Ordering::AcqRel, Acquire), Ok(9));
        assert_eq!(w.load(Acquire), 10);
    }

    #[test]
    fn fences_execute() {
        Native::fence(SeqCst);
        Native::fence(Acquire);
        Native::fence(Release);
        Counting::fence(SeqCst);
    }

    #[test]
    #[should_panic]
    fn relaxed_fence_panics() {
        Native::fence(Relaxed);
    }

    #[test]
    fn counting_cold_read_then_cached_reads() {
        let w = CountingWord::new(0);
        let t = tally_of(1, || {
            let _ = w.load(SeqCst); // cold miss
            let _ = w.load(Acquire); // cached — annotation changes nothing
            let _ = w.load(Relaxed); // cached
        });
        assert_eq!(t, Tally { cc: 1, dsm: 3, ops: 3 });
    }

    #[test]
    fn counting_update_invalidates_other_holders() {
        let w = CountingWord::new(0);
        let _ = tally_of(1, || {
            let _ = w.load(SeqCst);
        });
        // Slot 2 updates: invalidates slot 1's copy; slot 2 becomes sole
        // holder so its next update is free.
        let t2 = tally_of(2, || {
            w.fetch_add(1, Relaxed);
            w.fetch_add(1, SeqCst);
        });
        assert_eq!((t2.cc, t2.ops), (1, 2));
        // Slot 1 must re-fetch.
        let t1 = tally_of(1, || {
            let _ = w.load(SeqCst);
        });
        assert_eq!(t1.cc, 1);
    }

    #[test]
    fn counting_failed_cas_still_charges() {
        let w = CountingWord::new(7);
        let _ = tally_of(1, || {
            let _ = w.load(SeqCst);
        });
        let t = tally_of(2, || {
            assert!(w.compare_exchange(99, 0, SeqCst, Relaxed).is_err());
        });
        assert_eq!(t.cc, 1, "a failed CAS still performs the coherence transaction");
        // ... and it invalidated slot 1's copy, like the sim's model.
        let t1 = tally_of(1, || {
            let _ = w.load(SeqCst);
        });
        assert_eq!(t1.cc, 1);
    }

    #[test]
    fn counting_dsm_home_is_slot_zero() {
        let b = CountingBool::new(false);
        let home = tally_of(DSM_HOME, || {
            b.store(true, Release);
            let _ = b.load(Acquire);
        });
        assert_eq!(home.dsm, 0, "home accesses are DSM-free");
        let away = tally_of(3, || {
            let _ = b.load(SeqCst);
            let _ = b.load(SeqCst); // every remote poll is charged
        });
        assert_eq!(away.dsm, 2);
    }

    #[test]
    fn counting_bool_semantics_match_native() {
        let b = CountingBool::new(true);
        assert!(b.load(SeqCst));
        assert!(b.swap(false, SeqCst));
        assert_eq!(b.compare_exchange(false, true, SeqCst, SeqCst), Ok(false));
        assert_eq!(b.compare_exchange(false, true, SeqCst, SeqCst), Err(true));
    }

    #[test]
    fn site_ops_are_the_plain_ops_off_sched() {
        // Same values and, under Counting, the same tally op for op: a
        // site tag costs nothing outside the checker.
        let plain = tally_of(2, || {
            let b = CountingBool::new(false);
            b.store(true, Release);
            assert!(b.swap(false, Acquire));
            let w = CountingWord::new(4);
            assert_eq!(w.load(SeqCst), 4);
            w.store(5, SeqCst);
        });
        let sited = tally_of(2, || {
            let b = CountingBool::new(false);
            b.store_at(Site::F1_L8, true, Release);
            assert!(b.swap_at(Site::MX_TTAS, false, Acquire));
            let w = CountingWord::new(4);
            assert_eq!(w.load_at(Site::BR_SCAN, SeqCst), 4);
            w.store_at(Site::BR_PUB, 5, SeqCst);
        });
        assert_eq!(plain, sited);

        let b = NativeBool::new(false);
        b.store_at(Site::F1_L3, true, Relaxed);
        assert!(b.swap_at(Site::MX_TTAS, false, Acquire));
        assert_eq!(NativeWord::new(9).load_at(Site::AS_WAKE_ALL, SeqCst), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_out_of_range_panics() {
        set_thread_slot(MAX_SLOTS);
    }

    #[test]
    fn backend_names() {
        assert_eq!(Native::NAME, "native");
        assert_eq!(Counting::NAME, "counting");
    }
}
