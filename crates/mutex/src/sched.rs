//! The `Sched` memory backend: deterministic, schedulable shared variables.
//!
//! [`mem`](crate::mem) gives every lock interchangeable backends —
//! [`Native`](crate::mem::Native) for production and
//! [`Counting`](crate::mem::Counting) for RMR accounting. This module adds
//! the checker's: [`Sched`], whose `Bool`/`Word` route **every** shared-memory
//! operation through a cooperative, fully deterministic scheduler. The
//! *shipped* lock code (not a re-encoding of it) can then be driven through
//! chosen interleavings, schedule by schedule, the way `rmr-sim` drives its
//! line-level models — closing the "model vs. deployed code" gap for the
//! correctness properties the same way the `Counting` backend closed it for
//! RMR accounting (DESIGN.md §9).
//!
//! # Why yield points at `Backend` operations suffice
//!
//! All inter-thread communication in the lock algorithms goes through the
//! `Backend` vocabulary (DESIGN.md §5). Code between two `Backend`
//! operations touches only task-local state, so interleaving it with other
//! tasks cannot change any observable outcome: scheduling decisions only
//! ever matter at the operations themselves. One yield point per operation
//! therefore explores the complete interleaving space of the algorithm at
//! the same atomicity the paper (and `rmr-sim`) assumes — and because the
//! scheduler runs exactly one task at a time, every execution is serial
//! and replayable.
//!
//! # Memory models
//!
//! [`run_tasks`] executes under [`MemoryModel::SeqCst`]: every operation
//! takes effect in memory the moment its turn runs, whatever [`Ordering`]
//! it was annotated with — the interleaving semantics the paper's proofs
//! assume. [`run_tasks_in`] can instead select
//! [`MemoryModel::StoreBuffer`], the weak mode that verifies the
//! workspace's per-site ordering annotations (DESIGN.md §13):
//!
//! * Each task owns a FIFO **store buffer** (capacity
//!   [`STORE_BUFFER_CAP`]). A store annotated weaker than `SeqCst` is
//!   *buffered*, invisible to every other task until flushed; a `SeqCst`
//!   store drains the task's own buffer and writes memory directly.
//! * **Flush points are scheduler decisions.** Whenever a task has
//!   flushable entries, the strategy's runnable set is extended with
//!   *virtual ids* (`n_tasks + task·CAP + k` = flush the `k`-th eligible
//!   entry of `task`), so the nondeterminism of the hardware's write-back
//!   timing is explored — and replayed — exactly like task interleaving. A
//!   `Relaxed` entry is eligible once no older same-variable entry sits
//!   before it (per-variable coherence holds; cross-variable order does
//!   not); a `Release` entry is eligible only at the buffer front, which
//!   is precisely the "everything before me is visible first" guarantee.
//! * Loads read the task's **own newest buffered value** if one exists
//!   (store forwarding), else main memory. Load orderings are not
//!   distinguished — a store-buffer machine never reorders loads, so
//!   `Acquire`/`Relaxed` load demotions are invisible here; each
//!   acquire-load site is instead guarded through the mutants of the store
//!   it pairs with (DESIGN.md §13).
//! * Every RMW (swap, fetch&add, CAS — successful **or failed**) drains
//!   the performer's buffer and operates on memory, like the x86 `lock`
//!   prefix. A buffer also drains (oldest entry first) on overflow and at
//!   a `Release`-or-stronger [`fence`](crate::mem::Backend::fence); a
//!   finished task's leftover entries keep flushing via decisions (a real
//!   write buffer outlives its core's last instruction) and are retired
//!   when the run completes.
//! * Buffers flush to a single main memory: the model is **multi-copy
//!   atomic** (TSO/PSO-like), so IRIW-style non-atomicity is out of scope
//!   and pinned as such by the litmus suite in `rmr-check`.
//!
//! The model is deliberately a *store-buffer* semantics rather than full
//! C++11: it reaches every reordering the workspace's annotations actually
//! license on mainstream hardware (store→store and store→load), keeps
//! failures replayable from the same decision sequence as the strong mode,
//! and composes with stall detection — a spinner is only ever revived by a
//! visible write, and deadlock is declared only when no task can move
//! *and* no buffered store remains to flush.
//!
//! # Faults
//!
//! The checker's mutation battery seeds bugs into the *shipped* locks
//! through this backend. An access tagged with a [`Site`] (the `*_at`
//! operations of [`SharedBool`]/[`SharedWord`]) consults the [`Fault`]
//! armed for the run: [`FaultKind::Skip`] drops a store,
//! [`FaultKind::Order`] demotes its ordering (visible only under
//! [`MemoryModel::StoreBuffer`]), and [`FaultKind::Read`] reports a fixed
//! value from a load or swap. [`arm`] sets the fault with a scoped guard
//! on the controlling thread, and [`run_tasks_in`] hands it to the run's
//! tasks; code outside a scheduled task is never faulted.
//!
//! # Execution model
//!
//! [`run_tasks`] spawns one OS thread per task, but the controller
//! grants the *turn* to exactly one task at a time. A turn spans one
//! `Backend` operation plus all task-local code up to the next operation
//! (or task exit). Tasks park at yield points; a [`Strategy`] picks who
//! moves next. Nondeterminism from the OS scheduler is fully excluded:
//! the same strategy decisions replay the same execution bit-for-bit.
//!
//! Spin loops need no special annotations: a task that keeps repeating a
//! *futile* operation on one variable — a load seeing the same value, a
//! swap that wrote back what was already there, a failing CAS — is marked
//! **stalled** and excluded from strategy picks until another task makes
//! progress on that variable.
//! If every unfinished task is stalled the controller runs a bounded
//! confirmation phase (so bounded retry loops, e.g. `try_read` attempt
//! counters, can give up on their own) and then reports a deadlock.
//!
//! # Example
//!
//! ```
//! use rmr_mutex::sched::{run_tasks, RoundRobin, Sched};
//! use rmr_mutex::{RawMutex, TicketLock};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(TicketLock::new_in(Sched));
//! let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..2)
//!     .map(|_| {
//!         let lock = Arc::clone(&lock);
//!         Box::new(move || {
//!             let t = lock.lock();
//!             lock.unlock(t);
//!         }) as Box<dyn FnOnce() + Send>
//!     })
//!     .collect();
//! let outcome = run_tasks(tasks, &mut RoundRobin::default(), 10_000);
//! assert!(outcome.result.is_ok());
//! ```

use crate::mem::{Backend, Ordering, SharedBool, SharedWord, Site};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Consecutive same-variable same-value loads after which a task counts as
/// stalled (a spin loop waiting for another task).
const STALL_LIMIT: u32 = 3;

/// Extra steps granted to each stalled task before a deadlock is declared,
/// so bounded retry loops (which look like spins until they give up) can
/// run to their abort path.
const CONFIRM_STEPS_PER_TASK: u32 = 64;

/// Upper bound on any single condvar wait. A correct controller/task pair
/// never waits this long; hitting it means the protocol itself is wedged,
/// and a loud panic beats a hung test run.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(120);

/// Panic payload used to unwind tasks out of a poisoned run.
const ABORT_PAYLOAD: &str = "rmr-sched: run aborted by controller";

/// Per-task store-buffer capacity under [`MemoryModel::StoreBuffer`]. A
/// store that would overflow the buffer force-flushes the oldest entry
/// first (real write buffers are finite too); small enough to keep the
/// decision space explorable, large enough that every lock's
/// store-then-store windows fit.
pub const STORE_BUFFER_CAP: usize = 4;

// ---------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------

/// The deterministic-scheduling backend (see the module docs).
///
/// Operations performed by threads **not** registered as scheduler tasks
/// (lock construction, post-run inspection, thread-local destructors that
/// run after a task's body has returned) execute natively, unscheduled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched;

impl Backend for Sched {
    type Bool = SchedBool;
    type Word = SchedWord;

    const NAME: &'static str = "sched";

    fn fence(order: Ordering) {
        assert!(order != Ordering::Relaxed, "there is no such thing as a relaxed fence");
        std::sync::atomic::fence(order);
        // In the store-buffer model a Release-or-stronger fence makes the
        // caller's earlier stores visible; an Acquire fence has no buffer
        // effect (loads are never delayed). Not a yield point: a fence is
        // not a shared-memory access, it only bounds the caller's own
        // reordering.
        if order != Ordering::Acquire {
            drain_own_buffer();
        }
    }
}

/// The memory model a scheduled run executes under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemoryModel {
    /// Sequential consistency: every operation hits memory on its turn,
    /// whatever its [`Ordering`] annotation. The semantics the paper's
    /// proofs assume, and the [`run_tasks`] default.
    #[default]
    SeqCst,
    /// Per-task store buffers with strategy-chosen flush points — the weak
    /// mode that checks the per-site ordering annotations (module docs).
    StoreBuffer,
}

/// A bug seeded at one [`Site`] of the shipped code (see the module
/// docs). Arm it with [`arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The tagged access the fault hits.
    pub site: Site,
    /// What the access does instead.
    pub kind: FaultKind,
}

/// How a faulted access misbehaves. A kind that does not apply to the
/// operation at the site (a `Read` on a store, say) leaves it untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The store is dropped: memory keeps its old value.
    Skip,
    /// The store runs with this ordering instead of the annotated one.
    Order(Ordering),
    /// The load or swap reports this value (`0` is `false`); a swap
    /// still writes.
    Read(u64),
}

thread_local! {
    /// The fault [`run_tasks_in`] hands to the runs this thread starts.
    static ARMED: Cell<Option<Fault>> = const { Cell::new(None) };
}

/// Arms `fault` for every run the calling thread starts until the
/// returned guard drops (which restores the previously armed fault, if
/// any). Per-thread, so tests running in parallel never see each other's
/// faults.
///
/// # Example
///
/// ```
/// use rmr_mutex::mem::{Backend, Ordering, SharedBool, Site};
/// use rmr_mutex::sched::{arm, run_tasks, Fault, FaultKind, RoundRobin, Sched};
/// use std::sync::Arc;
///
/// let gate = Arc::new(<Sched as Backend>::Bool::new(true));
/// let g = Arc::clone(&gate);
/// let task: Box<dyn FnOnce() + Send> =
///     Box::new(move || g.store_at(Site::F1_L8, false, Ordering::Release));
/// let _fault = arm(Fault { site: Site::F1_L8, kind: FaultKind::Skip });
/// assert!(run_tasks(vec![task], &mut RoundRobin::default(), 100).result.is_ok());
/// assert!(gate.load(Ordering::SeqCst), "the skipped store never landed");
/// ```
pub fn arm(fault: Fault) -> FaultGuard {
    FaultGuard { prev: ARMED.replace(Some(fault)), _thread: PhantomData }
}

/// Disarms the fault set by [`arm`] when dropped.
#[derive(Debug)]
#[must_use = "the fault is disarmed as soon as the guard drops"]
pub struct FaultGuard {
    prev: Option<Fault>,
    /// The armed fault is per-thread state: keep the guard on its thread.
    _thread: PhantomData<*const ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.set(self.prev);
    }
}

/// The kind of the fault armed at `site` for the calling task's run, if
/// any. `None` off scheduler tasks.
fn fault_at(site: Site) -> Option<FaultKind> {
    TASK.with(|t| {
        let borrow = t.try_borrow().ok()?;
        let fault = borrow.as_ref()?.shared.fault?;
        (fault.site == site).then_some(fault.kind)
    })
}

/// Monotonic id source for [`Sched`] variables, used in stall tracking and
/// failure reports. Construction order is deterministic because locks are
/// built on the controlling thread before any task runs.
static NEXT_VAR: AtomicU32 = AtomicU32::new(0);

fn fresh_var_id() -> u32 {
    NEXT_VAR.fetch_add(1, Ordering::Relaxed)
}

/// What a task is about to do at a yield point, for stall tracking and
/// deadlock reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Which shared variable (its creation-order id).
    pub var: u32,
    /// Operation class.
    pub kind: OpKind,
}

/// Classification of a `Backend` operation at a yield point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An atomic read.
    Load,
    /// Any atomic update (store, swap, fetch&add, CAS — successful or not).
    Update,
}

/// [`Sched`]'s boolean: an `AtomicBool` behind a yield point.
pub struct SchedBool {
    id: u32,
    inner: AtomicBool,
}

impl SharedBool for SchedBool {
    fn new(value: bool) -> Self {
        Self { id: fresh_var_id(), inner: AtomicBool::new(value) }
    }

    fn load(&self, _order: Ordering) -> bool {
        step(Op { var: self.id, kind: OpKind::Load });
        let v = match forwarded_load(self.id) {
            Some(buffered) => buffered != 0,
            None => self.inner.load(Ordering::SeqCst),
        };
        note(self.id, Outcome::observed(OpKind::Load, u64::from(v)));
        v
    }

    fn store(&self, value: bool, order: Ordering) {
        step(Op { var: self.id, kind: OpKind::Update });
        if buffer_store(self.id, Target::Bool(&self.inner), u64::from(value), order) {
            return; // buffered: invisible until a flush decision lands it
        }
        self.inner.store(value, Ordering::SeqCst);
        note(self.id, Outcome::Progress);
    }

    fn swap(&self, value: bool, _order: Ordering) -> bool {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer(); // RMWs act on memory (module docs)
        let old = self.inner.swap(value, Ordering::SeqCst);
        let outcome = if old == value {
            Outcome::observed(OpKind::Update, u64::from(old)) // wrote back what was there
        } else {
            Outcome::Progress
        };
        note(self.id, outcome);
        old
    }

    fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<bool, bool> {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer();
        let r = self.inner.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
        let outcome = match r {
            Ok(old) if old != new => Outcome::Progress,
            Ok(old) | Err(old) => Outcome::observed(OpKind::Update, u64::from(old)),
        };
        note(self.id, outcome);
        r
    }

    fn store_at(&self, site: Site, value: bool, order: Ordering) {
        match fault_at(site) {
            Some(FaultKind::Skip) => {}
            Some(FaultKind::Order(demoted)) => self.store(value, demoted),
            _ => self.store(value, order),
        }
    }

    fn swap_at(&self, site: Site, value: bool, order: Ordering) -> bool {
        let old = self.swap(value, order);
        match fault_at(site) {
            Some(FaultKind::Read(v)) => v != 0,
            _ => old,
        }
    }
}

impl fmt::Debug for SchedBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedBool(v{} = {})", self.id, self.inner.load(Ordering::SeqCst))
    }
}

impl Drop for SchedBool {
    fn drop(&mut self) {
        scrub_var(self.id);
    }
}

/// [`Sched`]'s word: an `AtomicU64` behind a yield point.
pub struct SchedWord {
    id: u32,
    inner: AtomicU64,
}

impl SharedWord for SchedWord {
    fn new(value: u64) -> Self {
        Self { id: fresh_var_id(), inner: AtomicU64::new(value) }
    }

    fn load(&self, _order: Ordering) -> u64 {
        step(Op { var: self.id, kind: OpKind::Load });
        let v = match forwarded_load(self.id) {
            Some(buffered) => buffered,
            None => self.inner.load(Ordering::SeqCst),
        };
        note(self.id, Outcome::observed(OpKind::Load, v));
        v
    }

    fn store(&self, value: u64, order: Ordering) {
        step(Op { var: self.id, kind: OpKind::Update });
        if buffer_store(self.id, Target::Word(&self.inner), value, order) {
            return;
        }
        self.inner.store(value, Ordering::SeqCst);
        note(self.id, Outcome::Progress);
    }

    fn swap(&self, value: u64, _order: Ordering) -> u64 {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer();
        let old = self.inner.swap(value, Ordering::SeqCst);
        let outcome =
            if old == value { Outcome::observed(OpKind::Update, old) } else { Outcome::Progress };
        note(self.id, outcome);
        old
    }

    fn fetch_add(&self, delta: u64, _order: Ordering) -> u64 {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer();
        let old = self.inner.fetch_add(delta, Ordering::SeqCst);
        let outcome =
            if delta == 0 { Outcome::observed(OpKind::Update, old) } else { Outcome::Progress };
        note(self.id, outcome);
        old
    }

    fn fetch_sub(&self, delta: u64, _order: Ordering) -> u64 {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer();
        let old = self.inner.fetch_sub(delta, Ordering::SeqCst);
        let outcome =
            if delta == 0 { Outcome::observed(OpKind::Update, old) } else { Outcome::Progress };
        note(self.id, outcome);
        old
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<u64, u64> {
        step(Op { var: self.id, kind: OpKind::Update });
        drain_own_buffer();
        let r = self.inner.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
        let outcome = match r {
            Ok(old) if old != new => Outcome::Progress,
            Ok(old) | Err(old) => Outcome::observed(OpKind::Update, old),
        };
        note(self.id, outcome);
        r
    }

    fn load_at(&self, site: Site, order: Ordering) -> u64 {
        let v = self.load(order);
        match fault_at(site) {
            Some(FaultKind::Read(r)) => r,
            _ => v,
        }
    }

    fn store_at(&self, site: Site, value: u64, order: Ordering) {
        match fault_at(site) {
            Some(FaultKind::Skip) => {}
            Some(FaultKind::Order(demoted)) => self.store(value, demoted),
            _ => self.store(value, order),
        }
    }
}

impl fmt::Debug for SchedWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedWord(v{} = {})", self.id, self.inner.load(Ordering::SeqCst))
    }
}

impl Drop for SchedWord {
    fn drop(&mut self) {
        scrub_var(self.id);
    }
}

// ---------------------------------------------------------------------
// Store-buffer plumbing (MemoryModel::StoreBuffer)
// ---------------------------------------------------------------------

/// Where a buffered store lands when flushed.
#[derive(Clone, Copy)]
enum Target {
    Bool(*const AtomicBool),
    Word(*const AtomicU64),
}

/// One pending store in a task's buffer.
struct BufEntry {
    var: u32,
    target: Target,
    value: u64,
    /// Release (or AcqRel) stores flush only from the buffer front.
    release: bool,
}

// SAFETY: the pointers target `Sched` variables, which the run contract
// requires to outlive the run (module docs: construct locks before
// `run_tasks`, inspect after), and every dereference is an atomic store
// performed under the scheduler state mutex.
unsafe impl Send for BufEntry {}

/// Buffers a non-`SeqCst` store on a weak-mode task; returns `false` when
/// the caller should perform the store natively instead (strong mode,
/// non-task thread, or a `SeqCst` store — which first drains the buffer).
fn buffer_store(var: u32, target: Target, value: u64, order: Ordering) -> bool {
    TASK.with(|t| {
        let borrow = t.borrow();
        let Some(ctx) = borrow.as_ref() else { return false };
        let mut st = ctx.shared.lock_state();
        if st.poisoned || !st.weak {
            return false;
        }
        if order == Ordering::SeqCst {
            // A SeqCst store is a full write-buffer drain plus the write.
            while let Some(e) = st.buffers[ctx.id].pop_front() {
                st.apply_flush(e);
            }
            return false;
        }
        if st.buffers[ctx.id].len() >= STORE_BUFFER_CAP {
            // Finite buffer: overflow retires the oldest entry (the front
            // is always eligible, whatever its ordering).
            let e = st.buffers[ctx.id].pop_front().expect("non-empty buffer");
            st.apply_flush(e);
        }
        let release = matches!(order, Ordering::Release | Ordering::AcqRel);
        st.buffers[ctx.id].push_back(BufEntry { var, target, value, release });
        // The storer made local progress (its own spin streak breaks), but
        // nothing is visible yet: spinners on `var` stay stalled until a
        // flush decision lands the value.
        st.stall[ctx.id] = Stall::default();
        true
    })
}

/// The calling task's newest buffered value for `var`, if any (store
/// forwarding: a task always sees its own writes in program order).
fn forwarded_load(var: u32) -> Option<u64> {
    TASK.with(|t| {
        let borrow = t.borrow();
        let ctx = borrow.as_ref()?;
        let st = ctx.shared.lock_state();
        if st.poisoned || !st.weak {
            return None;
        }
        st.buffers[ctx.id].iter().rev().find(|e| e.var == var).map(|e| e.value)
    })
}

/// Drains the calling task's store buffer in FIFO order (RMWs, SeqCst
/// stores, Release fences, task exit). No-op off weak-mode tasks.
fn drain_own_buffer() {
    TASK.with(|t| {
        let borrow = t.borrow();
        let Some(ctx) = borrow.as_ref() else { return };
        let mut st = ctx.shared.lock_state();
        if st.poisoned || !st.weak {
            return;
        }
        while let Some(e) = st.buffers[ctx.id].pop_front() {
            st.apply_flush(e);
        }
    })
}

/// Write-back on deallocation: when a `Sched` variable is dropped on a
/// task thread, land every buffered store targeting it — from *any*
/// task's buffer — while the memory is still valid. Without this, a
/// variable that dies before the run's final drain (an ephemeral
/// per-acquire node, or a lock whose last `Arc` lives inside a task
/// body) would leave dangling [`BufEntry`] pointers for the controller
/// to flush into freed memory. Runs even when the state is poisoned:
/// unwinding tasks drop their locks too, and a scrubbed entry is one
/// that can never dangle.
fn scrub_var(var: u32) {
    TASK.with(|t| {
        let Ok(borrow) = t.try_borrow() else { return };
        let Some(ctx) = borrow.as_ref() else { return };
        let mut st = ctx.shared.lock_state();
        if !st.weak {
            return;
        }
        let mut doomed = Vec::new();
        for buf in st.buffers.iter_mut() {
            let mut i = 0;
            while i < buf.len() {
                if buf[i].var == var {
                    doomed.push(buf.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
        }
        for e in doomed {
            st.apply_flush(e);
        }
    })
}

// ---------------------------------------------------------------------
// Task-side plumbing
// ---------------------------------------------------------------------

struct TaskCtx {
    id: usize,
    shared: Arc<Shared>,
    /// True while the task holds a grant it has not yet spent on an
    /// operation (set by the pre-body wait and consumed by the first op).
    primed: Cell<bool>,
}

thread_local! {
    static TASK: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

/// The yield point: ends the calling task's current turn (if any) and
/// blocks until the controller grants it the next one. No-op on threads
/// that are not scheduler tasks.
fn step(op: Op) {
    TASK.with(|t| {
        if let Some(ctx) = t.borrow().as_ref() {
            ctx.step(op);
        }
    });
}

/// What a completed operation revealed, for stall tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The operation changed the variable (or published a value): the
    /// performer is live, and spinners on this variable must be rechecked.
    Progress,
    /// The operation was futile — a load, a same-value swap, a failed CAS
    /// — keyed so repeats are recognizable.
    Observation(Observed),
}

impl Outcome {
    /// A futile operation, keyed so that "same kind of op seeing the same
    /// value" compares equal and anything else breaks the streak.
    fn observed(kind: OpKind, value: u64) -> Self {
        Outcome::Observation(Observed { kind, value })
    }
}

/// Exact identity of a futile operation's observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observed {
    kind: OpKind,
    value: u64,
}

/// Records what a scheduled operation revealed: observations feed the
/// performer's stall streak; progress clears it and re-enables every task
/// spinning on the touched variable. No-op off scheduler tasks.
fn note(var: u32, outcome: Outcome) {
    TASK.with(|t| {
        if let Some(ctx) = t.borrow().as_ref() {
            let mut st = ctx.shared.lock_state();
            if st.poisoned {
                return;
            }
            match outcome {
                Outcome::Observation(obs) => {
                    let stall = &mut st.stall[ctx.id];
                    if stall.last == Some((var, obs)) {
                        stall.streak += 1;
                    } else {
                        stall.last = Some((var, obs));
                        stall.streak = 1;
                    }
                }
                Outcome::Progress => {
                    let me = ctx.id;
                    for (i, stall) in st.stall.iter_mut().enumerate() {
                        if i == me || stall.last.map(|(v, _)| v) == Some(var) {
                            *stall = Stall::default();
                        }
                    }
                }
            }
        }
    });
}

/// Explicit yield point for harness code that wants a scheduling
/// opportunity without touching a shared variable (e.g. between two
/// critical-section phases). No-op off scheduler tasks.
pub fn yield_point() {
    step(Op { var: u32::MAX, kind: OpKind::Update });
    note(u32::MAX, Outcome::Progress);
}

impl TaskCtx {
    fn step(&self, op: Op) {
        let mut st = self.shared.lock_state();
        if st.poisoned {
            // Teardown in progress. This call may be a guard drop running
            // *during* the abort unwind — panicking again would abort the
            // process — so just let the operation run natively.
            return;
        }
        if self.primed.get() {
            // The pre-body grant covers the first operation.
            debug_assert_eq!(st.current, Some(self.id));
            self.primed.set(false);
        } else {
            debug_assert_eq!(st.current, Some(self.id), "step without holding the turn");
            st.current = None;
            st.waiting[self.id] = true;
            st.pending[self.id] = Some(op);
            self.shared.cv.notify_all();
            st = self.shared.wait_until(st, |s| s.poisoned || s.current == Some(self.id));
            if st.poisoned {
                st.waiting[self.id] = false;
                drop(st);
                panic::panic_any(ABORT_PAYLOAD);
            }
            st.waiting[self.id] = false;
        }
        // Stall bookkeeping happens *after* the operation executes (the
        // `note` calls in the backend impls), when its futility is known.
    }

    /// Pre-body wait: parks until the controller grants the first turn.
    fn first_wait(&self) {
        let mut st = self.shared.lock_state();
        st.waiting[self.id] = true;
        self.shared.cv.notify_all();
        st = self.shared.wait_until(st, |s| s.poisoned || s.current == Some(self.id));
        if st.poisoned {
            st.waiting[self.id] = false;
            drop(st);
            panic::panic_any(ABORT_PAYLOAD);
        }
        st.waiting[self.id] = false;
        self.primed.set(true);
    }
}

fn task_main(id: usize, shared: Arc<Shared>, body: Box<dyn FnOnce() + Send>) {
    TASK.with(|t| {
        *t.borrow_mut() =
            Some(TaskCtx { id, shared: Arc::clone(&shared), primed: Cell::new(false) });
    });
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        TASK.with(|t| t.borrow().as_ref().unwrap().first_wait());
        body();
    }));
    // Deregister *before* publishing completion so late operations (e.g.
    // thread-local destructors) run natively instead of deadlocking on a
    // turn that will never be granted.
    TASK.with(|t| *t.borrow_mut() = None);
    let mut st = shared.lock_state();
    // The task's store buffer is NOT drained here: like a real core's
    // write buffer, it keeps flushing asynchronously — the controller
    // keeps offering its entries as flush decisions after the task
    // finishes, and force-drains whatever remains when the run completes,
    // so buffered stores never vanish with their task.
    if st.current == Some(id) {
        st.current = None;
    }
    st.finished[id] = true;
    if let Err(payload) = result {
        let is_abort = payload.downcast_ref::<&str>() == Some(&ABORT_PAYLOAD);
        if !is_abort {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            st.panics[id] = Some(msg);
        }
    }
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------
// Controller state
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct Stall {
    last: Option<(u32, Observed)>,
    streak: u32,
}

impl Stall {
    fn stalled(&self) -> bool {
        self.streak >= STALL_LIMIT
    }
}

struct State {
    current: Option<usize>,
    waiting: Vec<bool>,
    finished: Vec<bool>,
    panics: Vec<Option<String>>,
    pending: Vec<Option<Op>>,
    stall: Vec<Stall>,
    /// Per-task store buffers (always allocated; only populated under
    /// [`MemoryModel::StoreBuffer`]).
    buffers: Vec<VecDeque<BufEntry>>,
    weak: bool,
    poisoned: bool,
}

impl State {
    /// Lands one buffered store in main memory and revives every task
    /// spinning on the touched variable — a flush is the moment a store
    /// becomes visible, exactly like a strong-mode store's `Progress`.
    fn apply_flush(&mut self, e: BufEntry) {
        match e.target {
            // SAFETY: see `BufEntry`'s Send justification.
            Target::Bool(p) => unsafe { (*p).store(e.value != 0, Ordering::SeqCst) },
            Target::Word(p) => unsafe { (*p).store(e.value, Ordering::SeqCst) },
        }
        for stall in self.stall.iter_mut() {
            if stall.last.map(|(v, _)| v) == Some(e.var) {
                *stall = Stall::default();
            }
        }
    }

    /// The flushable entries of every task's buffer, as `(task, buffer
    /// index, virtual pick id)` triples in deterministic order. Virtual id
    /// `n + t·CAP + k` names the `k`-th eligible entry of task `t`'s
    /// buffer — stable under replay because buffers are a deterministic
    /// function of the decision prefix.
    fn flush_candidates(&self, n: usize) -> Vec<(usize, usize, usize)> {
        if !self.weak {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (t, buf) in self.buffers.iter().enumerate() {
            let mut k = 0;
            for (idx, e) in buf.iter().enumerate() {
                let eligible = if e.release {
                    idx == 0
                } else {
                    !buf.iter().take(idx).any(|earlier| earlier.var == e.var)
                };
                if eligible {
                    out.push((t, idx, n + t * STORE_BUFFER_CAP + k));
                    k += 1;
                }
            }
        }
        out
    }
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// The fault armed on the controlling thread when the run started.
    fault: Option<Fault>,
}

impl Shared {
    fn new(n: usize, weak: bool, fault: Option<Fault>) -> Self {
        Self {
            state: Mutex::new(State {
                current: None,
                waiting: vec![false; n],
                finished: vec![false; n],
                panics: vec![None; n],
                pending: vec![None; n],
                stall: vec![Stall::default(); n],
                buffers: (0..n).map(|_| VecDeque::new()).collect(),
                weak,
                poisoned: false,
            }),
            cv: Condvar::new(),
            fault,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler state mutex poisoned")
    }

    /// Waits on the condvar until `pred` holds, panicking if the protocol
    /// wedges (no transition for [`WEDGE_TIMEOUT`]).
    fn wait_until<'a>(
        &'a self,
        mut guard: MutexGuard<'a, State>,
        pred: impl Fn(&State) -> bool,
    ) -> MutexGuard<'a, State> {
        while !pred(&guard) {
            let (g, timeout) =
                self.cv.wait_timeout(guard, WEDGE_TIMEOUT).expect("scheduler state mutex poisoned");
            guard = g;
            if timeout.timed_out() && !pred(&guard) {
                panic!(
                    "rmr-sched: protocol wedged (current={:?} waiting={:?} finished={:?})",
                    guard.current, guard.waiting, guard.finished
                );
            }
        }
        guard
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// What a [`Strategy`] sees at each scheduling decision.
#[derive(Debug)]
pub struct PickView<'a> {
    /// Strategy decisions made so far (confirmation-phase grants excluded).
    pub decision: u64,
    /// Ids eligible to be picked: unfinished, non-stalled tasks (`id <
    /// n_tasks`), plus — under [`MemoryModel::StoreBuffer`] — virtual
    /// flush ids (`id ≥ n_tasks`) naming pending store-buffer entries.
    /// Never empty.
    pub runnable: &'a [usize],
    /// All unfinished tasks (runnable plus stalled spinners).
    pub unfinished: &'a [usize],
    /// Total number of tasks in the run.
    pub n_tasks: usize,
    /// The task granted the previous turn, if any.
    pub last: Option<usize>,
}

/// A scheduling policy: picks, at every decision point, which task moves.
///
/// Implementations must be deterministic functions of their own state and
/// the [`PickView`] — that is what makes a `(strategy, seed)` pair name an
/// execution exactly. A pick may be a virtual flush id (see
/// [`PickView::runnable`]); strategies that treat ids as task indices must
/// fall back to something deterministic for ids `≥ n_tasks`.
pub trait Strategy {
    /// Picks the next id to run from `view.runnable`.
    fn pick(&mut self, view: &PickView<'_>) -> usize;
}

/// Fair deterministic baseline: cycles through runnable ids in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Strategy for RoundRobin {
    fn pick(&mut self, view: &PickView<'_>) -> usize {
        let t = view.runnable.iter().copied().find(|&t| t >= self.next).unwrap_or(view.runnable[0]);
        self.next = t + 1;
        t
    }
}

/// Replays a recorded decision sequence (a failure's `schedule`), then
/// falls back to round-robin once the recording is exhausted.
///
/// Because every other source of nondeterminism is excluded — including
/// weak-memory flush points, which are themselves recorded decisions —
/// replaying the decisions of a failing run reproduces it exactly; this is
/// the single-line replay the checker prints on failure.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    decisions: Vec<u16>,
    pos: usize,
    tail: RoundRobin,
}

impl Replay {
    /// Builds a replayer from a recorded decision sequence.
    pub fn new(decisions: Vec<u16>) -> Self {
        Self { decisions, pos: 0, tail: RoundRobin::default() }
    }
}

impl Strategy for Replay {
    fn pick(&mut self, view: &PickView<'_>) -> usize {
        if let Some(&t) = self.decisions.get(self.pos) {
            self.pos += 1;
            let t = t as usize;
            assert!(
                view.runnable.contains(&t),
                "replay diverged: recorded pick {t} is not runnable at decision {} \
                 (runnable {:?})",
                self.pos - 1,
                view.runnable
            );
            return t;
        }
        self.tail.pick(view)
    }
}

// ---------------------------------------------------------------------
// The controller
// ---------------------------------------------------------------------

/// Why a scheduled run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Every unfinished task is spinning on a variable nobody will ever
    /// change — and no buffered store remains that could change one —
    /// confirmed by a bounded grace phase.
    Deadlock {
        /// One line per wedged task: its id and the operation it repeats.
        wedged: Vec<String>,
    },
    /// The step budget ran out before all tasks finished — livelock or a
    /// budget set too low for the workload.
    Budget {
        /// The exhausted budget.
        steps: u64,
    },
    /// A task panicked (an oracle violation or a bug in the code under
    /// test).
    Panic {
        /// Which task panicked.
        task: usize,
        /// Its panic message.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { wedged } => {
                write!(f, "deadlock: {}", wedged.join("; "))
            }
            RunError::Budget { steps } => write!(f, "step budget ({steps}) exhausted"),
            RunError::Panic { task, message } => write!(f, "task {task} panicked: {message}"),
        }
    }
}

/// Result of one scheduled execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Turns granted (including deadlock-confirmation grants) plus flush
    /// decisions executed.
    pub steps: u64,
    /// The strategy's decisions, in order — feed to [`Replay`] to
    /// reproduce this execution exactly.
    pub schedule: Vec<u16>,
    /// `Ok(())` if every task ran to completion under the oracles.
    pub result: Result<(), RunError>,
}

/// Runs `bodies` to completion under [`MemoryModel::SeqCst`] — see
/// [`run_tasks_in`].
pub fn run_tasks(
    bodies: Vec<Box<dyn FnOnce() + Send>>,
    strategy: &mut dyn Strategy,
    budget: u64,
) -> RunOutcome {
    run_tasks_in(bodies, strategy, budget, MemoryModel::SeqCst)
}

/// Runs `bodies` (one OS thread each) to completion under `strategy` and
/// the given [`MemoryModel`], granting at most `budget` turns, with the
/// [`Fault`] the calling thread has [`arm`]ed (if any) applied inside the
/// tasks. See the module docs for the execution model.
///
/// Construct every lock and every [`Sched`] variable *before* calling this
/// (on the calling thread) and keep them alive until it returns — under
/// [`MemoryModel::StoreBuffer`] the controller writes buffered stores back
/// through pointers to those variables. Size step budgets generously: a
/// correct lock under a fair-ish strategy finishes small configurations in
/// well under a thousand steps.
///
/// # Panics
///
/// Panics if `bodies` is empty, has more than `u16::MAX` tasks, or if the
/// turn protocol itself wedges (a bug in this module, not in the code
/// under test).
pub fn run_tasks_in(
    bodies: Vec<Box<dyn FnOnce() + Send>>,
    strategy: &mut dyn Strategy,
    budget: u64,
    model: MemoryModel,
) -> RunOutcome {
    let n = bodies.len();
    assert!(n > 0, "run_tasks needs at least one task");
    assert!(
        n.saturating_mul(1 + STORE_BUFFER_CAP) <= u16::MAX as usize,
        "too many tasks for the decision encoding"
    );
    let shared = Arc::new(Shared::new(n, model == MemoryModel::StoreBuffer, ARMED.get()));

    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(id, body)| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rmr-sched-task-{id}"))
                .spawn(move || task_main(id, shared, body))
                .expect("spawning scheduler task thread")
        })
        .collect();

    let mut steps: u64 = 0;
    let mut schedule: Vec<u16> = Vec::new();
    let mut last: Option<usize> = None;

    // Arrival barrier: wait until every task is parked at its pre-body
    // yield point (or already finished), so the first decision sees the
    // full candidate set regardless of OS spawn timing.
    let mut st = shared.lock_state();
    st = shared
        .wait_until(st, |s| (0..n).all(|i| s.waiting[i] || s.finished[i]) && s.current.is_none());

    let result = 'run: loop {
        let unfinished: Vec<usize> = (0..n).filter(|&i| !st.finished[i]).collect();
        if unfinished.is_empty() {
            // Retire every write buffer (task order, FIFO within each) so
            // post-run inspection sees the final memory state.
            for t in 0..n {
                while let Some(e) = st.buffers[t].pop_front() {
                    st.apply_flush(e);
                }
            }
            break 'run Ok(());
        }
        if let Some(task) = (0..n).find(|&i| st.panics[i].is_some()) {
            let message = st.panics[task].clone().unwrap();
            break 'run Err(RunError::Panic { task, message });
        }
        if steps >= budget {
            break 'run Err(RunError::Budget { steps });
        }

        let flushes = st.flush_candidates(n);
        let mut runnable: Vec<usize> =
            unfinished.iter().copied().filter(|&i| !st.stall[i].stalled()).collect();
        runnable.extend(flushes.iter().map(|&(_, _, vid)| vid));

        let pick = if runnable.is_empty() {
            // All spinning and nothing left to flush: confirmation phase.
            // Grant each wedged task a bounded number of extra turns
            // (round-robin, deterministic); if any of them makes visible
            // progress — a non-load op, or a load that sees a new value —
            // normal scheduling resumes.
            let mut revived = false;
            'confirm: for _round in 0..CONFIRM_STEPS_PER_TASK {
                for &t in &unfinished {
                    if st.finished[t] || st.panics[t].is_some() {
                        revived = true;
                        break 'confirm;
                    }
                    st.current = Some(t);
                    shared.cv.notify_all();
                    st = shared.wait_until(st, |s| s.current.is_none());
                    steps += 1;
                    let someone_moved = (0..n).any(|i| !st.finished[i] && !st.stall[i].stalled())
                        || !st.flush_candidates(n).is_empty();
                    if someone_moved || (0..n).any(|i| st.panics[i].is_some()) {
                        revived = true;
                        break 'confirm;
                    }
                    if steps >= budget {
                        break 'confirm;
                    }
                }
            }
            if revived || steps >= budget {
                continue 'run;
            }
            let wedged = unfinished
                .iter()
                .map(|&i| {
                    let op = st.pending[i];
                    let seen = st.stall[i];
                    match (op, seen.last) {
                        (Some(op), Some((var, obs))) => format!(
                            "task {i} spinning on v{var} (op {:?}, sees {}, ×{})",
                            op.kind, obs.value, seen.streak
                        ),
                        _ => format!("task {i} wedged"),
                    }
                })
                .collect();
            break 'run Err(RunError::Deadlock { wedged });
        } else {
            let view = PickView {
                decision: schedule.len() as u64,
                runnable: &runnable,
                unfinished: &unfinished,
                n_tasks: n,
                last,
            };
            let pick = strategy.pick(&view);
            assert!(
                runnable.contains(&pick),
                "strategy picked {pick}, not in runnable {runnable:?}"
            );
            schedule.push(pick as u16);
            pick
        };

        if pick >= n {
            // A flush decision: land the named buffered store. The
            // controller applies it directly — a write-back needs no help
            // from the owning core.
            let &(task, idx, _) = flushes
                .iter()
                .find(|&&(_, _, vid)| vid == pick)
                .expect("picked flush id is a current candidate");
            let entry = st.buffers[task].remove(idx).expect("flush candidate index in range");
            st.apply_flush(entry);
            steps += 1;
            continue 'run;
        }

        last = Some(pick);
        st.current = Some(pick);
        shared.cv.notify_all();
        st = shared.wait_until(st, |s| s.current.is_none());
        steps += 1;
    };

    // Tear down: poison so parked tasks unwind instead of leaking, then
    // reap every thread.
    if result.is_err() {
        st.poisoned = true;
        shared.cv.notify_all();
    }
    st = shared.wait_until(st, |s| (0..n).all(|i| s.finished[i]));
    drop(st);
    for h in handles {
        // Aborted tasks panicked by design; their join errors are expected.
        let _ = h.join();
    }

    RunOutcome { steps, schedule, result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AndersonLock, RawMutex, TicketLock};
    use std::sync::atomic::AtomicUsize;
    use Ordering::{Acquire, Relaxed, Release, SeqCst};

    fn boxed(f: impl FnOnce() + Send + 'static) -> Box<dyn FnOnce() + Send> {
        Box::new(f)
    }

    #[test]
    fn unregistered_threads_run_natively() {
        let w = <Sched as Backend>::Word::new(3);
        assert_eq!(w.fetch_add(2, SeqCst), 3);
        assert_eq!(w.load(Acquire), 5);
        let b = <Sched as Backend>::Bool::new(false);
        assert!(!b.swap(true, Acquire));
        assert_eq!(b.compare_exchange(true, false, SeqCst, SeqCst), Ok(true));
    }

    #[test]
    fn round_robin_interleaves_deterministically() {
        let run = || {
            let w = Arc::new(<Sched as Backend>::Word::new(0));
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..3 {
                let w = Arc::clone(&w);
                tasks.push(boxed(move || {
                    for _ in 0..4 {
                        w.fetch_add(1, SeqCst);
                    }
                }));
            }
            let out = run_tasks(tasks, &mut RoundRobin::default(), 1_000);
            assert!(out.result.is_ok(), "{:?}", out.result);
            (out.schedule, w.load(SeqCst))
        };
        let (s1, v1) = run();
        let (s2, v2) = run();
        assert_eq!(s1, s2, "same strategy, same schedule");
        assert_eq!((v1, v2), (12, 12));
    }

    #[test]
    fn spinning_task_is_descheduled_until_the_flag_flips() {
        // Task 0 spins on a flag only task 1 sets. Round-robin would grant
        // them alternately; the stall tracker must keep the run finite
        // regardless of strategy.
        let flag = Arc::new(<Sched as Backend>::Bool::new(false));
        let f0 = Arc::clone(&flag);
        let f1 = Arc::clone(&flag);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            boxed(move || crate::spin_until(|| f0.load(SeqCst))),
            boxed(move || f1.store(true, SeqCst)),
        ];
        let out = run_tasks(tasks, &mut RoundRobin::default(), 10_000);
        assert!(out.result.is_ok(), "{:?}", out.result);
        assert!(out.steps < 100, "stall detection failed: {} steps", out.steps);
    }

    #[test]
    fn true_deadlock_is_reported() {
        // Two tasks each spin on a flag only the other would set — after
        // spinning. Classic circular wait.
        let a = Arc::new(<Sched as Backend>::Bool::new(false));
        let b = Arc::new(<Sched as Backend>::Bool::new(false));
        let (a0, b0) = (Arc::clone(&a), Arc::clone(&b));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            boxed(move || {
                crate::spin_until(|| a0.load(SeqCst));
                b0.store(true, SeqCst);
            }),
            boxed(move || {
                crate::spin_until(|| b1.load(SeqCst));
                a1.store(true, SeqCst);
            }),
        ];
        let out = run_tasks(tasks, &mut RoundRobin::default(), 100_000);
        match out.result {
            Err(RunError::Deadlock { ref wedged }) => {
                assert_eq!(wedged.len(), 2, "{wedged:?}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn task_panic_is_surfaced_not_hung() {
        let tasks: Vec<Box<dyn FnOnce() + Send>> =
            vec![boxed(|| panic!("oracle says no")), boxed(|| {})];
        let out = run_tasks(tasks, &mut RoundRobin::default(), 1_000);
        match out.result {
            Err(RunError::Panic { task: 0, ref message }) => {
                assert!(message.contains("oracle says no"), "{message}");
            }
            other => panic!("expected task-0 panic, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let w = Arc::new(<Sched as Backend>::Word::new(0));
        let w0 = Arc::clone(&w);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![boxed(move || {
            for _ in 0..100 {
                w0.fetch_add(1, SeqCst);
            }
        })];
        let out = run_tasks(tasks, &mut RoundRobin::default(), 10);
        assert_eq!(out.result, Err(RunError::Budget { steps: 10 }));
    }

    #[test]
    fn replay_reproduces_a_recorded_schedule() {
        let run = |strategy: &mut dyn Strategy| {
            let w = Arc::new(<Sched as Backend>::Word::new(0));
            let trace = Arc::new(Mutex::new(Vec::new()));
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for id in 0..3u64 {
                let w = Arc::clone(&w);
                let trace = Arc::clone(&trace);
                tasks.push(boxed(move || {
                    for _ in 0..3 {
                        let seen = w.fetch_add(1, SeqCst);
                        trace.lock().unwrap().push((id, seen));
                    }
                }));
            }
            let out = run_tasks(tasks, strategy, 1_000);
            assert!(out.result.is_ok());
            let observed = trace.lock().unwrap().clone();
            (out.schedule, observed)
        };
        let (schedule, trace1) = run(&mut RoundRobin::default());
        let (schedule2, trace2) = run(&mut Replay::new(schedule.clone()));
        assert_eq!(schedule, schedule2);
        assert_eq!(trace1, trace2, "replay must reproduce the observable history");
    }

    #[test]
    fn real_mutexes_run_under_the_scheduler() {
        for capacity in [2usize, 4] {
            let lock = Arc::new(AndersonLock::new_in(capacity, Sched));
            let in_cs = Arc::new(AtomicUsize::new(0));
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let lock = Arc::clone(&lock);
                let in_cs = Arc::clone(&in_cs);
                tasks.push(boxed(move || {
                    for _ in 0..2 {
                        let t = lock.lock();
                        assert_eq!(in_cs.fetch_add(1, SeqCst), 0);
                        yield_point();
                        in_cs.fetch_sub(1, SeqCst);
                        lock.unlock(t);
                    }
                }));
            }
            let out = run_tasks(tasks, &mut RoundRobin::default(), 10_000);
            assert!(out.result.is_ok(), "{:?}", out.result);
        }

        let lock = Arc::new(TicketLock::new_in(Sched));
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for _ in 0..3 {
            let lock = Arc::clone(&lock);
            tasks.push(boxed(move || {
                let t = lock.lock();
                lock.unlock(t);
            }));
        }
        let out = run_tasks(tasks, &mut RoundRobin::default(), 10_000);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }

    // -- weak-memory mode ---------------------------------------------

    /// Runs the two-task body pair under every schedule a simple DFS over
    /// decision prefixes reaches, collecting `collect()`'s value after
    /// each clean run. Tiny bodies only — this is exhaustive.
    #[allow(clippy::type_complexity)]
    fn weak_outcomes<T: Ord + Clone + fmt::Debug>(
        mk: &dyn Fn() -> (Vec<Box<dyn FnOnce() + Send>>, Box<dyn Fn() -> T>),
        budget: u64,
    ) -> std::collections::BTreeSet<T> {
        // Depth-first over decision prefixes: re-run with `prefix`, record
        // the runnable set at each decision, then advance the deepest
        // un-exhausted decision. Complete for loop-free bodies.
        struct Recorder {
            prefix: Vec<u16>,
            pos: usize,
            seen: Vec<Vec<u16>>,
            taken: Vec<u16>,
        }
        impl Strategy for Recorder {
            fn pick(&mut self, view: &PickView<'_>) -> usize {
                let choices: Vec<u16> = view.runnable.iter().map(|&t| t as u16).collect();
                let pick = if self.pos < self.prefix.len() {
                    let p = self.prefix[self.pos];
                    assert!(choices.contains(&p), "dfs prefix diverged");
                    p
                } else {
                    choices[0]
                };
                self.pos += 1;
                self.seen.push(choices);
                self.taken.push(pick);
                pick as usize
            }
        }

        let mut outcomes = std::collections::BTreeSet::new();
        let mut prefix: Vec<u16> = Vec::new();
        for _run in 0..20_000 {
            let (tasks, collect) = mk();
            let mut rec =
                Recorder { prefix: prefix.clone(), pos: 0, seen: Vec::new(), taken: Vec::new() };
            let out = run_tasks_in(tasks, &mut rec, budget, MemoryModel::StoreBuffer);
            assert!(out.result.is_ok(), "litmus bodies must not fail: {:?}", out.result);
            outcomes.insert(collect());
            // Advance to the next unexplored branch.
            let mut next: Option<Vec<u16>> = None;
            for d in (0..rec.taken.len()).rev() {
                let choices = &rec.seen[d];
                let at = choices.iter().position(|&c| c == rec.taken[d]).unwrap();
                if at + 1 < choices.len() {
                    let mut p: Vec<u16> = rec.taken[..d].to_vec();
                    p.push(choices[at + 1]);
                    next = Some(p);
                    break;
                }
            }
            match next {
                Some(p) => prefix = p,
                None => return outcomes, // space exhausted
            }
        }
        panic!("DFS did not exhaust the schedule space");
    }

    #[test]
    fn weak_mode_reorders_relaxed_stores() {
        // Message passing with a Relaxed flag: the flag may overtake the
        // data, so a reader can see flag=1, data=0 — and under SeqCst-mode
        // semantics it never could. This is the canonical behavior the
        // weak mode must add.
        let mk = || {
            let data = Arc::new(<Sched as Backend>::Word::new(0));
            let flag = Arc::new(<Sched as Backend>::Word::new(0));
            let seen = Arc::new(AtomicU64::new(u64::MAX));
            let (d0, f0) = (Arc::clone(&data), Arc::clone(&flag));
            let (d1, f1) = (Arc::clone(&data), Arc::clone(&flag));
            let s1 = Arc::clone(&seen);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(move || {
                    d0.store(1, Relaxed);
                    f0.store(1, Relaxed);
                }),
                Box::new(move || {
                    if f1.load(Acquire) == 1 {
                        s1.store(d1.load(Acquire), SeqCst);
                    }
                }),
            ];
            let collect: Box<dyn Fn() -> u64> = Box::new(move || seen.load(SeqCst));
            (tasks, collect)
        };
        let outcomes = weak_outcomes(&mk, 10_000);
        assert!(outcomes.contains(&0), "relaxed flag must be able to overtake the data");
        assert!(outcomes.contains(&1), "the in-order outcome must of course remain");
    }

    #[test]
    fn weak_mode_release_store_keeps_earlier_stores_visible() {
        // Same shape with a Release flag: a Release entry flushes only
        // from the buffer front, so data=1 is in memory before flag=1 ever
        // is, and the stale outcome is forbidden.
        let mk = || {
            let data = Arc::new(<Sched as Backend>::Word::new(0));
            let flag = Arc::new(<Sched as Backend>::Word::new(0));
            let seen = Arc::new(AtomicU64::new(u64::MAX));
            let (d0, f0) = (Arc::clone(&data), Arc::clone(&flag));
            let (d1, f1) = (Arc::clone(&data), Arc::clone(&flag));
            let s1 = Arc::clone(&seen);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(move || {
                    d0.store(1, Relaxed);
                    f0.store(1, Release);
                }),
                Box::new(move || {
                    if f1.load(Acquire) == 1 {
                        s1.store(d1.load(Acquire), SeqCst);
                    }
                }),
            ];
            let collect: Box<dyn Fn() -> u64> = Box::new(move || seen.load(SeqCst));
            (tasks, collect)
        };
        let outcomes = weak_outcomes(&mk, 10_000);
        assert!(!outcomes.contains(&0), "release publication must not be overtaken: {outcomes:?}");
        assert!(outcomes.contains(&1));
    }

    #[test]
    fn weak_mode_forwards_own_stores() {
        // A task always reads its own buffered store (store forwarding),
        // even though nobody else can see it yet.
        let w = Arc::new(<Sched as Backend>::Word::new(0));
        let w0 = Arc::clone(&w);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            w0.store(7, Relaxed);
            assert_eq!(w0.load(Relaxed), 7, "own store must forward");
        })];
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 1_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
        assert_eq!(w.load(SeqCst), 7, "task exit must drain the buffer");
    }

    #[test]
    fn weak_mode_rmw_and_seqcst_store_drain() {
        // An RMW (and a SeqCst store) acts on memory and drains the
        // performer's buffer first, so earlier relaxed stores become
        // visible no later than the RMW.
        let a = Arc::new(<Sched as Backend>::Word::new(0));
        let b = Arc::new(<Sched as Backend>::Word::new(0));
        let (a0, b0) = (Arc::clone(&a), Arc::clone(&b));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            a0.store(5, Relaxed);
            b0.fetch_add(1, Relaxed); // drains: a=5 lands first
            assert_eq!(a0.load(Relaxed), 5);
        })];
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 1_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
        assert_eq!((a.load(SeqCst), b.load(SeqCst)), (5, 1));
    }

    #[test]
    fn weak_mode_spinner_survives_buffered_wakeup() {
        // The store that would wake a spinner sits in a buffer: the run
        // must not be declared deadlocked — the flush candidate keeps the
        // runnable set non-empty until the store lands.
        let flag = Arc::new(<Sched as Backend>::Bool::new(false));
        let f0 = Arc::clone(&flag);
        let f1 = Arc::clone(&flag);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            boxed(move || crate::spin_until(|| f0.load(Acquire))),
            boxed(move || f1.store(true, Release)),
        ];
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 10_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }

    #[test]
    fn weak_mode_buffer_overflow_flushes_oldest() {
        // More pending relaxed stores than the buffer holds: the oldest
        // spills to memory in FIFO order, so a same-var overwrite is
        // never reordered before an older value.
        let vars: Vec<Arc<SchedWord>> =
            (0..STORE_BUFFER_CAP + 2).map(|_| Arc::new(<Sched as Backend>::Word::new(0))).collect();
        let mine = vars.clone();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            for (i, v) in mine.iter().enumerate() {
                v.store(i as u64 + 1, Relaxed);
            }
        })];
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 1_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(v.load(SeqCst), i as u64 + 1);
        }
    }

    #[test]
    fn weak_mode_release_fence_drains() {
        let w = Arc::new(<Sched as Backend>::Word::new(0));
        let w0 = Arc::clone(&w);
        let probe = Arc::new(AtomicU64::new(0));
        let p0 = Arc::clone(&probe);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(move || {
            w0.store(3, Relaxed);
            Sched::fence(Release);
            // After the fence the store is in memory, not just forwarded.
            p0.store(w0.load(Relaxed), SeqCst);
        })];
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 1_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
        assert_eq!(probe.load(SeqCst), 3);
    }

    #[test]
    fn weak_mode_replays_flush_decisions() {
        // A recorded weak-mode schedule (task turns + flush ids) must
        // replay to the same observable history.
        let run = |strategy: &mut dyn Strategy| {
            let data = Arc::new(<Sched as Backend>::Word::new(0));
            let flag = Arc::new(<Sched as Backend>::Word::new(0));
            let seen = Arc::new(AtomicU64::new(u64::MAX));
            let (d0, f0) = (Arc::clone(&data), Arc::clone(&flag));
            let (d1, f1) = (Arc::clone(&data), Arc::clone(&flag));
            let s1 = Arc::clone(&seen);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(move || {
                    d0.store(1, Relaxed);
                    f0.store(1, Relaxed);
                }),
                Box::new(move || {
                    if f1.load(Acquire) == 1 {
                        s1.store(d1.load(Acquire), SeqCst);
                    }
                }),
            ];
            let out = run_tasks_in(tasks, strategy, 10_000, MemoryModel::StoreBuffer);
            assert!(out.result.is_ok(), "{:?}", out.result);
            (out.schedule, seen.load(SeqCst))
        };
        let (schedule, seen1) = run(&mut RoundRobin::default());
        let (schedule2, seen2) = run(&mut Replay::new(schedule.clone()));
        assert_eq!(schedule, schedule2);
        assert_eq!(seen1, seen2);
    }

    #[test]
    fn weak_mode_runs_a_real_lock() {
        // The full mutex battery shape, weak mode: exclusion must hold
        // because the lock's annotations are (supposed to be) sound.
        let lock = Arc::new(TicketLock::new_in(Sched));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            tasks.push(boxed(move || {
                for _ in 0..2 {
                    let t = lock.lock();
                    assert_eq!(in_cs.fetch_add(1, SeqCst), 0, "exclusion broke under weak memory");
                    yield_point();
                    in_cs.fetch_sub(1, SeqCst);
                    lock.unlock(t);
                }
            }));
        }
        let out = run_tasks_in(tasks, &mut RoundRobin::default(), 10_000, MemoryModel::StoreBuffer);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }

    // -- the fault seam -------------------------------------------------

    /// Runs `body` as the single task of a run under `model`.
    fn run_one(model: MemoryModel, body: impl FnOnce() + Send + 'static) {
        let out = run_tasks_in(vec![boxed(body)], &mut RoundRobin::default(), 1_000, model);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }

    #[test]
    fn skip_fault_leaves_memory_unchanged() {
        let b = Arc::new(<Sched as Backend>::Bool::new(true));
        let b0 = Arc::clone(&b);
        let _fault = arm(Fault { site: Site::F1_L8, kind: FaultKind::Skip });
        run_one(MemoryModel::SeqCst, move || {
            b0.store_at(Site::F1_L8, false, Release);
            assert!(b0.load(Acquire), "the skipped store must not even forward");
        });
        assert!(b.load(SeqCst));
    }

    #[test]
    fn order_fault_buffers_a_seqcst_store_under_the_store_buffer() {
        let b = Arc::new(<Sched as Backend>::Bool::new(false));
        let b0 = Arc::clone(&b);
        let _fault = arm(Fault { site: Site::BR_CLEAR, kind: FaultKind::Order(Release) });
        run_one(MemoryModel::StoreBuffer, move || {
            b0.store_at(Site::BR_CLEAR, true, SeqCst);
            // No yield point since the store: memory itself still holds
            // the old value, while the task's own load forwards the new.
            assert!(!b0.inner.load(SeqCst), "the demoted store must sit in the buffer");
            assert!(b0.load(Relaxed));
        });
        assert!(b.load(SeqCst), "the buffered store lands when the run drains");

        let w = Arc::new(<Sched as Backend>::Word::new(0));
        let w0 = Arc::clone(&w);
        let _fault = arm(Fault { site: Site::BR_PUB, kind: FaultKind::Order(Release) });
        run_one(MemoryModel::StoreBuffer, move || {
            w0.store_at(Site::BR_PUB, 7, SeqCst);
            assert_eq!(w0.inner.load(SeqCst), 0, "the demoted store must sit in the buffer");
            assert_eq!(w0.load(Relaxed), 7);
        });
        assert_eq!(w.load(SeqCst), 7);
    }

    #[test]
    fn read_fault_reports_the_armed_value() {
        let w = Arc::new(<Sched as Backend>::Word::new(5));
        let b = Arc::new(<Sched as Backend>::Bool::new(true));
        let (w0, b0) = (Arc::clone(&w), Arc::clone(&b));
        let _fault = arm(Fault { site: Site::BR_SCAN, kind: FaultKind::Read(0) });
        run_one(MemoryModel::SeqCst, move || {
            assert_eq!(w0.load_at(Site::BR_SCAN, SeqCst), 0);
        });
        let _fault = arm(Fault { site: Site::MX_TTAS, kind: FaultKind::Read(0) });
        run_one(MemoryModel::SeqCst, move || {
            assert!(!b0.swap_at(Site::MX_TTAS, true, Acquire), "the swap reports the armed value");
            b0.store(false, SeqCst);
            assert!(!b0.swap_at(Site::MX_TTAS, true, Acquire));
        });
        assert_eq!(w.load(SeqCst), 5, "a read fault never writes");
        assert!(b.load(SeqCst), "a faulted swap still writes");
    }

    #[test]
    fn faults_stay_inside_their_run_and_site() {
        let b = Arc::new(<Sched as Backend>::Bool::new(false));
        let w = <Sched as Backend>::Word::new(3);
        {
            let _fault = arm(Fault { site: Site::F1_L3, kind: FaultKind::Skip });
            // Outside a scheduled task: the plain store.
            b.store_at(Site::F1_L3, true, Release);
            assert!(b.load(SeqCst));
            let read = arm(Fault { site: Site::AS_WAKE_ALL, kind: FaultKind::Read(0) });
            assert_eq!(w.load_at(Site::AS_WAKE_ALL, SeqCst), 3);
            drop(read);
            // Inside a task but at a different site: the plain store.
            let b0 = Arc::clone(&b);
            run_one(MemoryModel::SeqCst, move || b0.store_at(Site::F1_L8, false, Release));
            assert!(!b.load(SeqCst));
        }
        // After the guard drops: the plain store, at the armed site too.
        let b0 = Arc::clone(&b);
        run_one(MemoryModel::SeqCst, move || b0.store_at(Site::F1_L3, true, Release));
        assert!(b.load(SeqCst));
    }

    #[test]
    fn backend_name() {
        assert_eq!(Sched::NAME, "sched");
    }
}
