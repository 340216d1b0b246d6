//! Figure 4: the multi-writer multi-reader lock with **writer priority**
//! (Theorem 5).
//!
//! The plain transformation `T` does *not* preserve writer priority: when a
//! writer finishes and runs the Figure 1 exit (opening the gate), a reader
//! could slip into the critical section ahead of a writer already waiting
//! on `M`. Figure 4 fixes this by keeping the inner SWWP (single-writer
//! writer-priority) *session open across writer handoffs*: an exiting
//! writer only closes the SWWP session (opens the gate for readers) if it
//! can prove no writer is in the try section, via the `Wcount` counter and
//! a CAS on the `W-token` variable; otherwise the next writer *inherits*
//! the critical section without ever competing with readers.
//!
//! `W-token ∈ PID ∪ {false} ∪ {0, 1}` is the handoff word:
//!
//! * a **pid** means "that writer recently left the CS and may be about to
//!   hand the lock to the readers" — an arriving writer CASes it to `false`
//!   to preempt the handoff (line 5);
//! * **`false`** means the SWWP session is (or will stay) open and the next
//!   `M`-holder inherits it;
//! * a **side `0`/`1`** means the last writer *did* exit SWWP, and records
//!   the side from which the next writer must re-enter — the arriving
//!   writer performs the SWWP doorway `D ← t` on the writers' behalf
//!   (line 8) *before* queueing on `M`, which is what restores WP1.
//!
//! Every numbered line of the paper's Figure 4 appears below with its line
//! number; readers run Figure 1's `Read-lock()` unchanged.

use crate::raw::{RawMultiWriter, RawRwLock, RawTryReadLock};
use crate::registry::Pid;
use crate::side::Side;
use crate::swmr::writer_priority::{ReadSession, SwmrWriterPriority, WriteSession};
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedWord};
use rmr_mutex::CachePadded;
use rmr_mutex::{spin_until, AndersonLock, RawMutex};
use std::fmt;

/// Encoding of `W-token ∈ {0, 1} ∪ {false} ∪ PID`:
/// sides map to 0 and 1, `false` to 2, pid `p` to `p + 3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WToken {
    Sde(Side),
    False,
    Process(Pid),
}

const WTOKEN_FALSE: u64 = 2;
const WTOKEN_PID_BASE: u64 = 3;

impl WToken {
    fn encode(self) -> u64 {
        match self {
            WToken::Sde(s) => s.index() as u64,
            WToken::False => WTOKEN_FALSE,
            WToken::Process(p) => p.index() as u64 + WTOKEN_PID_BASE,
        }
    }

    fn decode(raw: u64) -> Self {
        match raw {
            0 => WToken::Sde(Side::Zero),
            1 => WToken::Sde(Side::One),
            WTOKEN_FALSE => WToken::False,
            p => WToken::Process(Pid::from_index((p - WTOKEN_PID_BASE) as usize)),
        }
    }
}

/// Proof of a held write lock.
#[derive(Debug)]
#[must_use = "the write lock must be released with write_unlock"]
pub struct WriteToken<M: RawMutex> {
    mutex_token: M::Token,
    curr_d: Side,
    prev_d: Side,
}

/// Figure 4: multi-writer multi-reader lock satisfying P1–P6 plus WP1
/// (writer priority) and WP2 (unstoppable writers), with O(1) RMR
/// complexity in the CC model (Theorem 5).
///
/// Readers may starve under a continuous stream of writers — by design;
/// use [`super::MwmrStarvationFree`] when no class may starve.
///
/// Generic over the writer-side mutex `M` and the memory backend `B`
/// ([`Native`] by default; use [`MwmrWriterPriority::new_in`] with
/// [`rmr_mutex::Counting`] to measure RMRs on the real implementation).
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrWriterPriority;
/// use rmr_core::raw::RawRwLock;
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrWriterPriority::new(8);
/// let w = lock.write_lock(Pid::from_index(0));
/// lock.write_unlock(Pid::from_index(0), w);
/// let r = lock.read_lock(Pid::from_index(1));
/// lock.read_unlock(Pid::from_index(1), r);
/// ```
pub struct MwmrWriterPriority<M: RawMutex = AndersonLock, B: Backend = Native> {
    /// The SWWP instance whose writer role the writers take turns playing.
    swmr: SwmrWriterPriority<B>,
    /// The writers' mutual-exclusion lock `M`.
    mutex: M,
    /// `Wcount`: number of writers between their doorway and exit decrement.
    wcount: CachePadded<B::Word>,
    /// `W-token`: the session-handoff word described in the module docs.
    wtoken: CachePadded<B::Word>,
    max_processes: usize,
}

impl MwmrWriterPriority<AndersonLock> {
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

impl<B: Backend> MwmrWriterPriority<AndersonLock<B>, B> {
    /// Creates a lock for up to `max_processes` processes over the given
    /// memory backend, with a matching-backend [`AndersonLock`] as `M`.
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0`.
    pub fn new_in(max_processes: usize, backend: B) -> Self {
        Self::with_mutex_in(AndersonLock::new_in(max_processes, backend), max_processes, backend)
    }
}

impl<M: RawMutex> MwmrWriterPriority<M> {
    /// Creates the lock over a caller-supplied mutex `M` (same requirements
    /// as [`Fig3`](super::Fig3)'s).
    ///
    /// `W-token` starts at side 1 — the complement of the initial `D = 0` —
    /// so the first writer's proxy doorway targets the side whose previous
    /// gate (`Gate\[0\]`) starts open. The paper leaves this initialization
    /// implicit; any other choice deadlocks the first write attempt (see
    /// DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0` or exceeds the mutex capacity.
    pub fn with_mutex(mutex: M, max_processes: usize) -> Self {
        Self::with_mutex_in(mutex, max_processes, Native)
    }
}

impl<M: RawMutex, B: Backend> MwmrWriterPriority<M, B> {
    /// Creates the lock over a caller-supplied mutex `M` and memory
    /// backend (see [`MwmrWriterPriority::with_mutex`] for the `W-token`
    /// initialization note).
    ///
    /// # Panics
    ///
    /// Panics if `max_processes == 0` or exceeds the mutex capacity.
    pub fn with_mutex_in(mutex: M, max_processes: usize, _backend: B) -> Self {
        super::assert_mutex_fits(&mutex, max_processes);
        Self {
            swmr: SwmrWriterPriority::new_in(B::default()),
            mutex,
            wcount: CachePadded::new(B::Word::new(0)),
            wtoken: CachePadded::new(B::Word::new(WToken::Sde(Side::One).encode())),
            max_processes,
        }
    }

    /// The inner single-writer lock (for diagnostics and tests).
    pub fn inner(&self) -> &SwmrWriterPriority<B> {
        &self.swmr
    }

    fn load_wtoken(&self, order: MemOrdering) -> WToken {
        WToken::decode(self.wtoken.load(order))
    }

    fn cas_wtoken(&self, from: WToken, to: WToken) -> bool {
        // All CASes on `W-token` stay SeqCst: the token is one corner of the
        // Figure 4 Dekker square (see site F4-TOKEN below) and the handoff
        // CAS on line 19 must be totally ordered against Wcount's F&As.
        self.wtoken
            .compare_exchange(from.encode(), to.encode(), MemOrdering::SeqCst, MemOrdering::SeqCst)
            .is_ok()
    }

    /// Number of writers currently in their try or critical section
    /// (`Wcount`). Diagnostic; may be stale.
    pub fn writers_pending(&self) -> u64 {
        self.wcount.load(MemOrdering::Relaxed)
    }

    /// True when the construction is at rest: no writer between doorway
    /// and exit (`Wcount = 0`) and the inner Figure 1 instance quiescent.
    /// Checker entry point asserted by `rmr-check` at teardown; only
    /// meaningful while no attempt is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.writers_pending() == 0 && self.swmr.is_quiescent()
    }
}

impl<M: RawMutex, B: Backend> RawRwLock for MwmrWriterPriority<M, B> {
    type ReadToken = ReadSession;
    type WriteToken = WriteToken<M>;

    /// Readers run Figure 1's `Read-lock()` unchanged ("the Read-lock()
    /// procedure is same as in Figure 3").
    fn read_lock(&self, _pid: Pid) -> ReadSession {
        self.swmr.read_lock()
    }

    fn read_unlock(&self, _pid: Pid, token: ReadSession) {
        self.swmr.read_unlock(token);
    }

    /// Figure 4 lines 2–14.
    fn write_lock(&self, pid: Pid) -> WriteToken<M> {
        // Site F4-TOKEN, the store-buffering square of Figure 4: an arriving
        // writer F&As Wcount and then reads W-token (lines 2–3); an exiting
        // writer stores W-token ← p and then reads Wcount (lines 15, 18).
        // Sequential consistency of exactly these four accesses is what
        // guarantees "either the arriver sees the pid and preempts the
        // handoff, or the exiter sees Wcount > 0 and leaves the session
        // open" — so all four are SeqCst (DESIGN.md §13).
        self.wcount.fetch_add(1, MemOrdering::SeqCst); // line 2: F&A(Wcount, 1)
        let t = self.load_wtoken(MemOrdering::SeqCst); // line 3: t ← W-token
        if let WToken::Process(_) = t {
            // line 4: if (t ∈ PID)
            // line 5: CAS(W-token, t, false) — preempt a pending handoff to
            // the readers; failure means the race resolved another way.
            let _ = self.cas_wtoken(t, WToken::False);
        }
        let t = self.load_wtoken(MemOrdering::SeqCst); // line 6: t ← W-token (site F4-TOKEN)
        if let WToken::Sde(side) = t {
            // line 7: if (t ∈ {0, 1})
            // line 8: D ← t — the SWWP doorway, executed on the writers'
            // behalf. Concurrent writers here always carry the same side
            // (the token cannot change sides while any writer is in flight),
            // so the store is idempotent.
            self.swmr.set_direction(side);
        }
        let mutex_token = self.mutex.lock(); // line 9: acquire(M)
        let curr_d = self.swmr.direction(); // line 10: currD ← D, prevD ← ¬currD
        let prev_d = !curr_d;
        if let WToken::Sde(_) = self.load_wtoken(MemOrdering::SeqCst) {
            // line 11: if (W-token ∈ {0, 1}) — the previous writer exited
            // SWWP, so we must compete with the readers.
            // line 12: wait till Gate[prevD] — the previous writer may have
            // won its line-19 CAS but not yet executed line 20.
            spin_until(|| self.swmr.gate_is_open(prev_d));
            // line 13: SW-waiting-room() — Fig. 1 lines 4–12.
            let session = self.swmr.waiting_room(curr_d);
            // The session token is intentionally discarded: in Figure 4 the
            // SWWP session outlives this writer (successors may inherit it),
            // so the closer reconstructs it in `write_unlock` instead.
            let _ = session;
        }
        // else: the previous writer never exited SWWP — inherit its session
        // and enter the critical section directly.
        let _ = pid;
        WriteToken { mutex_token, curr_d, prev_d } // line 14: CRITICAL SECTION
    }

    /// Figure 4 lines 15–20.
    fn write_unlock(&self, pid: Pid, token: WriteToken<M>) {
        // line 15: W-token ← p (plain write; W-token is a CAS variable but
        // the paper stores here unconditionally).
        // Store half of site F4-TOKEN: SeqCst, not Release — if this store
        // could pass the line-18 load of Wcount, an exiting writer could miss
        // a concurrent arriver *and* that arriver could miss the pid, losing
        // the handoff both ways (readers slip in past a waiting writer,
        // breaking WP1).
        self.wtoken.store(WToken::Process(pid).encode(), MemOrdering::SeqCst);
        self.wcount.fetch_sub(1, MemOrdering::SeqCst); // line 16: F&A(Wcount, -1)
        self.mutex.unlock(token.mutex_token); // line 17: release(M)
                                              // Load half of site F4-TOKEN (see write_lock lines 2–3).
        if self.wcount.load(MemOrdering::SeqCst) == 0 {
            // line 18: if (Wcount = 0)
            // line 19: if (CAS(W-token, p, prevD)) — hand the next session's
            // side to the writers; fails if a newer writer already owns the
            // token or preempted the handoff.
            if self.cas_wtoken(WToken::Process(pid), WToken::Sde(token.prev_d)) {
                // line 20: Gate[currD] ← true — the Fig. 1 writer exit,
                // closing the SWWP session and releasing parked readers.
                self.swmr.writer_exit(WriteSession::resume(token.curr_d));
            }
        }
    }

    fn max_processes(&self) -> usize {
        self.max_processes
    }
}

/// Readers run Figure 1's protocol unchanged ("the Read-lock() procedure
/// is same as in Figure 3"), so its bounded read attempt carries over.
/// No `RawTryRwLock`: the Figure 4 writer path publishes `D` (line 8)
/// before acquiring `M` and cannot be revoked.
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrWriterPriority;
/// use rmr_core::raw::{RawRwLock, RawTryReadLock};
/// use rmr_core::registry::Pid;
///
/// let lock = MwmrWriterPriority::new(4);
/// let w = lock.write_lock(Pid::from_index(0));
/// assert!(lock.try_read_lock(Pid::from_index(1)).is_none());
/// lock.write_unlock(Pid::from_index(0), w);
/// ```
impl<M: RawMutex, B: Backend> RawTryReadLock for MwmrWriterPriority<M, B> {
    fn try_read_lock(&self, _pid: Pid) -> Option<ReadSession> {
        self.swmr.try_read_lock()
    }
}

// SAFETY: writers hold the mutex `M` for the whole critical section
// (Figure 4 releases it only in the exit protocol), so any number of
// concurrent write_lock callers are mutually excluded (Theorem 5).
unsafe impl<M: RawMutex, B: Backend> RawMultiWriter for MwmrWriterPriority<M, B> {}

impl<M: RawMutex, B: Backend> fmt::Debug for MwmrWriterPriority<M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MwmrWriterPriority")
            .field("max_processes", &self.max_processes)
            .field("wcount", &self.wcount.load(MemOrdering::Relaxed))
            .field("wtoken", &self.load_wtoken(MemOrdering::Relaxed))
            .field("inner", &self.swmr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn pid(i: usize) -> Pid {
        Pid::from_index(i)
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_processes_panics() {
        let _ = MwmrWriterPriority::new(0);
    }

    #[test]
    #[should_panic(expected = "mutex capacity 2 below max_processes 4")]
    fn mutex_below_max_processes_panics() {
        let _ = MwmrWriterPriority::with_mutex(AndersonLock::new(2), 4);
    }

    #[test]
    fn wtoken_encoding_round_trips() {
        for t in [
            WToken::Sde(Side::Zero),
            WToken::Sde(Side::One),
            WToken::False,
            WToken::Process(pid(0)),
            WToken::Process(pid(41)),
        ] {
            assert_eq!(WToken::decode(t.encode()), t);
        }
    }

    #[test]
    fn single_writer_cycles() {
        let lock = MwmrWriterPriority::new(4);
        for _ in 0..20 {
            let w = lock.write_lock(pid(0));
            lock.write_unlock(pid(0), w);
        }
        // After each solo attempt the handoff CAS succeeds, so the token
        // must hold a side again.
        assert!(matches!(lock.load_wtoken(MemOrdering::SeqCst), WToken::Sde(_)));
    }

    #[test]
    fn first_writer_alternates_sides() {
        let lock = MwmrWriterPriority::new(4);
        let w = lock.write_lock(pid(0));
        assert_eq!(w.curr_d, Side::One); // W-token starts at side 1
        lock.write_unlock(pid(0), w);
        let w = lock.write_lock(pid(0));
        assert_eq!(w.curr_d, Side::Zero);
        lock.write_unlock(pid(0), w);
    }

    #[test]
    fn reader_then_writer_then_reader() {
        let lock = MwmrWriterPriority::new(4);
        let r = lock.read_lock(pid(1));
        lock.read_unlock(pid(1), r);
        let w = lock.write_lock(pid(0));
        lock.write_unlock(pid(0), w);
        let r = lock.read_lock(pid(1));
        lock.read_unlock(pid(1), r);
    }

    #[test]
    fn writer_blocks_new_readers_until_last_writer_exits() {
        let lock = Arc::new(MwmrWriterPriority::new(4));
        let w = lock.write_lock(pid(0));

        let entered = Arc::new(AtomicBool::new(false));
        let lr = Arc::clone(&lock);
        let er = Arc::clone(&entered);
        let reader = std::thread::spawn(move || {
            let r = lr.read_lock(pid(2));
            er.store(true, Ordering::SeqCst);
            lr.read_unlock(pid(2), r);
        });

        std::thread::sleep(Duration::from_millis(50));
        assert!(!entered.load(Ordering::SeqCst), "reader overtook the writer (WP1)");

        lock.write_unlock(pid(0), w);
        reader.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn writer_handoff_keeps_readers_out() {
        // Writer A holds the CS; writer B queues; a reader queues. When A
        // exits, B must inherit the session and the reader must stay out
        // until B also exits (writer priority across handoffs).
        let lock = Arc::new(MwmrWriterPriority::new(4));
        let wa = lock.write_lock(pid(0));

        let b_in = Arc::new(AtomicBool::new(false));
        let b_release = Arc::new(AtomicBool::new(false));
        let lb = Arc::clone(&lock);
        let b_in2 = Arc::clone(&b_in);
        let b_rel2 = Arc::clone(&b_release);
        let writer_b = std::thread::spawn(move || {
            let w = lb.write_lock(pid(1));
            b_in2.store(true, Ordering::SeqCst);
            spin_until(|| b_rel2.load(Ordering::SeqCst));
            lb.write_unlock(pid(1), w);
        });

        let r_in = Arc::new(AtomicBool::new(false));
        let lr = Arc::clone(&lock);
        let r_in2 = Arc::clone(&r_in);
        let reader = std::thread::spawn(move || {
            let r = lr.read_lock(pid(2));
            r_in2.store(true, Ordering::SeqCst);
            lr.read_unlock(pid(2), r);
        });

        std::thread::sleep(Duration::from_millis(50));
        assert!(!b_in.load(Ordering::SeqCst));
        assert!(!r_in.load(Ordering::SeqCst));

        // A exits; B should inherit while the reader stays parked.
        lock.write_unlock(pid(0), wa);
        spin_until(|| b_in.load(Ordering::SeqCst));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !r_in.load(Ordering::SeqCst),
            "reader entered between writer handoffs (WP violated)"
        );

        b_release.store(true, Ordering::SeqCst);
        writer_b.join().unwrap();
        reader.join().unwrap();
        assert!(r_in.load(Ordering::SeqCst));
    }

    #[test]
    fn exclusion_stress() {
        let lock = Arc::new(MwmrWriterPriority::new(8));
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
        assert_eq!(lock.writers_pending(), 0);
    }

    #[test]
    fn writers_do_not_starve_under_read_churn() {
        // WP means writers get through even while readers keep arriving.
        let lock = Arc::new(MwmrWriterPriority::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for i in 2..5 {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let r = lock.read_lock(pid(i));
                    lock.read_unlock(pid(i), r);
                }
            }));
        }
        for _ in 0..20 {
            let w = lock.write_lock(pid(0));
            lock.write_unlock(pid(0), w);
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
    }
}
