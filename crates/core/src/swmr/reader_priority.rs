//! Figure 2: the single-writer multi-reader lock with **reader priority**
//! (Theorem 2).
//!
//! Each numbered line of the paper's Figure 2 appears as one operation
//! below, with the paper's line numbers in comments. The two "subtle
//! features" of §4.3 — (A) readers CAS their own pid into `X` during the
//! try section, and (B) `Promote` first CASes its pid into `X` before
//! attempting to CAS `true` — are both present; removing either breaks
//! mutual exclusion (the `rmr-sim` model checker demonstrates this).
//!
//! # How it works
//!
//! `X` holds either a process id or the sentinel `true`; `X = true` means
//! the writer owns the critical section. Readers increment the count `C`,
//! stamp `X` with their pid (feature A), and enter directly unless they see
//! `X = true`, in which case they park on `Gate[d]`. The writer sets
//! `Permit ← false` and runs [`Promote`](SwmrReaderPriority): whoever later
//! observes `C = 0` promotes the writer by CASing `X` from its own pid to
//! `true` (feature B) and raising `Permit`. Readers can keep the writer out
//! forever — that is reader priority working as specified.

use crate::raw::{RawRwLock, RawTryReadLock};
use crate::registry::Pid;
use crate::side::{AtomicSide, Side};
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedBool, SharedWord};
use rmr_mutex::spin_until;
use rmr_mutex::CachePadded;
use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// Encoding of `X ∈ PID ∪ {true}`: pids are their integer value, `true` is
/// the reserved top value.
const X_TRUE: u64 = u64::MAX;

fn encode_pid(pid: Pid) -> u64 {
    pid.index() as u64
}

/// Proof that the writer role holds the critical section.
#[derive(Debug)]
#[must_use = "the write session must be ended with write_unlock"]
pub struct WriteSession {
    d: Side,
}

impl WriteSession {
    /// The side (`D`) of this write attempt.
    pub fn current_side(&self) -> Side {
        self.d
    }
}

/// A reader's registration.
#[derive(Debug)]
#[must_use = "the read session must be ended with read_unlock"]
pub struct ReadSession {
    d: Side,
}

impl ReadSession {
    /// The side (`d ← D`) this reader observed in its doorway.
    pub fn side(&self) -> Side {
        self.d
    }
}

/// Figure 2: single-writer multi-reader lock satisfying P1–P6 plus reader
/// priority (RP1) and the unstoppable-reader property (RP2), with O(1) RMR
/// complexity in the CC model (Theorem 2).
///
/// Unlike Figure 1 this algorithm needs process identifiers: every
/// participant (readers *and* the writer) must call the lock with a [`Pid`]
/// that is unique among concurrently active processes — the typed front end
/// in [`crate::rwlock`] handles that via [`crate::registry::PidRegistry`].
///
/// Generic over the memory backend `B` ([`Native`] by default; construct
/// with [`SwmrReaderPriority::new_in`] and [`rmr_mutex::Counting`] to
/// measure RMRs on the real implementation, experiment E13).
///
/// # Example
///
/// ```
/// use rmr_core::registry::Pid;
/// use rmr_core::swmr::SwmrReaderPriority;
///
/// let lock = SwmrReaderPriority::new();
/// let reader = Pid::from_index(0);
/// let writer = Pid::from_index(1);
///
/// let r = lock.read_lock(reader);
/// lock.read_unlock(reader, r);
///
/// let w = lock.write_lock(writer);
/// lock.write_unlock(writer, w);
/// ```
pub struct SwmrReaderPriority<B: Backend = Native> {
    /// `D`: the side of the writer's current attempt; written only by the
    /// writer role.
    d: AtomicSide<B>,
    /// `Gate[d]`: parks readers while the writer owns the CS.
    gates: [CachePadded<B::Bool>; 2],
    /// `X ∈ PID ∪ {true}` (CAS variable).
    x: CachePadded<B::Word>,
    /// `Permit`: raised by whoever promotes the writer.
    permit: CachePadded<B::Bool>,
    /// `C`: number of readers between their doorway and exit decrement.
    count: CachePadded<B::Word>,
    /// Debug-only discipline check for the single writer role; plain `std`
    /// atomic, never RMR-accounted.
    #[cfg(debug_assertions)]
    session_active: AtomicBool,
}

impl SwmrReaderPriority {
    /// Creates the lock in the paper's initial configuration: `D = 0`,
    /// `Gate\[0\] = true`, `Gate\[1\] = false`, `X` = some pid (we use 0),
    /// `Permit = true`, `C = 0`.
    pub fn new() -> Self {
        Self::new_in(Native)
    }
}

impl<B: Backend> SwmrReaderPriority<B> {
    /// Creates the lock in the paper's initial configuration over the given
    /// memory backend.
    pub fn new_in(backend: B) -> Self {
        Self {
            d: AtomicSide::new_in(Side::Zero, backend),
            gates: [CachePadded::new(B::Bool::new(true)), CachePadded::new(B::Bool::new(false))],
            x: CachePadded::new(B::Word::new(0)),
            permit: CachePadded::new(B::Bool::new(true)),
            count: CachePadded::new(B::Word::new(0)),
            #[cfg(debug_assertions)]
            session_active: AtomicBool::new(false),
        }
    }

    fn gate(&self, d: Side) -> &B::Bool {
        &self.gates[d.index()]
    }

    /// The `Promote` procedure (lines 10–16), executed by the writer in its
    /// try section and by every reader in its exit section.
    ///
    /// Promotes the writer (sets `X ← true` and raises `Permit`) iff no
    /// reader is registered. The pid-stamping CAS on line 12 is subtle
    /// feature (B): it guarantees that the line-15 CAS can only succeed if
    /// `X` was untouched since *this* invocation stamped it, which is what
    /// makes the `C = 0` observation trustworthy.
    // The nested `if`s deliberately mirror the paper's lines 10-16.
    #[allow(clippy::collapsible_if)]
    pub fn promote(&self, pid: Pid) {
        // X is the CAS linchpin of §4.3's subtle features (A) and (B);
        // the C = 0 trustworthiness argument totally orders X's accesses
        // against the F&As on C and the Permit flag, so every access to X
        // stays SeqCst (DESIGN.md §13, site F2-X).
        let x = self.x.load(MemOrdering::SeqCst); // line 10: x ← X
        if x != X_TRUE {
            // line 11: if (x ≠ true)
            let stamped = self
                .x
                .compare_exchange(x, encode_pid(pid), MemOrdering::SeqCst, MemOrdering::SeqCst)
                .is_ok(); // line 12: if (CAS(X, x, i))
            if stamped {
                // Dekker-style pattern: the writer stores Permit ← false and
                // then reads C; promoters F&A C and then read Permit. Both
                // halves stay SeqCst (DESIGN.md §13, site F2-PERMIT).
                if !self.permit.load(MemOrdering::SeqCst) {
                    // line 13: if (¬Permit)
                    // Load half of the store-buffering pattern with the
                    // writer's Permit ← false: must be SeqCst so that a
                    // reader whose F&A(C) preceded the writer's D/Permit
                    // stores is guaranteed visible here.
                    if self.count.load(MemOrdering::SeqCst) == 0 {
                        // line 14: if (C = 0)
                        let promoted = self
                            .x
                            .compare_exchange(
                                encode_pid(pid),
                                X_TRUE,
                                MemOrdering::SeqCst,
                                MemOrdering::SeqCst,
                            )
                            .is_ok(); // line 15: if (CAS(X, i, true))
                        if promoted {
                            // Handoff: wakes the writer spinning on line 5.
                            // Release publishes the promotion (X = true) and
                            // everything before it to the writer's Acquire
                            // spin; uniqueness is enforced by the line-15 CAS,
                            // not by this store's ordering.
                            self.permit.store(true, MemOrdering::Release); // line 16
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Writer role (Write-lock_i(), lines 2–9)
    // ------------------------------------------------------------------

    /// The writer's try section (lines 2–5).
    ///
    /// Blocks until every registered reader has left; new readers may keep
    /// arriving and overtake the writer indefinitely (reader priority).
    #[inline]
    pub fn write_lock(&self, pid: Pid) -> WriteSession {
        #[cfg(debug_assertions)]
        assert!(
            !self.session_active.load(Ordering::SeqCst),
            "second writer entered the single-writer role"
        );
        // Only the (unique) writer role writes D, so its own read-back is
        // Relaxed; the store must be SeqCst: the proof's stale-direction
        // argument orders a reader's line-19 load of D against this store
        // *and* that reader's earlier F&A(C) against the line-14 scan, an
        // IRIW-style appeal to the single total order (DESIGN.md §13,
        // site F2-D).
        let d = !self.d.load(MemOrdering::Relaxed); // line 2: D ← ¬D
        self.d.store(d, MemOrdering::SeqCst);
        // Store half of the Dekker pattern with C (see promote, line 14):
        // must be SeqCst so no promoter can read a stale Permit = true after
        // its F&A(C) was counted (DESIGN.md §13, site F2-PERMIT).
        self.permit.store(false, MemOrdering::SeqCst); // line 3: Permit ← false
        self.promote(pid); // line 4: Promote()
                           // Acquire pairs with the promoter's Release store on line 16.
        spin_until(|| self.permit.load(MemOrdering::Acquire)); // line 5: wait till Permit
        #[cfg(debug_assertions)]
        assert!(
            !self.session_active.swap(true, Ordering::SeqCst),
            "two write sessions open at once"
        );
        WriteSession { d } // line 6: CRITICAL SECTION
    }

    /// The writer's exit section (lines 7–9). Bounded: three stores.
    #[inline]
    pub fn write_unlock(&self, pid: Pid, session: WriteSession) {
        #[cfg(debug_assertions)]
        assert!(
            self.session_active.swap(false, Ordering::SeqCst),
            "write_unlock without an open write session"
        );
        let d = session.d;
        // Relaxed: this close must be visible before X can next become
        // true, and it is — it is sequenced before the line-9 SeqCst store
        // of X, and any later promotion reaches parked readers through the
        // SeqCst/Release chain on Permit and X, which carries this store
        // with it (DESIGN.md §13, site F2-GATE).
        self.gate(!d).store(false, MemOrdering::Relaxed); // line 7: Gate[D̄] ← false
                                                          // Handoff releasing the readers parked on line 24 (Acquire spin).
        self.gate(d).store(true, MemOrdering::Release); // line 8: Gate[D] ← true
        self.x.store(encode_pid(pid), MemOrdering::SeqCst); // line 9: X ← i (site F2-X)
    }

    // ------------------------------------------------------------------
    // Reader side (Read-lock_i(), lines 18–27)
    // ------------------------------------------------------------------

    /// A reader's try section (lines 18–24).
    ///
    /// The pid-stamping CAS on line 22 is subtle feature (A): it invalidates
    /// any in-flight line-15 promotion that observed `C = 0` before this
    /// reader registered, preserving mutual exclusion.
    #[inline]
    pub fn read_lock(&self, pid: Pid) -> ReadSession {
        // SeqCst F&A: the registration must be totally ordered against the
        // writer's Permit ← false / C scan (site F2-PERMIT).
        self.count.fetch_add(1, MemOrdering::SeqCst); // line 18: F&A(C, 1)
                                                      // SeqCst: a reader that misses the writer's store of D here must be
                                                      // unable to observe X = true on line 23 — that implication is the
                                                      // IRIW-style appeal of site F2-D and needs both accesses in the
                                                      // single total order.
        let d = self.d.load(MemOrdering::SeqCst); // line 19: d ← D
        let x = self.x.load(MemOrdering::SeqCst); // line 20: x ← X (site F2-X)
        if x != X_TRUE {
            // line 21: if (x ∈ PID)
            // line 22: CAS(X, x, i) — outcome deliberately ignored.
            let _ = self.x.compare_exchange(
                x,
                encode_pid(pid),
                MemOrdering::SeqCst,
                MemOrdering::SeqCst,
            );
        }
        if self.x.load(MemOrdering::SeqCst) == X_TRUE {
            // line 23: if (X = true) — site F2-X
            // Acquire pairs with the Release gate-open on line 8.
            spin_until(|| self.gate(d).load(MemOrdering::Acquire)); // line 24
        }
        ReadSession { d } // line 25: CRITICAL SECTION
    }

    /// A **bounded** read attempt: the reader doorway (lines 18–22), one
    /// test of `X`, and — if the writer owns the critical section — an
    /// abort through the ordinary exit section (lines 26–27).
    ///
    /// Sound because a registered reader that decrements `C` and runs
    /// `Promote` without entering the critical section is exactly a reader
    /// whose read session was empty; and the entry path is the normal
    /// "X ≠ true" fall-through, so RP1 and P1 are untouched.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::registry::Pid;
    /// use rmr_core::swmr::SwmrReaderPriority;
    ///
    /// let lock = SwmrReaderPriority::new();
    /// let reader = Pid::from_index(0);
    /// let writer = Pid::from_index(1);
    ///
    /// let r = lock.try_read_lock(reader).expect("no writer active");
    /// lock.read_unlock(reader, r);
    ///
    /// let w = lock.write_lock(writer);
    /// assert!(lock.try_read_lock(reader).is_none(), "writer holds the CS");
    /// lock.write_unlock(writer, w);
    /// ```
    #[inline]
    pub fn try_read_lock(&self, pid: Pid) -> Option<ReadSession> {
        // Orderings as in `read_lock`; see the annotations there.
        self.count.fetch_add(1, MemOrdering::SeqCst); // line 18: F&A(C, 1)
        let d = self.d.load(MemOrdering::SeqCst); // line 19: d ← D
        let x = self.x.load(MemOrdering::SeqCst); // line 20: x ← X
        if x != X_TRUE {
            // line 21–22: stamp our pid (subtle feature A), as in read_lock.
            let _ = self.x.compare_exchange(
                x,
                encode_pid(pid),
                MemOrdering::SeqCst,
                MemOrdering::SeqCst,
            );
        }
        if self.x.load(MemOrdering::SeqCst) == X_TRUE {
            // Would park on Gate[d]: abort through the exit section.
            self.count.fetch_sub(1, MemOrdering::SeqCst); // line 26
            self.promote(pid); // line 27
            None
        } else {
            Some(ReadSession { d })
        }
    }

    /// A reader's exit section (lines 26–27). Bounded: the decrement plus
    /// one `Promote` (at most three more shared-memory operations).
    #[inline]
    pub fn read_unlock(&self, pid: Pid, session: ReadSession) {
        let _ = session;
        // SeqCst: the retirement is the F&A half of site F2-PERMIT — a
        // promoter's subsequent Permit/C reads must be ordered after it.
        self.count.fetch_sub(1, MemOrdering::SeqCst); // line 26: F&A(C, -1)
        self.promote(pid); // line 27: Promote()
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Current value of `D`.
    pub fn direction(&self) -> Side {
        self.d.load(MemOrdering::Relaxed)
    }

    /// Whether `Gate[side]` is open. Diagnostic; may be stale.
    pub fn gate_is_open(&self, side: Side) -> bool {
        self.gate(side).load(MemOrdering::Relaxed)
    }

    /// Number of registered readers (`C`). Diagnostic; may be stale.
    pub fn reader_count(&self) -> u64 {
        self.count.load(MemOrdering::Relaxed)
    }

    /// Whether `X = true` (the writer owns or is entering the CS).
    pub fn writer_promoted(&self) -> bool {
        self.x.load(MemOrdering::Relaxed) == X_TRUE
    }

    /// True when the lock is at rest: no registered reader (`C = 0`), no
    /// promoted writer (`X ≠ true`), and the gates in the canonical idle
    /// configuration (`Gate[D]` open, `Gate[D̄]` closed). Checker entry
    /// point asserted by `rmr-check` at teardown; only meaningful while no
    /// attempt is in flight.
    pub fn is_quiescent(&self) -> bool {
        let d = self.direction();
        self.reader_count() == 0
            && !self.writer_promoted()
            && self.gate_is_open(d)
            && !self.gate_is_open(!d)
    }
}

impl<B: Backend> Default for SwmrReaderPriority<B> {
    fn default() -> Self {
        Self::new_in(B::default())
    }
}

impl<B: Backend> fmt::Debug for SwmrReaderPriority<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrReaderPriority")
            .field("d", &self.direction())
            .field("c", &self.reader_count())
            .field("x_is_true", &self.writer_promoted())
            .field("permit", &self.permit.load(MemOrdering::Relaxed))
            .finish()
    }
}

/// [`RawRwLock`] adapter so the typed front end (and the SWMR wrapper in
/// [`crate::swmr_rwlock`]) can drive Figure 2 through the common interface.
///
/// Figure 2 uses pids (readers and the writer stamp them into `X`), but has
/// no per-process storage, so `max_processes` reports "unbounded"
/// (`usize::MAX`); size the registry explicitly with
/// [`RwLock::with_raw_and_capacity`](crate::rwlock::RwLock::with_raw_and_capacity).
///
/// **Contract beyond [`RawRwLock`]'s:** at most one process may exercise
/// the writer role at a time. The typed
/// [`SwmrRwLock`](crate::swmr_rwlock::SwmrRwLock) enforces that statically.
impl<B: Backend> RawRwLock for SwmrReaderPriority<B> {
    type ReadToken = ReadSession;
    type WriteToken = WriteSession;

    #[inline]
    fn read_lock(&self, pid: Pid) -> ReadSession {
        SwmrReaderPriority::read_lock(self, pid)
    }

    #[inline]
    fn read_unlock(&self, pid: Pid, token: ReadSession) {
        SwmrReaderPriority::read_unlock(self, pid, token);
    }

    #[inline]
    fn write_lock(&self, pid: Pid) -> WriteSession {
        SwmrReaderPriority::write_lock(self, pid)
    }

    #[inline]
    fn write_unlock(&self, pid: Pid, token: WriteSession) {
        SwmrReaderPriority::write_unlock(self, pid, token);
    }

    fn max_processes(&self) -> usize {
        usize::MAX
    }
}

impl<B: Backend> RawTryReadLock for SwmrReaderPriority<B> {
    #[inline]
    fn try_read_lock(&self, pid: Pid) -> Option<ReadSession> {
        SwmrReaderPriority::try_read_lock(self, pid)
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
    fn initial_configuration_matches_paper() {
        let lock = SwmrReaderPriority::new();
        assert_eq!(lock.direction(), Side::Zero);
        assert!(lock.gate_is_open(Side::Zero));
        assert!(!lock.gate_is_open(Side::One));
        assert_eq!(lock.reader_count(), 0);
        assert!(!lock.writer_promoted());
    }

    #[test]
    fn reader_alone_never_waits() {
        let lock = SwmrReaderPriority::new();
        for _ in 0..100 {
            let r = lock.read_lock(pid(1));
            lock.read_unlock(pid(1), r);
        }
        assert_eq!(lock.reader_count(), 0);
    }

    #[test]
    fn writer_alone_promotes_itself() {
        let lock = SwmrReaderPriority::new();
        for _ in 0..10 {
            let w = lock.write_lock(pid(0));
            assert!(lock.writer_promoted());
            lock.write_unlock(pid(0), w);
            assert!(!lock.writer_promoted());
        }
    }

    #[test]
    fn writer_toggles_side_each_attempt() {
        let lock = SwmrReaderPriority::new();
        let w = lock.write_lock(pid(0));
        assert_eq!(w.current_side(), Side::One);
        lock.write_unlock(pid(0), w);
        let w = lock.write_lock(pid(0));
        assert_eq!(w.current_side(), Side::Zero);
        lock.write_unlock(pid(0), w);
    }

    #[test]
    fn reader_blocks_writer_until_it_exits() {
        let lock = Arc::new(SwmrReaderPriority::new());
        let r = lock.read_lock(pid(1));

        let writer_in = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let w2 = Arc::clone(&writer_in);
        let writer = std::thread::spawn(move || {
            let w = l2.write_lock(pid(0));
            w2.store(true, Ordering::SeqCst);
            l2.write_unlock(pid(0), w);
        });

        std::thread::sleep(Duration::from_millis(50));
        assert!(!writer_in.load(Ordering::SeqCst), "writer entered over a live reader");

        lock.read_unlock(pid(1), r);
        writer.join().unwrap();
        assert!(writer_in.load(Ordering::SeqCst));
    }

    #[test]
    fn new_readers_overtake_a_waiting_writer() {
        // RP1 in action: while the writer is parked behind one reader, a
        // brand-new reader must still enter without blocking.
        let lock = Arc::new(SwmrReaderPriority::new());
        let r1 = lock.read_lock(pid(1));

        let l2 = Arc::clone(&lock);
        let writer = std::thread::spawn(move || {
            let w = l2.write_lock(pid(0));
            l2.write_unlock(pid(0), w);
        });

        // Let the writer reach its waiting loop.
        std::thread::sleep(Duration::from_millis(50));

        // This would hang if readers could not overtake the waiting writer.
        let r2 = lock.read_lock(pid(2));
        lock.read_unlock(pid(2), r2);

        lock.read_unlock(pid(1), r1);
        writer.join().unwrap();
    }

    #[test]
    fn readers_parked_during_write_session_are_released() {
        let lock = Arc::new(SwmrReaderPriority::new());
        let w = lock.write_lock(pid(0));

        let entered = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for i in 1..4 {
            let lock = Arc::clone(&lock);
            let entered = Arc::clone(&entered);
            readers.push(std::thread::spawn(move || {
                let r = lock.read_lock(pid(i));
                entered.fetch_add(1, Ordering::SeqCst);
                lock.read_unlock(pid(i), r);
            }));
        }

        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(entered.load(Ordering::SeqCst), 0, "reader entered during write session");

        lock.write_unlock(pid(0), w);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(entered.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn mutual_exclusion_stress() {
        let lock = Arc::new(SwmrReaderPriority::new());
        let readers_in = Arc::new(AtomicUsize::new(0));
        let writer_in = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let w = lock.write_lock(pid(0));
                    writer_in.store(true, Ordering::SeqCst);
                    assert_eq!(readers_in.load(Ordering::SeqCst), 0, "P1 violated");
                    writer_in.store(false, Ordering::SeqCst);
                    lock.write_unlock(pid(0), w);
                }
            }));
        }
        for i in 1..5 {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let r = lock.read_lock(pid(i));
                    readers_in.fetch_add(1, Ordering::SeqCst);
                    assert!(!writer_in.load(Ordering::SeqCst), "P1 violated");
                    readers_in.fetch_sub(1, Ordering::SeqCst);
                    lock.read_unlock(pid(i), r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lock.reader_count(), 0);
    }
}
