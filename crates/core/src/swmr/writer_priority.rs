//! Figure 1: the single-writer multi-reader lock with **starvation freedom
//! and writer priority** (Theorem 1).
//!
//! Every shared variable and every numbered line of the paper's Figure 1 is
//! reproduced one-to-one; comments carry the paper's line numbers so the
//! code can be audited against the figure (and against the Appendix A
//! invariants, which are model-checked in `rmr-sim`).
//!
//! # How it works
//!
//! The writer enters the critical section from alternating *sides* 0 and 1.
//! To attempt from side `currD` it announces `D ← currD` (the doorway), then
//! waits for the readers registered on the previous side to drain
//! (`C[prevD]`, woken through `Permit[prevD]`), closes that side's gate for
//! its *next* attempt, waits for the exit section to drain (`EC` /
//! `ExitPermit`), and enters. Readers bind to the side read from `D`,
//! double-register if they observe `D` change mid-doorway, and wait on
//! `Gate[d]`, which the writer opens when it leaves. Every busy-wait is a
//! local spin on a boolean that changes at most once per wait, which is
//! where the O(1) RMR bound comes from.
//!
//! # Beyond the figure: the revocable doorway
//!
//! [`SwmrWriterPriority::start_write`] / [`SwmrWriterPriority::poll_write`]
//! / [`SwmrWriterPriority::cancel_write`] split `write_lock` at its two
//! waits so an asynchronous writer can park *while still counted by the
//! lock* (the `RawParkedWaiters` capability). The only state Figure 1
//! cannot unwind — an announce on `C[prevD]` with readers still holding
//! the side — is handled by **helping**: the cancel publishes the
//! abandoned passage in a `Zombie` word and the last reader out (the one
//! that observes `[1, 1]`, exactly the reader that would have woken the
//! writer) completes it on the canceller's behalf. See DESIGN.md §15.

use crate::packed::{Packed, PackedFaa};
use crate::raw::{RawParkedWaiters, RawRwLock, RawTryReadLock};
use crate::registry::Pid;
use crate::side::{AtomicSide, Side};
use rmr_mutex::mem::{Backend, Native, Ordering as MemOrdering, SharedBool, SharedWord, Site};
use rmr_mutex::spin_until;
use rmr_mutex::CachePadded;
use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// `Zombie` encodings: an *abandoned* write passage (cancelled between the
/// doorway and the previous side's drain) that some process must still
/// complete on the canceller's behalf.
const ZOMBIE_NONE: u64 = 0;
/// A helper claimed the abandoned passage and is completing it (a
/// constant-length window: three stores).
const ZOMBIE_BUSY: u64 = 3;

/// Encodes "abandoned passage attempting from side `curr`".
fn zombie_encode(curr: Side) -> u64 {
    1 + curr.index() as u64
}

/// Inverse of [`zombie_encode`].
fn zombie_side(encoded: u64) -> Side {
    debug_assert!(encoded == 1 || encoded == 2);
    Side::from_index(encoded as usize - 1)
}

/// The words every read passage reads or RMWs: `D`, `C[0]`, `C[1]` and
/// `EC` (Fig. 1 lines 16–18, 26, 27, 29). They share one line, so an
/// uncontended read passage misses on it once.
struct HotLine<B: Backend> {
    /// `D`: the side the writer is attempting from; written only by the
    /// writer role (Fig. 1 line 3, or Fig. 4 line 8 by proxy).
    d: AtomicSide<B>,
    /// `C[d] = [writer-waiting, reader-count]` for side `d`.
    count: [PackedFaa<B>; 2],
    /// `EC = [writer-waiting, exit-count]`.
    exit_count: PackedFaa<B>,
}

/// The flags that are spun on. Each is written O(1) times per write
/// passage, so a spinner on this line is invalidated O(1) times per wait
/// (DESIGN.md §8).
struct SpinLine<B: Backend> {
    /// `Gate[d]`: readers on side `d` may enter the CS while open. Written
    /// only by the writer role.
    gate: [B::Bool; 2],
    /// `Permit[d]`: the last side-`d` reader out wakes the writer through
    /// this flag.
    permit: [B::Bool; 2],
    /// `ExitPermit`: the last reader to leave the exit section wakes the
    /// writer through this flag.
    exit_permit: B::Bool,
    /// `Zombie`: an abandoned write passage awaiting deferred completion
    /// ([`ZOMBIE_NONE`] / [`zombie_encode`] / [`ZOMBIE_BUSY`]). Written by
    /// [`SwmrWriterPriority::cancel_write`], claimed (CAS) and completed by
    /// the last previous-side reader out or by the next
    /// [`SwmrWriterPriority::start_write`]. Not part of Figure 1; see
    /// DESIGN.md §15. It sits here, not on the hot line, because
    /// `start_write` spins on it through a helper's three-store window.
    zombie: B::Word,
    /// Debug-only discipline check: true between waiting-room completion
    /// and `writer_exit` (the "SWWP session" of Figure 4's commentary).
    /// Not part of the algorithm's shared state, so it stays a plain
    /// `std` atomic and is never RMR-accounted.
    #[cfg(debug_assertions)]
    session_active: AtomicBool,
}

/// Borrowed view of one side's variables: `Gate[d]`, `Permit[d]`, `C[d]`.
struct SideVars<'a, B: Backend> {
    gate: &'a B::Bool,
    permit: &'a B::Bool,
    count: &'a PackedFaa<B>,
}

/// A published, not-yet-granted write intent: the state of a write passage
/// between the doorway (Fig. 1 lines 2–5 done) and the grant (line 13).
///
/// Returned by [`SwmrWriterPriority::start_write`], advanced by
/// [`SwmrWriterPriority::poll_write`], revoked by
/// [`SwmrWriterPriority::cancel_write`]. While a doorway is outstanding
/// the reader admission path is closed exactly as for a blocking writer
/// (WP1), which is what makes a parked asynchronous writer count like a
/// queued process.
#[derive(Debug)]
#[must_use = "an abandoned doorway must be cancelled with cancel_write"]
pub struct WriteDoorway {
    curr: Side,
    stage: DoorwayStage,
}

/// Which waiting-room wait the doorway is parked on.
#[derive(Debug, Clone, Copy)]
enum DoorwayStage {
    /// Lines 4–5 done (announced on `C[prevD]`); awaiting `Permit[prevD]`
    /// unless the announce observed `[0, 0]`.
    DrainPrev { must_wait: bool },
    /// Lines 7–10 done (side drained, `Gate[prevD]` closed, announced on
    /// `EC`); awaiting `ExitPermit` unless the announce observed `[0, 0]`.
    DrainExit { must_wait: bool },
}

/// Proof that the writer role holds the critical section; consumed by
/// [`SwmrWriterPriority::writer_exit`].
#[derive(Debug)]
#[must_use = "the write session must be ended with writer_exit/write_unlock"]
pub struct WriteSession {
    curr: Side,
}

impl WriteSession {
    /// The side this session entered from (`currD = D`).
    pub fn current_side(&self) -> Side {
        self.curr
    }

    /// Reconstructs the session token for a still-open SWWP session.
    ///
    /// Used by the Figure 4 multi-writer algorithm, where the writer that
    /// closes a session (its line 20) is generally *not* the writer whose
    /// waiting room opened it — intermediate writers inherit the session
    /// without running the waiting room.
    pub(crate) fn resume(curr: Side) -> Self {
        Self { curr }
    }
}

/// A reader's registration; consumed by
/// [`SwmrWriterPriority::read_unlock`].
#[derive(Debug)]
#[must_use = "the read session must be ended with read_unlock"]
pub struct ReadSession {
    side: Side,
}

impl ReadSession {
    /// The side this reader registered on (its final `d`).
    pub fn side(&self) -> Side {
        self.side
    }
}

/// Figure 1: single-writer multi-reader lock satisfying P1–P7 plus writer
/// priority (WP1) and the unstoppable-writer property (WP2), with O(1) RMR
/// complexity in the CC model (Theorem 1).
///
/// The *writer role* must be exercised by at most one thread at a time
/// (that is the "single-writer" in SWMR); the multi-writer constructions in
/// [`crate::mwmr`] serialize the role through a mutex. Readers may be
/// arbitrarily concurrent.
///
/// Generic over the memory backend `B` ([`Native`] by default; construct
/// with [`SwmrWriterPriority::new_in`] and [`rmr_mutex::Counting`] to
/// measure RMRs on the real implementation, experiment E13).
///
/// # Example
///
/// ```
/// use rmr_core::swmr::SwmrWriterPriority;
///
/// let lock = SwmrWriterPriority::new();
///
/// // Reader side (any number of threads):
/// let r = lock.read_lock();
/// lock.read_unlock(r);
///
/// // Writer side (one thread):
/// let w = lock.write_lock();
/// lock.write_unlock(w);
/// ```
pub struct SwmrWriterPriority<B: Backend = Native> {
    /// `D`, `C[0..1]`, `EC`: what every read passage touches.
    hot: CachePadded<HotLine<B>>,
    /// `Gate[0..1]`, `Permit[0..1]`, `ExitPermit`, `Zombie`: what
    /// processes spin on.
    spin: CachePadded<SpinLine<B>>,
}

impl SwmrWriterPriority {
    /// Creates the lock in the paper's initial configuration:
    /// `D = 0`, `Gate\[0\] = true`, `Gate\[1\] = false`, all counters `\[0, 0\]`.
    pub fn new() -> Self {
        Self::new_in(Native)
    }
}

impl<B: Backend> SwmrWriterPriority<B> {
    /// Creates the lock in the paper's initial configuration over the given
    /// memory backend.
    pub fn new_in(backend: B) -> Self {
        // Created in Figure 1's declaration order (`D`, then each side's
        // `Gate`, `Permit`, `C`, then `EC`, `ExitPermit`, `Zombie`), not
        // grouped by line: a `Sched` backend numbers its variables as they
        // are created, and recorded schedules and faults name them by
        // number.
        let d = AtomicSide::new_in(Side::Zero, backend);
        let side =
            |gate_open| (B::Bool::new(gate_open), B::Bool::new(false), PackedFaa::new_in(backend));
        let (gate0, permit0, count0) = side(true);
        let (gate1, permit1, count1) = side(false);
        let exit_count = PackedFaa::new_in(backend);
        let exit_permit = B::Bool::new(false);
        let zombie = B::Word::new(ZOMBIE_NONE);
        Self {
            hot: CachePadded::new(HotLine { d, count: [count0, count1], exit_count }),
            spin: CachePadded::new(SpinLine {
                gate: [gate0, gate1],
                permit: [permit0, permit1],
                exit_permit,
                zombie,
                #[cfg(debug_assertions)]
                session_active: AtomicBool::new(false),
            }),
        }
    }

    #[inline]
    fn side(&self, d: Side) -> SideVars<'_, B> {
        let i = d.index();
        SideVars {
            gate: &self.spin.gate[i],
            permit: &self.spin.permit[i],
            count: &self.hot.count[i],
        }
    }

    // ------------------------------------------------------------------
    // Writer role (Write-lock(), Fig. 1 lines 2–14)
    // ------------------------------------------------------------------

    /// The writer's bounded doorway (lines 2–3): toggles `D` and returns
    /// the side this attempt enters from (`currD`; `prevD = ¬currD`).
    ///
    /// Once the doorway completes, any reader that starts its own doorway
    /// afterwards is blocked behind this write attempt — that is WP1.
    fn writer_doorway(&self) -> Side {
        #[cfg(debug_assertions)]
        assert!(
            !self.spin.session_active.load(Ordering::SeqCst),
            "writer doorway while a write session is still open"
        );
        // Relaxed: D is written only by the writer role, so this read of
        // our own last store needs no cross-thread ordering.
        let prev = self.hot.d.load(MemOrdering::Relaxed); // line 2: prevD ← D, currD ← ¬prevD
        let curr = !prev;
        // Relaxed: the announce's visibility is carried by the SeqCst F&A
        // on C[prevD] at line 5 — any reader whose registration F&A
        // follows it inherits this store via the RMW release chain and
        // re-reads D at its line 18; any reader registered before it is
        // drained at line 6. (See DESIGN.md §13, site F1-L3.)
        self.hot.d.store_at(Site::F1_L3, curr, MemOrdering::Relaxed); // line 3: D ← currD
        curr
    }

    /// Lines 4–5: reset `Permit[prevD]` and announce on `C[prevD]`.
    /// Returns whether the drain must be waited for (line 6's condition).
    fn announce_on_prev(&self, curr: Side) -> bool {
        let prev = self.side(!curr);
        // Relaxed reset: sequenced before the SeqCst F&A at line 5, and a
        // reader sets Permit[prevD] only after observing that F&A's writer
        // bit (line 22/28), so the RMW chain already orders reset-then-set.
        prev.permit.store(false, MemOrdering::Relaxed); // line 4: Permit[prevD] ← false
                                                        // SeqCst: the paper's announce-then-wait F&A — its place in the
                                                        // single total order versus the readers' registration F&As (line
                                                        // 17) is what makes "every reader is either waited for here or
                                                        // diverted at its line 18" exhaustive.
        let old = prev.count.add_writer(MemOrdering::SeqCst); // line 5: F&A(C[prevD], [1, 0])
        debug_assert!(!old.writer_waiting(), "writer-waiting flag already set on C[prevD]");
        old != Packed::ZERO
    }

    /// Lines 7–10: retire the previous side's announce, close its gate,
    /// and announce on the exit section. Returns whether the exit drain
    /// must be waited for (line 11's condition).
    fn close_prev_and_announce_exit(&self, curr: Side) -> bool {
        let prev = self.side(!curr);
        // SeqCst: the release half of the RMW chain that hands the
        // writer's D announce to late registrants (see line 3).
        let old = prev.count.sub_writer(MemOrdering::SeqCst); // line 7: F&A(C[prevD], [-1, 0])
        debug_assert!(old.writer_waiting());

        // Release: conservatively keeps the close ordered after the side
        // drain above. (Late side-prevD registrants are diverted by their
        // line-18 re-check, which would license Relaxed, but the close is
        // writer-slow-path code where Release is free.) Site F1-L8.
        prev.gate.store_at(Site::F1_L8, false, MemOrdering::Release); // line 8: Gate[prevD] ← false

        // Relaxed reset: same argument as line 4, via the line-10 F&A and
        // the readers' line 29/30.
        self.spin.exit_permit.store(false, MemOrdering::Relaxed); // line 9: ExitPermit ← false
                                                                  // SeqCst: announce-then-wait on the exit section, as at line 5.
        let old = self.hot.exit_count.add_writer(MemOrdering::SeqCst); // line 10: F&A(EC, [1, 0])
        debug_assert!(!old.writer_waiting());
        old != Packed::ZERO
    }

    /// Line 12 and the session open: retire the exit-section announce and
    /// grant the critical section.
    fn grant(&self, curr: Side) -> WriteSession {
        let old = self.hot.exit_count.sub_writer(MemOrdering::SeqCst); // line 12: F&A(EC, [-1, 0])
        debug_assert!(old.writer_waiting());

        #[cfg(debug_assertions)]
        assert!(
            !self.spin.session_active.swap(true, Ordering::SeqCst),
            "two write sessions open at once"
        );
        WriteSession { curr } // line 13: CRITICAL SECTION
    }

    /// The writer's waiting room (lines 4–12) for a doorway performed by
    /// proxy: Figure 4 writes `D ← currD` on the writers' behalf (its line
    /// 8) and runs this as its line 13, `SW-waiting-room()`.
    pub(crate) fn waiting_room(&self, curr: Side) -> WriteSession {
        let must_wait = self.announce_on_prev(curr); // lines 4–5
        self.finish_write(WriteDoorway { curr, stage: DoorwayStage::DrainPrev { must_wait } })
    }

    /// The writer's whole try section: doorway + waiting room. Resolves an
    /// abandoned asynchronous passage first (see [`Self::start_write`]).
    #[inline]
    pub fn write_lock(&self) -> WriteSession {
        let doorway = self.start_write();
        self.finish_write(doorway)
    }

    /// Spins a doorway through its waiting-room waits to the grant — the
    /// blocking tail of `write_lock`, shared with doorway adoption.
    fn finish_write(&self, doorway: WriteDoorway) -> WriteSession {
        let curr = doorway.curr;
        let exit_wait = match doorway.stage {
            DoorwayStage::DrainPrev { must_wait } => {
                if must_wait {
                    // line 6: wait till Permit[prevD]. Acquire pairs with
                    // the last reader's Release store (line 28) so its exit
                    // is visible.
                    spin_until(|| self.side(!curr).permit.load(MemOrdering::Acquire));
                }
                self.close_prev_and_announce_exit(curr)
            }
            DoorwayStage::DrainExit { must_wait } => must_wait,
        };
        if exit_wait {
            // line 11: wait till ExitPermit. Acquire pairs with line 30.
            spin_until(|| self.spin.exit_permit.load(MemOrdering::Acquire));
        }
        self.grant(curr)
    }

    // ------------------------------------------------------------------
    // The revocable doorway (RawParkedWaiters): start / poll / cancel
    // ------------------------------------------------------------------

    /// Starts a write passage and returns without waiting: the doorway
    /// (lines 2–3) plus the previous side's announce (lines 4–5), so the
    /// caller is *counted* — WP1 applies from this moment, readers that
    /// start their doorway afterwards wait behind the returned token.
    ///
    /// If the previous passage was cancelled and is still awaiting its
    /// deferred completion, this call **adopts** it instead — resuming the
    /// abandoned passage's queue position rather than opening a new one —
    /// or, if a helper is mid-completion (a three-store window), waits it
    /// out. Apart from that window the call is bounded.
    pub fn start_write(&self) -> WriteDoorway {
        // Resolve any abandoned predecessor before toggling `D` — its
        // completion rewrites the gates this passage is about to reason
        // about. Site F1-ZADOPT (SeqCst: the claim CAS must be totally
        // ordered against the helper's claim, see `help_abandoned`).
        loop {
            let z = self.spin.zombie.load(MemOrdering::SeqCst);
            if z == ZOMBIE_NONE {
                break;
            }
            if z == ZOMBIE_BUSY {
                // A helper is completing the abandoned passage (three
                // stores); wait it out, then start fresh.
                spin_until(|| self.spin.zombie.load(MemOrdering::SeqCst) != ZOMBIE_BUSY);
                continue;
            }
            if self
                .spin
                .zombie
                .compare_exchange(z, ZOMBIE_NONE, MemOrdering::SeqCst, MemOrdering::SeqCst)
                .is_ok()
            {
                // Adopted: the abandoned doorway already toggled `D` and
                // announced on `C[prevD]`; resume its waiting room. The
                // permit may already be up (the side may even have drained
                // while abandoned) — the first poll will observe that.
                let curr = zombie_side(z);
                #[cfg(debug_assertions)]
                assert!(
                    !self.spin.session_active.load(Ordering::SeqCst),
                    "adopting a doorway while a write session is still open"
                );
                debug_assert_eq!(self.hot.d.load(MemOrdering::Relaxed), curr);
                return WriteDoorway { curr, stage: DoorwayStage::DrainPrev { must_wait: true } };
            }
        }
        let curr = self.writer_doorway(); // lines 2–3
        let must_wait = self.announce_on_prev(curr); // lines 4–5
        WriteDoorway { curr, stage: DoorwayStage::DrainPrev { must_wait } }
    }

    /// Advances the doorway by at most one waiting-room stage, testing
    /// each wait condition **once** (bounded, never spins): `Ok` grants
    /// the critical section, `Err` hands the doorway back to park on.
    pub fn poll_write(&self, mut doorway: WriteDoorway) -> Result<WriteSession, WriteDoorway> {
        let curr = doorway.curr;
        if let DoorwayStage::DrainPrev { must_wait } = doorway.stage {
            // line 6's condition, tested once. Acquire as in the spin.
            if must_wait && !self.side(!curr).permit.load(MemOrdering::Acquire) {
                return Err(doorway);
            }
            let must_wait = self.close_prev_and_announce_exit(curr); // lines 7–10
            doorway.stage = DoorwayStage::DrainExit { must_wait };
        }
        let DoorwayStage::DrainExit { must_wait } = doorway.stage else { unreachable!() };
        // line 11's condition, tested once. Acquire as in the spin.
        if must_wait && !self.spin.exit_permit.load(MemOrdering::Acquire) {
            return Err(doorway);
        }
        Ok(self.grant(curr))
    }

    /// Revokes a not-yet-granted doorway in a bounded number of steps.
    ///
    /// Past the previous side's drain (`DrainExit`), the passage unwinds
    /// inline: the exit-section announce is retired (the `EC` drain only
    /// protects the critical section this passage will not enter; a stale
    /// `ExitPermit` is reset by the next passage's line 9) and `Gate[currD]`
    /// reopens, leaving exactly the configuration an empty write session
    /// would have left.
    ///
    /// Before the drain (`DrainPrev`) the announce on `C[prevD]` cannot be
    /// retired while readers still hold the side — the last one out must
    /// observe `[1, 1]` and that observation is how the protocol elects a
    /// unique completer. So the cancel *publishes* the abandoned passage in
    /// `Zombie` (site F1-ZPUB) and re-checks the side's count (site
    /// F1-ZSCAN): if the side has drained, it claims the passage back and
    /// completes inline; otherwise the last reader out finds the zombie
    /// (site F1-ZHELP in the exit section) and completes on our behalf.
    /// Both checks are SeqCst, so in the total order either our scan sees
    /// the last reader's decrement or that reader's zombie load sees our
    /// publish — the classic store-buffer square, pinned exactly like the
    /// permit handshake it shadows (DESIGN.md §13, §15).
    pub fn cancel_write(&self, doorway: WriteDoorway) {
        let curr = doorway.curr;
        match doorway.stage {
            DoorwayStage::DrainExit { .. } => {
                let old = self.hot.exit_count.sub_writer(MemOrdering::SeqCst); // undo line 10
                debug_assert!(old.writer_waiting());
                // Empty passage's line 14: reopen our side.
                self.side(curr).gate.store(true, MemOrdering::Release);
            }
            DoorwayStage::DrainPrev { must_wait: false } => {
                // The announce observed [0, 0]: the side was already
                // drained and no reader can register on it anew (readers
                // bind to `D = currD`; double-registrants retire without
                // waiting). Complete inline.
                self.complete_abandoned(curr);
            }
            DoorwayStage::DrainPrev { must_wait: true } => {
                // Site F1-ZPUB: publish the abandoned passage...
                self.spin.zombie.store(zombie_encode(curr), MemOrdering::SeqCst);
                // ...then re-check the drain (site F1-ZSCAN). A reader
                // count of zero here proves every remaining reader's
                // line-27 decrement precedes this load in the total order,
                // so none of them can have seen the zombie — we must
                // complete. A nonzero count proves the decrement to zero
                // follows our publish, so that reader's zombie load (site
                // F1-ZHELP) sees it — it will complete.
                if self.side(!curr).count.load(MemOrdering::SeqCst).reader_count() == 0 {
                    let z = zombie_encode(curr);
                    if self
                        .spin
                        .zombie
                        .compare_exchange(z, ZOMBIE_NONE, MemOrdering::SeqCst, MemOrdering::SeqCst)
                        .is_ok()
                    {
                        self.complete_abandoned(curr);
                    }
                    // CAS failure: a last-reader helper (or an adopting
                    // writer, had the claim discipline allowed one) got
                    // there first; the passage is theirs now.
                }
            }
        }
    }

    /// Completes an abandoned write passage whose previous side has
    /// drained: retire the announce (line 7), close the drained side's
    /// gate (line 8), and reopen the current side's (line 14) — the
    /// shared-memory effect of an empty write session, skipping the
    /// exit-section handshake it never announced on.
    fn complete_abandoned(&self, curr: Side) {
        let prev = self.side(!curr);
        let old = prev.count.sub_writer(MemOrdering::SeqCst); // line 7
        debug_assert!(old.writer_waiting());
        prev.gate.store_at(Site::F1_L8, false, MemOrdering::Release); // line 8

        // Empty passage's line 14: readers parked on `Gate[currD]` during
        // the abandoned passage resume here. Release pairs with their
        // Acquire gate spin.
        self.side(curr).gate.store(true, MemOrdering::Release);
    }

    /// The reader half of the deferred cancellation: called by the reader
    /// whose decrement observed `[1, 1]` (it just retired the last reader
    /// of `drained` while a writer-waiting flag was up). If that waiting
    /// writer is an abandoned doorway, claim it (site F1-ZHELP /
    /// F1-ZCLAIM) and complete it on the canceller's behalf. `ZOMBIE_BUSY`
    /// parks concurrent `start_write` callers for the three-store window,
    /// keeping a fresh doorway from interleaving with the gate rewrites.
    fn help_abandoned(&self, drained: Side) {
        // Site F1-ZHELP: SeqCst — the other half of cancel_write's square.
        let z = self.spin.zombie.load(MemOrdering::SeqCst);
        if z == ZOMBIE_NONE || z == ZOMBIE_BUSY {
            return;
        }
        let curr = zombie_side(z);
        debug_assert_eq!(drained, !curr, "zombie announce is always on the previous side");
        if self
            .spin
            .zombie
            .compare_exchange(z, ZOMBIE_BUSY, MemOrdering::SeqCst, MemOrdering::SeqCst)
            .is_ok()
        {
            self.complete_abandoned(curr);
            self.spin.zombie.store(ZOMBIE_NONE, MemOrdering::SeqCst);
        }
    }

    /// The writer's exit section (line 14): opens the gate of the session's
    /// side, releasing every reader parked there. Bounded (single step).
    pub fn writer_exit(&self, session: WriteSession) {
        #[cfg(debug_assertions)]
        assert!(
            self.spin.session_active.swap(false, Ordering::SeqCst),
            "writer_exit without an open write session"
        );
        // line 14: Gate[D] ← true (D still equals the session's currD).
        // Release: hands the write session's CS writes to every reader
        // whose Acquire gate spin (line 24) observes the open.
        self.side(session.curr).gate.store(true, MemOrdering::Release);
    }

    /// Alias for [`Self::writer_exit`], for symmetry with `write_lock`.
    #[inline]
    pub fn write_unlock(&self, session: WriteSession) {
        self.writer_exit(session);
    }

    // ------------------------------------------------------------------
    // Reader side (Read-lock(), Fig. 1 lines 16–30)
    // ------------------------------------------------------------------

    /// A reader's doorway (lines 16–23): registers on the side announced
    /// in `D`, re-registering if the writer toggled `D` mid-doorway.
    /// Bounded; the returned side is the one whose gate admits this reader.
    fn reader_doorway(&self) -> Side {
        // Relaxed: a stale D here only picks the wrong side provisionally;
        // the SeqCst F&A at line 17 and the re-check at line 18 divert us.
        let mut d = self.hot.d.load(MemOrdering::Relaxed); // line 16: d ← D
                                                           // SeqCst: the registration F&A — its order against the writer's
                                                           // line 5/7 F&As decides "waited for" vs "diverted", and reading
                                                           // the writer's release RMW carries the writer's D announce into
                                                           // the re-check below.
        self.side(d).count.add_reader(MemOrdering::SeqCst); // line 17: F&A(C[d], [0, 1])
                                                            // Relaxed: freshness is inherited from the line-17 F&A (see above);
                                                            // no further ordering is needed on the load itself.
        let d2 = self.hot.d.load(MemOrdering::Relaxed); // line 18: d′ ← D
        if d != d2 {
            // line 19: if (d ≠ d′)
            self.side(d2).count.add_reader(MemOrdering::SeqCst); // line 20: F&A(C[d′], [0, 1])
            d = self.hot.d.load(MemOrdering::Relaxed); // line 21: d ← D
                                                       // Registered on both sides; retire from the one we don't belong
                                                       // to (d̄, the complement of the side just re-read).
            let other = !d;
            let old = self.side(other).count.sub_reader(MemOrdering::SeqCst); // line 22: F&A(C[d̄], [0, -1])
            if old == Packed::ONE_ONE {
                // line 23: Permit[d̄] ← true — we were the last side-d̄
                // reader and the writer is waiting on that side. Release
                // pairs with the writer's Acquire spin at line 6.
                self.side(other).permit.store(true, MemOrdering::Release);
                // If that waiting writer was cancelled, nobody is spinning
                // on the permit: complete its passage on its behalf.
                self.help_abandoned(other);
            }
        }
        d
    }

    /// A reader's try section (lines 16–24).
    ///
    /// Satisfies concurrent entering (P5): when the writer role is in the
    /// remainder section, `Gate[D]` is open and the reader passes straight
    /// through in a bounded number of steps.
    #[inline]
    pub fn read_lock(&self) -> ReadSession {
        let d = self.reader_doorway();
        // line 24: wait till Gate[d]. Acquire pairs with the writer's
        // Release open (line 14), making the write session's data visible.
        spin_until(|| self.side(d).gate.load(MemOrdering::Acquire));
        ReadSession { side: d } // line 25: CRITICAL SECTION
    }

    /// A **bounded** read attempt: the doorway, one gate test, and — on a
    /// closed gate — retirement through the ordinary exit section.
    ///
    /// The abort path is sound because a registered reader that runs lines
    /// 26–30 without entering the critical section is indistinguishable,
    /// to every counter (`C[d]`, `EC`) and permit, from a reader whose
    /// read session was empty; and the entry path is the normal one (the
    /// gate was observed open), so P1 and WP1 are untouched.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::swmr::SwmrWriterPriority;
    ///
    /// let lock = SwmrWriterPriority::new();
    /// let r = lock.try_read_lock().expect("no writer active");
    /// lock.read_unlock(r);
    ///
    /// let w = lock.write_lock();
    /// assert!(lock.try_read_lock().is_none(), "writer holds the CS");
    /// lock.write_unlock(w);
    /// ```
    #[inline]
    pub fn try_read_lock(&self) -> Option<ReadSession> {
        let d = self.reader_doorway();
        // Acquire: an open gate admits us exactly as at line 24.
        if self.side(d).gate.load(MemOrdering::Acquire) {
            Some(ReadSession { side: d })
        } else {
            // Writer active on our side: retire through the exit section.
            self.read_unlock(ReadSession { side: d });
            None
        }
    }

    /// A reader's exit section (lines 26–30). Bounded (P2): at most four
    /// shared-memory operations, no waiting.
    #[inline]
    pub fn read_unlock(&self, session: ReadSession) {
        let d = session.side;
        // SeqCst F&As: the exit-section counters run the same
        // announce-then-wake protocol as the try section; their place in
        // the total order against the writer's line 10/12 is load-bearing.
        self.hot.exit_count.add_reader(MemOrdering::SeqCst); // line 26: F&A(EC, [0, 1])
        let old = self.side(d).count.sub_reader(MemOrdering::SeqCst); // line 27: F&A(C[d], [0, -1])
        if old == Packed::ONE_ONE {
            // Release pairs with the writer's Acquire spin at line 6
            // (site F1-L28).
            self.side(d).permit.store_at(Site::F1_L28, true, MemOrdering::Release); // line 28

            // If the waiting writer was cancelled, nobody is spinning on
            // the permit we just raised: complete its abandoned passage
            // (site F1-ZHELP; see cancel_write).
            self.help_abandoned(d);
        }
        let old = self.hot.exit_count.sub_reader(MemOrdering::SeqCst); // line 29: F&A(EC, [0, -1])
        if old == Packed::ONE_ONE {
            // Release pairs with the writer's Acquire spin at line 11.
            self.spin.exit_permit.store(true, MemOrdering::Release); // line 30
        }
    }

    // ------------------------------------------------------------------
    // Figure 4 plumbing (the SWWP pieces its multi-writer protocol drives)
    // ------------------------------------------------------------------

    /// Reads `D` (Fig. 4 line 10 reads `currD ← D`).
    pub fn direction(&self) -> Side {
        // Acquire: Fig. 4 readers call this after their registration F&A
        // and writers under lock M; Acquire is already stronger than
        // either caller needs, and keeps the helper caller-agnostic.
        self.hot.d.load(MemOrdering::Acquire)
    }

    /// Writes `D ← side` — the doorway performed *on the writers' behalf*
    /// by Figure 4 line 8. Concurrent callers always write the same value
    /// (see the Fig. 4 analysis in DESIGN.md), so the store is idempotent.
    pub fn set_direction(&self, side: Side) {
        // SeqCst: Fig. 4's proxy doorway (its line 8) is a cross-writer
        // announce whose total-order position against the readers'
        // registration F&As the Fig. 4 proof uses directly; unlike the
        // single-writer line 3 there is no adjacent same-thread RMW on the
        // partner variable to carry a weaker store.
        self.hot.d.store(side, MemOrdering::SeqCst);
    }

    /// Whether `Gate[side]` is open (Fig. 4 line 12 waits on this).
    pub fn gate_is_open(&self, side: Side) -> bool {
        // Acquire: doubles as Fig. 4's line-12 wait predicate, pairing
        // with the Release open at line 14.
        self.side(side).gate.load(MemOrdering::Acquire)
    }

    /// Diagnostic snapshot `(C\[0\], C\[1\], EC)`; values may be stale.
    pub fn counters(&self) -> (Packed, Packed, Packed) {
        // Relaxed: diagnostic/at-rest reads; the quiescence oracle runs
        // after the worker threads have been joined, and a join is already
        // a synchronization point.
        (
            self.hot.count[0].load(MemOrdering::Relaxed),
            self.hot.count[1].load(MemOrdering::Relaxed),
            self.hot.exit_count.load(MemOrdering::Relaxed),
        )
    }

    /// True when the lock is at rest: every counter (`C\[0\]`, `C\[1\]`,
    /// `EC`) is zero and the gates sit in the canonical idle configuration
    /// (`Gate[D]` open, `Gate[D̄]` closed). Checker entry point: after a
    /// clean run every passage must have unwound completely, so the
    /// real-code checker (`rmr-check`) asserts this at teardown. Only
    /// meaningful while no attempt is in flight.
    pub fn is_quiescent(&self) -> bool {
        let (c0, c1, ec) = self.counters();
        // Relaxed: at-rest read, see `counters`.
        let d = self.hot.d.load(MemOrdering::Relaxed);
        c0 == Packed::ZERO
            && c1 == Packed::ZERO
            && ec == Packed::ZERO
            && self.gate_is_open(d)
            && !self.gate_is_open(!d)
            // No abandoned passage awaiting deferred completion.
            && self.spin.zombie.load(MemOrdering::Relaxed) == ZOMBIE_NONE
    }
}

impl<B: Backend> Default for SwmrWriterPriority<B> {
    fn default() -> Self {
        Self::new_in(B::default())
    }
}

impl<B: Backend> fmt::Debug for SwmrWriterPriority<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (c0, c1, ec) = self.counters();
        f.debug_struct("SwmrWriterPriority")
            .field("d", &self.hot.d.load(MemOrdering::Relaxed))
            .field("c0", &c0)
            .field("c1", &c1)
            .field("ec", &ec)
            .field("gate0", &self.gate_is_open(Side::Zero))
            .field("gate1", &self.gate_is_open(Side::One))
            .finish()
    }
}

/// [`RawRwLock`] adapter so the typed front end (and the SWMR wrapper in
/// [`crate::swmr_rwlock`]) can drive Figure 1 through the common interface.
///
/// Figure 1 names no processes — pids are accepted and ignored — and it
/// supports any number of readers, so `max_processes` reports "unbounded"
/// (`usize::MAX`); size the registry explicitly with
/// [`RwLock::with_raw_and_capacity`](crate::rwlock::RwLock::with_raw_and_capacity).
///
/// **Contract beyond [`RawRwLock`]'s:** at most one process may exercise
/// the writer role at a time (this is the "single writer" of Theorem 1).
/// The typed [`SwmrRwLock`](crate::swmr_rwlock::SwmrRwLock) enforces that
/// statically; going through this impl directly, it is the caller's
/// obligation (debug builds assert it).
impl<B: Backend> RawRwLock for SwmrWriterPriority<B> {
    type ReadToken = ReadSession;
    type WriteToken = WriteSession;

    #[inline]
    fn read_lock(&self, _pid: Pid) -> ReadSession {
        SwmrWriterPriority::read_lock(self)
    }

    #[inline]
    fn read_unlock(&self, _pid: Pid, token: ReadSession) {
        SwmrWriterPriority::read_unlock(self, token);
    }

    #[inline]
    fn write_lock(&self, _pid: Pid) -> WriteSession {
        SwmrWriterPriority::write_lock(self)
    }

    #[inline]
    fn write_unlock(&self, _pid: Pid, token: WriteSession) {
        SwmrWriterPriority::write_unlock(self, token);
    }

    fn max_processes(&self) -> usize {
        usize::MAX
    }
}

impl<B: Backend> RawTryReadLock for SwmrWriterPriority<B> {
    #[inline]
    fn try_read_lock(&self, _pid: Pid) -> Option<ReadSession> {
        SwmrWriterPriority::try_read_lock(self)
    }
}

// SAFETY: `poll_write` only returns `Ok` after the full waiting room
// (lines 6–12) has been observed complete, so the token carries exactly
// `write_lock`'s exclusion. The one-doorway-at-a-time contract is the
// single-writer-role contract this lock already imposes.
unsafe impl<B: Backend> RawParkedWaiters for SwmrWriterPriority<B> {
    /// Queued: `start_write` runs the doorway (lines 2–5), so WP1 closes
    /// the reader admission path while the token is parked — a reader that
    /// starts its doorway after `start_write` returns waits behind it.
    const QUEUED: bool = true;

    type WriteDoorway = WriteDoorway;

    fn start_write(&self, _pid: Pid) -> WriteDoorway {
        SwmrWriterPriority::start_write(self)
    }

    fn poll_write(&self, _pid: Pid, doorway: WriteDoorway) -> Result<WriteSession, WriteDoorway> {
        SwmrWriterPriority::poll_write(self, doorway)
    }

    fn cancel_write(&self, _pid: Pid, doorway: WriteDoorway) {
        SwmrWriterPriority::cancel_write(self, doorway)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn initial_configuration_matches_paper() {
        let lock = SwmrWriterPriority::new();
        assert_eq!(lock.direction(), Side::Zero);
        assert!(lock.gate_is_open(Side::Zero));
        assert!(!lock.gate_is_open(Side::One));
        let (c0, c1, ec) = lock.counters();
        assert_eq!((c0, c1, ec), (Packed::ZERO, Packed::ZERO, Packed::ZERO));
    }

    #[test]
    fn reader_alone_enters_in_bounded_steps() {
        // Concurrent entering (P5): no writer active, so read_lock must not
        // block; if it spun, this test would hang.
        let lock = SwmrWriterPriority::new();
        for _ in 0..100 {
            let r = lock.read_lock();
            assert_eq!(r.side(), Side::Zero);
            lock.read_unlock(r);
        }
    }

    #[test]
    fn writer_alone_cycles_and_alternates_sides() {
        let lock = SwmrWriterPriority::new();
        let mut expected = Side::One; // first attempt toggles 0 → 1
        for _ in 0..10 {
            let w = lock.write_lock();
            assert_eq!(w.current_side(), expected);
            assert_eq!(lock.direction(), expected);
            lock.write_unlock(w);
            expected = !expected;
        }
    }

    #[test]
    fn readers_after_writer_session_use_new_side() {
        let lock = SwmrWriterPriority::new();
        let w = lock.write_lock();
        lock.write_unlock(w);
        // Writer used side 1 and opened Gate[1]; a new reader binds to D=1.
        let r = lock.read_lock();
        assert_eq!(r.side(), Side::One);
        lock.read_unlock(r);
    }

    #[test]
    fn writer_doorway_blocks_new_readers_until_exit() {
        let lock = Arc::new(SwmrWriterPriority::new());
        let w = lock.write_lock();

        let entered = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let e2 = Arc::clone(&entered);
        let reader = std::thread::spawn(move || {
            let r = l2.read_lock();
            e2.store(true, Ordering::SeqCst);
            l2.read_unlock(r);
        });

        // WP1: the reader started after the writer's doorway, so it must not
        // enter while the writer holds the CS.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!entered.load(Ordering::SeqCst), "reader overtook the writer");

        lock.write_unlock(w);
        reader.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn writer_waits_for_registered_reader() {
        let lock = Arc::new(SwmrWriterPriority::new());
        let r = lock.read_lock(); // reader in CS on side 0

        let writer_in = Arc::new(AtomicBool::new(false));
        let l2 = Arc::clone(&lock);
        let w2 = Arc::clone(&writer_in);
        let writer = std::thread::spawn(move || {
            let w = l2.write_lock();
            w2.store(true, Ordering::SeqCst);
            l2.write_unlock(w);
        });

        std::thread::sleep(Duration::from_millis(50));
        assert!(!writer_in.load(Ordering::SeqCst), "writer entered over a live reader");

        lock.read_unlock(r);
        writer.join().unwrap();
        assert!(writer_in.load(Ordering::SeqCst));
    }

    #[test]
    fn mutual_exclusion_stress() {
        let lock = Arc::new(SwmrWriterPriority::new());
        let readers_in = Arc::new(AtomicUsize::new(0));
        let writer_in = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        // One writer thread (single-writer algorithm).
        {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let w = lock.write_lock();
                    writer_in.store(true, Ordering::SeqCst);
                    assert_eq!(
                        readers_in.load(Ordering::SeqCst),
                        0,
                        "P1 violated: reader with writer"
                    );
                    writer_in.store(false, Ordering::SeqCst);
                    lock.write_unlock(w);
                }
            }));
        }
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let readers_in = Arc::clone(&readers_in);
            let writer_in = Arc::clone(&writer_in);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let r = lock.read_lock();
                    readers_in.fetch_add(1, Ordering::SeqCst);
                    assert!(!writer_in.load(Ordering::SeqCst), "P1 violated: writer with reader");
                    readers_in.fetch_sub(1, Ordering::SeqCst);
                    lock.read_unlock(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (c0, c1, ec) = lock.counters();
        assert_eq!((c0, c1, ec), (Packed::ZERO, Packed::ZERO, Packed::ZERO));
    }

    #[test]
    fn many_readers_share_the_cs() {
        // Readers must be able to co-occupy the CS (this also exercises the
        // FIFE-friendly gate: all of them park on the same side).
        let lock = Arc::new(SwmrWriterPriority::new());
        let sessions: Vec<_> = (0..8).map(|_| lock.read_lock()).collect();
        for s in sessions {
            lock.read_unlock(s);
        }
    }

    #[test]
    fn doorway_grants_uncontended_in_one_poll() {
        let lock = SwmrWriterPriority::new();
        let d = lock.start_write();
        let w = lock.poll_write(d).expect("uncontended doorway grants on the first poll");
        lock.write_unlock(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn doorway_closes_reader_admission_while_parked() {
        // WP1 through the token: a reader arriving after start_write must
        // not be admitted until the doorway is granted-and-released.
        let lock = SwmrWriterPriority::new();
        let d = lock.start_write();
        assert!(lock.try_read_lock().is_none(), "reader overtook a parked doorway");
        let w = lock.poll_write(d).expect("no readers to drain");
        lock.write_unlock(w);
        assert!(lock.try_read_lock().is_some());
        let r = lock.read_lock();
        lock.read_unlock(r);
    }

    #[test]
    fn cancel_uncontended_doorway_restores_rest_state() {
        let lock = SwmrWriterPriority::new();
        for _ in 0..4 {
            let d = lock.start_write();
            lock.cancel_write(d);
            assert!(lock.is_quiescent(), "cancel must leave an empty-passage configuration");
            // Readers pass again immediately.
            let r = lock.try_read_lock().expect("gate reopened after cancel");
            lock.read_unlock(r);
        }
    }

    #[test]
    fn cancel_behind_live_reader_defers_to_helper() {
        let lock = SwmrWriterPriority::new();
        let r = lock.read_lock(); // reader holds side 0
        let d = lock.start_write(); // doorway announces on C[0], waits
        let d = lock.poll_write(d).expect_err("reader still registered");
        lock.cancel_write(d);
        // The zombie is pending: the lock is not yet quiescent, and the
        // reader's exit must complete the abandoned passage.
        assert!(!lock.is_quiescent());
        lock.read_unlock(r);
        assert!(lock.is_quiescent(), "last reader out must finish the cancelled passage");
        let r = lock.try_read_lock().expect("admission reopened by the helper");
        lock.read_unlock(r);
    }

    #[test]
    fn cancel_after_prev_drain_unwinds_inline() {
        let lock = SwmrWriterPriority::new();
        let r = lock.read_lock();
        let d = lock.start_write();
        let d = lock.poll_write(d).expect_err("reader still registered");
        lock.read_unlock(r); // permit raised; doorway advances next poll
        let d = match lock.poll_write(d) {
            // Depending on exit-section timing the second poll may already
            // grant; either way the passage must unwind cleanly.
            Ok(w) => {
                lock.write_unlock(w);
                assert!(lock.is_quiescent());
                return;
            }
            Err(d) => d,
        };
        lock.cancel_write(d);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn start_write_adopts_an_abandoned_passage() {
        let lock = SwmrWriterPriority::new();
        let r = lock.read_lock(); // pin side 0 so the cancel must defer
        let d = lock.start_write();
        let expected_side = lock.direction();
        let d = lock.poll_write(d).expect_err("reader still registered");
        lock.cancel_write(d);
        // Adopt the zombie before any reader completes it: the new doorway
        // resumes the same side instead of toggling D again.
        let d2 = lock.start_write();
        assert_eq!(lock.direction(), expected_side, "adoption must not re-toggle D");
        lock.read_unlock(r);
        let w = lock.finish_write(d2);
        assert_eq!(w.current_side(), expected_side);
        lock.write_unlock(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn write_lock_after_deferred_cancel_settles() {
        // The next blocking writer must not trip over a helper-completed
        // passage: cancel deferred, reader completes it, write_lock runs.
        let lock = SwmrWriterPriority::new();
        let r = lock.read_lock();
        let d = lock.start_write();
        let d = lock.poll_write(d).expect_err("reader still registered");
        lock.cancel_write(d);
        lock.read_unlock(r); // helper completes the passage
        let w = lock.write_lock();
        lock.write_unlock(w);
        assert!(lock.is_quiescent());
    }

    #[test]
    fn counters_return_to_zero_after_mixed_use() {
        let lock = SwmrWriterPriority::new();
        let r1 = lock.read_lock();
        let r2 = lock.read_lock();
        lock.read_unlock(r1);
        lock.read_unlock(r2);
        let w = lock.write_lock();
        lock.write_unlock(w);
        let (c0, c1, ec) = lock.counters();
        assert_eq!((c0, c1, ec), (Packed::ZERO, Packed::ZERO, Packed::ZERO));
    }

    /// The 128-B line holding the byte at `addr`.
    fn line_of(addr: usize) -> usize {
        addr / 128
    }

    /// The lines `v` spans, first and last.
    fn lines<T>(v: &T) -> (usize, usize) {
        let start = v as *const T as usize;
        (line_of(start), line_of(start + std::mem::size_of::<T>() - 1))
    }

    #[test]
    fn native_lock_is_two_lines() {
        // The hot line and the spin line. Debug builds fit the
        // `session_active` check into the spin line's spare bytes.
        assert_eq!(std::mem::size_of::<SwmrWriterPriority<Native>>(), 256);
    }

    #[test]
    fn read_passage_words_share_one_line_without_spin_flags() {
        let lock = SwmrWriterPriority::new();
        let hot = &lock.hot;
        let (line, _) = lines(&hot.d);
        for (name, span) in [
            ("D", lines(&hot.d)),
            ("C[0]", lines(&hot.count[0])),
            ("C[1]", lines(&hot.count[1])),
            ("EC", lines(&hot.exit_count)),
        ] {
            assert_eq!(span, (line, line), "{name} is off the hot line");
        }
        let spin = &lock.spin;
        for (name, (first, last)) in [
            ("Gate[0]", lines(&spin.gate[0])),
            ("Gate[1]", lines(&spin.gate[1])),
            ("Permit[0]", lines(&spin.permit[0])),
            ("Permit[1]", lines(&spin.permit[1])),
            ("ExitPermit", lines(&spin.exit_permit)),
            ("Zombie", lines(&spin.zombie)),
        ] {
            assert!(first != line && last != line, "{name} shares the hot line");
        }
    }
}
