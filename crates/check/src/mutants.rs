//! The two hand-written mutant locks of the mutation battery.
//!
//! A checker that has never caught a bug is indistinguishable from one
//! that cannot. The battery (`tests/mutants.rs`, experiment E14) seeds
//! bugs of the kind a refactor could plausibly introduce and asserts
//! that each is caught within a bounded schedule budget while the
//! unmutated code passes the same budgets.
//!
//! Most of those bugs are seeded into the **shipped** locks, not into
//! copies: the accesses they break carry a typed fault site
//! ([`rmr_mutex::mem::Site`]), and the battery arms a
//! [`rmr_mutex::sched::Fault`] at that site — a dropped store, a demoted
//! ordering, or a lying load — for the runs it explores. The code under
//! test is then exactly the code that ships, so a mutant cannot drift
//! from what it claims to test.
//!
//! Two bugs are not single-site faults and stay hand-written here, each
//! next to the production code it wraps or models:
//!
//! * [`MutantTokenlessTicket`] — the bug is a lying `QUEUED` constant on
//!   a doorway that never draws its ticket, a property of a trait impl
//!   rather than of one shared-memory access.
//! * [`MutantSwap`] — on the real `rmr_swap::Snapshot`, a premature
//!   retire or a demoted epoch publish would free a payload a reader
//!   still dereferences: real use-after-free, not an oracle panic. The
//!   model swaps the heap for an arena with a freed flag, so the same
//!   bugs surface as a deterministic, replayable oracle failure.

use rmr_core::raw::{RawParkedWaiters, RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::mem::{Backend, Ordering, SharedBool, SharedWord};
use rmr_mutex::{spin_until, Sched};
use std::fmt;

/// Which seeded bug a hand-written mutant carries. `None` is the control:
/// the faithful variant, which must pass every battery the mutants fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful variant — no bug.
    None,
    /// Epoch-swap writer's grace-period scan skips slot 0: a payload is
    /// freed while the reader in that slot still pins it with a published
    /// epoch — the snapshot tier's characteristic use-after-free, caught
    /// by the freed-flag oracle instead of actual UB.
    PrematureRetire,
    /// Epoch-swap reader demotes the epoch publish (site SW-PUB) from
    /// SeqCst to Release. The publish parks in the reader's store buffer
    /// past the payload load it must precede: a concurrent writer's
    /// grace scan sees the slot still empty, frees the payload the reader
    /// pinned, and the freed-flag oracle fires. Invisible under SC;
    /// caught under `MemoryModel::StoreBuffer`.
    DemotePublishEpoch,
    /// The doorway wrapper claims `QUEUED = true` but `start_write` never
    /// draws the ticket: `poll_write` degrades to a bare `try_write_lock`
    /// with no queue presence, so readers stream past the "tokened"
    /// writer without bound — the bug `async_fair_trial`'s bounded-bypass
    /// oracle exists to catch (a refactor that keeps the doorway shape
    /// but loses the token is exactly one dropped call).
    DropWaiterToken,
}

// ---------------------------------------------------------------------
// Doorway wrapper with the dropped waiter token
// ---------------------------------------------------------------------

/// A capability-preserving wrapper over the production
/// [`rmr_baselines::TicketRwLock`] whose [`RawParkedWaiters`] impl is a
/// line-for-line copy of the inner forwarding — except that
/// [`Mutation::DropWaiterToken`] skips the `start_write` forward, so the
/// "doorway" holds no ticket and `poll_write` is a bare
/// `try_write_lock`. The wrapper still advertises `QUEUED = true`: it
/// *claims* the parked writer is counted like a queued process while
/// readers in fact stream past it unboundedly, which is precisely the
/// contract breach `rmr_check::async_exec::async_fair_trial`'s
/// bounded-bypass oracle polices. [`Mutation::None`] is the faithful
/// forwarder and must pass the identical battery.
///
/// Hand-written rather than a fault on the shipped ticket lock: the bug
/// is the lying `QUEUED` constant of a `RawParkedWaiters` impl, not any
/// one shared-memory access a site fault could break.
pub struct MutantTokenlessTicket<B: Backend = Sched> {
    mutation: Mutation,
    inner: rmr_baselines::TicketRwLock<B>,
}

/// The mutant's doorway: the real ticket when faithful, nothing when the
/// token was dropped.
#[derive(Debug)]
pub enum MutantDoorway<B: Backend> {
    /// Faithful forward of the inner lock's drawn ticket.
    Queued(<rmr_baselines::TicketRwLock<B> as RawParkedWaiters>::WriteDoorway),
    /// MUTATION POINT: the "queue position" that was never drawn.
    Tokenless,
}

impl<B: Backend> MutantTokenlessTicket<B> {
    /// Creates the wrapper over a fresh inner ticket lock for `capacity`
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if `mutation` is not `None`/`DropWaiterToken`.
    pub fn new_in(mutation: Mutation, capacity: usize, _backend: B) -> Self {
        assert!(
            matches!(mutation, Mutation::None | Mutation::DropWaiterToken),
            "{mutation:?} is not a doorway mutation"
        );
        Self { mutation, inner: rmr_baselines::TicketRwLock::new_in(capacity, B::default()) }
    }
}

impl<B: Backend> RawRwLock for MutantTokenlessTicket<B> {
    type ReadToken = ();
    type WriteToken = ();

    fn read_lock(&self, pid: Pid) {
        self.inner.read_lock(pid)
    }

    fn read_unlock(&self, pid: Pid, (): ()) {
        self.inner.read_unlock(pid, ())
    }

    fn write_lock(&self, pid: Pid) {
        self.inner.write_lock(pid)
    }

    fn write_unlock(&self, pid: Pid, (): ()) {
        self.inner.write_unlock(pid, ())
    }

    fn max_processes(&self) -> usize {
        self.inner.max_processes()
    }
}

impl<B: Backend> RawTryReadLock for MutantTokenlessTicket<B> {
    fn try_read_lock(&self, pid: Pid) -> Option<()> {
        self.inner.try_read_lock(pid)
    }
}

// SAFETY: both variants grant through the inner ticket lock's own
// admission checks (`poll_write` / `try_write_lock`), so exclusion is the
// inner lock's. The mutant's lie is about *fairness* (QUEUED without a
// queue position), never about exclusion — the fairness oracle, not the
// exclusion oracle, must be what catches it.
unsafe impl<B: Backend> RawParkedWaiters for MutantTokenlessTicket<B> {
    const QUEUED: bool = true;

    type WriteDoorway = MutantDoorway<B>;

    fn start_write(&self, pid: Pid) -> MutantDoorway<B> {
        if self.mutation == Mutation::DropWaiterToken {
            MutantDoorway::Tokenless // MUTATION POINT: no ticket drawn
        } else {
            MutantDoorway::Queued(self.inner.start_write(pid))
        }
    }

    fn poll_write(&self, pid: Pid, doorway: MutantDoorway<B>) -> Result<(), MutantDoorway<B>> {
        match doorway {
            MutantDoorway::Queued(d) => {
                self.inner.poll_write(pid, d).map_err(MutantDoorway::Queued)
            }
            MutantDoorway::Tokenless => {
                self.inner.try_write_lock(pid).ok_or(MutantDoorway::Tokenless)
            }
        }
    }

    fn cancel_write(&self, pid: Pid, doorway: MutantDoorway<B>) {
        if let MutantDoorway::Queued(d) = doorway {
            self.inner.cancel_write(pid, d);
        }
    }
}

impl<B: Backend> fmt::Debug for MutantTokenlessTicket<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutantTokenlessTicket").field("mutation", &self.mutation).finish()
    }
}

// ---------------------------------------------------------------------
// Epoch-swap snapshot model with the skipped grace-scan slot
// ---------------------------------------------------------------------

/// A model of `rmr-swap`'s epoch-swap protocol over a bounded arena,
/// carrying [`Mutation::PrematureRetire`] (the writer's grace-period scan
/// skips slot 0), [`Mutation::DemotePublishEpoch`] (the reader's epoch
/// publish weakens from SeqCst to Release), or [`Mutation::None`] for
/// the control copy.
///
/// Payloads are arena *indices* with a freed flag instead of heap
/// pointers, so the seeded reclamation bug surfaces as a caught oracle
/// panic ("freed payload observed …") rather than actual use-after-free
/// UB the checker could not observe deterministically. Single-writer by
/// construction: the real tier serializes writers through a raw lock, so
/// one writer task models the serialized install stream and the mutation
/// point — the grace scan — is exercised without dragging a lock copy in.
/// Always instantiated over [`Sched`] by the battery.
///
/// A model rather than a fault on the shipped `rmr_swap::Snapshot`: there
/// a skipped grace slot or a demoted epoch publish would free a payload
/// a reader still dereferences — real use-after-free, which the checker
/// cannot observe deterministically — not an oracle panic.
pub struct MutantSwap<B: Backend = Sched> {
    mutation: Mutation,
    /// The global epoch `G` (starts at 1; 0 is the empty-slot sentinel).
    epoch: B::Word,
    /// Arena index of the current payload.
    payload: B::Word,
    /// The reader epoch table (`Snapshot`'s epoch slots, sans padding).
    slots: Box<[B::Word]>,
    /// Freed flag per arena cell — the reclamation oracle.
    freed: Box<[B::Bool]>,
    /// Bump allocator over the arena (cell 0 is the initial payload).
    next_cell: B::Word,
}

impl<B: Backend> MutantSwap<B> {
    /// Creates the model with `slots` reader slots and an arena of
    /// `arena_cells` payload cells (must cover one install per writer
    /// passage plus the initial payload).
    ///
    /// # Panics
    ///
    /// Panics if `mutation` is not `None`/`PrematureRetire`/
    /// `DemotePublishEpoch`.
    pub fn new_in(mutation: Mutation, slots: usize, arena_cells: usize, _backend: B) -> Self {
        assert!(
            matches!(
                mutation,
                Mutation::None | Mutation::PrematureRetire | Mutation::DemotePublishEpoch
            ),
            "{mutation:?} is not a Swap mutation"
        );
        assert!(slots > 0 && arena_cells > 0);
        Self {
            mutation,
            epoch: B::Word::new(1),
            payload: B::Word::new(0),
            slots: (0..slots).map(|_| B::Word::new(0)).collect(),
            freed: (0..arena_cells).map(|_| B::Bool::new(false)).collect(),
            next_cell: B::Word::new(0),
        }
    }

    /// One reader pin passage (the `Snapshot::load` body) plus the
    /// oracle: the pinned payload must not be freed while this slot's
    /// epoch pins it.
    ///
    /// # Panics
    ///
    /// Panics — the caught-bug signal — if the pinned payload's freed
    /// flag is set.
    pub fn reader_passage(&self, pid: Pid) {
        let slot = &self.slots[pid.index()];
        let e = self.epoch.load(Ordering::Relaxed);
        // Site SW-PUB: publish, then load — the linchpin order. The
        // original is SeqCst so the publish cannot pass the payload load.
        let order = if self.mutation == Mutation::DemotePublishEpoch {
            Ordering::Release // MUTATION POINT: the publish parks in the buffer
        } else {
            Ordering::SeqCst
        };
        slot.store(e, order);
        let mut p = self.payload.load(Ordering::SeqCst); // site SW-LOAD
        let e2 = self.epoch.load(Ordering::SeqCst);
        if e2 != e {
            slot.store(e2, order); // republish under the same policy
            p = self.payload.load(Ordering::SeqCst);
        }
        // CS: dereference the snapshot. In the real tier this is the
        // guard's `Deref`; here the freed flag stands in for the heap.
        // SeqCst so the oracle itself stays out of the ordering argument.
        assert!(
            !self.freed[p as usize].load(Ordering::SeqCst),
            "freed payload observed while an epoch pins it (cell {p})"
        );
        slot.store(0, Ordering::Release); // guard drop clears the pin
    }

    /// One writer install passage (the `Snapshot::store` body under its
    /// serialized write session): swap the payload, bump the epoch,
    /// grace-scan the reader table, free the retiree.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted or a cell is freed twice.
    pub fn writer_passage(&self) {
        let idx = self.next_cell.fetch_add(1, Ordering::Relaxed) + 1;
        assert!((idx as usize) < self.freed.len(), "arena exhausted; size it to the trial");
        let old = self.payload.swap(idx, Ordering::SeqCst); // site SW-SWAP
        let r = self.epoch.fetch_add(1, Ordering::SeqCst) + 1; // site SW-BUMP
        let start = usize::from(self.mutation == Mutation::PrematureRetire);
        for slot in start..self.slots.len() {
            // MUTATION POINT: the mutant starts at slot 1, never waiting
            // out a pin published in slot 0.
            spin_until(|| {
                let e = self.slots[slot].load(Ordering::SeqCst); // site SW-SCAN
                e == 0 || e >= r
            });
        }
        let was = self.freed[old as usize].swap(true, Ordering::SeqCst);
        assert!(!was, "payload cell {old} freed twice");
    }

    /// Mirror of the real tier's quiescence entry point: no published
    /// epoch, and the current payload is live.
    pub fn is_quiescent(&self) -> bool {
        self.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0)
            && !self.freed[self.payload.load(Ordering::Relaxed) as usize].load(Ordering::Relaxed)
    }
}

impl<B: Backend> fmt::Debug for MutantSwap<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutantSwap").field("mutation", &self.mutation).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controls_behave_like_the_originals_single_threaded() {
        let ticket = MutantTokenlessTicket::new_in(Mutation::None, 2, Sched);
        ticket.read_lock(Pid::from_index(0));
        ticket.read_unlock(Pid::from_index(0), ());
        let doorway = ticket.start_write(Pid::from_index(1));
        assert!(matches!(doorway, MutantDoorway::Queued(_)));
        ticket.poll_write(Pid::from_index(1), doorway).expect("uncontended doorway grants");
        ticket.write_unlock(Pid::from_index(1), ());

        let swap = MutantSwap::new_in(Mutation::None, 2, 4, Sched);
        swap.reader_passage(Pid::from_index(0));
        swap.writer_passage();
        swap.reader_passage(Pid::from_index(1));
        swap.writer_passage();
        assert!(swap.is_quiescent());
    }

    /// The async tier's hand-written mutant (its doorway drives
    /// `AsyncRwLock`) accepts only its own mutation.
    #[test]
    #[should_panic(expected = "not a doorway mutation")]
    fn async_rejects_foreign_mutations() {
        let _ = MutantTokenlessTicket::new_in(Mutation::PrematureRetire, 2, Sched);
    }

    #[test]
    #[should_panic(expected = "not a Swap mutation")]
    fn swap_rejects_foreign_mutations() {
        let _ = MutantSwap::new_in(Mutation::DropWaiterToken, 2, 4, Sched);
    }
}
