//! T. E. Anderson's array-based queueing lock (IEEE TPDS 1990).

use crate::mem::{Backend, Native, Ordering, SharedBool, SharedWord, Site};
use crate::pad::CachePadded;
use crate::spin::spin_until;
use crate::RawMutex;
use std::fmt;

/// Anderson's array-based queue lock: O(1) RMR on cache-coherent machines,
/// first-come-first-served, starvation free, bounded exit.
///
/// Each arriving process draws a ticket with one `fetch_add` and spins on its
/// own cache-padded slot of a boolean array; the releasing process flips the
/// next slot. Under the CC cost model an acquire/release pair performs a
/// constant number of remote references regardless of contention, which is
/// why Bhatt & Jayanti use this lock as the writer-side mutex `M` in their
/// Figure 3/4 multi-writer constructions (Theorems 3–5).
///
/// Beyond mutual exclusion the lock satisfies the *waiting-room enabledness*
/// property their WP2 proof needs: whenever no process is in the critical or
/// exit section, the waiter holding the front ticket finds its slot already
/// `true` and can enter in a bounded number of its own steps.
///
/// Generic over the memory backend `B` ([`Native`] by default; use
/// [`AndersonLock::new_in`] with [`crate::Counting`] to measure RMRs on the
/// real lock).
///
/// # Capacity
///
/// The slot array bounds the number of **concurrent** contenders (not total
/// lock operations). `new` rounds the requested capacity up to a power of
/// two so ticket arithmetic stays correct across `u64` wrap-around.
///
/// # Example
///
/// ```
/// use rmr_mutex::{AndersonLock, RawMutex};
///
/// let lock = AndersonLock::new(4);
/// let t = lock.lock();
/// lock.unlock(t);
/// assert!(lock.capacity().unwrap() >= 4);
/// ```
pub struct AndersonLock<B: Backend = Native> {
    /// `slots[i] == true` means the owner of ticket `i (mod capacity)` may
    /// enter the critical section. Exactly one slot is `true` when the lock
    /// is free.
    slots: Box<[CachePadded<B::Bool>]>,
    /// Next ticket to hand out; monotonically increasing.
    next_ticket: B::Word,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
}

/// Proof of ownership for [`AndersonLock`]: the holder's ticket number.
#[derive(Debug)]
pub struct AndersonToken {
    ticket: u64,
}

impl AndersonLock {
    /// Creates a lock able to serve at least `capacity` concurrent
    /// contenders (rounded up to the next power of two, minimum 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::new_in(capacity, Native)
    }
}

impl<B: Backend> AndersonLock<B> {
    /// Creates the lock over the given memory backend (same contract as
    /// [`AndersonLock::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new_in(capacity: usize, _backend: B) -> Self {
        assert!(capacity > 0, "AndersonLock capacity must be positive");
        let capacity = capacity.next_power_of_two().max(2);
        let slots: Box<[_]> =
            (0..capacity).map(|i| CachePadded::new(B::Bool::new(i == 0))).collect();
        Self { slots, next_ticket: B::Word::new(0), mask: capacity as u64 - 1 }
    }

    fn slot(&self, ticket: u64) -> &B::Bool {
        &self.slots[(ticket & self.mask) as usize]
    }

    /// True if the lock is currently free (its front slot is open and no
    /// waiter holds that ticket). Intended for tests and diagnostics only;
    /// the answer may be stale by the time it returns.
    pub fn is_free_hint(&self) -> bool {
        // Diagnostic snapshot only; no synchronization rides on it.
        let next = self.next_ticket.load(Ordering::Relaxed);
        self.slot(next).load(Ordering::Relaxed)
    }
}

impl<B: Backend> RawMutex for AndersonLock<B> {
    type Token = AndersonToken;

    fn lock(&self) -> AndersonToken {
        // Doorway: one F&A — this both registers the request and fixes the
        // FCFS order, giving the bounded doorway required of lock M.
        // Relaxed: the draw only needs the counter's atomicity; the CS
        // happens-before edge comes from the slot Acquire/Release pair.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        // Waiting room: local spin on our own cache line. Acquire pairs
        // with the predecessor's Release store that opened this slot.
        spin_until(|| self.slot(ticket).load(Ordering::Acquire));
        AndersonToken { ticket }
    }

    fn unlock(&self, token: AndersonToken) {
        // Close our slot for its next lap, then open the successor's slot.
        // The reset may be Relaxed: the Release below orders it before the
        // successor's wake-up, and every later reader of our slot (the
        // wrap-around waiter, capacity tickets later) is reached only
        // through that chain of Release/Acquire handoffs, so coherence
        // places the reset before any future `true`. Site MX-ANDERSON-RESET.
        self.slot(token.ticket).store_at(Site::MX_ANDERSON_RESET, false, Ordering::Relaxed);
        // Release: publishes the CS writes (and the reset above) to the
        // successor's Acquire spin load.
        self.slot(token.ticket.wrapping_add(1)).store(true, Ordering::Release);
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.mask as usize + 1)
    }
}

impl<B: Backend> fmt::Debug for AndersonLock<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Diagnostic snapshot only; no synchronization rides on it.
        f.debug_struct("AndersonLock")
            .field("capacity", &(self.mask + 1))
            .field("next_ticket", &self.next_ticket.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusion_stress;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(AndersonLock::new(1).capacity(), Some(2));
        assert_eq!(AndersonLock::new(3).capacity(), Some(4));
        assert_eq!(AndersonLock::new(4).capacity(), Some(4));
        assert_eq!(AndersonLock::new(9).capacity(), Some(16));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = AndersonLock::new(0);
    }

    #[test]
    fn uncontended_lock_unlock_cycles() {
        let lock = AndersonLock::new(2);
        for _ in 0..1000 {
            let t = lock.lock();
            lock.unlock(t);
        }
        assert!(lock.is_free_hint());
    }

    #[test]
    fn fcfs_order_is_ticket_order() {
        // Single-threaded probe: tickets must be handed out in order.
        let lock = AndersonLock::new(4);
        let t0 = lock.lock();
        assert_eq!(t0.ticket, 0);
        lock.unlock(t0);
        let t1 = lock.lock();
        assert_eq!(t1.ticket, 1);
        lock.unlock(t1);
    }

    #[test]
    fn ticket_wraparound_is_safe() {
        // Start the ticket counter near u64::MAX; since capacity is a power
        // of two, masking stays consistent across the wrap.
        let lock = AndersonLock::new(4);
        lock.next_ticket.store(u64::MAX - 1, Ordering::SeqCst);
        // Open the slot the next ticket maps to, closing slot 0 first.
        lock.slots[0].store(false, Ordering::SeqCst);
        lock.slot(u64::MAX - 1).store(true, Ordering::SeqCst);
        for _ in 0..8 {
            let t = lock.lock();
            lock.unlock(t);
        }
    }

    #[test]
    fn exclusion_under_contention() {
        exclusion_stress(AndersonLock::new(8), 8, 200);
    }

    #[test]
    fn counting_backend_cycles() {
        let lock = AndersonLock::new_in(4, crate::Counting);
        for _ in 0..100 {
            let t = lock.lock();
            lock.unlock(t);
        }
        assert!(lock.is_free_hint());
    }

    #[test]
    fn front_waiter_is_enabled_when_cs_empty() {
        // WP2 support property: with the CS empty, a fresh locker completes
        // in a bounded number of its own steps (no other thread needed).
        let lock = AndersonLock::new(4);
        let t = lock.lock(); // must not block
        lock.unlock(t);
    }
}
