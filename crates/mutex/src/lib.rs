//! Mutual-exclusion substrate for the constant-RMR reader-writer locks.
//!
//! The centerpiece is [`AndersonLock`], T. E. Anderson's array-based queueing
//! lock (*"The performance of spin lock alternatives for shared-memory
//! multiprocessors"*, IEEE TPDS 1990). It is the lock `M` that Figure 3 and
//! Figure 4 of Bhatt & Jayanti (PODC 2010) wrap around the single-writer
//! algorithms, chosen because it provides, with O(1) RMR complexity on
//! cache-coherent machines:
//!
//! * mutual exclusion,
//! * starvation freedom and first-come-first-served ordering,
//! * bounded exit, and
//! * the *waiting-room enabledness* property required by WP2: if a set `S`
//!   of processes is in the waiting room and no process is in the critical
//!   or exit section, some process in `S` is enabled to enter.
//!
//! The crate also ships the classic spin locks ([`TasLock`], [`TtasLock`],
//! [`TicketLock`], [`McsLock`]) used as baselines and as sanity checks for
//! the RMR-accounting model in `rmr-sim`.
//!
//! # Memory ordering
//!
//! The algorithms in this workspace are transcribed from papers that assume
//! sequential consistency, but each atomic access now carries the **weakest
//! [`Ordering`](mem::Ordering) its proof obligation permits**, annotated
//! and justified at the call site (DESIGN.md §13). Cross-variable
//! store-then-load patterns that the proofs genuinely rely on (the paper
//! locks' announce-then-scan passages, Bravo's publish/re-check, the swap
//! tier's epoch publication) remain `SeqCst`; lock handoffs are
//! Release/Acquire pairs; ticket draws and diagnostics are `Relaxed`. The
//! policy is *verified, not trusted*: the [`sched`] backend's
//! [`StoreBuffer`](sched::MemoryModel::StoreBuffer) mode model-checks the
//! shipped code under store reordering, and `rmr-check`'s `Demote*`
//! ordering faults (a [`sched::FaultKind::Order`] armed at a load-bearing
//! [`mem::Site`]) prove each relaxation class would be caught if demoted
//! too far.
//!
//! # Memory backends
//!
//! Every lock here (and in `rmr-core`/`rmr-baselines`) is generic over a
//! [`mem::Backend`] — [`Native`] by default (transparent `std` atomics,
//! zero cost), [`Counting`], which tallies remote memory references
//! under the paper's CC and DSM cost models *on the real implementations*,
//! or [`Sched`], which routes every operation through a deterministic
//! cooperative scheduler so the `rmr-check` crate can model-check the
//! shipped lock code schedule by schedule (experiment E14), and charges
//! the same tallies, exactly and replayably (the E13 ledger). See [`mem`] for the model definitions and [`sched`] for the
//! execution model.
//!
//! # Example
//!
//! ```
//! use rmr_mutex::{AndersonLock, RawMutex};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(AndersonLock::new(8));
//! let mut handles = Vec::new();
//! for _ in 0..4 {
//!     let lock = Arc::clone(&lock);
//!     handles.push(std::thread::spawn(move || {
//!         let token = lock.lock();
//!         // ... critical section ...
//!         lock.unlock(token);
//!     }));
//! }
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anderson;
mod mcs;
pub mod mem;
mod pad;
pub mod sched;
pub mod spin;
mod tas;
mod ticket;

pub use anderson::{AndersonLock, AndersonToken};
pub use mcs::{McsLock, McsToken};
pub use mem::{Backend, Counting, Native};
pub use pad::CachePadded;
pub use sched::Sched;
pub use spin::{spin_until, SpinWait};
pub use tas::{TasLock, TtasLock};
pub use ticket::{TicketLock, TicketToken};

/// A raw mutual-exclusion lock.
///
/// `lock` returns an opaque token that must be passed back to `unlock`;
/// queue-based locks (Anderson, MCS) use it to remember the waiter's slot or
/// queue node. The token is intentionally *not* an RAII guard: the
/// reader-writer constructions in `rmr-core` need to interleave `lock`,
/// algorithm-specific steps, and `unlock` at precise program points.
///
/// # Example
///
/// ```
/// use rmr_mutex::{RawMutex, TicketLock};
///
/// let lock = TicketLock::new();
/// let token = lock.lock();
/// lock.unlock(token);
/// ```
pub trait RawMutex: Send + Sync {
    /// Proof of lock ownership, returned by [`RawMutex::lock`].
    type Token;

    /// Acquires the lock, blocking (spinning) until it is held.
    fn lock(&self) -> Self::Token;

    /// Releases the lock.
    ///
    /// The token must come from the matching [`RawMutex::lock`] call on the
    /// same lock; implementations may panic or misbehave otherwise.
    fn unlock(&self, token: Self::Token);

    /// Maximum number of *concurrent* contenders supported, if bounded.
    ///
    /// `None` means unbounded. Exceeding a bounded capacity is a contract
    /// violation (Anderson's array lock would wrap into a live waiter's
    /// slot).
    fn capacity(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Generic mutual-exclusion stress test shared by all lock types.
    pub(crate) fn exclusion_stress<L>(lock: L, threads: usize, iters: usize)
    where
        L: RawMutex + 'static,
    {
        let lock = Arc::new(lock);
        let in_cs = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    let token = lock.lock();
                    let now = in_cs.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(now, 0, "mutual exclusion violated");
                    total.fetch_add(1, Ordering::SeqCst);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    lock.unlock(token);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), threads * iters);
    }

    #[test]
    fn all_locks_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AndersonLock>();
        assert_send_sync::<TasLock>();
        assert_send_sync::<TtasLock>();
        assert_send_sync::<TicketLock>();
        assert_send_sync::<McsLock>();
    }
}
