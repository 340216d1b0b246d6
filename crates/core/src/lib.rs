//! Constant-RMR reader-writer locks — a faithful implementation of
//! Bhatt & Jayanti, *"Constant RMR Solutions to Reader Writer
//! Synchronization"* (Dartmouth TR2010-662 / PODC 2010).
//!
//! The paper gives the first reader-writer exclusion algorithms whose RMR
//! (remote memory reference) complexity on cache-coherent machines is O(1)
//! — independent of the number of contending processes — for all three
//! priority disciplines. This crate implements all of them on real
//! `std::sync::atomic` primitives:
//!
//! | Type | Paper artifact | Discipline |
//! |---|---|---|
//! | [`swmr::SwmrWriterPriority`] | Figure 1, Theorem 1 | single writer, writer priority + starvation freedom |
//! | [`swmr::SwmrReaderPriority`] | Figure 2, Theorem 2 | single writer, reader priority |
//! | [`mwmr::MwmrStarvationFree`] | Figure 3 ∘ Figure 1, Theorem 3 | multi writer, no priority, nobody starves |
//! | [`mwmr::MwmrReaderPriority`] | Figure 3 ∘ Figure 2, Theorem 4 | multi writer, reader priority |
//! | [`mwmr::MwmrWriterPriority`] | Figure 4, Theorem 5 | multi writer, writer priority |
//!
//! Every lock implements [`raw::RawRwLock`] and plugs into the unified
//! RAII front end [`rwlock::RwLock`], which works like `std::sync::RwLock`
//! — no registration ceremony; pids are leased per thread behind the
//! scenes:
//!
//! ```
//! use rmr_core::RwLock;
//!
//! let lock = RwLock::writer_priority(vec![0u8; 4], 16);
//! lock.write().push(9);
//! assert_eq!(lock.read().len(), 5);
//! ```
//!
//! Where the algorithm admits a bounded attempt, the non-blocking tier is
//! available too ([`raw::RawTryReadLock`] / [`raw::RawTryRwLock`]):
//!
//! ```
//! use rmr_core::RwLock;
//!
//! let lock = RwLock::starvation_free(0u32, 4);
//! let g = lock.try_read().expect("no writer active");
//! assert_eq!(*g, 0);
//! ```
//!
//! # Verification
//!
//! The sibling crate `rmr-sim` re-encodes every algorithm at the paper's
//! line-level atomicity and model-checks the claimed properties (P1–P7,
//! RP1/RP2, WP1/WP2, plus the Appendix A invariants) exhaustively for small
//! configurations, and measures RMR counts under the paper's CC and DSM
//! cost models. The `rmr-check` crate goes one step further and
//! model-checks the *implementations in this crate* directly: instantiated
//! over the [`mem::Sched`](rmr_mutex::sched::Sched) backend, every lock
//! here runs under a deterministic scheduler through PCT-style randomized
//! and bounded-exhaustive schedule exploration, with exclusion, deadlock
//! and quiescence oracles (the `is_quiescent` entry points below). See
//! DESIGN.md §9 and EXPERIMENTS.md E14 at the workspace root.
//!
//! # Memory ordering
//!
//! The paper assumes sequential consistency; every atomic here uses
//! `SeqCst`. See `rmr-mutex`'s crate docs for the rationale.
//!
//! # Memory backends
//!
//! Every lock is generic over a memory backend (re-exported here as
//! [`mem`]), defaulted to [`mem::Native`] so the API above is what you see.
//! Instantiating a lock with [`mem::Counting`] (via the `new_in`
//! constructors) runs the *identical* algorithm code with every shared
//! access tallied under the paper's CC and DSM cost models. The `Sched`
//! backend charges the same tallies under a deterministic scheduler, and
//! experiment E13 (`real_rmr_table` in `rmr-bench`) runs it to verify the
//! O(1) claim on these real implementations, not just on `rmr-sim`'s
//! line-level models.
//!
//! # Composing locks
//!
//! Everything above is stated against [`raw::RawRwLock`], so capability-
//! preserving wrappers compose with the whole stack. The `rmr-bravo`
//! crate layers a BRAVO-style reader-biased fast path over any of these
//! locks (`Bravo<L>`), and plugs into [`RwLock`], the RMR accounting and
//! the `rmr-check` schedule explorer unchanged. [`observed::Observed`]
//! does the same for observability: it reports every passage of any raw
//! lock to an `rmr-obs` recorder. It is the only place the passage hooks
//! are written: the typed front end holds its raw lock as an
//! `Observed<L, R>` ([`RwLock::with_recorder`] picks the recorder).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod mwmr;
pub mod observed;
pub mod packed;
pub mod raw;
pub mod registry;
pub mod rwlock;
mod side;
pub mod swmr;
pub mod swmr_rwlock;

pub use rmr_mutex::mem;

pub use observed::Observed;
pub use raw::{RawMultiWriter, RawRwLock, RawTryReadLock, RawTryRwLock};
pub use registry::{Pid, PidRegistry, RegistryFull};
pub use rwlock::{
    lease_pid, release_pid, LockHandle, PidSource, ReadGuard, ReaderPriorityRwLock, RwLock,
    StarvationFreeRwLock, WriteGuard, WriterPriorityRwLock,
};
pub use side::{AtomicSide, Side};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<swmr::SwmrWriterPriority>();
        assert_send_sync::<swmr::SwmrReaderPriority>();
        assert_send_sync::<mwmr::MwmrStarvationFree>();
        assert_send_sync::<mwmr::MwmrReaderPriority>();
        assert_send_sync::<mwmr::MwmrWriterPriority>();
        assert_send_sync::<RwLock<Vec<u8>, mwmr::MwmrStarvationFree>>();
    }
}
