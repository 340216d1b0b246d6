//! Busy-wait helper used by every spin loop in the workspace.
//!
//! Every `wait till <shared variable>` statement in the lock
//! implementations goes through [`spin_until`]/[`SpinWait`], which makes
//! this module the single seam at which all futile-spin points surface:
//! a wait relaxes the CPU for its first 64 futile iterations and then
//! yields, and [`thread_spin_tally`] counts those iterations for the
//! observability tiers.

use std::cell::Cell;
use std::fmt;

/// How many pure `spin_loop` hints to issue before starting to yield to the
/// scheduler. Low enough that single-core hosts (like CI machines) make
/// progress quickly, high enough that multi-core hosts rarely yield.
const SPINS_BEFORE_YIELD: u32 = 64;

thread_local! {
    /// Futile spin iterations this thread has ever burned — the
    /// observability seam: an instrumented acquire samples this before
    /// and after, and the delta is its spin count (zero ⇒ uncontended).
    /// Bumped only on the futile path, so the uncontended fast path
    /// (which never spins) is untouched.
    static SPIN_TALLY: Cell<u64> = const { Cell::new(0) };
}

/// Total futile spin iterations performed by the calling thread (every
/// [`SpinWait::spin`] step, hence every futile pass of a `wait till`
/// loop). Monotone per thread; sample before and after an acquisition
/// and subtract. Used by `rmr-obs`-instrumented tiers to classify
/// contended vs. uncontended passages and to tally spin counts.
#[inline]
pub fn thread_spin_tally() -> u64 {
    SPIN_TALLY.try_with(Cell::get).unwrap_or(0)
}

/// An adaptive busy-wait: spins with CPU relax hints first, then yields the
/// thread so the algorithms remain live on machines with fewer cores than
/// contending threads.
///
/// The RMR-complexity claims of the paper concern the number of *remote
/// memory references*, not the number of loop iterations; local re-reads of
/// a cached spin variable are free in the CC model. `SpinWait` only controls
/// how those free local iterations are spent.
///
/// # Example
///
/// ```
/// use rmr_mutex::SpinWait;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true);
/// let mut spin = SpinWait::new();
/// while !flag.load(Ordering::SeqCst) {
///     spin.spin();
/// }
/// ```
#[derive(Default)]
pub struct SpinWait {
    count: u32,
}

impl SpinWait {
    /// Creates a fresh backoff state.
    pub fn new() -> Self {
        Self { count: 0 }
    }

    /// Performs one wait step: a CPU relax hint early on and a scheduler
    /// yield once the loop has been running for a while.
    pub fn spin(&mut self) {
        let _ = SPIN_TALLY.try_with(|t| t.set(t.get() + 1));
        if self.count < SPINS_BEFORE_YIELD {
            self.count += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Resets the state so the next wait starts with relax hints again.
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Number of wait steps taken since construction or the last reset.
    pub fn count(&self) -> u32 {
        self.count
    }
}

impl fmt::Debug for SpinWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpinWait").field("count", &self.count).finish()
    }
}

/// Spins until `cond` returns true, yielding as needed.
///
/// Shorthand used throughout the lock implementations for the paper's
/// `wait till <shared variable>` statements.
///
/// # Example
///
/// ```
/// let mut n = 0;
/// rmr_mutex::spin_until(|| { n += 1; n == 3 });
/// assert_eq!(n, 3);
/// ```
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut spin = SpinWait::new();
    while !cond() {
        spin.spin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_counts_then_saturates_into_yields() {
        let mut s = SpinWait::new();
        for _ in 0..SPINS_BEFORE_YIELD {
            s.spin();
        }
        assert_eq!(s.count(), SPINS_BEFORE_YIELD);
        // Further spins yield; the counter stays put rather than overflowing.
        s.spin();
        assert_eq!(s.count(), SPINS_BEFORE_YIELD);
    }

    #[test]
    fn reset_restarts_the_hint_phase() {
        let mut s = SpinWait::new();
        s.spin();
        s.spin();
        assert_eq!(s.count(), 2);
        s.reset();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn spin_until_observes_condition() {
        let mut n = 0;
        spin_until(|| {
            n += 1;
            n == 10
        });
        assert_eq!(n, 10);
    }

    #[test]
    fn spin_tally_counts_every_futile_iteration() {
        let before = thread_spin_tally();
        let mut s = SpinWait::new();
        s.spin();
        s.spin();
        assert_eq!(thread_spin_tally() - before, 2);
        let before = thread_spin_tally();
        let mut n = 0;
        spin_until(|| {
            n += 1;
            n == 4 // three futile iterations
        });
        assert_eq!(thread_spin_tally() - before, 3);
    }
}
