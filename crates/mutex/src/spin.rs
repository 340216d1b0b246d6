//! Busy-wait helper used by every spin loop in the workspace — and the
//! *park-point hook* that lets a caller observe (or soften) those loops.
//!
//! Every `wait till <shared variable>` statement in the lock
//! implementations goes through [`spin_until`]/[`SpinWait`], which makes
//! this module the single seam at which all futile-spin points surface.
//! [`with_park_hint`] exploits that: while a hint is installed on the
//! calling thread, every futile iteration invokes the hint instead of the
//! default relax/yield policy. `rmr-async` uses it so a *blocking* writer
//! acquisition running near an executor (the deprecated `write_blocking`,
//! still the writer endpoint for raw locks without a `RawParkedWaiters`
//! doorway) yields its core from the first futile iteration rather than
//! burning 64 hot spins per round.

use std::cell::Cell;
use std::fmt;

/// How many pure `spin_loop` hints to issue before starting to yield to the
/// scheduler. Low enough that single-core hosts (like CI machines) make
/// progress quickly, high enough that multi-core hosts rarely yield.
const SPINS_BEFORE_YIELD: u32 = 64;

thread_local! {
    /// The calling thread's installed park hint, if any. A plain `fn`
    /// pointer (not a closure) keeps the cell `Copy` and the per-futile-
    /// iteration check to one thread-local load.
    static PARK_HINT: Cell<Option<fn()>> = const { Cell::new(None) };

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

/// Runs `f` with `hint` installed as the calling thread's park hint:
/// every futile spin iteration inside `f` (any [`SpinWait::spin`], hence
/// any [`spin_until`] and every core lock's `wait till` loop) calls
/// `hint()` instead of the default relax-then-yield policy. The previous
/// hint is restored on exit, including on unwind — hints nest.
///
/// # Example
///
/// ```
/// use rmr_mutex::spin::{spin_until, with_park_hint};
///
/// let mut polls = 0;
/// with_park_hint(std::thread::yield_now, || {
///     spin_until(|| {
///         polls += 1;
///         polls == 3 // two futile iterations, each yielding immediately
///     });
/// });
/// assert_eq!(polls, 3);
/// ```
pub fn with_park_hint<R>(hint: fn(), f: impl FnOnce() -> R) -> R {
    struct Restore(Option<fn()>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            let _ = PARK_HINT.try_with(|h| h.set(prev));
        }
    }
    let prev = PARK_HINT.with(|h| h.replace(Some(hint)));
    let _restore = Restore(prev);
    f()
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

    /// Performs one wait step: the thread's installed
    /// [park hint](with_park_hint) if there is one, else a CPU relax hint
    /// early on and a scheduler yield once the loop has been running for a
    /// while. (`try_with`: during thread teardown the hint cell may be
    /// gone; fall back to the default policy rather than panic.)
    pub fn spin(&mut self) {
        let _ = SPIN_TALLY.try_with(|t| t.set(t.get() + 1));
        if let Some(hint) = PARK_HINT.try_with(Cell::get).ok().flatten() {
            hint();
        } else if self.count < SPINS_BEFORE_YIELD {
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
    fn park_hint_replaces_the_wait_policy() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static HINTS: AtomicU32 = AtomicU32::new(0);
        fn count_hint() {
            HINTS.fetch_add(1, Ordering::SeqCst);
        }
        HINTS.store(0, Ordering::SeqCst);
        let mut s = SpinWait::new();
        with_park_hint(count_hint, || {
            s.spin();
            s.spin();
        });
        assert_eq!(HINTS.load(Ordering::SeqCst), 2);
        assert_eq!(s.count(), 0, "hinted waits must not consume the relax-phase budget");
        // Restored: spins count again outside the scope.
        s.spin();
        assert_eq!(s.count(), 1);
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

    #[test]
    fn park_hints_nest_and_restore() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static OUTER: AtomicU32 = AtomicU32::new(0);
        static INNER: AtomicU32 = AtomicU32::new(0);
        fn outer_hint() {
            OUTER.fetch_add(1, Ordering::SeqCst);
        }
        fn inner_hint() {
            INNER.fetch_add(1, Ordering::SeqCst);
        }
        OUTER.store(0, Ordering::SeqCst);
        INNER.store(0, Ordering::SeqCst);
        let mut s = SpinWait::new();
        with_park_hint(outer_hint, || {
            s.spin();
            with_park_hint(inner_hint, || s.spin());
            s.spin(); // outer hint restored
        });
        assert_eq!((OUTER.load(Ordering::SeqCst), INNER.load(Ordering::SeqCst)), (2, 1));
    }
}
