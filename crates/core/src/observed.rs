//! [`Observed`] — a capability-preserving raw-lock wrapper that reports
//! every passage to an [`rmr_obs::Recorder`].
//!
//! This is the workspace's one implementation of the passage hooks. The
//! typed [`RwLock<T, L, R>`](crate::RwLock) holds its raw lock as an
//! `Observed<L, R>` and has no hooks of its own, and code at the *raw*
//! tier (benchmark probes, compositions like `Observed<Bravo<…>>`) wraps
//! a lock by hand. Wrap any [`RawRwLock`] and every acquire,
//! release and bounded attempt is counted and classified
//! contended-vs-uncontended, and the acquisitions the recorder chooses to
//! time ([`Recorder::stamp`]: 1 in [`rmr_obs::SAMPLE_PERIOD`] per pid for
//! a `StatsRecorder`) are latency-histogrammed — while the
//! wrapper forwards each optional capability exactly like `rmr-bravo`'s
//! reference wrapper ([`RawTryReadLock`] where the inner lock has it,
//! [`RawMultiWriter`] **only** where the inner lock is one, so the typed
//! front end's `&mut T` safety gating survives the wrap).
//!
//! # Why the hooks preserve the paper's cost claims
//!
//! With the default [`NoopRecorder`](rmr_obs::NoopRecorder) every hook
//! is behind `if R::ENABLED { … }` with `ENABLED = false`: the branch
//! const-folds and the wrapper monomorphizes to plain forwarding — the
//! test `noop_recorder_footprint_is_identical_op_for_op` below proves the
//! `Counting` tally is identical op for op. With a live
//! [`StatsRecorder`](rmr_obs::StatsRecorder), each hook counts on the
//! calling pid's own cache-padded slot: a `Relaxed` load and store by
//! the slot's owner thread, a `Relaxed` `fetch_add` by any other. These
//! are local-slot operations, free under the CC cost model and invisible
//! to the `Counting` backend (the recorder deliberately uses plain `std`
//! atomics, never `B`-typed ones) — so an instrumented passage still
//! performs O(1) RMRs, and an instrumented Bravo fast read still
//! performs zero inner-lock operations. Only 1 passage in
//! `rmr_obs::SAMPLE_PERIOD` per pid also reads the clock.
//!
//! The passage methods are `#[inline]`, and the rare contended or timed
//! work is the cold `acquire_end_tail`, so the typed read keeps its
//! two-call shape (DESIGN.md §3).
//!
//! Contention is classified through the spin seam
//! ([`rmr_mutex::spin::thread_spin_tally`]): an acquisition that burned
//! at least one futile spin iteration is contended. The bounded try
//! tier gives the second contention signal ([`Event::TryReadFail`] /
//! [`Event::TryWriteFail`] rates).

use crate::raw::{RawMultiWriter, RawRwLock, RawTryReadLock, RawTryRwLock};
use crate::registry::Pid;
use rmr_mutex::spin;
use rmr_obs::{Event, Metric, Recorder};
use std::fmt;

/// Begin-of-acquisition sample: the recorder's start stamp (`None` on a
/// passage the recorder counts but does not time) + this thread's spin
/// tally. Only taken when `R::ENABLED`.
struct AcquireSample {
    t0: Option<u64>,
    spins0: u64,
}

fn acquire_event(write: bool) -> Event {
    if write {
        Event::WriteAcquire
    } else {
        Event::ReadAcquire
    }
}

/// Stamps (if the recorder samples this passage) and reads the spin
/// tally before a blocking acquisition.
#[inline]
fn acquire_begin<R: Recorder>(rec: &R, pid: usize, write: bool) -> AcquireSample {
    AcquireSample { t0: rec.stamp(pid, acquire_event(write)), spins0: spin::thread_spin_tally() }
}

/// Records one completed blocking acquisition: the acquire event, the
/// contended classification + spin count (when any iteration was
/// futile), and — on a timed passage — the latency sample.
#[inline]
fn acquire_end<R: Recorder>(rec: &R, pid: usize, write: bool, s: AcquireSample) {
    let spun = spin::thread_spin_tally().saturating_sub(s.spins0);
    rec.count(pid, acquire_event(write));
    if spun > 0 || s.t0.is_some() {
        acquire_end_tail(rec, pid, write, spun, s.t0);
    }
}

/// [`acquire_end`]'s rare work: a contended or timed passage.
#[cold]
#[inline(never)]
fn acquire_end_tail<R: Recorder>(rec: &R, pid: usize, write: bool, spun: u64, t0: Option<u64>) {
    if spun > 0 {
        rec.count(pid, if write { Event::WriteContended } else { Event::ReadContended });
        rec.add(pid, Event::SpinSteps, spun);
    }
    if let Some(t0) = t0 {
        let metric = if write { Metric::WriteAcquireNs } else { Metric::ReadAcquireNs };
        rec.record(pid, metric, rec.now().saturating_sub(t0));
    }
}

/// Any raw lock, with every passage reported to a [`Recorder`].
///
/// # Example
///
/// ```
/// use rmr_core::mwmr::MwmrStarvationFree;
/// use rmr_core::{Observed, RwLock};
/// use rmr_obs::{Event, StatsRecorder};
/// use std::sync::Arc;
///
/// let rec = Arc::new(StatsRecorder::new(4));
/// let lock = RwLock::with_raw((), Observed::new(MwmrStarvationFree::new(4), Arc::clone(&rec)));
/// drop(lock.read());
/// assert_eq!(rec.counter(Event::ReadAcquire), 1);
/// assert_eq!(rec.counter(Event::ReadRelease), 1);
/// ```
pub struct Observed<L, R> {
    inner: L,
    recorder: R,
}

impl<L: RawRwLock, R: Recorder> Observed<L, R> {
    /// Wraps `inner`, reporting every passage to `recorder` (commonly an
    /// `Arc<StatsRecorder>` so the caller keeps a reading handle).
    pub fn new(inner: L, recorder: R) -> Self {
        Self { inner, recorder }
    }

    /// The wrapped lock.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The recorder passages are reported to.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Unwraps into the inner lock and the recorder.
    pub fn into_parts(self) -> (L, R) {
        (self.inner, self.recorder)
    }
}

impl<L: RawRwLock, R: Recorder> RawRwLock for Observed<L, R> {
    type ReadToken = L::ReadToken;
    type WriteToken = L::WriteToken;

    #[inline]
    fn read_lock(&self, pid: Pid) -> Self::ReadToken {
        if R::ENABLED {
            let s = acquire_begin(&self.recorder, pid.index(), false);
            let token = self.inner.read_lock(pid);
            acquire_end(&self.recorder, pid.index(), false, s);
            token
        } else {
            self.inner.read_lock(pid)
        }
    }

    #[inline]
    fn read_unlock(&self, pid: Pid, token: Self::ReadToken) {
        self.inner.read_unlock(pid, token);
        if R::ENABLED {
            self.recorder.count(pid.index(), Event::ReadRelease);
        }
    }

    #[inline]
    fn write_lock(&self, pid: Pid) -> Self::WriteToken {
        if R::ENABLED {
            let s = acquire_begin(&self.recorder, pid.index(), true);
            let token = self.inner.write_lock(pid);
            acquire_end(&self.recorder, pid.index(), true, s);
            token
        } else {
            self.inner.write_lock(pid)
        }
    }

    #[inline]
    fn write_unlock(&self, pid: Pid, token: Self::WriteToken) {
        self.inner.write_unlock(pid, token);
        if R::ENABLED {
            self.recorder.count(pid.index(), Event::WriteRelease);
        }
    }

    fn max_processes(&self) -> usize {
        self.inner.max_processes()
    }
}

impl<L: RawTryReadLock, R: Recorder> RawTryReadLock for Observed<L, R> {
    #[inline]
    fn try_read_lock(&self, pid: Pid) -> Option<Self::ReadToken> {
        let token = self.inner.try_read_lock(pid);
        if R::ENABLED {
            let ev = if token.is_some() { Event::TryReadOk } else { Event::TryReadFail };
            self.recorder.count(pid.index(), ev);
        }
        token
    }
}

impl<L: RawTryRwLock, R: Recorder> RawTryRwLock for Observed<L, R> {
    #[inline]
    fn try_write_lock(&self, pid: Pid) -> Option<Self::WriteToken> {
        let token = self.inner.try_write_lock(pid);
        if R::ENABLED {
            let ev = if token.is_some() { Event::TryWriteOk } else { Event::TryWriteFail };
            self.recorder.count(pid.index(), ev);
        }
        token
    }
}

// SAFETY: pure forwarding — writer-writer exclusion is exactly the inner
// lock's, and the marker is only claimed where the inner lock claims it.
unsafe impl<L: RawMultiWriter, R: Recorder> RawMultiWriter for Observed<L, R> {}

// SAFETY: pure forwarding — a granted poll carries exactly the inner
// doorway's exclusion, and the queued/advisory classification is inherited.
unsafe impl<L: crate::raw::RawParkedWaiters, R: Recorder> crate::raw::RawParkedWaiters
    for Observed<L, R>
{
    const QUEUED: bool = L::QUEUED;
    type WriteDoorway = L::WriteDoorway;

    fn start_write(&self, pid: Pid) -> Self::WriteDoorway {
        self.inner.start_write(pid)
    }

    fn poll_write(
        &self,
        pid: Pid,
        doorway: Self::WriteDoorway,
    ) -> Result<Self::WriteToken, Self::WriteDoorway> {
        let result = self.inner.poll_write(pid, doorway);
        if R::ENABLED && result.is_ok() {
            self.recorder.count(pid.index(), Event::WriteAcquire);
        }
        result
    }

    fn cancel_write(&self, pid: Pid, doorway: Self::WriteDoorway) {
        self.inner.cancel_write(pid, doorway);
    }
}

impl<L, R> fmt::Debug for Observed<L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observed").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmr::MwmrStarvationFree;
    use crate::RwLock;
    use rmr_mutex::mem::{self, Backend, Counting, Ordering, SharedWord};
    use rmr_obs::{NoopRecorder, StatsRecorder};
    use std::sync::Arc;

    /// A disabled recorder whose every hook touches `Counting` memory: a
    /// hook that escapes its `if R::ENABLED` guard shows up in the tally.
    struct Tripwire(<Counting as Backend>::Word);

    impl Tripwire {
        fn new() -> Self {
            Self(SharedWord::new(0))
        }
    }

    impl Recorder for Tripwire {
        const ENABLED: bool = false;

        fn now(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }

        fn stamp(&self, _pid: usize, _event: Event) -> Option<u64> {
            Some(self.0.load(Ordering::Relaxed))
        }

        fn add(&self, _pid: usize, _event: Event, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        fn record(&self, _pid: usize, _metric: Metric, value: u64) {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// The `Counting` tally of `n` rounds of `passage`, after one warm-up
    /// round (compulsory first-touch misses are not part of the claim).
    fn footprint(n: u32, mut passage: impl FnMut()) -> mem::Tally {
        mem::set_thread_slot(1);
        passage();
        mem::reset_thread_tally();
        for _ in 0..n {
            passage();
        }
        mem::thread_tally()
    }

    /// One read, one try-read and one write passage with pid 0.
    fn raw_round<L: RawTryReadLock>(lock: &L) {
        let me = Pid::from_index(0);
        let t = lock.read_lock(me);
        lock.read_unlock(me, t);
        let t = lock.try_read_lock(me).expect("uncontended");
        lock.read_unlock(me, t);
        let t = lock.write_lock(me);
        lock.write_unlock(me, t);
    }

    #[test]
    fn noop_recorder_footprint_is_identical_op_for_op() {
        const N: u32 = 100;
        let bare = MwmrStarvationFree::new_in(4, Counting);
        let want = footprint(N, || raw_round(&bare));
        assert!(want.ops > 0, "the bare passages execute shared ops");

        let noop = Observed::new(MwmrStarvationFree::new_in(4, Counting), NoopRecorder);
        assert_eq!(footprint(N, || raw_round(&noop)), want, "Observed<_, NoopRecorder>");
        let trip = Observed::new(MwmrStarvationFree::new_in(4, Counting), Tripwire::new());
        assert_eq!(footprint(N, || raw_round(&trip)), want, "an Observed hook escaped R::ENABLED");

        // The typed front end's own seam (`RwLock`'s `R`), leased pids
        // included: the lease table is plain std memory, so a disabled
        // recorder leaves exactly the raw lock's footprint.
        let typed = RwLock::with_raw(0u64, MwmrStarvationFree::new_in(4, Counting))
            .with_recorder(Tripwire::new());
        let typed_round = || {
            drop(typed.read());
            drop(typed.try_read().expect("uncontended"));
            *typed.write() += 1;
        };
        assert_eq!(footprint(N, typed_round), want, "an RwLock hook escaped R::ENABLED");
    }

    #[test]
    fn counts_acquires_releases_and_try_attempts() {
        let rec = Arc::new(StatsRecorder::new(4));
        let lock = Observed::new(MwmrStarvationFree::new(4), Arc::clone(&rec));
        let me = Pid::from_index(0);

        let t = lock.read_lock(me);
        lock.read_unlock(me, t);
        let t = lock.write_lock(me);
        lock.write_unlock(me, t);
        let t = lock.try_read_lock(me).expect("uncontended");
        lock.read_unlock(me, t);

        assert_eq!(rec.counter(Event::ReadAcquire), 1);
        assert_eq!(rec.counter(Event::ReadRelease), 2);
        assert_eq!(rec.counter(Event::WriteAcquire), 1);
        assert_eq!(rec.counter(Event::WriteRelease), 1);
        assert_eq!(rec.counter(Event::TryReadOk), 1);
        assert_eq!(rec.samples(Metric::ReadAcquireNs), 1);
        assert_eq!(rec.samples(Metric::WriteAcquireNs), 1);
    }

    #[test]
    fn contended_write_is_classified_and_spin_counted() {
        let rec = Arc::new(StatsRecorder::new(4));
        let lock = Arc::new(Observed::new(MwmrStarvationFree::new(4), Arc::clone(&rec)));
        let reader = Pid::from_index(0);
        let t = lock.read_lock(reader);
        let l2 = Arc::clone(&lock);
        let writer = std::thread::spawn(move || {
            let w = Pid::from_index(1);
            let t = l2.write_lock(w); // must spin behind the held read
            l2.write_unlock(w, t);
        });
        // SpinSteps is recorded only once the acquisition completes, so
        // hold the read long enough for the writer to demonstrably spin,
        // then release and let it finish.
        std::thread::sleep(std::time::Duration::from_millis(50));
        lock.read_unlock(reader, t);
        writer.join().unwrap();
        assert_eq!(rec.counter(Event::WriteContended), 1);
        assert!(rec.counter(Event::SpinSteps) > 0);
    }

    #[test]
    fn noop_observed_forwards_transparently() {
        let lock = Observed::new(MwmrStarvationFree::new(2), NoopRecorder);
        let me = Pid::from_index(0);
        let t = lock.read_lock(me);
        lock.read_unlock(me, t);
        let t = lock.try_read_lock(me).expect("uncontended");
        lock.read_unlock(me, t);
        assert_eq!(lock.max_processes(), 2);
    }
}
