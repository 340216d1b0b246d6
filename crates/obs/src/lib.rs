//! Zero-cost-when-off observability for the whole lock stack.
//!
//! The paper's claim is a *cost* claim (O(1) RMRs per passage), and the
//! `Counting` backend proves it offline — but nothing in the stack could
//! tell you what a *live* lock is doing: contention rates, passage
//! latency tails, Bravo revocation frequency, swap retire-queue depth,
//! async park/wake latency. This crate is that instrumentation layer,
//! built so that **not using it costs nothing**:
//!
//! * [`Recorder`] — the hook trait every tier is generic over, with an
//!   associated `const ENABLED: bool`. Every hook site in the lock crates
//!   is guarded by `if R::ENABLED { … }`, so with the default
//!   [`NoopRecorder`] (`ENABLED = false`) the branch and everything
//!   behind it const-folds away and the instrumented code monomorphizes
//!   to exactly the uninstrumented code. The acceptance test proves this
//!   on the `Counting` backend: a `NoopRecorder`-instrumented passage
//!   tallies the same shared-memory operations, op for op, as the bare
//!   lock (`rmr-core`'s
//!   `observed::tests::noop_recorder_footprint_is_identical_op_for_op`).
//! * [`StatsRecorder`] — the real recorder: cache-padded per-pid slots
//!   of event counters ([`Event`]) and log-bucketed HDR-style latency
//!   histograms ([`Metric`], [`hist::Histogram`]), plus an optional
//!   bounded lock-free event ring ([`ring::EventRing`]) that replays as
//!   Chrome `trace_event` JSON. A counted event is a `Relaxed` load and
//!   store by the slot's owner thread, with no lock prefix, or a
//!   `Relaxed` `fetch_add` by any other thread ([`StatsRecorder`] says
//!   which is which), on this pid's own cache-padded slot —
//!   **deliberately plain `std` atomics, not memory-backend-typed**, so
//!   instrumentation never pollutes `Counting` RMR tallies and never
//!   perturbs `Sched` schedules. That locality argument is also why the
//!   hooks preserve the paper's properties: a steady-state Bravo fast
//!   read with a `StatsRecorder` attached still performs zero inner-lock
//!   operations and zero CC RMRs (the recorder slot is this pid's own
//!   line; re-reads and writes of it are local in the CC model).
//! * **Sampled timing** — every passage is *counted*, but acquisition
//!   latency is *timed* only on 1 passage in [`SAMPLE_PERIOD`] per pid
//!   and event ([`Recorder::stamp`]): a clock read costs more than the
//!   rest of an uncontended passage. The choice keys off the pid's own
//!   counter, so the first passage of each kind is always timed and,
//!   under `Sched` with a [`TickClock`], which passages are timed is a
//!   pure function of the schedule — traces still replay. The
//!   `*AcquireNs` histograms therefore hold timed samples, not one
//!   sample per passage ([`StatsRecorder::samples`]).
//! * [`Clock`] — time as a capability: real monotonic nanoseconds under
//!   `Native` ([`MonoClock`]), deterministic virtual time under `Sched`
//!   ([`TickClock`]), so recorded traces are replayable and the
//!   `rmr-check` batteries can assert on event *sequences* (e.g. "every
//!   park is followed by a grant or a cancel"), not just end states.
//!
//! # Example
//!
//! ```
//! use rmr_obs::{Event, Metric, Recorder, StatsRecorder};
//!
//! let rec = StatsRecorder::new(4);
//! rec.count(0, Event::ReadAcquire);
//! rec.record(0, Metric::ReadAcquireNs, 120);
//! rec.record(1, Metric::ReadAcquireNs, 90_000);
//! assert_eq!(rec.counter(Event::ReadAcquire), 1);
//! assert!(rec.quantile(Metric::ReadAcquireNs, 0.99) >= 90_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod hist;
pub mod ring;

pub use clock::{Clock, MonoClock, TickClock};
pub use hist::Histogram;
pub use ring::{EventRing, TraceEvent};

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! event_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Number of variants.
            pub const COUNT: usize = [$($name::$variant),*].len();
            /// Every variant, in declaration (= discriminant) order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),*];

            /// Stable snake-case label (used in tables and traces).
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }
        }
    };
}

event_enum! {
    /// A counted occurrence. Which tier emits which event is documented
    /// per variant; the `User*` events are for applications that reuse
    /// the recorder for their own tallies (the workspace examples do).
    Event {
        /// Guard tier: a blocking read acquisition completed.
        ReadAcquire => "read_acquire",
        /// Guard tier: a read guard was released.
        ReadRelease => "read_release",
        /// Guard tier: a blocking write acquisition completed.
        WriteAcquire => "write_acquire",
        /// Guard tier: a write guard was released.
        WriteRelease => "write_release",
        /// Guard tier: a read acquisition spun at least once.
        ReadContended => "read_contended",
        /// Guard tier: a write acquisition spun at least once.
        WriteContended => "write_contended",
        /// Try tier: a bounded read attempt succeeded.
        TryReadOk => "try_read_ok",
        /// Try tier: a bounded read attempt was denied (contention signal).
        TryReadFail => "try_read_fail",
        /// Try tier: a bounded write attempt succeeded.
        TryWriteOk => "try_write_ok",
        /// Try tier: a bounded write attempt was denied.
        TryWriteFail => "try_write_fail",
        /// Spin tier: futile spin iterations burned while acquiring.
        SpinSteps => "spin_steps",
        /// Bravo: a read took the biased zero-inner-op fast path.
        BravoFastRead => "bravo_fast_read",
        /// Bravo: a read fell through to the inner lock.
        BravoSlowRead => "bravo_slow_read",
        /// Bravo: a writer revoked the read bias.
        BravoRevoke => "bravo_revoke",
        /// Bravo: the slow-read policy re-enabled the bias.
        BravoRebias => "bravo_rebias",
        /// Swap: a wait-free snapshot load.
        SnapLoad => "snap_load",
        /// Swap: a new payload version was installed.
        SnapInstall => "snap_install",
        /// Async: a future parked its waker (returned `Pending`).
        AsyncPark => "async_park",
        /// Async: wake-ups delivered by a release path.
        AsyncWake => "async_wake",
        /// Async: a pending acquisition future was dropped (cancelled).
        AsyncCancel => "async_cancel",
        /// Application-level: a cache/table hit (examples).
        UserHit => "user_hit",
        /// Application-level: a cache/table miss (examples).
        UserMiss => "user_miss",
        /// Application-level: a write/put operation (examples).
        UserPut => "user_put",
    }
}

event_enum! {
    /// A histogrammed value. `*Ns` metrics are durations in [`Clock`]
    /// units (nanoseconds under [`MonoClock`], virtual ticks under
    /// [`TickClock`]); `RetireDepth` is a plain magnitude.
    Metric {
        /// Guard tier: blocking read acquisition latency.
        ReadAcquireNs => "read_acquire_ns",
        /// Guard tier: blocking write acquisition latency.
        WriteAcquireNs => "write_acquire_ns",
        /// Swap: duration of the eager grace scan after an install.
        GraceScanNs => "grace_scan_ns",
        /// Async: latency from the waking release to the granted poll.
        WakeToGrantNs => "wake_to_grant_ns",
        /// Swap: retired-version queue depth observed at install time.
        RetireDepth => "retire_depth",
    }
}

/// One acquisition in this many, per pid and acquire event, is timed by
/// [`StatsRecorder`] (see [`Recorder::stamp`]). A power of two, so the
/// test is a mask.
pub const SAMPLE_PERIOD: u64 = 16;

/// The instrumentation hook every tier is generic over.
///
/// Implementations must be cheap and must never block: hook sites sit on
/// lock acquire/release paths (some inside the paper's O(1)-RMR passage
/// argument). [`StatsRecorder`] keeps every write local to the calling
/// pid's cache-padded slot for exactly that reason.
///
/// `ENABLED` is the zero-cost switch: hook sites compile to
/// `if R::ENABLED { … }`, which the no-op recorder const-folds away.
pub trait Recorder: Send + Sync {
    /// Whether this recorder observes anything at all. Hook sites guard
    /// every recording (including `now()` calls) with this constant.
    const ENABLED: bool;

    /// Current time in the recorder's clock units.
    fn now(&self) -> u64;

    /// The start stamp of an acquisition that will count `event` for
    /// `pid`: `Some(now())` if this passage is to be timed, `None` if it
    /// is only counted. Hook sites record the matching `*AcquireNs`
    /// sample only for `Some`.
    ///
    /// Deliberately required: a default of `Some(now())` would let a
    /// forwarding impl silently time every passage.
    fn stamp(&self, pid: usize, event: Event) -> Option<u64>;

    /// Adds `n` occurrences of `event` for `pid`.
    fn add(&self, pid: usize, event: Event, n: u64);

    /// Records one sample of `metric` for `pid`.
    fn record(&self, pid: usize, metric: Metric, value: u64);

    /// Counts one occurrence of `event` for `pid`.
    #[inline]
    fn count(&self, pid: usize, event: Event) {
        self.add(pid, event, 1);
    }
}

/// The default recorder: observes nothing, compiles to nothing.
///
/// `ENABLED = false` turns every `if R::ENABLED { … }` hook site into
/// dead code, so a `NoopRecorder`-instrumented lock monomorphizes to the
/// exact uninstrumented code path — proven op-for-op on the `Counting`
/// backend by `rmr-core`'s
/// `observed::tests::noop_recorder_footprint_is_identical_op_for_op`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn stamp(&self, _pid: usize, _event: Event) -> Option<u64> {
        None
    }

    #[inline(always)]
    fn add(&self, _pid: usize, _event: Event, _n: u64) {}

    #[inline(always)]
    fn record(&self, _pid: usize, _metric: Metric, _value: u64) {}
}

impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn now(&self) -> u64 {
        (**self).now()
    }

    #[inline]
    fn stamp(&self, pid: usize, event: Event) -> Option<u64> {
        (**self).stamp(pid, event)
    }

    #[inline]
    fn add(&self, pid: usize, event: Event, n: u64) {
        (**self).add(pid, event, n);
    }

    #[inline]
    fn record(&self, pid: usize, metric: Metric, value: u64) {
        (**self).record(pid, metric, value);
    }
}

impl<R: Recorder> Recorder for Arc<R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn now(&self) -> u64 {
        (**self).now()
    }

    #[inline]
    fn stamp(&self, pid: usize, event: Event) -> Option<u64> {
        (**self).stamp(pid, event)
    }

    #[inline]
    fn add(&self, pid: usize, event: Event, n: u64) {
        (**self).add(pid, event, n);
    }

    #[inline]
    fn record(&self, pid: usize, metric: Metric, value: u64) {
        (**self).record(pid, metric, value);
    }
}

/// Draws thread tokens: each thread takes one on its first count, and no
/// token is ever drawn twice, so a token names one thread for good.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's token; 0 until its first count.
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's token. `TOKEN` has no destructor, so on targets
/// with native thread-locals `try_with` never fails, even in another
/// thread-local's destructor; 0 is a fallback for targets where it can.
#[inline]
fn thread_token() -> u64 {
    TOKEN
        .try_with(|t| {
            if t.get() == 0 {
                t.set(NEXT_TOKEN.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
        .unwrap_or(0)
}

/// One pid's slot: event counters plus one histogram per metric, padded
/// to its own cache lines so recording never shares a line with another
/// pid (the zero-CC-RMR argument for instrumented steady-state reads).
///
/// `owner` holds the token of the first thread to count on this slot,
/// claimed once by CAS and never changed. Only that thread writes
/// `counters`, with a plain load and store; every other writer adds to
/// `shared` with `fetch_add`. A count is `counters[e] + shared[e]`.
#[repr(align(128))]
struct Slot {
    owner: AtomicU64,
    counters: [AtomicU64; Event::COUNT],
    shared: [AtomicU64; Event::COUNT],
    hists: [Histogram; Metric::COUNT],
}

impl Slot {
    fn new() -> Self {
        Self {
            owner: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            shared: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    #[inline]
    fn count(&self, event: Event) -> u64 {
        let e = event as usize;
        self.counters[e].load(Ordering::Relaxed) + self.shared[e].load(Ordering::Relaxed)
    }

    /// Whether the calling thread owns this slot, claiming it if nobody
    /// does yet. A thread without a token owns nothing.
    /// `Relaxed` suffices: the word publishes no other data, and only the
    /// thread holding its token can ever read it as its own.
    #[inline]
    fn owned_by_caller(&self) -> bool {
        let me = thread_token();
        if me == 0 {
            return false;
        }
        match self.owner.load(Ordering::Relaxed) {
            0 => self.owner.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed).is_ok(),
            owner => owner == me,
        }
    }
}

/// The real recorder: per-pid cache-padded counters and histograms, an
/// optional event-trace ring, and a pluggable [`Clock`].
///
/// All internal state is plain `std::sync::atomic` with `Relaxed`
/// orderings — never memory-backend-typed — so attaching a recorder
/// changes no `Counting` tally and no `Sched` schedule. Readers merge
/// per-pid histograms lock-free ([`Histogram::merge_into`]); concurrent
/// recording during a merge may be attributed to either side but is
/// never lost.
///
/// Counts are exact however threads map to pids. The first thread to
/// count on a pid's slot owns it and bumps its counters with a `Relaxed`
/// load and store, no lock prefix. Any other thread — one on a second
/// lock sharing this recorder, or one that leased the pid after its
/// owner exited — takes a `Relaxed` `fetch_add` on a separate per-slot
/// array, and reads sum the two. So the saving needs one long-lived
/// thread per pid per recorder; a thread on the shared path pays the old
/// `fetch_add` plus a thread-local read and a load of the owner word.
pub struct StatsRecorder<C: Clock = MonoClock> {
    clock: C,
    slots: Box<[Slot]>,
    ring: Option<EventRing>,
}

impl StatsRecorder<MonoClock> {
    /// A recorder for pids `0..capacity` over real monotonic time, with
    /// no event ring.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, MonoClock::default())
    }
}

impl<C: Clock> StatsRecorder<C> {
    /// A recorder for pids `0..capacity` over an explicit clock
    /// ([`TickClock`] makes traces deterministic under `Sched`).
    pub fn with_clock(capacity: usize, clock: C) -> Self {
        let slots = (0..capacity.max(1)).map(|_| Slot::new()).collect();
        Self { clock, slots, ring: None }
    }

    /// Attaches a bounded event-trace ring of (at least) `capacity`
    /// entries; every subsequent `add`/`record` also pushes a
    /// [`TraceEvent`]. When the ring is full the newest event is dropped
    /// and tallied ([`EventRing::dropped`]) — recording never blocks.
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.ring = Some(EventRing::new(capacity));
        self
    }

    fn slot(&self, pid: usize) -> &Slot {
        // Out-of-range pids fold onto a slot rather than panic: the
        // recorder is diagnostics, and a transient over-capacity pid
        // (nested guards) must not take the lock down.
        &self.slots[pid % self.slots.len()]
    }

    /// Total count of `event` across all pids.
    pub fn counter(&self, event: Event) -> u64 {
        self.slots.iter().map(|s| s.count(event)).sum()
    }

    /// Count of `event` recorded by `pid` alone.
    pub fn counter_for(&self, pid: usize, event: Event) -> u64 {
        self.slot(pid).count(event)
    }

    /// Merges every pid's histogram of `metric` into one (lock-free; see
    /// [`Histogram::merge_into`]).
    pub fn histogram(&self, metric: Metric) -> Histogram {
        let merged = Histogram::new();
        for slot in self.slots.iter() {
            slot.hists[metric as usize].merge_into(&merged);
        }
        merged
    }

    /// The `q`-quantile (0.0–1.0) of `metric` across all pids, as the
    /// upper bound of the log bucket holding that rank (0 if empty).
    pub fn quantile(&self, metric: Metric, q: f64) -> u64 {
        self.histogram(metric).quantile(q)
    }

    /// Total samples of `metric` across all pids. For the
    /// `*AcquireNs` metrics this counts *timed* passages — 1 in
    /// [`SAMPLE_PERIOD`] per pid ([`Recorder::stamp`]) — not passages;
    /// [`StatsRecorder::counter`] of the acquire event counts those.
    pub fn samples(&self, metric: Metric) -> u64 {
        self.histogram(metric).count()
    }

    /// The attached event ring, if any.
    pub fn ring(&self) -> Option<&EventRing> {
        self.ring.as_ref()
    }

    /// Drains the event ring into a chronological trace (empty if no
    /// ring is attached).
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.ring.as_ref().map(EventRing::drain).unwrap_or_default()
    }

    /// Drains the ring and renders it as Chrome `trace_event` JSON
    /// (load in `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        ring::chrome_trace(&self.drain_trace())
    }
}

impl<C: Clock> Recorder for StatsRecorder<C> {
    const ENABLED: bool = true;

    #[inline]
    fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Times the passage iff `pid`'s count of `event` so far is a
    /// multiple of [`SAMPLE_PERIOD`]: two `Relaxed` loads of the pid's own
    /// slot, and a clock read only on a timed passage.
    #[inline]
    fn stamp(&self, pid: usize, event: Event) -> Option<u64> {
        let seen = self.slot(pid).count(event);
        seen.is_multiple_of(SAMPLE_PERIOD).then(|| self.clock.now())
    }

    /// The slot's owner thread stores `counters[e] + n` (it is that
    /// cell's only writer ever); any other thread `fetch_add`s `shared[e]`.
    #[inline]
    fn add(&self, pid: usize, event: Event, n: u64) {
        let slot = self.slot(pid);
        let e = event as usize;
        if slot.owned_by_caller() {
            let c = &slot.counters[e];
            c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            slot.shared[e].fetch_add(n, Ordering::Relaxed);
        }
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent::event(self.clock.now(), pid, event, n));
        }
    }

    #[inline]
    fn record(&self, pid: usize, metric: Metric, value: u64) {
        self.slot(pid).hists[metric as usize].record(value);
        if let Some(ring) = &self.ring {
            ring.push(TraceEvent::metric(self.clock.now(), pid, metric, value));
        }
    }
}

impl<C: Clock> fmt::Debug for StatsRecorder<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatsRecorder")
            .field("capacity", &self.slots.len())
            .field("ring", &self.ring.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything counted through the shared `fetch_add` path, over all
    /// pids and events.
    fn shared_total<C: Clock>(rec: &StatsRecorder<C>) -> u64 {
        rec.slots.iter().flat_map(|s| &s.shared).map(|c| c.load(Ordering::Relaxed)).sum()
    }

    #[test]
    fn noop_recorder_is_inert() {
        const { assert!(!NoopRecorder::ENABLED) };
        let r = NoopRecorder;
        r.count(0, Event::ReadAcquire);
        r.record(0, Metric::ReadAcquireNs, 5);
        assert_eq!(r.now(), 0);
        assert_eq!(r.stamp(0, Event::ReadAcquire), None);
    }

    #[test]
    fn stamp_times_one_passage_in_sample_period_per_pid_and_event() {
        let rec = StatsRecorder::with_clock(2, TickClock::new());
        let mut timed = 0;
        for _ in 0..3 * SAMPLE_PERIOD + 1 {
            timed += u64::from(rec.stamp(0, Event::ReadAcquire).is_some());
            rec.count(0, Event::ReadAcquire);
        }
        assert_eq!(timed, 4, "passages 0, P, 2P and 3P");
        // Other pids and other events keep their own phase.
        assert!(rec.stamp(1, Event::ReadAcquire).is_some());
        assert!(rec.stamp(0, Event::WriteAcquire).is_some());
        assert!(rec.stamp(0, Event::ReadAcquire).is_none());
    }

    #[test]
    fn counters_tally_per_pid_and_total() {
        let rec = StatsRecorder::new(4);
        rec.count(0, Event::ReadAcquire);
        rec.count(1, Event::ReadAcquire);
        rec.add(1, Event::SpinSteps, 7);
        assert_eq!(rec.counter(Event::ReadAcquire), 2);
        assert_eq!(rec.counter_for(0, Event::ReadAcquire), 1);
        assert_eq!(rec.counter_for(1, Event::SpinSteps), 7);
        assert_eq!(rec.counter(Event::WriteAcquire), 0);
    }

    #[test]
    fn one_thread_counts_on_the_owner_path_only() {
        let rec = StatsRecorder::new(4);
        for pid in 0..4 {
            for _ in 0..3 * SAMPLE_PERIOD {
                let _ = rec.stamp(pid, Event::ReadAcquire);
                rec.count(pid, Event::ReadAcquire);
                rec.count(pid, Event::ReadRelease);
            }
            rec.add(pid, Event::SpinSteps, 5);
        }
        assert_eq!(shared_total(&rec), 0);
        assert_eq!(rec.counter(Event::ReadAcquire), 4 * 3 * SAMPLE_PERIOD);
        assert_eq!(rec.counter_for(3, Event::SpinSteps), 5);
    }

    #[test]
    fn a_pid_outliving_its_owner_thread_counts_exactly_on_the_shared_path() {
        const N: u64 = 1001;
        let rec = Arc::new(StatsRecorder::new(2));
        for _ in 0..2 {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || (0..N).for_each(|_| rec.count(0, Event::ReadAcquire)))
                .join()
                .unwrap();
        }
        // The first thread owned pid 0's slot; the second added to it.
        assert_eq!(shared_total(&rec), N);
        assert_eq!(rec.counter_for(0, Event::ReadAcquire), 2 * N);
        // Sampling keys off the sum, so the phase carries across owners.
        assert!(rec.stamp(0, Event::ReadAcquire).is_none());
        for _ in 0..(SAMPLE_PERIOD - 2 * N % SAMPLE_PERIOD) {
            rec.count(0, Event::ReadAcquire);
        }
        assert!(rec.stamp(0, Event::ReadAcquire).is_some());
    }

    #[test]
    fn two_threads_on_one_pid_keep_exact_counts() {
        const N: u64 = 20_000;
        let rec = StatsRecorder::new(1);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    (0..N).for_each(|_| rec.count(0, Event::UserHit));
                });
            }
        });
        assert_eq!(rec.counter(Event::UserHit), 2 * N);
        assert_eq!(shared_total(&rec), N, "one owner, one sharer");
    }

    #[test]
    fn a_count_from_a_tls_destructor_is_exact() {
        struct CountOnExit(Arc<StatsRecorder>);
        impl Drop for CountOnExit {
            fn drop(&mut self) {
                self.0.count(0, Event::ReadRelease);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<CountOnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        let rec = Arc::new(StatsRecorder::new(1));
        let mine = Arc::clone(&rec);
        // `join` returns once the thread has exited, destructors included.
        std::thread::spawn(move || {
            mine.count(0, Event::ReadAcquire);
            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(CountOnExit(mine)));
        })
        .join()
        .unwrap();
        assert_eq!(rec.counter(Event::ReadAcquire), 1);
        assert_eq!(rec.counter(Event::ReadRelease), 1);
        // `TOKEN` has no destructor, so the destructor's count ran as the
        // slot's owner thread and took the owner path.
        assert_eq!(shared_total(&rec), 0);
    }

    #[test]
    fn out_of_range_pid_folds_instead_of_panicking() {
        let rec = StatsRecorder::new(2);
        rec.count(7, Event::ReadAcquire); // slot 7 % 2 == 1
        assert_eq!(rec.counter_for(1, Event::ReadAcquire), 1);
    }

    #[test]
    fn quantiles_merge_across_pids() {
        let rec = StatsRecorder::new(4);
        for pid in 0..4 {
            for v in [10u64, 20, 4000] {
                rec.record(pid, Metric::WriteAcquireNs, v);
            }
        }
        assert_eq!(rec.samples(Metric::WriteAcquireNs), 12);
        // p50 lands in the bucket of 20 (16..=31), p99 in that of 4000.
        assert_eq!(rec.quantile(Metric::WriteAcquireNs, 0.5), 31);
        assert_eq!(rec.quantile(Metric::WriteAcquireNs, 0.99), 4095);
    }

    #[test]
    fn ring_records_and_replays_in_order() {
        let rec = StatsRecorder::with_clock(2, TickClock::new()).with_ring(16);
        rec.count(0, Event::AsyncPark);
        rec.count(1, Event::AsyncWake);
        rec.record(0, Metric::WakeToGrantNs, 3);
        let trace = rec.drain_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].name(), "async_park");
        assert_eq!(trace[1].name(), "async_wake");
        assert_eq!(trace[2].name(), "wake_to_grant_ns");
        assert!(trace[0].ts < trace[1].ts && trace[1].ts < trace[2].ts);
        assert_eq!(rec.drain_trace().len(), 0, "drain empties the ring");
    }

    #[test]
    fn chrome_trace_is_json_shaped() {
        let rec = StatsRecorder::new(1).with_ring(8);
        rec.count(0, Event::ReadAcquire);
        let json = rec.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"read_acquire\""));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn recorder_forwards_through_refs_and_arcs() {
        fn generic<R: Recorder>(r: &R) {
            assert!(R::ENABLED);
            r.count(0, Event::UserHit);
        }
        let rec = Arc::new(StatsRecorder::new(2));
        generic(&rec);
        generic(&&*rec);
        assert_eq!(rec.counter(Event::UserHit), 2);
    }
}
