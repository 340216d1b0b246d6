//! The recorder's sampling contract, end to end through every front end
//! that times acquisitions: every passage is counted exactly, but only
//! 1 in `SAMPLE_PERIOD` per pid and acquire event is timed — chosen by
//! the pid's own counter, so a `TickClock` trace replays bit for bit.

use rmrw::async_lock::exec::block_on;
use rmrw::async_lock::AsyncRwLock;
use rmrw::baselines::TicketRwLock;
use rmrw::core::mwmr::MwmrStarvationFree;
use rmrw::core::{Observed, Pid, RawMultiWriter, RawRwLock, RawTryRwLock, ReadGuard, RwLock};
use rmrw::obs::{Event, Metric, Recorder, StatsRecorder, TickClock, TraceEvent, SAMPLE_PERIOD};
use std::cell::RefCell;
use std::sync::{Arc, Barrier};

const READS: u64 = 100;
const WRITES: u64 = 20;

type TickRecorder = Arc<StatsRecorder<TickClock>>;
type FrontEnd = fn(&TickRecorder);

fn tick_recorder() -> TickRecorder {
    Arc::new(StatsRecorder::with_clock(4, TickClock::new()).with_ring(4096))
}

/// Without a ring only the hooks read the clock, and each `TickClock`
/// read is one tick: `now()` returns the reads so far, plus one.
fn clock_reads(rec: &TickRecorder) -> u64 {
    rec.now() - 1
}

/// `READS` read and `WRITES` write passages, all on pid 0, through the
/// typed front end, which reports through the `Observed` it holds.
fn typed(rec: &TickRecorder) {
    let lock = RwLock::with_raw(0u64, TicketRwLock::new(4)).with_recorder(Arc::clone(rec));
    let mut h = lock.register().expect("capacity");
    assert_eq!(h.pid().index(), 0);
    for _ in 0..READS {
        drop(h.read());
    }
    for _ in 0..WRITES {
        *h.write() += 1;
    }
}

/// The same passages through the raw-tier `Observed` wrapper.
fn observed(rec: &TickRecorder) {
    let lock = Observed::new(MwmrStarvationFree::new(4), Arc::clone(rec));
    let me = Pid::from_index(0);
    for _ in 0..READS {
        let t = lock.read_lock(me);
        lock.read_unlock(me, t);
    }
    for _ in 0..WRITES {
        let t = lock.write_lock(me);
        lock.write_unlock(me, t);
    }
}

/// The same passages through the async front end: uncontended, so every
/// future leases the lowest free pid, 0.
fn asynchronous(rec: &TickRecorder) {
    let lock = AsyncRwLock::with_raw(0u64, TicketRwLock::new(4)).with_recorder(Arc::clone(rec));
    block_on(async {
        for _ in 0..READS {
            drop(lock.read().await);
        }
        for _ in 0..WRITES {
            *lock.write().await += 1;
        }
    });
}

fn run(front_end: FrontEnd) -> (TickRecorder, Vec<TraceEvent>) {
    let rec = tick_recorder();
    front_end(&rec);
    let trace = rec.drain_trace();
    assert_eq!(rec.ring().expect("attached").dropped(), 0, "the ring must be lossless");
    (rec, trace)
}

#[test]
fn every_passage_is_counted_one_in_sample_period_is_timed_and_traces_replay() {
    let timed = |n: u64| n.div_ceil(SAMPLE_PERIOD);
    assert_eq!((timed(READS), timed(WRITES)), (7, 2));
    let front_ends: [(&str, FrontEnd); 3] =
        [("RwLock", typed), ("Observed", observed), ("AsyncRwLock", asynchronous)];
    for (name, front_end) in front_ends {
        let (rec, trace) = run(front_end);
        for (event, want) in [
            (Event::ReadAcquire, READS),
            (Event::ReadRelease, READS),
            (Event::WriteAcquire, WRITES),
            (Event::WriteRelease, WRITES),
        ] {
            assert_eq!(rec.counter(event), want, "{name}: {event:?}");
            assert_eq!(rec.counter_for(0, event), want, "{name}: {event:?} on pid 0");
        }
        assert_eq!(rec.samples(Metric::ReadAcquireNs), timed(READS), "{name}: timed reads");
        assert_eq!(rec.samples(Metric::WriteAcquireNs), timed(WRITES), "{name}: timed writes");
        assert!(!trace.is_empty(), "{name}: the ring saw the passages");
        assert_eq!(run(front_end).1, trace, "{name}: a second identical run must replay");
    }
}

/// An untimed passage reads no clock at all: a timed one reads it twice
/// (start stamp, end), and an uncontended async release, whose wake scan
/// finds nobody parked, reads it never.
#[test]
fn only_timed_passages_read_the_clock() {
    let timed = READS.div_ceil(SAMPLE_PERIOD) + WRITES.div_ceil(SAMPLE_PERIOD);
    let front_ends: [(&str, FrontEnd); 3] =
        [("RwLock", typed), ("Observed", observed), ("AsyncRwLock", asynchronous)];
    for (name, front_end) in front_ends {
        let rec = Arc::new(StatsRecorder::with_clock(4, TickClock::new()));
        front_end(&rec);
        assert_eq!(clock_reads(&rec), 2 * timed, "{name}");
    }
}

/// Pids are per registry but a recorder may be shared across locks, so
/// two threads can record for the same pid at once: the slot's owner
/// thread counts with a plain store, so the other must take the shared
/// `fetch_add` path, or counts are lost.
#[test]
fn a_recorder_shared_across_locks_keeps_exact_counts() {
    const N: u64 = 50_000;
    let rec = Arc::new(StatsRecorder::new(2));
    let locks: Vec<_> =
        (0..2).map(|_| RwLock::starvation_free(0u64, 2).with_recorder(Arc::clone(&rec))).collect();
    let start = Barrier::new(locks.len());
    std::thread::scope(|s| {
        for lock in &locks {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for _ in 0..N {
                    drop(lock.read());
                }
            });
        }
    });
    // Each thread leased pid 0 of its own lock's registry.
    assert_eq!(rec.counter_for(0, Event::ReadAcquire), 2 * N);
    assert_eq!(rec.counter(Event::ReadAcquire), 2 * N);
    assert_eq!(rec.counter(Event::ReadRelease), 2 * N);
}

/// Pid 0's first thread owns its recorder slot and exits; the next
/// thread to lease pid 0 counts through the shared path, and both the
/// counts and the sampling phase carry across the two.
#[test]
fn a_pid_re_leased_after_its_owner_exits_keeps_exact_counts() {
    const N: u64 = 1000;
    let rec = Arc::new(StatsRecorder::new(2));
    let lock = Arc::new(RwLock::starvation_free(0u64, 2).with_recorder(Arc::clone(&rec)));
    for _ in 0..2 {
        let lock = Arc::clone(&lock);
        // `join` returns once the thread has exited and returned its pid.
        std::thread::spawn(move || (0..N).for_each(|_| drop(lock.read()))).join().unwrap();
    }
    assert_eq!(rec.counter_for(0, Event::ReadAcquire), 2 * N);
    assert_eq!(rec.counter(Event::ReadAcquire), 2 * N);
    assert_eq!(rec.counter(Event::ReadRelease), 2 * N);
    assert_eq!(rec.samples(Metric::ReadAcquireNs), (2 * N).div_ceil(SAMPLE_PERIOD));
}

type TlsGuard = ReadGuard<'static, u64, MwmrStarvationFree, Arc<StatsRecorder>>;

thread_local! {
    static HELD: RefCell<Option<TlsGuard>> = const { RefCell::new(None) };
}

/// A read guard parked in a `thread_local!` is released by that
/// thread-local's destructor, during thread teardown, and still counted.
/// The destructor runs on the thread that owns pid 0's recorder slot, so
/// it counts on the owner path (`rmr-obs`'s unit tests pin which).
#[test]
fn a_guard_dropped_during_thread_teardown_is_counted() {
    const N: u64 = 100;
    let rec = Arc::new(StatsRecorder::new(2));
    let lock: &'static _ =
        Box::leak(Box::new(RwLock::starvation_free(0u64, 2).with_recorder(Arc::clone(&rec))));
    std::thread::spawn(move || {
        for _ in 0..N {
            drop(lock.read());
        }
        HELD.with(|held| *held.borrow_mut() = Some(lock.read()));
    })
    .join()
    .unwrap();
    assert_eq!(rec.counter(Event::ReadAcquire), N + 1);
    assert_eq!(rec.counter(Event::ReadRelease), N + 1);
}

/// One thread's leased and handle passages, blocking and try, with each
/// try kind both granted and refused (refused while this thread holds
/// the other guard on its leased pid).
fn try_script<L: RawTryRwLock + RawMultiWriter, R: Recorder>(lock: &RwLock<u64, L, R>) {
    let mut h = lock.register().expect("capacity");
    drop(lock.read());
    *lock.write() += 1;
    drop(h.read());
    *h.write() += 1;
    drop(lock.try_read().expect("uncontended"));
    *lock.try_write().expect("uncontended") += 1;
    drop(h.try_read().expect("uncontended"));
    *h.try_write().expect("uncontended") += 1;
    let w = lock.write();
    assert!(lock.try_read().is_none() && h.try_read().is_none(), "a writer holds the lock");
    drop(w);
    let r = lock.read();
    assert!(lock.try_write().is_none() && h.try_write().is_none(), "a reader holds the lock");
    drop(r);
}

/// Every typed passage reports once, through the recorder the lock
/// holds: the ledger of a recorder attached with `with_recorder` is the
/// ledger of one wrapped around the raw lock by hand.
#[test]
fn try_passages_count_the_same_through_either_seam() {
    let (a, b) = (Arc::new(StatsRecorder::new(4)), Arc::new(StatsRecorder::new(4)));
    try_script(&RwLock::with_raw(0u64, TicketRwLock::new(4)).with_recorder(Arc::clone(&a)));
    try_script(&RwLock::with_raw(0u64, Observed::new(TicketRwLock::new(4), Arc::clone(&b))));
    let want = [
        (Event::ReadAcquire, 3),
        (Event::ReadRelease, 5),
        (Event::WriteAcquire, 3),
        (Event::WriteRelease, 5),
        (Event::TryReadOk, 2),
        (Event::TryReadFail, 2),
        (Event::TryWriteOk, 2),
        (Event::TryWriteFail, 2),
    ];
    for (event, n) in want {
        assert_eq!(a.counter(event), n, "{event:?}");
    }
    for event in Event::ALL {
        assert_eq!(a.counter(event), b.counter(event), "{event:?}");
    }
}
