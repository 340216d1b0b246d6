//! The epoch-swap snapshot tier under deterministic schedule exploration.
//!
//! Everything here drives the *shipped* `rmr_swap::Snapshot` code over the
//! `Sched` backend — the epoch counter, the payload pointer, the registry's
//! epoch table **and** the serializing writer lock all scheduled, so the
//! protocol's races are explored at the same atomicity as the core locks:
//! a reader's publish/load/re-check against a writer's swap/bump/grace
//! scan. The oracles are the tier's own safety contract:
//!
//! * **no torn or drifting snapshot** — a guard's payload carries an
//!   internal invariant (`b == a + 1`) and must not change under the
//!   guard, with explicit yield points between field reads so a
//!   prematurely freed payload would be observed;
//! * **no payload freed while an epoch pins it** — a live-instance
//!   counter on the payload type makes the post-run accounting exact:
//!   after a final reclaim, exactly the current payload is allocated;
//! * **quiescence** — no published epoch, nothing retired.
//!
//! Both retirement policies run the same trials: eager (writers wait out
//! pins inside the write session) and batched (pins age the retired
//! list).

use rmr_check::exhaustive;
use rmr_check::harness::{randomized_batteries, TaskBody, Trial};
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::registry::Pid;
use rmr_mutex::sched::yield_point;
use rmr_mutex::Sched;
use rmr_swap::{RetireBatched, RetireEager, RetirePolicy, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BUDGET: u64 = 30_000;
const PCT_SCHEDULES: u64 = 10;
const PCT_DEPTH: usize = 3;
const DFS_CAP: u64 = 2_500;

fn assert_randomized(label: &str, mk: impl Fn() -> Trial) {
    for report in randomized_batteries(label, mk, 0x54a9_0001, PCT_SCHEDULES, PCT_DEPTH, BUDGET) {
        assert!(report.passed(), "{report}");
    }
}

/// The trial payload: an internal invariant for torn-read detection and a
/// live-instance counter for exact allocation accounting. The counter is
/// a plain std atomic on purpose — bookkeeping must not widen the
/// schedule space.
struct Versioned {
    a: u64,
    b: u64,
    live: Arc<AtomicUsize>,
}

impl Versioned {
    fn new(a: u64, live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Versioned { a, b: a + 1, live: Arc::clone(live) }
    }
}

impl Drop for Versioned {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Readers pin snapshots and check invariant + stability; writers install
/// successors through the scheduled starvation-free lock. The post-run
/// check is the full quiescence + accounting oracle.
fn snap_trial<P: RetirePolicy + Copy>(
    policy: P,
    readers: usize,
    writers: usize,
    attempts: u64,
) -> Trial {
    let live = Arc::new(AtomicUsize::new(0));
    let n = readers + writers;
    let snap = Arc::new(Snapshot::with_raw_in(
        Versioned::new(0, &live),
        MwmrStarvationFree::new_in(n, Sched),
        policy,
        n,
        Sched,
    ));
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..readers {
        let snap = Arc::clone(&snap);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            let mut last = 0;
            for _ in 0..attempts {
                let guard = snap.load_with(pid);
                let a = guard.a;
                yield_point(); // give writers the whole guard window
                assert_eq!(guard.b, a + 1, "torn snapshot");
                yield_point();
                assert_eq!(guard.a, a, "snapshot drifted under its guard");
                assert!(a >= last, "snapshot went backwards");
                last = a;
                drop(guard);
            }
        }));
    }
    for w in 0..writers {
        let snap = Arc::clone(&snap);
        let live = Arc::clone(&live);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(readers + w);
            for _ in 0..attempts {
                snap.update_with(pid, |current| Versioned::new(current.a + 1, &live));
            }
        }));
    }
    let expected_swaps = writers as u64 * attempts;
    Trial {
        tasks,
        post: Box::new(move || {
            snap.reclaim();
            if !snap.is_quiescent() {
                return Err(format!(
                    "snapshot not quiescent: {} published, {} retired",
                    snap.published(),
                    snap.retired()
                ));
            }
            if snap.swaps() != expected_swaps {
                return Err(format!(
                    "lost update: {} swaps recorded, {expected_swaps} installed",
                    snap.swaps()
                ));
            }
            let alive = live.load(Ordering::SeqCst);
            if alive != 1 {
                return Err(format!(
                    "payload accounting: {alive} instances live after reclaim, expected \
                     exactly the current payload"
                ));
            }
            Ok(())
        }),
    }
}

#[test]
fn swap_eager_randomized() {
    assert_randomized("swap-eager", || snap_trial(RetireEager, 2, 1, 2));
}

#[test]
fn swap_batched_randomized() {
    // high_water 2 so the scan actually fires mid-trial, not only in the
    // post-run reclaim.
    assert_randomized("swap-batched", || snap_trial(RetireBatched { high_water: 2 }, 2, 1, 2));
}

#[test]
fn swap_multi_writer_randomized() {
    // Two writers serialized through the scheduled Figure 3 lock: retire
    // epochs must stay unique and ordered across write sessions.
    assert_randomized("swap-multi-writer", || snap_trial(RetireBatched { high_water: 2 }, 1, 2, 2));
}

#[test]
fn swap_eager_exhaustive() {
    let report = exhaustive("swap-eager", || snap_trial(RetireEager, 1, 1, 1), 2, BUDGET, DFS_CAP);
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}

#[test]
fn swap_batched_exhaustive() {
    let report = exhaustive(
        "swap-batched",
        || snap_trial(RetireBatched { high_water: 1 }, 1, 1, 1),
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}
