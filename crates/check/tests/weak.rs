//! The full checker battery re-run under the weak memory model.
//!
//! The relaxation sweep (DESIGN.md §13) downgraded every `Backend` call
//! site it could justify; these tests are the other half of the
//! argument. Under [`MemoryModel::StoreBuffer`] every non-SeqCst store
//! parks in its task's buffer until the *strategy* decides to flush it —
//! so a site relaxed one notch too far is not a theoretical concern but
//! a schedulable interleaving, and the same oracles (exclusion, torn
//! reads, deadlock, quiescence, snapshot accounting) that police the
//! sequentially-consistent batteries police the reorderings too.
//!
//! Budgets are the SC batteries' with headroom: flush points add
//! decisions, and a buffered store's visibility is one extra step.

use rmr_async::lock::AsyncRwLock;
use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::async_exec::async_rw_trial;
use rmr_check::exhaustive_in;
use rmr_check::harness::{
    mutex_trial, randomized_batteries_in, rw_trial, try_rw_trial, Scenario, TaskBody, Trial,
};
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::registry::Pid;
use rmr_core::swmr::{SwmrReaderPriority, SwmrWriterPriority};
use rmr_mutex::sched::{yield_point, MemoryModel};
use rmr_mutex::{AndersonLock, McsLock, Sched, TasLock, TicketLock, TtasLock};
use rmr_swap::{RetireEager, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BUDGET: u64 = 40_000;
const PCT_SCHEDULES: u64 = 10;
const PCT_DEPTH: usize = 3;
const DFS_CAP: u64 = 4_000;

/// Runs the standard randomized batteries under the store-buffer model
/// and asserts they pass.
fn assert_weak(label: &str, mk: impl Fn() -> Trial) {
    let reports = randomized_batteries_in(
        label,
        mk,
        0x5b5e_ed01,
        PCT_SCHEDULES,
        PCT_DEPTH,
        BUDGET,
        MemoryModel::StoreBuffer,
    );
    for report in reports {
        assert!(report.passed(), "{report}");
        assert!(report.mode.ends_with("/sb"), "battery did not run in weak mode: {report}");
    }
}

// ---------------------------------------------------------------------
// The five core locks
// ---------------------------------------------------------------------

#[test]
fn fig1_swmr_writer_priority_weak() {
    assert_weak("fig1-swmr-wp", || {
        let lock = Arc::new(SwmrWriterPriority::new_in(Sched));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn fig1_swmr_writer_priority_weak_exhaustive() {
    // The small config, every schedule *and* every flush order at
    // preemption bound 2 — the strongest statement the checker makes
    // about the Figure 1 ordering annotations.
    let report = exhaustive_in(
        "fig1-swmr-wp",
        || {
            let lock = Arc::new(SwmrWriterPriority::new_in(Sched));
            let q = Arc::clone(&lock);
            rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
        },
        2,
        BUDGET,
        DFS_CAP,
        MemoryModel::StoreBuffer,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small weak schedule tree: {report}");
}

#[test]
fn fig2_swmr_reader_priority_weak() {
    assert_weak("fig2-swmr-rp", || {
        let lock = Arc::new(SwmrReaderPriority::new_in(Sched));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn fig3_mwmr_starvation_free_weak() {
    assert_weak("fig3-mwmr-sf", || {
        let lock = Arc::new(MwmrStarvationFree::new_in(3, Sched));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn fig3_mwmr_reader_priority_weak() {
    assert_weak("fig3-mwmr-rp", || {
        let lock = Arc::new(MwmrReaderPriority::new_in(3, Sched));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn fig4_mwmr_writer_priority_weak() {
    assert_weak("fig4-mwmr-wp", || {
        let lock = Arc::new(MwmrWriterPriority::new_in(3, Sched));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

// ---------------------------------------------------------------------
// The mutex substrate
// ---------------------------------------------------------------------

#[test]
fn mutexes_weak() {
    assert_weak("anderson", || mutex_trial(Arc::new(AndersonLock::new_in(4, Sched)), 3, 2));
    assert_weak("mcs", || mutex_trial(Arc::new(McsLock::new_in(Sched)), 3, 2));
    assert_weak("ticket", || mutex_trial(Arc::new(TicketLock::new_in(Sched)), 3, 2));
    assert_weak("tas", || mutex_trial(Arc::new(TasLock::new_in(Sched)), 3, 2));
    assert_weak("ttas", || mutex_trial(Arc::new(TtasLock::new_in(Sched)), 3, 2));
}

// ---------------------------------------------------------------------
// Baselines — including the Dekker square the DemoteFlagRaise mutant
// attacks (site BL-FLAGS must survive the weak model un-demoted)
// ---------------------------------------------------------------------

#[test]
fn baseline_flags_weak() {
    assert_weak("flags", || {
        rw_trial(
            Arc::new(rmr_baselines::DistributedFlagRwLock::new_in(3, Sched)),
            Scenario::new(2, 1, 2),
            || true,
        )
    });
}

#[test]
fn baseline_ticket_rw_weak() {
    assert_weak("ticket-rw", || {
        rw_trial(
            Arc::new(rmr_baselines::TicketRwLock::new_in(3, Sched)),
            Scenario::new(2, 1, 2),
            || true,
        )
    });
    assert_weak("ticket-rw-try", || {
        try_rw_trial(
            Arc::new(rmr_baselines::TicketRwLock::new_in(3, Sched)),
            Scenario::new(2, 1, 2),
            || true,
        )
    });
}

// ---------------------------------------------------------------------
// The Bravo wrapper — sites BR-PUB/BR-RECHECK/BR-CLEAR/BR-SCAN
// ---------------------------------------------------------------------

#[test]
fn bravo_weak() {
    assert_weak("bravo-ticket-rw", || {
        let lock = Arc::new(Bravo::new_in(
            rmr_baselines::TicketRwLock::new_in(3, Sched),
            BravoConfig::default(),
            Sched,
        ));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

// ---------------------------------------------------------------------
// The epoch-swap snapshot tier — sites SW-PUB/SW-LOAD/SW-SWAP/SW-BUMP
// ---------------------------------------------------------------------

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

#[test]
fn swap_weak() {
    assert_weak("swap-eager", || {
        let live = Arc::new(AtomicUsize::new(0));
        let (readers, writers, attempts) = (2usize, 1usize, 2u64);
        let n = readers + writers;
        let snap = Arc::new(Snapshot::with_raw_in(
            Versioned::new(0, &live),
            MwmrStarvationFree::new_in(n, Sched),
            RetireEager,
            n,
            Sched,
        ));
        let mut tasks: Vec<TaskBody> = Vec::new();
        for r in 0..readers {
            let snap = Arc::clone(&snap);
            tasks.push(Box::new(move || {
                let pid = Pid::from_index(r);
                for _ in 0..attempts {
                    let guard = snap.load_with(pid);
                    let a = guard.a;
                    yield_point();
                    assert_eq!(guard.b, a + 1, "torn snapshot under the weak model");
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
        Trial {
            tasks,
            post: Box::new(move || {
                snap.reclaim();
                if !snap.is_quiescent() {
                    return Err("snapshot not quiescent after a weak-model run".into());
                }
                let alive = live.load(Ordering::SeqCst);
                if alive != 1 {
                    return Err(format!("{alive} payload instances live after reclaim"));
                }
                Ok(())
            }),
        }
    });
}

// ---------------------------------------------------------------------
// The async tier — sites AS-ANNOUNCE/AS-COUNT plus the waker slots
// ---------------------------------------------------------------------

#[test]
fn async_weak() {
    assert_weak("async-ticket-rw", || {
        let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
            (),
            rmr_baselines::TicketRwLock::new_in(8, Sched),
            8,
            Sched,
        ));
        let q = Arc::clone(&lock);
        async_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}
