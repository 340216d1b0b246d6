//! The async tier under deterministic schedule exploration.
//!
//! Everything here drives the *shipped* `rmr_async::AsyncRwLock` code —
//! waker-slot table, parked counters, reader count, and the executor's
//! parker flags all over the `Sched` backend — so the parking protocol's
//! races are explored at the same per-operation atomicity as the sync
//! locks: a future's attempt/register/retry against a releaser's
//! unlock/scan, the wake-in-flight (`TAKING`) window against
//! cancellation, blocking writers waking suspended readers, and the
//! Bravo fast path staying exclusion-correct while futures park beside
//! its visible-readers slots. A lost wake-up shows up as a deterministic
//! deadlock report with a seeded replay line, never as a hung test.
//!
//! The `async_fair_*` / `async_write_*` tests are the doorway tier's
//! batteries: `write().await` model-checked on a core paper lock
//! (Figure 1), the bounded-bypass oracle holding tokened writers to the
//! in-flight read set, and the cancel/unlink race of dropping a write
//! future mid-drain. The mutation battery (`tests/mutants.rs`) adds the
//! `DropWakeup` fault and the `DropWaiterToken` mutant on top.

use rmr_async::lock::AsyncRwLock;
use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::async_exec::{
    async_cancel_trial, async_fair_trial, async_read_blocking_write_trial, async_rw_trial,
    async_write_cancel_trial,
};
use rmr_check::exhaustive;
use rmr_check::harness::{randomized_batteries, Scenario, Trial};
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::Sched;
use std::sync::Arc;

const BUDGET: u64 = 30_000;
const PCT_SCHEDULES: u64 = 10;
const PCT_DEPTH: usize = 3;
const DFS_CAP: u64 = 2_500;

fn assert_randomized(label: &str, mk: impl Fn() -> Trial) {
    for report in randomized_batteries(label, mk, 0xa51_0001, PCT_SCHEDULES, PCT_DEPTH, BUDGET) {
        assert!(report.passed(), "{report}");
    }
}

/// AsyncRwLock over the ticket baseline, everything on `Sched`.
fn async_ticket(
    capacity: usize,
) -> Arc<AsyncRwLock<(), rmr_baselines::TicketRwLock<Sched>, Sched>> {
    Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        rmr_baselines::TicketRwLock::new_in(capacity, Sched),
        capacity,
        Sched,
    ))
}

#[test]
fn async_over_ticket_randomized() {
    assert_randomized("async-ticket-rw", || {
        let lock = async_ticket(8);
        let q = Arc::clone(&lock);
        async_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn async_over_ticket_exhaustive() {
    let report = exhaustive(
        "async-ticket-rw",
        || {
            let lock = async_ticket(4);
            let q = Arc::clone(&lock);
            async_rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
        },
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}

#[test]
fn async_readers_over_fig3_with_blocking_writers_randomized() {
    // The paper's Figure 3 lock has no revocable write attempt, so the
    // service shape is: suspended readers, blocking writers — and the
    // blocking writer's release must wake the parked read futures.
    assert_randomized("async-fig3-sf", || {
        let lock =
            Arc::new(AsyncRwLock::with_raw_in((), MwmrStarvationFree::new_in(4, Sched), Sched));
        let q = Arc::clone(&lock);
        async_read_blocking_write_trial(lock, Scenario::new(2, 1, 2), move || {
            q.is_quiescent() && q.raw().is_quiescent()
        })
    });
}

#[test]
fn async_over_bravo_randomized() {
    // Parking composed with the reader-biased fast path: fast-path read
    // futures publish in the Bravo table, write futures go through the
    // one-shot revocation, and both layers must drain.
    assert_randomized("async-bravo-ticket", || {
        let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
            (),
            Bravo::new_in(
                rmr_baselines::TicketRwLock::new_in(8, Sched),
                BravoConfig { table_slots: 4, rebias_after: 2, initial_bias: true },
                Sched,
            ),
            8,
            Sched,
        ));
        let q = Arc::clone(&lock);
        async_rw_trial(lock, Scenario::new(2, 1, 2), move || {
            q.is_quiescent() && q.raw().is_quiescent()
        })
    });
}

#[test]
fn async_cancellation_randomized() {
    // Readers poll once and drop wherever that leaves them (parked, mid
    // wake-in-flight, or holding the guard); writers churn. The post-run
    // quiescence check is the cancel-safety oracle: no pid, waker slot,
    // or reader count may stay pinned.
    assert_randomized("async-cancel", || {
        async_cancel_trial(async_ticket(8), Scenario::new(2, 1, 2))
    });
}

/// AsyncRwLock over the paper's Figure 1 writer-priority lock — the SWMR
/// core lock whose `write().await` the doorway redesign unlocked.
fn async_fig1(capacity: usize) -> Arc<AsyncRwLock<(), SwmrWriterPriority<Sched>, Sched>> {
    Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        SwmrWriterPriority::new_in(Sched),
        capacity,
        Sched,
    ))
}

#[test]
fn async_write_over_fig1_randomized() {
    // `write().await` on a core paper lock: the claim word serializes the
    // async writers into the lock's single writer role, the doorway is a
    // real WP1 queue position, and exclusion/torn-read oracles police the
    // grant. Two writer tasks specifically contend on the claim word.
    assert_randomized("async-fig1-wp", || {
        let lock = async_fig1(8);
        let q = Arc::clone(&lock);
        async_rw_trial(lock, Scenario::new(2, 1, 2), move || {
            q.is_quiescent() && q.raw().is_quiescent()
        })
    });
    assert_randomized("async-fig1-wp-2w", || {
        let lock = async_fig1(8);
        let q = Arc::clone(&lock);
        async_rw_trial(lock, Scenario::new(1, 2, 1), move || {
            q.is_quiescent() && q.raw().is_quiescent()
        })
    });
}

#[test]
fn async_fair_over_ticket_randomized() {
    // The bounded-bypass oracle on the queued ticket doorway: once the
    // writer's first Pending tokened it, at most `readers` in-flight read
    // sessions may still complete ahead of the grant.
    assert_randomized("async-fair-ticket", || {
        let lock = async_ticket(8);
        let q = Arc::clone(&lock);
        async_fair_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn async_fair_over_fig1_randomized() {
    assert_randomized("async-fair-fig1", || {
        let lock = async_fig1(8);
        let q = Arc::clone(&lock);
        async_fair_trial(lock, Scenario::new(2, 1, 2), move || {
            q.is_quiescent() && q.raw().is_quiescent()
        })
    });
}

#[test]
fn async_fair_over_fig1_exhaustive() {
    // Bounded DFS over the small config: every interleaving of one
    // reader against the tokened writer respects the bypass bound.
    let report = exhaustive(
        "async-fair-fig1",
        || {
            let lock = async_fig1(4);
            let q = Arc::clone(&lock);
            async_fair_trial(lock, Scenario::new(1, 1, 1), move || {
                q.is_quiescent() && q.raw().is_quiescent()
            })
        },
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}

#[test]
fn async_write_cancel_over_fig1_randomized() {
    // The cancel/unlink race on the deferred-zombie doorway: writers drop
    // mid-drain, the revocation must hand the passage to the helpers and
    // unthread the waiter node, and the table must drain to quiescence.
    assert_randomized("async-write-cancel-fig1", || {
        let lock = async_fig1(8);
        async_write_cancel_trial(lock, Scenario::new(2, 1, 2))
    });
}

#[test]
fn async_write_cancel_over_ticket_randomized() {
    // Same race against the ticket's abandoned-head skip protocol.
    assert_randomized("async-write-cancel-ticket", || {
        async_write_cancel_trial(async_ticket(8), Scenario::new(2, 1, 2))
    });
}

#[test]
fn async_write_cancel_over_fig1_exhaustive() {
    // DFS systematically reaches the publish-then-recheck windows of the
    // zombie cancel (and the drop-while-TAKING wake race) that randomized
    // walks can miss.
    let report = exhaustive(
        "async-write-cancel-fig1",
        || async_write_cancel_trial(async_fig1(4), Scenario::new(1, 1, 1)),
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}

#[test]
fn async_cancellation_exhaustive() {
    // Bounded-exhaustive DFS over the small config systematically reaches
    // the drop-while-TAKING window (a wake in flight toward a future that
    // is being cancelled) that randomized walks can miss.
    let report = exhaustive(
        "async-cancel",
        || async_cancel_trial(async_ticket(4), Scenario::new(1, 1, 1)),
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}
