//! The Bravo wrapper under deterministic schedule exploration.
//!
//! Everything here drives the *shipped* `rmr_bravo::Bravo` code over the
//! `Sched` backend — wrapper state (bias word, visible-readers table,
//! re-bias counter) **and** inner lock both scheduled, so the protocol's
//! races are explored at the same atomicity as the core locks: a reader's
//! publish/re-check against a writer's clear/scan, collisions falling back
//! to the slow path, the counter re-bias firing between revocations, and
//! the one-shot bounded revocation of the try-write tier. Tables are kept
//! tiny (1–4 slots) so the writer's revocation scan stays cheap per
//! schedule and collisions actually occur.

use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::exhaustive;
use rmr_check::harness::{
    randomized_batteries, rw_trial, try_read_trial, try_rw_trial, RwOracle, Scenario, TaskBody,
    Trial,
};
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::{RawRwLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::Sched;
use std::sync::Arc;

const BUDGET: u64 = 30_000;
const PCT_SCHEDULES: u64 = 10;
const PCT_DEPTH: usize = 3;
const DFS_CAP: u64 = 2_500;

fn assert_randomized(label: &str, mk: impl Fn() -> Trial) {
    for report in randomized_batteries(label, mk, 0xb2a_0001, PCT_SCHEDULES, PCT_DEPTH, BUDGET) {
        assert!(report.passed(), "{report}");
    }
}

/// Bravo over the ticket baseline, both over `Sched`; default-ish policy
/// with a table larger than the pid population (fast paths dominate).
fn bravo_ticket(
    table_slots: usize,
    rebias_after: u32,
) -> Arc<Bravo<rmr_baselines::TicketRwLock<Sched>, Sched>> {
    Arc::new(Bravo::new_in(
        rmr_baselines::TicketRwLock::new_in(8, Sched),
        BravoConfig { table_slots, rebias_after, initial_bias: true },
        Sched,
    ))
}

#[test]
fn bravo_over_ticket_randomized() {
    assert_randomized("bravo-ticket-rw", || {
        let lock = bravo_ticket(4, 2);
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn bravo_over_ticket_exhaustive() {
    let report = exhaustive(
        "bravo-ticket-rw",
        || {
            let lock = bravo_ticket(2, 2);
            let q = Arc::clone(&lock);
            rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
        },
        2,
        BUDGET,
        DFS_CAP,
    );
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}

#[test]
fn bravo_single_slot_collisions_randomized() {
    // A 1-slot table makes every concurrent second reader collide, so the
    // slow path, the re-bias counter and the fast path all run in one
    // scenario.
    assert_randomized("bravo-collide", || {
        let lock = bravo_ticket(1, 1);
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn bravo_over_core_lock_randomized() {
    // Wrapping one of the paper's own locks: quiescence must hold on both
    // layers (table drained AND the Figure 3 state at rest).
    assert_randomized("bravo-fig3-sf", || {
        let lock = Arc::new(Bravo::new_in(
            MwmrStarvationFree::new_in(3, Sched),
            BravoConfig { table_slots: 4, rebias_after: 2, initial_bias: true },
            Sched,
        ));
        let q = Arc::clone(&lock);
        rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent() && q.inner().is_quiescent())
    });
}

#[test]
fn bravo_try_read_tier_randomized() {
    // Readers through `try_read_lock`: fast-path attempts race the
    // writer's revocation; aborts must account cleanly.
    assert_randomized("bravo-try-read", || {
        let lock = bravo_ticket(4, 2);
        let q = Arc::clone(&lock);
        try_read_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

#[test]
fn bravo_try_write_tier_randomized() {
    // Writers through the one-shot bounded revocation (`try_write_lock`):
    // a published fast reader must fail the attempt, never block it.
    assert_randomized("bravo-try-rw", || {
        let lock = bravo_ticket(4, 2);
        let q = Arc::clone(&lock);
        try_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
    });
}

/// One blocking (fast-path) reader, one try-writer, one blocking writer —
/// the composition none of the uniform trials generate. This is the
/// scenario that caught the bias/table desynchronization: a *failed*
/// `try_write_lock` clears the bias to scan, and if it left it cleared
/// with the reader still published, the blocking writer's revocation
/// would skip its scan and walk into the read session (P1).
fn mixed_writer_tiers_trial(table_slots: usize, attempts: u32) -> Trial {
    let lock = bravo_ticket(table_slots, 2);
    let oracle = Arc::new(RwOracle::new());
    let scenario = Scenario::new(1, 2, attempts).with_try_writers();
    let mut tasks: Vec<TaskBody> = Vec::new();
    {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(0);
            for _ in 0..scenario.attempts {
                let t = lock.read_lock(pid);
                oracle.reader_cs();
                lock.read_unlock(pid, t);
            }
        }));
    }
    {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(1);
            for _ in 0..scenario.attempts {
                match lock.try_write_lock(pid) {
                    Some(t) => {
                        oracle.writer_cs();
                        lock.write_unlock(pid, t);
                    }
                    None => oracle.write_abort(),
                }
            }
        }));
    }
    {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(2);
            for _ in 0..scenario.attempts {
                let () = lock.write_lock(pid);
                oracle.writer_cs();
                lock.write_unlock(pid, ());
            }
        }));
    }
    let q = Arc::clone(&lock);
    Trial {
        tasks,
        post: Box::new(move || {
            oracle.settle(&scenario)?;
            if !q.is_quiescent() {
                return Err("visible-readers table did not drain".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn bravo_mixed_writer_tiers_randomized() {
    assert_randomized("bravo-mixed-writers", || mixed_writer_tiers_trial(4, 2));
}

#[test]
fn bravo_mixed_writer_tiers_exhaustive() {
    // Bounded-exhaustive DFS over the small config: this systematically
    // reaches the failed-try-then-blocking-write window that randomized
    // walks can miss (verified to catch the historical desync bug).
    let report =
        exhaustive("bravo-mixed-writers", || mixed_writer_tiers_trial(2, 1), 2, BUDGET, DFS_CAP);
    assert!(report.passed(), "{report}");
    assert!(report.schedules > 10, "suspiciously small schedule tree: {report}");
}
