//! The deterministic async executor: `rmr-async` futures under the
//! [`Sched`] scheduler.
//!
//! DESIGN.md §9's argument — one yield point per `Backend` operation
//! explores the complete interleaving space — carries over to the async
//! tier unchanged, because `rmr-async` put *all* of its cross-task state
//! (waker-slot words, parked counters, the reader count) on the backend
//! vocabulary and made the executor's wait a pluggable [`Parker`].
//! [`SchedParker`] closes the loop:
//! its `park` is a spin on a `Sched`-backed flag, so an idle executor is
//! an ordinary stalled spinner to the controller — descheduled until some
//! other task's wake-up flips the flag (visible progress), and reported
//! as a **deadlock, with a replayable decision sequence**, if no task
//! ever will. A lost wake-up, the async tier's characteristic bug, is
//! therefore not a hang but a seeded, single-line-replayable failure —
//! which the `DropWakeup` mutant battery demonstrates by omission.
//!
//! Each scheduled task runs one future to completion through
//! [`block_on_sched`]; the controller interleaves the tasks at every
//! shared-memory operation *inside* the polls, exactly as it does for the
//! sync locks. The trial builders here mirror [`crate::harness`]'s: same
//! [`RwOracle`], same [`Scenario`] accounting, same quiescence hooks —
//! plus the cancellation trial, which drops pending futures mid-protocol
//! and lets the post-run checks prove nothing stays pinned.

use crate::harness::{RwOracle, Scenario, TaskBody, Trial};
use rmr_async::exec::{block_on_with, parker_waker};
use rmr_async::lock::AsyncRwLock;
use rmr_async::park::Parker;
use rmr_core::raw::{RawMultiWriter, RawParkedWaiters, RawTryReadLock};
use rmr_mutex::mem::{Backend, Ordering as MemOrdering, SharedBool};
use rmr_mutex::{spin_until, Sched};
use rmr_obs::Recorder;
use std::fmt;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll};

type SchedBool = <Sched as Backend>::Bool;

/// A [`Parker`] whose wait is a spin on a [`Sched`]-backed flag: parking
/// becomes futile-op stalling (the controller deschedules the task), the
/// wake-up's flag store is visible progress (the controller revives it),
/// and a wait nobody will end is a deadlock report.
pub struct SchedParker {
    token: SchedBool,
}

impl SchedParker {
    /// A fresh parker (one per executor; build it inside the task so its
    /// flag joins the schedule's variable set deterministically).
    pub fn new() -> Self {
        Self { token: SchedBool::new(false) }
    }
}

impl Default for SchedParker {
    fn default() -> Self {
        Self::new()
    }
}

impl Parker for SchedParker {
    fn park(&self) {
        // swap, not load: consuming the token keeps the unpark-before-park
        // case correct, and a false→false swap is exactly the futile
        // operation the stall detector keys on. Acquire pairs with the
        // unpark's Release so the parked task sees whatever the waker
        // published before waking it.
        spin_until(|| self.token.swap(false, MemOrdering::Acquire));
    }

    fn unpark(&self) {
        self.token.store(true, MemOrdering::Release);
    }
}

impl fmt::Debug for SchedParker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedParker").finish_non_exhaustive()
    }
}

/// Runs `future` to completion on the calling [`Sched`] task, waiting
/// through a fresh [`SchedParker`]. The deterministic `block_on`.
pub fn block_on_sched<F: Future>(future: F) -> F::Output {
    block_on_with(future, Arc::new(SchedParker::new()))
}

/// Builds a [`Trial`] driving `AsyncRwLock` readers *and* writers through
/// the async tier (`read().await` / `write().await`) under the
/// deterministic executor. `quiescent` is the lock-specific at-rest check
/// (pass `move || lock.is_quiescent()` plus any inner-lock notion).
pub fn async_rw_trial<L, R>(
    lock: Arc<AsyncRwLock<(), L, Sched, R>>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawTryReadLock + RawParkedWaiters + 'static,
    R: Recorder + 'static,
{
    assert!(!scenario.try_readers && !scenario.try_writers, "use async_cancel_trial");
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for _ in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.read().await;
                    oracle.reader_cs();
                    drop(guard);
                }
            });
        }));
    }
    for _ in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.write().await;
                    oracle.writer_cs();
                    drop(guard);
                }
            });
        }));
    }
    Trial { tasks, post: async_settle_post(oracle, scenario, quiescent) }
}

/// Like [`async_rw_trial`], but writers use the deprecated
/// [`AsyncRwLock::write_blocking`] — still the writer endpoint for raw
/// locks without a `RawParkedWaiters` doorway (the Fig. 3 ∘ {1, 2} and
/// Fig. 4 multi-writer locks). Readers still suspend; the blocking
/// writers' release paths must wake them.
pub fn async_read_blocking_write_trial<L, R>(
    lock: Arc<AsyncRwLock<(), L, Sched, R>>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawTryReadLock + RawMultiWriter + 'static,
    R: Recorder + 'static,
{
    assert!(!scenario.try_readers && !scenario.try_writers, "use async_cancel_trial");
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for _ in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.read().await;
                    oracle.reader_cs();
                    drop(guard);
                }
            });
        }));
    }
    for _ in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            for _ in 0..scenario.attempts {
                // Deprecated on purpose: fig. 3 has no doorway, and an
                // OS-parking `block_on(write())` would deadlock the Sched
                // scheduler — the raw-queue spin is the right wait here.
                #[allow(deprecated)]
                let guard = lock.write_blocking();
                oracle.writer_cs();
                drop(guard);
            }
        }));
    }
    Trial { tasks, post: async_settle_post(oracle, scenario, quiescent) }
}

/// The cancellation trial: readers poll a `read()` future **once** and
/// drop it wherever that leaves them — mid-doorway, parked, or holding
/// the guard — while writers run full `write().await` passages to create
/// the contention windows. Accounting treats a dropped pending future as
/// an aborted read attempt; the post-run quiescence check is the
/// cancel-safety oracle (no pid, waker slot, or reader count stays
/// pinned).
pub fn async_cancel_trial<L, R>(
    lock: Arc<AsyncRwLock<(), L, Sched, R>>,
    scenario: Scenario,
) -> Trial
where
    L: RawTryReadLock + RawParkedWaiters + 'static,
    R: Recorder + 'static,
{
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for _ in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let waker = parker_waker(Arc::new(SchedParker::new()));
            let mut cx = Context::from_waker(&waker);
            for _ in 0..scenario.attempts {
                let mut future = std::pin::pin!(lock.read());
                match future.as_mut().poll(&mut cx) {
                    Poll::Ready(guard) => {
                        oracle.reader_cs();
                        drop(guard);
                    }
                    // The drop under test: `future` falls here while its
                    // waker is parked and its pid is leased.
                    Poll::Pending => oracle.read_abort(),
                }
            }
        }));
    }
    for _ in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.write().await;
                    oracle.writer_cs();
                    drop(guard);
                }
            });
        }));
    }
    let scenario = Scenario { try_readers: true, ..scenario };
    let quiesce = Arc::clone(&lock);
    Trial { tasks, post: async_settle_post(oracle, scenario, move || quiesce.is_quiescent()) }
}

/// The **bounded-bypass** fairness trial: one writer manually polls
/// `write()` — recording the oracle's completed-read count at its first
/// `Poll::Pending`, the moment its doorway is tokened and counted like a
/// queued process — while readers churn through `read().await`. At the
/// grant the writer asserts that no more than `scenario.readers` reads
/// completed past the tokened doorway: a queued doorway (`L::QUEUED`)
/// fails every reader attempt arriving after `start_write`, so only the
/// read sessions already admitted (at most one per reader task) may
/// still finish ahead of the writer. A doorway that *claims* the queue
/// position but drops the token (the seeded `DropWaiterToken` mutant)
/// lets readers stream past and trips the oracle.
///
/// # Panics
///
/// Panics unless `scenario.writers == 1` (the bound is per-waiter) and
/// `L::QUEUED` (an advisory doorway honestly promises no bound — the
/// trial would be vacuous, not lenient).
pub fn async_fair_trial<L, R>(
    lock: Arc<AsyncRwLock<(), L, Sched, R>>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawTryReadLock + RawParkedWaiters + 'static,
    R: Recorder + 'static,
{
    assert!(!scenario.try_readers && !scenario.try_writers, "use async_write_cancel_trial");
    assert_eq!(scenario.writers, 1, "the bounded-bypass oracle tracks a single tokened waiter");
    assert!(L::QUEUED, "the bounded-bypass oracle needs a queued doorway");
    let oracle = Arc::new(RwOracle::new());
    let bound = scenario.readers;
    let mut tasks: Vec<TaskBody> = Vec::new();
    for _ in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.read().await;
                    oracle.reader_cs();
                    drop(guard);
                }
            });
        }));
    }
    {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let parker = Arc::new(SchedParker::new());
            let waker = parker_waker(Arc::clone(&parker));
            let mut cx = Context::from_waker(&waker);
            for _ in 0..scenario.attempts {
                let mut future = std::pin::pin!(lock.write());
                // Completed reads at the first Pending — a lower bound on
                // the count at `start_write`, so the bypass tally below
                // never over-counts (no false positives on the control).
                let mut tokened_at = None;
                let guard = loop {
                    match future.as_mut().poll(&mut cx) {
                        Poll::Ready(guard) => break guard,
                        Poll::Pending => {
                            if tokened_at.is_none() {
                                tokened_at = Some(oracle.totals().0);
                            }
                            parker.park();
                        }
                    }
                };
                if let Some(reads_at_token) = tokened_at {
                    let bypassed = oracle.totals().0 - reads_at_token;
                    assert!(
                        bypassed <= bound,
                        "bounded bypass violated: {bypassed} reads completed past the \
                         tokened writer (bound {bound})"
                    );
                }
                oracle.writer_cs();
                drop(guard);
            }
        }));
    }
    Trial { tasks, post: async_settle_post(oracle, scenario, quiescent) }
}

/// The writer-side cancellation trial: writers poll a `write()` future
/// **once** and drop it wherever that leaves them — claim word held,
/// doorway tokened mid-drain, or holding the guard — while readers run
/// full `read().await` passages to create the drain windows. This is the
/// schedule exploration of the cancel/unlink race: the drop must revoke
/// the doorway (fig. 1's deferred-zombie protocol, the ticket's
/// abandoned-head skip), free the claim word, unthread the intrusive
/// waiter node, and wake the bystanders — or the post-run quiescence
/// check reports what stayed pinned.
pub fn async_write_cancel_trial<L, R>(
    lock: Arc<AsyncRwLock<(), L, Sched, R>>,
    scenario: Scenario,
) -> Trial
where
    L: RawTryReadLock + RawParkedWaiters + 'static,
    R: Recorder + 'static,
{
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for _ in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            block_on_sched(async {
                for _ in 0..scenario.attempts {
                    let guard = lock.read().await;
                    oracle.reader_cs();
                    drop(guard);
                }
            });
        }));
    }
    for _ in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let waker = parker_waker(Arc::new(SchedParker::new()));
            let mut cx = Context::from_waker(&waker);
            for _ in 0..scenario.attempts {
                let mut future = std::pin::pin!(lock.write());
                match future.as_mut().poll(&mut cx) {
                    Poll::Ready(guard) => {
                        oracle.writer_cs();
                        drop(guard);
                    }
                    // The drop under test: `future` falls here holding the
                    // claim word and (usually) a tokened doorway.
                    Poll::Pending => oracle.write_abort(),
                }
            }
        }));
    }
    let scenario = Scenario { try_writers: true, ..scenario };
    let quiesce = Arc::clone(&lock);
    Trial { tasks, post: async_settle_post(oracle, scenario, move || quiesce.is_quiescent()) }
}

fn async_settle_post(
    oracle: Arc<RwOracle>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Box<dyn FnOnce() -> Result<(), String>> {
    Box::new(move || {
        oracle.settle(&scenario)?;
        if !quiescent() {
            return Err("async lock is not quiescent after a clean run".into());
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_mutex::sched::{run_tasks, RoundRobin};

    #[test]
    fn sched_parker_runs_natively_off_tasks() {
        // Off scheduler tasks the Sched backend executes natively, so the
        // parker is an ordinary spin-flag — unpark-then-park returns.
        let p = SchedParker::new();
        p.unpark();
        p.park();
    }

    #[test]
    fn block_on_sched_drives_a_future_under_the_scheduler() {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {
            assert_eq!(block_on_sched(async { 6 * 7 }), 42);
        })];
        let out = run_tasks(tasks, &mut RoundRobin::default(), 1_000);
        assert!(out.result.is_ok(), "{:?}", out.result);
    }
}
