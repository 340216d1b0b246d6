//! E7/E13 — the RMR ledger on the **shipped** lock implementations.
//!
//! Every lock in `rmr-core`/`rmr-baselines` is generic over the memory
//! backend of `rmr_mutex::mem`. Instantiated with [`Sched`], the identical
//! algorithm runs under the deterministic scheduler, and every shared
//! access it performs is charged to the performing task's CC tally
//! (`rmr_mutex::sched`, "RMR accounting"). The count is a ledger, not a
//! sample: the scheduler runs one operation at a time, so each copy-set
//! update is exact, and a schedule replays bit for bit.
//!
//! Methodology: `writers + readers` tasks, each on its own accounting slot
//! (= its lock pid), perform `passages` acquire/release passages each,
//! with one yield point inside the critical section so waiters can queue
//! behind the holder. The task's tally is reset before and read after every
//! passage, so each passage's remote-reference count — all spin traffic
//! included — is attributed exactly to it. RMR complexity is a worst case
//! over schedules, so each point runs a fixed set of 14: round-robin, a
//! wake-spinners-first adversary, and six seeds each of
//! [`Pct`] and [`RandomWalk`]. The table reports the worst and the mean
//! passage over all of them. A run that does not finish cleanly
//! (deadlock, budget, panic) aborts the sweep.

use crate::tables::RmrRow;
use rmr_baselines::{
    CentralizedRwLock, CourtoisWriterPrefRwLock, DistributedFlagRwLock, TicketRwLock,
    TournamentRwLock,
};
use rmr_check::strategies::{Pct, RandomWalk};
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use rmr_core::swmr::{SwmrReaderPriority, SwmrWriterPriority};
use rmr_mutex::mem;
use rmr_mutex::sched::{self, run_tasks, PickView, RoundRobin, Sched, Strategy};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Seeds run per seeded strategy ([`Pct`] and [`RandomWalk`]).
const SEEDS: u64 = 6;

/// Turns granted per run before it counts as livelocked. A 50-task
/// baseline run at the full sweep's largest point needs well under a
/// tenth of this.
const BUDGET: u64 = 20_000_000;

/// The real implementations the ledger covers, named to match the
/// simulator sweep ([`crate::tables::SimAlgo`]) where both exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealAlgo {
    /// `rmr_core::swmr::SwmrWriterPriority` (Figure 1). Forces `writers = 1`.
    Fig1,
    /// `rmr_core::swmr::SwmrReaderPriority` (Figure 2). Forces `writers = 1`.
    Fig2,
    /// `rmr_core::mwmr::MwmrStarvationFree` (Figure 3 over Figure 1).
    Fig3Sf,
    /// `rmr_core::mwmr::MwmrReaderPriority` (Figure 3 over Figure 2).
    Fig3Rp,
    /// `rmr_core::mwmr::MwmrWriterPriority` (Figure 4).
    Fig4,
    /// `rmr_baselines::CentralizedRwLock` (Courtois et al. 1971, reader pref.).
    Centralized,
    /// `rmr_baselines::CourtoisWriterPrefRwLock` (Courtois et al. 1971, writer pref.).
    CourtoisWp,
    /// `rmr_baselines::TicketRwLock` (task-fair ticket RW).
    TicketRw,
    /// `rmr_baselines::DistributedFlagRwLock` (per-reader flags).
    DistributedFlag,
    /// `rmr_baselines::TournamentRwLock` (counting tree, Θ(log n) readers).
    Tournament,
}

impl RealAlgo {
    /// Stable display name (matching the simulator sweep where applicable).
    pub fn name(self) -> &'static str {
        match self {
            RealAlgo::Fig1 => "fig1-swmr-wp",
            RealAlgo::Fig2 => "fig2-swmr-rp",
            RealAlgo::Fig3Sf => "fig3-mwmr-sf",
            RealAlgo::Fig3Rp => "fig3-mwmr-rp",
            RealAlgo::Fig4 => "fig4-mwmr-wp",
            RealAlgo::Centralized => "centralized-1971",
            RealAlgo::CourtoisWp => "courtois-wp-1971",
            RealAlgo::TicketRw => "ticket-rw",
            RealAlgo::DistributedFlag => "distributed-flag",
            RealAlgo::Tournament => "tournament-tree",
        }
    }

    /// The paper's five locks.
    pub const PAPER: [RealAlgo; 5] =
        [RealAlgo::Fig1, RealAlgo::Fig2, RealAlgo::Fig3Sf, RealAlgo::Fig3Rp, RealAlgo::Fig4];

    /// The baselines.
    pub const BASELINES: [RealAlgo; 5] = [
        RealAlgo::Centralized,
        RealAlgo::CourtoisWp,
        RealAlgo::TicketRw,
        RealAlgo::DistributedFlag,
        RealAlgo::Tournament,
    ];

    /// Whether the algorithm admits only a single concurrent writer.
    pub fn single_writer(self) -> bool {
        matches!(self, RealAlgo::Fig1 | RealAlgo::Fig2)
    }
}

/// Adversarial policy: a task that was stalled at an earlier decision and
/// is runnable again — a spinner whose variable just changed — runs before
/// anyone else, so it pays its re-read before the next invalidation can
/// coalesce with this one. Otherwise round-robin.
#[derive(Debug, Default)]
struct WakeSpinners {
    stalled: Vec<usize>,
    woken: VecDeque<usize>,
    tail: RoundRobin,
}

impl Strategy for WakeSpinners {
    fn pick(&mut self, view: &PickView<'_>) -> usize {
        for &t in view.runnable {
            if self.stalled.contains(&t) && !self.woken.contains(&t) {
                self.woken.push_back(t);
            }
        }
        self.woken.retain(|t| view.runnable.contains(t));
        self.stalled =
            view.unfinished.iter().copied().filter(|t| !view.runnable.contains(t)).collect();
        self.woken.pop_front().unwrap_or_else(|| self.tail.pick(view))
    }
}

/// The fixed schedule set every ledger point runs: round-robin, the
/// wake-spinners-first adversary, and [`SEEDS`] seeds each of PCT (depth
/// 3) and a uniform random walk.
fn schedules() -> Vec<Box<dyn Strategy>> {
    let mut out: Vec<Box<dyn Strategy>> =
        vec![Box::new(RoundRobin::default()), Box::new(WakeSpinners::default())];
    out.extend((0..SEEDS).map(|s| Box::new(Pct::new(s, 3, 1024)) as Box<dyn Strategy>));
    out.extend((0..SEEDS).map(|s| Box::new(RandomWalk::new(s)) as Box<dyn Strategy>));
    out
}

/// One measured passage: its role and the CC RMRs charged to it.
#[derive(Debug, Clone, Copy)]
struct Passage {
    writer: bool,
    cc: u64,
}

/// Runs every schedule of [`schedules`] over a fresh `make()` lock and
/// returns every passage's CC RMRs.
fn ledger<L: RawRwLock + 'static>(
    name: &str,
    make: impl Fn() -> L,
    writers: usize,
    readers: usize,
    passages: usize,
) -> Vec<Passage> {
    let total = writers + readers;
    assert!(total <= mem::MAX_SLOTS, "population {total} exceeds the accounting slot limit");
    let mut out = Vec::new();
    for mut strategy in schedules() {
        let lock = Arc::new(make());
        let log = Arc::new(Mutex::new(Vec::new()));
        let tasks = (0..total)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let log = Arc::clone(&log);
                Box::new(move || {
                    mem::set_thread_slot(i);
                    let pid = Pid::from_index(i);
                    let writer = i < writers;
                    for _ in 0..passages {
                        mem::reset_thread_tally();
                        if writer {
                            let t = lock.write_lock(pid);
                            sched::yield_point();
                            lock.write_unlock(pid, t);
                        } else {
                            let t = lock.read_lock(pid);
                            sched::yield_point();
                            lock.read_unlock(pid, t);
                        }
                        let cc = mem::thread_tally().cc;
                        log.lock().expect("ledger log").push(Passage { writer, cc });
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let outcome = run_tasks(tasks, strategy.as_mut(), BUDGET);
        if let Err(err) = outcome.result {
            panic!("{name} ({writers} writers, {readers} readers): {err}");
        }
        out.append(&mut log.lock().expect("ledger log"));
    }
    out
}

/// Measures one algorithm/population point on the real implementation
/// over the [`Sched`] ledger. `writers` is forced to 1 for the
/// single-writer algorithms.
pub fn real_rmr_row(algo: RealAlgo, writers: usize, readers: usize, passages: usize) -> RmrRow {
    let writers = if algo.single_writer() { 1 } else { writers };
    let n = writers + readers;
    let name = algo.name();
    let measured = match algo {
        RealAlgo::Fig1 => {
            ledger(name, || SwmrWriterPriority::new_in(Sched), writers, readers, passages)
        }
        RealAlgo::Fig2 => {
            ledger(name, || SwmrReaderPriority::new_in(Sched), writers, readers, passages)
        }
        RealAlgo::Fig3Sf => {
            ledger(name, || MwmrStarvationFree::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::Fig3Rp => {
            ledger(name, || MwmrReaderPriority::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::Fig4 => {
            ledger(name, || MwmrWriterPriority::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::Centralized => {
            ledger(name, || CentralizedRwLock::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::CourtoisWp => {
            ledger(name, || CourtoisWriterPrefRwLock::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::TicketRw => {
            ledger(name, || TicketRwLock::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::DistributedFlag => {
            ledger(name, || DistributedFlagRwLock::new_in(n, Sched), writers, readers, passages)
        }
        RealAlgo::Tournament => {
            ledger(name, || TournamentRwLock::new_in(n, Sched), writers, readers, passages)
        }
    };

    let worst = |writer: bool| {
        measured.iter().filter(|p| p.writer == writer).map(|p| p.cc).max().unwrap_or(0)
    };
    let (max_reader, max_writer) = (worst(false), worst(true));
    let sum: u64 = measured.iter().map(|p| p.cc).sum();
    RmrRow {
        algo: name.to_string(),
        model: "cc".into(),
        writers,
        readers,
        max_rmr: max_reader.max(max_writer),
        mean_rmr: sum as f64 / measured.len().max(1) as f64,
        max_reader_rmr: max_reader,
        max_writer_rmr: max_writer,
        attempts: measured.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_real_row_is_small_and_complete() {
        let row = real_rmr_row(RealAlgo::Fig1, 1, 3, 4);
        assert_eq!(row.writers, 1);
        assert_eq!(row.attempts, 16 * schedules().len(), "4 tasks x 4 passages per schedule");
        assert!(row.max_rmr > 0, "uncounted passages: {row:?}");
        assert!(row.max_rmr <= 40, "fig1 passage should be O(1): {row:?}");
    }

    /// The ledger's two shapes on the shipped code, at 2 and 8 readers
    /// (2 writers; 1 for Fig. 1/2): every paper lock stays under one
    /// constant, every baseline's worst passage grows.
    fn rows_at_2_and_8(algo: RealAlgo) -> (RmrRow, RmrRow) {
        (real_rmr_row(algo, 2, 2, 2), real_rmr_row(algo, 2, 8, 2))
    }

    #[test]
    fn paper_locks_ledger_is_bounded_by_a_constant() {
        const BOUND: u64 = 24;
        for algo in RealAlgo::PAPER {
            let (small, large) = rows_at_2_and_8(algo);
            assert!(small.max_rmr <= BOUND && large.max_rmr <= BOUND, "{small:?} {large:?}");
        }
    }

    fn assert_ledger_grows(algo: RealAlgo) {
        let (small, large) = rows_at_2_and_8(algo);
        assert!(large.max_rmr > small.max_rmr, "no growth: {small:?} {large:?}");
    }

    #[test]
    fn centralized_reader_batch_rmrs_grow_with_n() {
        assert_ledger_grows(RealAlgo::Centralized);
    }

    #[test]
    fn tournament_reader_rmrs_grow_with_n() {
        assert_ledger_grows(RealAlgo::Tournament);
    }

    #[test]
    fn other_baselines_ledger_grows_with_readers() {
        for algo in [RealAlgo::CourtoisWp, RealAlgo::TicketRw, RealAlgo::DistributedFlag] {
            assert_ledger_grows(algo);
        }
    }

    #[test]
    fn all_algos_measure_without_deadlock() {
        for algo in RealAlgo::PAPER.iter().chain(RealAlgo::BASELINES.iter()) {
            let row = real_rmr_row(*algo, 1, 2, 2);
            assert!(row.attempts > 0, "{row:?}");
        }
    }
}
