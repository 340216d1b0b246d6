//! Deterministic schedule exploration of the *shipped* lock
//! implementations.
//!
//! `rmr-sim` model-checks line-level *re-encodings* of the paper's
//! algorithms; the stress tests exercise the real Rust locks but at the
//! mercy of the OS scheduler. This crate closes that gap: it drives the
//! real implementations — the five core locks of `rmr-core`, the four
//! mutexes of `rmr-mutex`, the `rmr-baselines` comparators, and
//! `PidRegistry` — through the [`Sched`](rmr_mutex::sched) memory backend,
//! whose cooperative scheduler makes every interleaving a deterministic,
//! replayable function of a strategy and a seed.
//!
//! Three exploration modes:
//!
//! * **Randomized walks** ([`strategies::RandomWalk`]) — uniform schedule
//!   sampling, seeded with the workspace's `SplitMix64`.
//! * **PCT** ([`strategies::Pct`]) — the probabilistic concurrency testing
//!   scheduler of Burckhardt et al.: random task priorities plus `d − 1`
//!   random priority-change points, which finds depth-`d` ordering bugs
//!   with provable probability instead of hoping a uniform walk stumbles
//!   on them.
//! * **Bounded exhaustive DFS** ([`dfs`]) — every schedule of a small
//!   configuration, modulo a preemption bound (the CHESS insight:
//!   real-world concurrency bugs almost always need only 1–2 preemptions),
//!   with stall-driven context switches free of charge.
//!
//! The oracles ([`harness`]) panic inside the schedule the moment a
//! property breaks: reader-writer exclusion (the shared predicate
//! [`rmr_sim::predicates::rw_exclusion`]), plain mutual exclusion for the
//! mutex substrate, torn cross-variable reads, post-run quiescence
//! (`is_quiescent` / counters back to zero), and — from the scheduler
//! itself — deadlock and budget exhaustion. Every failure prints a
//! one-line replay recipe; [`harness::replay`] reruns it exactly.
//!
//! The same machinery checks the **async tier**: [`async_exec`] runs
//! `rmr-async` futures under the scheduler (each task a deterministic
//! executor whose idle wait is a `Sched` spin), so parking races are
//! explored per shared-memory operation and a lost wake-up is a
//! replayable deadlock report, not a hung test.
//!
//! The mutation battery proves the checker has teeth: each seeded bug
//! (dropped gate store, lying acquire swap, skipped side flip, dropped
//! wake-up, demoted ordering, …) must be caught within a bounded
//! schedule budget. Most are [`Fault`](rmr_mutex::sched::Fault)s armed at
//! typed sites of the shipped locks; [`mutants`] holds the two that are
//! not single-site faults.
//!
//! # Example
//!
//! ```
//! use rmr_check::harness::{pct_battery, rw_trial, Scenario};
//! use rmr_core::swmr::SwmrWriterPriority;
//! use rmr_mutex::Sched;
//! use std::sync::Arc;
//!
//! let scenario = Scenario::new(2, 1, 1); // 2 readers, 1 writer, 1 attempt
//! let report = pct_battery(
//!     "fig1-swmr-wp",
//!     || {
//!         let lock = Arc::new(SwmrWriterPriority::new_in(Sched));
//!         let quiesce = Arc::clone(&lock);
//!         rw_trial(lock, scenario, move || quiesce.is_quiescent())
//!     },
//!     0xf1,  // base seed
//!     8,     // schedules
//!     3,     // PCT depth
//!     20_000,
//! );
//! assert!(report.failure.is_none(), "{report}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_exec;
pub mod dfs;
pub mod harness;
pub mod litmus;
pub mod mutants;
pub mod obs;
pub mod strategies;

pub use async_exec::{block_on_sched, SchedParker};
pub use dfs::{exhaustive, exhaustive_in, DfsStrategy};
pub use harness::{
    pct_battery, random_battery, randomized_batteries, randomized_batteries_in, replay, replay_in,
    rw_trial, CheckFailure, CheckReport, Scenario, Trial,
};
pub use litmus::{litmus_suite, LitmusReport};
pub use strategies::{Pct, RandomWalk};

/// Base seed for the randomized suites: the value of the `RMR_TEST_SEED`
/// environment variable (decimal, or hex with an `0x` prefix) if set,
/// otherwise `default`.
///
/// Every failure report prints the concrete seed that produced it, so
/// `RMR_TEST_SEED=<that seed> cargo test <failing test>` replays the exact
/// schedule.
///
/// # Example
///
/// ```
/// let seed = rmr_check::env_seed(0xdead_beef);
/// assert!(seed == 0xdead_beef || std::env::var("RMR_TEST_SEED").is_ok());
/// ```
pub fn env_seed(default: u64) -> u64 {
    match std::env::var("RMR_TEST_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = raw
                .strip_prefix("0x")
                .or_else(|| raw.strip_prefix("0X"))
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| raw.parse());
            match parsed {
                Ok(seed) => seed,
                Err(_) => panic!("RMR_TEST_SEED must be a u64 (decimal or 0x-hex), got {raw:?}"),
            }
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_seed_falls_back_to_default() {
        // The test environment does not set RMR_TEST_SEED (and if a user
        // does, the override is exactly the documented behavior).
        if std::env::var("RMR_TEST_SEED").is_err() {
            assert_eq!(super::env_seed(42), 42);
        }
    }
}
