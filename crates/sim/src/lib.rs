//! Abstract shared-memory machine for verifying and measuring the
//! constant-RMR reader-writer algorithms of Bhatt & Jayanti (PODC 2010).
//!
//! The paper's claims are stated over an abstract model: processes take
//! atomic steps on shared read/write/fetch&add/CAS variables, and cost is
//! counted in *remote memory references* under the cache-coherent (CC) or
//! distributed-shared-memory (DSM) model. This crate implements that model
//! directly:
//!
//! * [`mem`] — word-addressed shared memory, one atomic operation per step;
//! * [`cost`] — the CC (write-invalidate) and DSM RMR cost models;
//! * [`machine`] — algorithms as PC-based step machines whose program
//!   counters mirror the paper's line numbers;
//! * [`algos`] — encodings of Figures 1–4, Anderson's lock, the classic
//!   mutexes, and deliberately broken mutants (§3.3/§4.3 regressions);
//! * [`runner`] — schedulers (round-robin, seeded random, weighted
//!   adversary) and per-attempt logging (timing, steps, RMRs);
//! * [`explore`] — exhaustive bounded model checking over all
//!   interleavings;
//! * [`predicates`] — the exclusion/deadlock safety predicates, shared
//!   verbatim with the real-code checker (`rmr-check`);
//! * [`props`] — checkers for the paper's properties P1–P7, RP1/RP2,
//!   WP1/WP2;
//! * [`trace`] — counterexample extraction (violations as replayable
//!   schedules);
//! * [`invariants`] — the Appendix A / Figure 5 proof invariants as state
//!   predicates.
//!
//! # Example: model-check Figure 1 exhaustively
//!
//! ```
//! use rmr_sim::algos::fig1::Fig1;
//! use rmr_sim::explore::{explore, StateCheck};
//! use rmr_sim::invariants::fig1_invariants;
//!
//! let alg = Fig1::new(1); // 1 writer + 1 reader
//! let checks: [StateCheck<'_, Fig1>; 1] = [&fig1_invariants];
//! let report = explore(&alg, &[1, 1], 1_000_000, &checks);
//! assert!(report.clean());
//! ```
//!
//! # Example: measure RMRs under the CC model
//!
//! ```
//! use rmr_sim::algos::fig1::Fig1;
//! use rmr_sim::cost::CcModel;
//! use rmr_sim::runner::{RandomSched, Runner};
//!
//! let alg = Fig1::new(4);
//! let vars = rmr_sim::machine::Algorithm::layout(&alg).len();
//! let mut runner = Runner::new(alg, CcModel::new(5, vars), 3);
//! runner.run(&mut RandomSched::new(7), 100_000);
//! let max_rmrs = runner.finished_attempts().iter().map(|a| a.rmrs).max().unwrap();
//! assert!(max_rmrs < 30); // O(1), not O(n)
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algos;
pub mod cost;
pub mod explore;
pub mod invariants;
pub mod machine;
pub mod mem;
pub mod predicates;
pub mod props;
pub mod rng;
pub mod runner;
pub mod trace;

pub use machine::{Algorithm, Phase, Role, StepEvent};
pub use runner::{AttemptLog, Config, RandomSched, RoundRobin, Runner, WeightedSched};
