//! Shared harness for the paper's experiment binaries (RMR, DSM, fairness,
//! priority, property and checker tables) and the per-op `uncontended`
//! bench. Wall-clock performance is measured by `perfbench/` alone. See
//! EXPERIMENTS.md at the workspace root for the experiment index and the
//! recorded results.

#![warn(missing_docs)]

pub mod cli;
pub mod real;
pub mod tables;
