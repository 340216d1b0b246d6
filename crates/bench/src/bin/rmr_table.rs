//! E6 — the headline table on the models: RMRs per attempt under the CC
//! model as the number of processes grows, for the paper's five algorithms
//! (expected: flat). The baselines' growing rows (E7) come from their
//! shipped implementations in `real_rmr_table`.
//!
//! Regenerates the "RMR complexity" tables in EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p rmr-bench --bin rmr_table [-- --json --quick]
//! ```

use rmr_bench::cli::BenchArgs;
use rmr_bench::tables::{rmr_row, rmr_table_of, shape_summary, Model, RmrRow, SimAlgo};

fn main() {
    let args = BenchArgs::parse(
        "rmr_table",
        "E6: RMRs per attempt vs. population under the CC model (simulator)",
    );
    let populations: &[usize] = if args.quick { &[1, 2, 4, 8] } else { &[1, 2, 4, 8, 16, 32, 48] };
    let seeds = if args.quick { 2 } else { 5 };
    let attempts = if args.quick { 2 } else { 3 };
    let mut rows: Vec<RmrRow> = Vec::new();

    // Reader population sweep; 2 writers for the MWMR variants (CC model
    // caps at 64 processes total).
    for algo in SimAlgo::PAPER {
        for &readers in populations {
            rows.push(rmr_row(algo, 2, readers, Model::Cc, attempts, seeds));
        }
    }

    if args.json {
        print!("{}", rmr_table_of(&rows).json());
        return;
    }

    println!("# E6 — RMRs per attempt vs. population (CC model)\n");
    print!("{}", rmr_table_of(&rows).markdown());

    // Compact per-algorithm summary: max RMR across the sweep at smallest
    // and largest population, so the flat shape is obvious.
    let small_n = populations[0];
    let large_n = *populations.last().expect("non-empty sweep");
    println!("\n## Shape summary (max RMR per attempt: n small -> n large)\n");
    let algos = SimAlgo::PAPER.iter().map(|a| a.name());
    print!("{}", shape_summary(&rows, algos, small_n, large_n).markdown());
}
