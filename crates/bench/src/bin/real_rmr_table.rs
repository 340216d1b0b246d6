//! E7/E13 — the RMR ledger on the **real** implementations: worst and mean
//! CC RMRs per passage as the reader population grows, for the paper's
//! five locks (expected: flat) versus the baselines (expected: growing).
//!
//! The tallies come from the shipped `rmr-core`/`rmr-baselines` code run
//! under the deterministic `Sched` backend over a fixed schedule set, so
//! two runs print identical bytes (see `rmr_bench::real`).
//!
//! ```text
//! cargo run --release -p rmr-bench --bin real_rmr_table [-- --json --quick]
//! ```

use rmr_bench::cli::BenchArgs;
use rmr_bench::real::{real_rmr_row, RealAlgo};
use rmr_bench::tables::{rmr_table_of, shape_summary, RmrRow};

fn main() {
    let args = BenchArgs::parse(
        "real_rmr_table",
        "E7/E13: RMRs per passage on the real lock implementations (Sched ledger, CC model)",
    );
    let populations: &[usize] = if args.quick { &[1, 2, 4, 8] } else { &[1, 2, 4, 8, 16, 32, 48] };
    let passages = 2;
    let writers = 2;

    let mut rows: Vec<RmrRow> = Vec::new();
    for algo in RealAlgo::PAPER.iter().chain(RealAlgo::BASELINES.iter()) {
        for &readers in populations {
            rows.push(real_rmr_row(*algo, writers, readers, passages));
        }
    }

    if args.json {
        print!("{}", rmr_table_of(&rows).json());
        return;
    }

    println!(
        "# E7/E13 — RMRs per passage vs. population, real implementations (CC model, \
         {writers} writers, {passages} passages/task, worst over the schedule set)\n"
    );
    print!("{}", rmr_table_of(&rows).markdown());

    // Compact per-algorithm summary: max RMR per passage at the smallest
    // and largest population, so the flat-vs-growing contrast is obvious.
    let small_n = populations[0];
    let large_n = *populations.last().expect("non-empty sweep");
    println!("\n## Shape summary (max RMR per passage: {small_n} readers -> {large_n} readers)\n");
    let algos = RealAlgo::PAPER.iter().chain(RealAlgo::BASELINES.iter()).map(|a| a.name());
    print!("{}", shape_summary(&rows, algos, small_n, large_n).markdown());
    println!(
        "\nSpin traffic is charged to the waiting passage, so a growing max means\n\
         waiters pay more remote references as the population grows. Every\n\
         schedule replays exactly — see rmr_bench::real and EXPERIMENTS.md E13."
    );
}
