//! Measure the paper's headline claim yourself: RMRs per lock passage
//! under the cache-coherent cost model, as contention grows.
//!
//! Runs the shipped Figure 1 lock and the shipped 1971 centralized lock
//! over the deterministic `Sched` backend, which charges every shared
//! access to the performing task's CC tally, and prints the worst passage
//! over a few schedules: Figure 1 stays constant, the centralized lock
//! grows. For the full sweep over every lock and baseline, run
//! `cargo run --release -p rmr-bench --bin real_rmr_table`.
//!
//! ```text
//! cargo run --release --example rmr_count
//! ```

use rmr_check::strategies::RandomWalk;
use rmrw::baselines::CentralizedRwLock;
use rmrw::core::raw::RawRwLock;
use rmrw::core::registry::Pid;
use rmrw::core::swmr::SwmrWriterPriority;
use rmrw::mutex::mem;
use rmrw::mutex::sched::{run_tasks, RoundRobin, Sched, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Worst CC RMRs of any passage: one writer (pid 0) and `readers` readers,
/// two passages each, under `strategy`.
fn max_rmr<L: RawRwLock + 'static>(lock: L, readers: usize, strategy: &mut dyn Strategy) -> u64 {
    let lock = Arc::new(lock);
    let worst = Arc::new(AtomicU64::new(0));
    let tasks = (0..=readers)
        .map(|i| {
            let (lock, worst) = (Arc::clone(&lock), Arc::clone(&worst));
            Box::new(move || {
                mem::set_thread_slot(i);
                let pid = Pid::from_index(i);
                for _ in 0..2 {
                    mem::reset_thread_tally();
                    if i == 0 {
                        let t = lock.write_lock(pid);
                        lock.write_unlock(pid, t);
                    } else {
                        let t = lock.read_lock(pid);
                        lock.read_unlock(pid, t);
                    }
                    worst.fetch_max(mem::thread_tally().cc, Ordering::Relaxed);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let outcome = run_tasks(tasks, strategy, 10_000_000);
    assert!(outcome.result.is_ok(), "{:?}", outcome.result);
    worst.load(Ordering::Relaxed)
}

/// The worst passage over round-robin and three random walks.
fn worst_over_schedules<L: RawRwLock + 'static>(make: impl Fn() -> L, readers: usize) -> u64 {
    let mut worst = max_rmr(make(), readers, &mut RoundRobin::default());
    for seed in 0..3 {
        worst = worst.max(max_rmr(make(), readers, &mut RandomWalk::new(seed)));
    }
    worst
}

fn main() {
    println!("max CC RMRs per passage, worst over 4 schedules\n");
    println!("| readers | Fig. 1 (Bhatt-Jayanti) | centralized (Courtois 1971) |");
    println!("|---|---|---|");
    for readers in [1usize, 2, 4, 8, 16] {
        let fig1 = worst_over_schedules(|| SwmrWriterPriority::new_in(Sched), readers);
        let cent = worst_over_schedules(|| CentralizedRwLock::new_in(readers + 1, Sched), readers);
        println!("| {readers} | {fig1} | {cent} |");
    }
    println!("\nThe left column stays flat — that is Theorem 1's O(1) RMR bound.");
    println!("The right column grows with contention — the cost the paper removes.");
}
