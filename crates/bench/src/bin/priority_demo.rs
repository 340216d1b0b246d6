//! E9 — priority semantics on real threads: writer entry latency under a
//! continuous read storm, for the three multi-writer policies.
//!
//! Expected shape: the writer-priority lock (Fig. 4) and the
//! starvation-free lock (Fig. 3 ∘ Fig. 1) bound writer latency; the
//! reader-priority lock (Fig. 3 ∘ Fig. 2) lets the storm delay writers
//! much longer (and with enough readers, forever — that is RP working).
//!
//! ```text
//! cargo run --release -p rmr-bench --bin priority_demo [-- --json --quick]
//! ```

use rmr_bench::cli::{BenchArgs, Table};
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writer entry latency while `reader_threads` churn reads continuously.
/// Returns per-write-attempt latencies.
fn writer_latency_under_read_storm<L: RawRwLock + 'static>(
    lock: Arc<L>,
    reader_threads: usize,
    write_attempts: usize,
    storm: Duration,
) -> Vec<Duration> {
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..reader_threads)
        .map(|t| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let pid = Pid::from_index(1 + t);
                while !stop.load(Ordering::SeqCst) {
                    let tok = lock.read_lock(pid);
                    std::hint::spin_loop();
                    lock.read_unlock(pid, tok);
                }
            })
        })
        .collect();

    let writer_pid = Pid::from_index(0);
    let mut latencies = Vec::with_capacity(write_attempts);
    let deadline = Instant::now() + storm;
    for _ in 0..write_attempts {
        if Instant::now() > deadline {
            break;
        }
        let t0 = Instant::now();
        let tok = lock.write_lock(writer_pid);
        latencies.push(t0.elapsed());
        lock.write_unlock(writer_pid, tok);
        std::thread::yield_now();
    }

    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().expect("read-storm thread panicked");
    }
    latencies
}

fn stats(lat: &[Duration]) -> (usize, Duration, Duration, Duration) {
    if lat.is_empty() {
        return (0, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    }
    let mut sorted: Vec<_> = lat.to_vec();
    sorted.sort();
    let total: Duration = sorted.iter().sum();
    (
        sorted.len(),
        total / sorted.len() as u32,
        sorted[sorted.len() / 2],
        *sorted.last().expect("non-empty"),
    )
}

fn main() {
    let args = BenchArgs::parse(
        "priority_demo",
        "E9: writer entry latency under a continuous read storm (real threads)",
    );
    let readers = 3usize;
    let attempts = if args.quick { 40 } else { 200 };
    let budget = if args.quick { Duration::from_secs(2) } else { Duration::from_secs(5) };

    let mut table = Table::new(&[
        ("policy", "policy"),
        ("writes completed", "writes_completed"),
        ("mean", "mean"),
        ("p50", "p50"),
        ("max", "max"),
    ]);
    fn measure<L: RawRwLock + 'static>(
        table: &mut Table,
        name: &str,
        lock: Arc<L>,
        readers: usize,
        attempts: usize,
        budget: Duration,
    ) {
        let lat = writer_latency_under_read_storm(lock, readers, attempts, budget);
        let (n, mean, p50, max) = stats(&lat);
        table.row(vec![
            name.into(),
            n.to_string(),
            format!("{mean:?}"),
            format!("{p50:?}"),
            format!("{max:?}"),
        ]);
    }

    measure(
        &mut table,
        "writer-priority (Fig. 4)",
        Arc::new(MwmrWriterPriority::new(readers + 1)),
        readers,
        attempts,
        budget,
    );
    measure(
        &mut table,
        "starvation-free (Fig. 3 ∘ Fig. 1)",
        Arc::new(MwmrStarvationFree::new(readers + 1)),
        readers,
        attempts,
        budget,
    );
    measure(
        &mut table,
        "reader-priority (Fig. 3 ∘ Fig. 2)",
        Arc::new(MwmrReaderPriority::new(readers + 1)),
        readers,
        attempts,
        budget,
    );

    if args.json {
        print!("{}", table.json());
        return;
    }

    println!("# E9 — writer latency under a {readers}-thread read storm\n");
    println!("(single writer performing up to {attempts} write attempts within {budget:?})\n");
    print!("{}", table.markdown());
    println!(
        "\nReader-priority writers may complete far fewer attempts (or stall\n\
         until the storm ends) — that is RP1 by design, not a bug."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_latency_probe_completes() {
        let lock = Arc::new(MwmrWriterPriority::new(4));
        let lat = writer_latency_under_read_storm(lock, 2, 5, Duration::from_secs(5));
        assert!(!lat.is_empty());
    }
}
