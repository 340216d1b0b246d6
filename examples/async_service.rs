//! A toy lookup service on the async tier: worker "request handlers"
//! `await` a shared read-mostly table instead of spinning on it.
//!
//! Each worker thread runs one executor (`block_on`) processing a stream
//! of requests — mostly GETs (`read().await`), a few PUTs
//! (`write().await`). The lock is the paper's Figure 1
//! (`SwmrWriterPriority`) behind `AsyncRwLock`: a core SWMR lock serving
//! a cancellation-safe awaited writer, which is exactly what the
//! `RawParkedWaiters` doorway redesign bought (DESIGN.md §15) — before
//! it, these locks only offered `write_blocking` from a dedicated writer
//! thread, and an awaiting writer had no queue presence for the
//! writer-priority policy to protect. Any worker may PUT: the doorway
//! claim word serializes the writer role across tasks, so the
//! single-writer protocol sees one writer at a time even though no
//! single thread owns the role. A shared `rmr-obs` `StatsRecorder`
//! carries the service's bookkeeping — `UserHit`/`UserPut` replace
//! per-worker counter plumbing — and, because the same recorder is
//! attached to the lock, the park/wake traffic and the writer's
//! wake-to-grant tail come out of the identical object.
//!
//! ```text
//! cargo run --release --example async_service
//! ```

use rmrw::async_lock::exec::block_on;
use rmrw::async_lock::AsyncRwLock;
use rmrw::core::swmr::SwmrWriterPriority;
use rmrw::obs::{Event, Metric, Recorder, StatsRecorder};
use rmrw::sim::rng::SplitMix64;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 4;
const REQUESTS_PER_WORKER: usize = 50_000;
const KEYS: u64 = 1024;
/// One request in 64 is a PUT; the rest are GETs.
const PUT_ONE_IN: u64 = 64;

fn main() {
    let rec = Arc::new(StatsRecorder::new(WORKERS));
    let table: HashMap<u64, u64> = (0..KEYS / 2).map(|k| (k, k * k)).collect();
    let service = Arc::new(
        AsyncRwLock::with_raw_and_capacity(table, SwmrWriterPriority::new(), WORKERS)
            .with_recorder(Arc::clone(&rec)),
    );

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let service = Arc::clone(&service);
        let rec = Arc::clone(&rec);
        workers.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(0xA51_0000 ^ w as u64);
            block_on(async {
                for _ in 0..REQUESTS_PER_WORKER {
                    let key = rng.gen_index(KEYS as usize) as u64;
                    if rng.gen_index(PUT_ONE_IN as usize) == 0 {
                        service.write().await.insert(key, key * key);
                        rec.count(w, Event::UserPut);
                    } else if service.read().await.contains_key(&key) {
                        rec.count(w, Event::UserHit);
                    }
                }
            });
        }));
    }
    for worker in workers {
        worker.join().expect("worker panicked");
    }
    let elapsed = t0.elapsed();

    let hits = rec.counter(Event::UserHit);
    let puts = rec.counter(Event::UserPut);
    let requests = (WORKERS * REQUESTS_PER_WORKER) as u64;
    let gets = requests - puts;
    println!("async_service: {WORKERS} workers × {REQUESTS_PER_WORKER} requests (Fig. 1 lock)");
    println!(
        "  throughput : {:.0} req/s ({requests} requests in {elapsed:.2?})",
        requests as f64 / elapsed.as_secs_f64()
    );
    println!("  mix        : {gets} GETs ({hits} hits), {puts} PUTs");
    println!(
        "  writer     : acquire p99 ≤{} ns from {} timed of {} awaited writes; wake-to-grant \
         p99 ≤{} ns over {} parked grants",
        rec.quantile(Metric::WriteAcquireNs, 0.99),
        rec.samples(Metric::WriteAcquireNs),
        rec.counter(Event::WriteAcquire),
        rec.quantile(Metric::WakeToGrantNs, 0.99),
        rec.samples(Metric::WakeToGrantNs),
    );
    println!(
        "  parking    : {} parks, {} wake-ups delivered; {} readers / {} writers still parked",
        rec.counter(Event::AsyncPark),
        service.wakeups(),
        service.parked_readers(),
        service.parked_writers()
    );

    assert!(service.is_quiescent(), "service must quiesce once the workers are gone");
    assert!(service.raw().is_quiescent(), "the Fig. 1 protocol must drain");
    assert_eq!(
        rec.counter(Event::WriteAcquire),
        puts,
        "every PUT is exactly one write acquisition"
    );
    let size = block_on(async { service.read().await.len() });
    println!("  table size : {size} keys");
}
