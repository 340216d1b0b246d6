//! A sharded read-mostly key-value cache served through
//! `RwLock<_, Bravo<…>>` — the workload the BRAVO wrapper exists for.
//!
//! Each shard is a `HashMap` behind a ticket lock wrapped in `Bravo`:
//! cache hits take the biased reader fast path (zero operations on the
//! inner lock), misses fill the entry under the write lock, which revokes
//! the shard's bias; the deterministic counter policy re-biases the shard
//! once reads dominate again. A small multi-threaded driver runs a
//! Zipf-ish 99%-read mix. All bookkeeping — hits, misses, acquire
//! latency quantiles — lives in one shared `rmr-obs` `StatsRecorder`
//! attached to every shard: the `UserHit`/`UserMiss` counters replace
//! the hand-rolled atomic tallies this example used to carry, and the
//! same recorder's histograms give the read-path p50/p99 for free.
//!
//! ```text
//! cargo run --release --example read_mostly_cache
//! ```

use rmrw::baselines::TicketRwLock;
use rmrw::bravo::Bravo;
use rmrw::core::RwLock;
use rmrw::obs::{Event, Metric, Recorder, StatsRecorder};
use rmrw::sim::rng::SplitMix64;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 200_000;
const KEYS: u64 = 4096;

type Shard = RwLock<HashMap<u64, u64>, Bravo<TicketRwLock>, Arc<StatsRecorder>>;

/// The value the cache computes on a miss (stand-in for a slow backend).
fn compute(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9).rotate_left(13)
}

fn shard_of(key: u64) -> usize {
    (key % SHARDS as u64) as usize
}

fn main() {
    let rec = Arc::new(StatsRecorder::new(THREADS + 1));
    let cache: Arc<Vec<Shard>> = Arc::new(
        (0..SHARDS)
            .map(|_| {
                // One table slot per possible thread: a revocation scans
                // THREADS + 1 lines.
                RwLock::with_raw(HashMap::new(), Bravo::new(TicketRwLock::new(THREADS + 1)))
                    .with_recorder(Arc::clone(&rec))
            })
            .collect(),
    );

    let started = Instant::now();
    let mut threads = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        let rec = Arc::clone(&rec);
        threads.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(0xCAC4E ^ (t as u64) << 32);
            for _ in 0..OPS_PER_THREAD {
                // Skewed key popularity: half the traffic on 1/16 of the
                // keyspace, so hot shards go read-only fast.
                let key = if rng.gen_bool(0.5) {
                    rng.next_u64() % (KEYS / 16)
                } else {
                    rng.next_u64() % KEYS
                };
                let shard = &cache[shard_of(key)];
                if let Some(v) = shard.read().get(&key).copied() {
                    assert_eq!(v, compute(key), "cache served a wrong value");
                    rec.count(t, Event::UserHit);
                    continue;
                }
                rec.count(t, Event::UserMiss);
                // Miss: fill under the write lock (revokes the shard's
                // bias; double-check under the lock as another thread may
                // have filled it first).
                shard.write().entry(key).or_insert_with(|| compute(key));
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }

    let elapsed = started.elapsed();
    let (h, m) = (rec.counter(Event::UserHit), rec.counter(Event::UserMiss));
    let total = h + m;
    println!(
        "{total} lookups over {SHARDS} shards in {elapsed:?} — {:.1} Mops/s, hit rate {:.2}%",
        total as f64 / elapsed.as_secs_f64() / 1e6,
        100.0 * h as f64 / total as f64,
    );
    println!(
        "read acquire: p50 ≤{} ns, p99 ≤{} ns from {} timed of {} passages ({} contended)",
        rec.quantile(Metric::ReadAcquireNs, 0.50),
        rec.quantile(Metric::ReadAcquireNs, 0.99),
        rec.samples(Metric::ReadAcquireNs),
        rec.counter(Event::ReadAcquire),
        rec.counter(Event::ReadContended),
    );
    assert_eq!(rec.counter(Event::ReadAcquire), rec.counter(Event::ReadRelease));
    for (i, shard) in cache.iter().enumerate() {
        let raw = shard.raw();
        println!(
            "shard {i}: {} keys, bias {}, {} revocations",
            shard.read().len(),
            if raw.bias() { "on " } else { "off" },
            raw.revocations(),
        );
        assert!(raw.is_quiescent(), "shard {i} table did not drain");
    }
}
