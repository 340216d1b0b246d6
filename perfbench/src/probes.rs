//! Single-thread layer probes for the traced run.
//!
//! * The **layer ladder** times one read passage on a fixed lock (the
//!   paper's Fig. 3 starvation-free lock) through each front-end layer in
//!   turn, so a regression names the rung that caused it.
//! * The **lease probe** times the public `lease_pid` + `release_pid`
//!   pair against as many registries as a workload touches.
//! * The **Counting replays** re-run a workload's op sequence on the
//!   `Counting` memory backend, one passage at a time, for exact CC RMRs
//!   per passage.
//! * The remaining probes stand in for a layer on the workloads whose
//!   path does not include it (the README lists which metric comes from
//!   where on each workload).
//!
//! Every probe runs on a fresh thread so its thread-local pid leases
//! neither see nor disturb any other thread's.

use crate::closed::time_per_call;
use crate::report::Metrics;
use crate::rng::SplitMix64;
use rmrw::async_lock::exec::block_on;
use rmrw::async_lock::AsyncRwLock;
use rmrw::bravo::Bravo;
use rmrw::core::mwmr::MwmrStarvationFree;
use rmrw::core::rwlock::{lease_pid, release_pid};
use rmrw::core::swmr::SwmrWriterPriority;
use rmrw::core::{Observed, Pid, PidRegistry, RawRwLock, RawTryReadLock, RwLock};
use rmrw::mutex::mem::{self, Counting, Native};
use rmrw::obs::{Event, NoopRecorder, Recorder, StatsRecorder};
use rmrw::swap::Snapshot;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time spent on each ladder rung, and on each stand-in probe.
const RUNG: Duration = Duration::from_millis(120);
const REPS: usize = 3;
/// Locks the `rwlock_4096` rung spreads its reads over.
const LADDER_LOCKS: usize = 4096;

/// Runs `f` on a fresh thread and returns its result.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("probe thread panicked"))
}

fn timed_async_reads<L: RawTryReadLock, R: Recorder>(lock: &AsyncRwLock<u64, L, Native, R>) -> f64 {
    block_on(async {
        let mut results = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < RUNG / REPS as u32 {
                for _ in 0..256 {
                    black_box(*lock.read().await);
                }
                calls += 256;
            }
            results.push(t0.elapsed().as_nanos() as f64 / calls as f64);
        }
        crate::hist::median(&results)
    })
}

/// The layer ladder, bottom rung first: (metric, ns per read passage).
pub fn ladder() -> Vec<(&'static str, f64)> {
    let pid = Pid::from_index(0);
    let raw = on_fresh_thread(|| {
        let l = MwmrStarvationFree::new(2);
        time_per_call(RUNG, REPS, 256, |_| {
            let t = l.read_lock(pid);
            l.read_unlock(pid, black_box(t));
        })
    });
    let observed = on_fresh_thread(|| {
        let l = Observed::new(MwmrStarvationFree::new(2), NoopRecorder);
        time_per_call(RUNG, REPS, 256, |_| {
            let t = l.read_lock(pid);
            l.read_unlock(pid, black_box(t));
        })
    });
    let rwlock = on_fresh_thread(|| {
        let l = RwLock::starvation_free(0u64, 2);
        time_per_call(RUNG, REPS, 256, |_| {
            black_box(*l.read());
        })
    });
    let rwlock_4096 = on_fresh_thread(|| {
        let locks: Vec<_> =
            (0..LADDER_LOCKS).map(|i| RwLock::starvation_free(i as u64, 2)).collect();
        let mut rng = SplitMix64::new(0x001A_DDE4);
        let order: Vec<u32> = (0..1 << 16).map(|_| rng.below(LADDER_LOCKS as u64) as u32).collect();
        for l in &locks {
            black_box(*l.read());
        }
        time_per_call(RUNG, REPS, 256, |i| {
            black_box(*locks[order[(i & 0xFFFF) as usize] as usize].read());
        })
    });
    let bravo = on_fresh_thread(|| {
        let l = RwLock::with_raw(0u64, Bravo::new(MwmrStarvationFree::new(2)));
        time_per_call(RUNG, REPS, 256, |_| {
            black_box(*l.read());
        })
    });
    let asynch = on_fresh_thread(|| {
        timed_async_reads(&AsyncRwLock::with_raw(0u64, Bravo::new(MwmrStarvationFree::new(2))))
    });
    let stats = on_fresh_thread(|| {
        let rec = Arc::new(StatsRecorder::new(2));
        let l = AsyncRwLock::with_raw(
            0u64,
            Bravo::new(MwmrStarvationFree::new(2)).with_recorder(Arc::clone(&rec)),
        )
        .with_recorder(rec);
        timed_async_reads(&l)
    });
    vec![
        ("ladder.raw_ns", raw),
        ("ladder.observed_ns", observed),
        ("ladder.rwlock_ns", rwlock),
        ("ladder.rwlock_4096_ns", rwlock_4096),
        ("ladder.bravo_ns", bravo),
        ("ladder.async_ns", asynch),
        ("ladder.stats_ns", stats),
    ]
}

/// Mean ns of one public `lease_pid` + `release_pid` pair on a thread
/// that holds leases on `registries` registries, touching them in
/// `order` (cycled).
pub fn lease_ns(registries: usize, order: &[u32]) -> f64 {
    on_fresh_thread(|| {
        let regs: Vec<Arc<PidRegistry>> =
            (0..registries.max(1)).map(|_| Arc::new(PidRegistry::new(2))).collect();
        let lease = |r: &Arc<PidRegistry>| {
            let (pid, source) = lease_pid(r).expect("fresh registry has room");
            release_pid(r, pid, source);
        };
        for &i in order {
            lease(&regs[i as usize % regs.len()]);
        }
        regs.iter().for_each(lease);
        time_per_call(RUNG, REPS, 64, |i| {
            lease(&regs[order[(i as usize) % order.len()] as usize % regs.len()]);
        })
    })
}

/// A generous constant bound on the CC RMRs of one raw passage; a
/// passage that needs more shows O(n) behaviour.
const PASSAGE_RMR_BOUND: u64 = 64;

/// Exact CC RMRs of replayed passages, split by side.
#[derive(Default, Debug, Clone, Copy)]
pub struct RmrTally {
    pub reads: u64,
    pub read_cc: u64,
    pub writes: u64,
    pub write_cc: u64,
    pub max_cc: u64,
}

impl RmrTally {
    /// Runs one passage as `client` (Counting slot `client + 1`) and
    /// tallies its CC RMRs.
    pub fn passage(&mut self, client: usize, write: bool, f: impl FnOnce()) {
        mem::set_thread_slot(client + 1);
        mem::reset_thread_tally();
        f();
        let cc = mem::thread_tally().cc;
        self.max_cc = self.max_cc.max(cc);
        if write {
            self.writes += 1;
            self.write_cc += cc;
        } else {
            self.reads += 1;
            self.read_cc += cc;
        }
    }

    pub fn per_read(&self) -> f64 {
        self.read_cc as f64 / self.reads.max(1) as f64
    }

    pub fn per_write(&self) -> f64 {
        self.write_cc as f64 / self.writes.max(1) as f64
    }

    /// The paper's claim: every passage costs O(1) RMRs, independent of
    /// the number of processes. `extra` allows for a wrapper's own
    /// constant (Bravo's revocation scans its whole table).
    pub fn within_constant_bound(&self, extra: u64) -> bool {
        self.max_cc <= PASSAGE_RMR_BOUND + extra
    }

    pub fn insert(&self, m: &mut Metrics) {
        m.insert("core.cc_rmr_read", self.per_read());
        m.insert("core.cc_rmr_write", self.per_write());
    }
}

/// Replays `ops` (client, is_write) as raw passages on the paper's Fig. 1
/// lock (`SwmrWriterPriority`) over the `Counting` backend.
pub fn replay_fig1(ops: impl Iterator<Item = (usize, bool)> + Send) -> RmrTally {
    on_fresh_thread(|| {
        let lock = SwmrWriterPriority::new_in(Counting);
        let mut tally = RmrTally::default();
        for (c, write) in ops {
            let pid = Pid::from_index(c);
            // Fully qualified: the lock's inherent single-writer methods
            // shadow the trait's pid-taking ones.
            tally.passage(c, write, || {
                if write {
                    let t = RawRwLock::write_lock(&lock, pid);
                    RawRwLock::write_unlock(&lock, pid, t);
                } else {
                    let t = RawRwLock::read_lock(&lock, pid);
                    RawRwLock::read_unlock(&lock, pid, t);
                }
            });
        }
        tally
    })
}

/// Single-lock `RwLock` (Fig. 3 starvation-free) leased read, leased
/// write and pinned read passages.
pub fn core_rw(m: &mut Metrics) {
    let (read, write, pinned) = on_fresh_thread(|| {
        let l = RwLock::starvation_free(0u64, 2);
        let read = time_per_call(RUNG, REPS, 256, |_| {
            black_box(*l.read());
        });
        let write = time_per_call(RUNG, REPS, 256, |i| {
            *l.write() = i;
        });
        let mut h = l.register().expect("probe lock has room");
        let pinned = time_per_call(RUNG, REPS, 256, |_| {
            black_box(*h.read());
        });
        (read, write, pinned)
    });
    m.insert("core.read_ns", read);
    m.insert("core.write_ns", write);
    m.insert("core.pinned_read_ns", pinned);
}

/// A routing-table-sized `Snapshot`: wait-free load and serialized
/// update.
pub fn swap(m: &mut Metrics) {
    let (load, update, swaps, peak) = on_fresh_thread(|| {
        let snap = Snapshot::new(vec![0u32; 16_384], 2);
        let load = time_per_call(RUNG, REPS, 256, |i| {
            black_box(snap.load()[(i & 0x3FFF) as usize]);
        });
        let update = time_per_call(RUNG, REPS, 16, |_| snap.update(|v| v.clone()));
        (load, update, snap.swaps(), snap.peak_retired())
    });
    m.insert("swap.load_ns", load);
    m.insert("swap.update_ns", update);
    m.insert("swap.swaps", swaps as f64);
    m.insert("swap.peak_retired", peak as f64);
}

/// A Bravo-wrapped `RwLock` at 99.9% reads with a live recorder, and its
/// recorder-less twin for the recorder's read overhead.
pub fn bravo_obs(m: &mut Metrics) {
    let (frac, revocations, write_ns, overhead) = on_fresh_thread(|| {
        let rec = Arc::new(StatsRecorder::new(2));
        let l = RwLock::with_raw(
            [0u64; 8],
            Bravo::new(MwmrStarvationFree::new(2)).with_recorder(Arc::clone(&rec)),
        )
        .with_recorder(Arc::clone(&rec));
        let mut writes = 0u64;
        let mut write_ns = 0u64;
        let with = time_per_call(RUNG, REPS, 1000, |i| {
            if i % 1000 == 999 {
                let t0 = Instant::now();
                l.write()[0] += 1;
                write_ns += t0.elapsed().as_nanos() as u64;
                writes += 1;
            } else {
                black_box(l.read()[0]);
            }
        });
        let twin = RwLock::with_raw([0u64; 8], Bravo::new(MwmrStarvationFree::new(2)));
        let without = time_per_call(RUNG, REPS, 1000, |i| {
            if i % 1000 == 999 {
                twin.write()[0] += 1;
            } else {
                black_box(twin.read()[0]);
            }
        });
        let fast = rec.counter(Event::BravoFastRead) as f64;
        let slow = rec.counter(Event::BravoSlowRead) as f64;
        (
            fast / (fast + slow).max(1.0),
            l.raw().revocations(),
            write_ns as f64 / writes.max(1) as f64,
            with - without,
        )
    });
    m.insert("bravo.fast_read_frac", frac);
    m.insert("bravo.revocations", revocations as f64);
    m.insert("bravo.write_ns", write_ns);
    m.insert("obs.read_overhead_ns", overhead);
}

/// The data layer alone: a `HashMap<u64, u64>` get over 1024 keys.
pub fn data(m: &mut Metrics) {
    let map: HashMap<u64, u64> = (0..1024u64).map(|k| (k, k << 32)).collect();
    let ns = time_per_call(RUNG, REPS, 256, |i| {
        black_box(map.get(&(i & 1023)));
    });
    m.insert("data.ns", ns);
}

/// Prints the ladder with each rung's delta over the rung below.
pub fn print_ladder(rungs: &[(&'static str, f64)]) {
    println!("layer ladder (one thread, Fig. 3 starvation-free lock, ns per read passage):");
    let mut below: Option<f64> = None;
    for (name, ns) in rungs {
        // The 4096-lock rung compares with the 1-lock rung; the Bravo
        // rung sits on the 1-lock rung too.
        let base = match *name {
            "ladder.bravo_ns" => rungs.iter().find(|r| r.0 == "ladder.rwlock_ns").map(|r| r.1),
            _ => below,
        };
        match base {
            Some(b) => println!("  {name:<24} {ns:>10.1}  ({:+.1} over the rung below)", ns - b),
            None => println!("  {name:<24} {ns:>10.1}"),
        }
        if *name != "ladder.rwlock_4096_ns" {
            below = Some(*ns);
        }
    }
}
