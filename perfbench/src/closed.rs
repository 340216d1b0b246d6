//! Shared machinery for time-bounded runs: pre-spawned workers start
//! each measured segment together behind a barrier and stop when the
//! controller raises a flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Worker threads of every multi-threaded workload: the benchmark host
/// has 2 vCPUs, and the clients must not outnumber them.
pub const CLIENTS: usize = 2;

pub struct Control {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Control {
    /// Controls [`CLIENTS`] workers.
    pub fn new() -> Self {
        Self { barrier: Barrier::new(CLIENTS + 1), stop: AtomicBool::new(false) }
    }

    /// Worker side: blocks until the controller starts the next segment.
    pub fn start(&self) {
        self.barrier.wait();
    }

    /// Worker side: true once the current segment is over.
    #[inline]
    pub fn stopped(&self) -> bool {
        // Relaxed: the flag publishes nothing; the end barrier orders
        // everything the workers did before it.
        self.stop.load(Ordering::Relaxed)
    }

    /// Worker side: reports the segment finished.
    pub fn finish(&self) {
        self.barrier.wait();
    }

    /// Controller side: runs one segment of length `d` and returns its
    /// measured length, from the start barrier until every worker has
    /// finished.
    pub fn segment(&self, d: Duration) -> Duration {
        self.barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(d);
        self.stop.store(true, Ordering::Relaxed);
        self.barrier.wait();
        let elapsed = t0.elapsed();
        self.stop.store(false, Ordering::Relaxed);
        elapsed
    }

    /// Controller side: runs every segment of `plan` ((length, traced)),
    /// calling `after()` once each is over, while the workers wait for
    /// the next; returns each segment's measured length.
    pub fn run_plan(&self, plan: &[(Duration, bool)], mut after: impl FnMut()) -> Vec<Duration> {
        plan.iter()
            .map(|&(d, _)| {
                let elapsed = self.segment(d);
                after();
                elapsed
            })
            .collect()
    }
}

/// Segments of an untraced run: the set-up timings between them sample
/// the host's speed at several points of the run.
pub const SEGMENTS: u32 = 12;

/// The segments of a run of `total`: [`SEGMENTS`] untraced ones, or an
/// untraced half and a traced half.
pub fn plan(total: Duration, traced: bool) -> Vec<(Duration, bool)> {
    if traced {
        vec![(total / 2, false), (total / 2, true)]
    } else {
        vec![(total / SEGMENTS, false); SEGMENTS as usize]
    }
}

/// Ops per second over the untraced and over the traced segments of
/// `plan`, from each segment's measured length and `ops` completed (0
/// where there are none).
pub fn split_rates(plan: &[(Duration, bool)], elapsed: &[Duration], ops: &[u64]) -> (f64, f64) {
    let rate = |traced: bool| {
        let segs = || plan.iter().zip(elapsed.iter().zip(ops)).filter(|(p, _)| p.1 == traced);
        let secs: f64 = segs().map(|(_, (e, _))| e.as_secs_f64()).sum();
        let done: u64 = segs().map(|(_, (_, &o))| o).sum();
        if secs > 0.0 {
            done as f64 / secs
        } else {
            0.0
        }
    };
    (rate(false), rate(true))
}

/// Busy-waits for `ns` nanoseconds (the calibrated delay of the
/// attribution self-test).
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Nanoseconds since `epoch`.
#[inline]
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Mean ns per call of `f`, timed in batches of `batch` calls for about
/// `budget`; the median of `reps` such measurements.
pub fn time_per_call(budget: Duration, reps: usize, batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut results = Vec::with_capacity(reps);
    let mut i = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < budget / reps as u32 {
            for _ in 0..batch {
                f(i);
                i = i.wrapping_add(1);
            }
            calls += batch;
        }
        results.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    crate::hist::median(&results)
}
