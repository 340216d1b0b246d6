//! `hot-bravo`: one hot, read-mostly lock with a live recorder.
//!
//! Two closed-loop clients share one `RwLock<[u64; 8],
//! Bravo<MwmrStarvationFree>>` with an `Arc<StatsRecorder>` attached to
//! both the Bravo wrapper and the typed front end, at 99.9% reads. With
//! one lock and one lease entry per thread, the lease and data layers are
//! nearly idle; the Bravo fast path, its revocations and the recorder do
//! the work.
//!
//! A write adds one to all eight words, so a read must see eight equal
//! words (no torn read), never fewer writes than it saw before, and the
//! final words must equal the writes issued.

use crate::closed::{ns_since, plan, split_rates, time_per_call, Control, CLIENTS};
use crate::hist::{mean_of_medians, Hist};
use crate::probes::{self, on_fresh_thread, RmrTally};
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::rng::{stream_seed, SplitMix64};
use crate::trace::{Layer, LayerTimes, Tracer};
use rmrw::bravo::{Bravo, BravoConfig};
use rmrw::core::mwmr::MwmrStarvationFree;
use rmrw::core::{Pid, RawRwLock, RwLock};
use rmrw::mutex::mem::{Counting, Native};
use rmrw::obs::{Event, NoopRecorder, Recorder, StatsRecorder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops generated per client (a power of two); replayed cyclically.
const SCHED_LEN: usize = 1 << 20;
const WRITES_PER_MILLE: u64 = 1;
const WARMUP_OPS: usize = 1 << 16;
/// One read in `SAMPLE_EVERY` is timed (every write is): a read takes
/// about as long as two clock reads.
const SAMPLE_EVERY: usize = 8;

pub struct HotConfig {
    /// Constructions timed before the run and again after each segment.
    pub setup_reps: usize,
    pub replay_ops: usize,
}

impl HotConfig {
    pub fn standard() -> Self {
        Self { setup_reps: 101, replay_ops: 1 << 17 }
    }
}

type HotLock<R> = RwLock<[u64; 8], Bravo<MwmrStarvationFree, Native, R>, R>;

fn build<R: Recorder + Clone>(rec: R) -> HotLock<R> {
    RwLock::with_raw(
        [0u64; 8],
        Bravo::new(MwmrStarvationFree::new(CLIENTS)).with_recorder(rec.clone()),
    )
    .with_recorder(rec)
}

/// One bit per op: set for a write.
fn schedules(seed: u64) -> Vec<Vec<u64>> {
    assert!(SCHED_LEN.is_power_of_two() && SCHED_LEN >= 64);
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix64::new(stream_seed(seed, 0x407 + c as u64));
            (0..SCHED_LEN / 64)
                .map(|_| {
                    (0..64).fold(0u64, |w, bit| {
                        w | u64::from(rng.below(1000) < WRITES_PER_MILLE) << bit
                    })
                })
                .collect()
        })
        .collect()
}

fn is_write(sched: &[u64], i: usize) -> bool {
    let i = i & (sched.len() * 64 - 1);
    sched[i / 64] >> (i % 64) & 1 == 1
}

struct Client {
    next: usize,
    reads: u64,
    writes: u64,
    last_seen: u64,
    errors: u64,
    read_hist: Hist,
    write_hist: Hist,
    tracer: Tracer,
    epoch: Instant,
}

impl Client {
    fn new(id: usize, epoch: Instant) -> Self {
        Self {
            next: 0,
            reads: 0,
            writes: 0,
            last_seen: 0,
            errors: 0,
            read_hist: Hist::default(),
            write_hist: Hist::default(),
            tracer: Tracer::new(false, epoch, id as u32),
            epoch,
        }
    }

    /// One op; spans only when `TRACE` (sampled ops of a traced segment).
    #[inline]
    fn op<R: Recorder, const TRACE: bool>(&mut self, lock: &HotLock<R>, write: bool) {
        let tr = &mut self.tracer;
        if write {
            if TRACE {
                tr.enter(Layer::CoreWrite);
            }
            let mut g = lock.write();
            if TRACE {
                tr.enter(Layer::Data);
            }
            for w in g.iter_mut() {
                *w += 1;
            }
            let v = g[0];
            if TRACE {
                tr.exit();
            }
            drop(g);
            if TRACE {
                tr.exit();
            }
            self.writes += 1;
            self.last_seen = v;
        } else {
            if TRACE {
                tr.enter(Layer::CoreRead);
            }
            let g = lock.read();
            if TRACE {
                tr.enter(Layer::Data);
            }
            let v = g[0];
            let torn = g.iter().any(|&w| w != v);
            if TRACE {
                tr.exit();
            }
            drop(g);
            if TRACE {
                tr.exit();
            }
            self.reads += 1;
            if torn || v < self.last_seen {
                self.errors += 1;
            }
            self.last_seen = v;
        }
    }

    fn segment<R: Recorder>(
        &mut self,
        lock: &HotLock<R>,
        sched: &[u64],
        ctl: &Control,
        record: bool,
    ) -> u64 {
        let epoch = self.epoch;
        let traced = self.tracer.on();
        let start = self.next;
        while !ctl.stopped() {
            let i = self.next;
            self.next += 1;
            let write = is_write(sched, i);
            if !write && !i.is_multiple_of(SAMPLE_EVERY) {
                self.op::<R, false>(lock, false);
                continue;
            }
            let t0 = ns_since(epoch);
            if traced {
                self.op::<R, true>(lock, write);
            } else {
                self.op::<R, false>(lock, write);
            }
            let t1 = ns_since(epoch);
            if record {
                if write {
                    self.write_hist.record(t1 - t0);
                } else {
                    self.read_hist.record(t1 - t0);
                }
            }
        }
        (self.next - start) as u64
    }
}

/// Runs the clients on `lock` through `plan` ((length, traced) per
/// segment), calling `after()` after each segment while they wait;
/// returns the clients and each segment's measured length.
fn run_clients<R: Recorder>(
    lock: &HotLock<R>,
    scheds: &[Vec<u64>],
    plan: &[(Duration, bool)],
    after: impl FnMut(),
) -> (Vec<(Client, Vec<u64>)>, Vec<Duration>) {
    let ctl = Control::new();
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (ctl, sched) = (&ctl, &scheds[c][..]);
                s.spawn(move || {
                    let mut cl = Client::new(c, epoch);
                    for i in 0..WARMUP_OPS {
                        cl.op::<R, false>(lock, is_write(sched, i));
                    }
                    cl.next = WARMUP_OPS;
                    let mut ops = Vec::new();
                    for &(_, on) in plan {
                        ctl.start();
                        cl.tracer = Tracer::new(on, epoch, c as u32);
                        ops.push(cl.segment(lock, sched, ctl, !on));
                        ctl.finish();
                    }
                    (cl, ops)
                })
            })
            .collect();
        let elapsed = ctl.run_plan(plan, after);
        let clients = handles.into_iter().map(|h| h.join().expect("hot client panicked")).collect();
        (clients, elapsed)
    })
}

/// Replays the clients' first `cfg.replay_ops` ops, interleaved, as raw
/// passages on a `Counting`-backed copy of the lock (Bravo's table and
/// bias word on `Counting` too).
fn replay(cfg: &HotConfig, scheds: &[Vec<u64>]) -> RmrTally {
    on_fresh_thread(|| {
        let lock = Bravo::new_in(
            MwmrStarvationFree::new_in(CLIENTS, Counting),
            BravoConfig::default(),
            Counting,
        );
        let mut tally = RmrTally::default();
        for i in 0..cfg.replay_ops {
            for (c, sched) in scheds.iter().enumerate() {
                let pid = Pid::from_index(c);
                let write = is_write(sched, i);
                tally.passage(c, write, || {
                    if write {
                        let t = lock.write_lock(pid);
                        lock.write_unlock(pid, t);
                    } else {
                        let t = lock.read_lock(pid);
                        lock.read_unlock(pid, t);
                    }
                });
            }
        }
        tally
    })
}

/// Final state against the ops issued: the words equal the writes, and
/// the recorder counted exactly the passages the clients made.
fn check_final(
    lock: &HotLock<Arc<StatsRecorder>>,
    rec: &StatsRecorder,
    clients: &[(Client, Vec<u64>)],
) -> u64 {
    let reads: u64 = clients.iter().map(|(c, _)| c.reads).sum();
    let writes: u64 = clients.iter().map(|(c, _)| c.writes).sum();
    let words = on_fresh_thread(|| *lock.read());
    let mut errors = words.iter().filter(|&&w| w != writes).count() as u64;
    // The check's own read above is one more read passage.
    errors += u64::from(rec.counter(Event::ReadAcquire) != reads + 1);
    errors += u64::from(rec.counter(Event::WriteAcquire) != writes);
    errors += u64::from(
        rec.counter(Event::BravoFastRead) + rec.counter(Event::BravoSlowRead) != reads + 1,
    );
    errors
}

/// Times `reps` constructions of the lock with its recorder.
fn time_setups(reps: usize) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let rec = Arc::new(StatsRecorder::new(CLIENTS));
            black_box(build(rec));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn run(cfg: &HotConfig, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // A construction takes about a microsecond, and its time swings by
    // half from one moment to the next: bursts before the run and between
    // its segments spread the timings over the run.
    let mut setups = vec![time_setups(cfg.setup_reps)];
    let rec = Arc::new(StatsRecorder::new(CLIENTS));
    let lock = build(Arc::clone(&rec));
    let scheds = schedules(seed);

    // The traced run measures the same workload untraced first, to report
    // the tracing overhead, and a recorder-less twin last.
    let total = Duration::from_secs_f64(seconds);
    let plan =
        if traced { vec![(total / 3, false), (total / 3, true)] } else { plan(total, false) };
    let (clients, elapsed) =
        run_clients(&lock, &scheds, &plan, || setups.push(time_setups(cfg.setup_reps)));
    let tally = replay(cfg, &scheds);

    let mut errors: u64 = clients.iter().map(|(c, _)| c.errors).sum();
    errors += check_final(&lock, &rec, &clients);
    errors += u64::from(!tally.within_constant_bound(BravoConfig::default().table_slots as u64));

    let seg_ops: Vec<u64> =
        (0..plan.len()).map(|i| clients.iter().map(|(_, ops)| ops[i]).sum()).collect();
    let (untraced_rate, traced_rate) = split_rates(&plan, &elapsed, &seg_ops);
    let attempted = clients.iter().map(|(c, _)| c.reads + c.writes).sum();
    let (mut reads, mut writes) = (Hist::default(), Hist::default());
    for (c, _) in &clients {
        reads.merge(&c.read_hist);
        writes.merge(&c.write_hist);
    }
    let fast = rec.counter(Event::BravoFastRead) as f64;
    let slow = rec.counter(Event::BravoSlowRead) as f64;
    println!(
        "hot-bravo: 1 lock, {} closed-loop clients, {}/1000 writes, live StatsRecorder",
        CLIENTS, WRITES_PER_MILLE
    );
    println!(
        "  samples: {} reads (1 in {} timed), {} writes (all timed)",
        reads.count(),
        SAMPLE_EVERY,
        writes.count()
    );
    println!(
        "  {:.0} ops/s; bravo: {:.4} of reads fast, \
         {} revocations; errors {errors}",
        untraced_rate,
        fast / (fast + slow).max(1.0),
        lock.raw().revocations()
    );
    let mut m = Metrics::new();
    if !traced {
        m.insert("setup_s", mean_of_medians(&setups));
        m.insert("ops_per_s", untraced_rate);
        m.insert("get_p50_ns", reads.quantile(0.5));
        m.insert("get_p99_ns", reads.quantile(0.99));
        m.insert("put_p99_ns", writes.quantile(0.99));
        m.insert("peak_rss_mib", peak_rss_mib());
        return Outcome { attempted, errors, metrics: m };
    }

    // The recorder's read overhead: the same traced segment on an
    // identical lock without a recorder.
    let twin = build(NoopRecorder);
    let (twin_clients, _) = run_clients(&twin, &scheds, &[(total / 3, true)], || {});
    let mut times = LayerTimes::default();
    for (c, _) in &clients {
        times.merge(&c.tracer.times);
    }
    let mut twin_times = LayerTimes::default();
    for (c, _) in &twin_clients {
        twin_times.merge(&c.tracer.times);
    }
    m.insert("core.lease_ns", probes::lease_ns(1, &[0]));
    m.insert("core.locks_touched", 1.0);
    m.insert("core.read_ns", times.mean_self_ns(Layer::CoreRead));
    m.insert("core.write_ns", times.mean_self_ns(Layer::CoreWrite));
    let pinned = on_fresh_thread(|| {
        let mut h = lock.register().expect("client leases are returned when clients exit");
        time_per_call(Duration::from_millis(120), 3, 256, |_| {
            black_box(h.read()[0]);
        })
    });
    m.insert("core.pinned_read_ns", pinned);
    tally.insert(&mut m);
    probes::swap(&mut m);
    m.insert("bravo.fast_read_frac", fast / (fast + slow).max(1.0));
    m.insert("bravo.revocations", lock.raw().revocations() as f64);
    m.insert("bravo.write_ns", times.mean_self_ns(Layer::CoreWrite));
    m.insert(
        "obs.read_overhead_ns",
        times.mean_self_ns(Layer::CoreRead) - twin_times.mean_self_ns(Layer::CoreRead),
    );
    m.insert("data.ns", times.mean_self_ns(Layer::Data));
    // This loop schedules nothing, so the generator lag comes from the
    // async probe's open-loop segment.
    let (async_errors, lag) = crate::asyncw::probe(seed, &mut m);
    m.insert("gen_lag_p99_ns", lag);
    errors += async_errors;
    errors += crate::verify::sim_probe(&mut m);
    m.insert("trace.untraced_ops_per_s", untraced_rate);
    m.insert("trace.traced_ops_per_s", traced_rate);
    let tracers = clients.iter().chain(&twin_clients).map(|(c, _)| &c.tracer);
    crate::finish_trace("hot-bravo", seed, &mut m, tracers);
    Outcome { attempted, errors, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_correct() {
        let cfg = HotConfig { setup_reps: 3, replay_ops: 1 << 10 };
        let out = run(&cfg, 11, 0.3, false);
        assert_eq!(out.errors, 0);
        assert!(out.metrics["put_p99_ns"] > 0.0);
    }

    #[test]
    fn write_mask_has_the_requested_share() {
        let s = &schedules(1)[0];
        let writes = (0..SCHED_LEN).filter(|&i| is_write(s, i)).count();
        let expect = SCHED_LEN / 1000;
        assert!(writes.abs_diff(expect) < expect / 5, "{writes} writes, expected ~{expect}");
    }
}
