//! `async-fig1-open`: an open-loop service on the async tier.
//!
//! Two threads, each running one `block_on` executor, serve requests
//! against `AsyncRwLock<HashMap<u64, u64>, SwmrWriterPriority>` (the
//! paper's Fig. 1) over 1024 keys. Requests fall due at a fixed total
//! rate of 500 000/s, split evenly and interleaved between the threads:
//! a third of what the same threads serve closed-loop on a 2-vCPU host
//! in a fast stretch (~1.45 M/s), half of it in a slow one. One request in 64 is a
//! PUT through `write().await`, the rest are GETs through `read().await`.
//! Latency is timed from each request's due time; how late the generator
//! issued it is the generator lag.
//!
//! Values are `key << 32 | puts`: a GET must see its own key and at least
//! the PUTs its thread made, and no PUT may be lost.

use crate::closed::{ns_since, plan, split_rates, Control, CLIENTS};
use crate::hist::{median, Hist};
use crate::openloop::OpenLoop;
use crate::probes::{self, on_fresh_thread, RmrTally};
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::rng::{stream_seed, SplitMix64};
use crate::trace::{Layer, LayerTimes, Tracer};
use rmrw::async_lock::exec::block_on;
use rmrw::async_lock::AsyncRwLock;
use rmrw::core::swmr::SwmrWriterPriority;
use std::collections::HashMap;
use std::future::Future;
use std::hint::black_box;
use std::time::{Duration, Instant};

const KEYS: u64 = 1024;
/// One request in `PUT_ONE_IN` is a PUT.
const PUT_ONE_IN: u64 = 64;
/// Requests generated per client (a power of two); replayed cyclically.
const SCHED_LEN: usize = 1 << 18;
const WARMUP_OPS: usize = 1 << 12;

pub struct AsyncConfig {
    /// Offered requests per second, over all clients.
    pub rate_per_s: f64,
    pub setup_reps: usize,
    pub replay_ops: usize,
}

impl AsyncConfig {
    pub fn standard() -> Self {
        Self { rate_per_s: 5e5, setup_reps: 51, replay_ops: 1 << 17 }
    }
}

type Service = AsyncRwLock<HashMap<u64, u64>, SwmrWriterPriority>;

fn build() -> Service {
    let map = (0..KEYS).map(|k| (k, k << 32)).collect();
    AsyncRwLock::with_raw_and_capacity(map, SwmrWriterPriority::new(), CLIENTS)
}

const PUT_BIT: u64 = 1 << 63;

fn schedules(seed: u64) -> Vec<Vec<u64>> {
    assert!(SCHED_LEN.is_power_of_two());
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix64::new(stream_seed(seed, 0xA5 + c as u64));
            (0..SCHED_LEN)
                .map(|_| {
                    let key = rng.below(KEYS);
                    if rng.below(PUT_ONE_IN) == 0 {
                        key | PUT_BIT
                    } else {
                        key
                    }
                })
                .collect()
        })
        .collect()
}

/// Awaits `f`, counting the polls that returned `Pending` (parks).
async fn counting_parks<F: Future>(f: F, parks: &mut u64) -> F::Output {
    let mut f = std::pin::pin!(f);
    std::future::poll_fn(|cx| {
        let r = f.as_mut().poll(cx);
        if r.is_pending() {
            *parks += 1;
        }
        r
    })
    .await
}

struct Client {
    own_puts: Vec<u32>,
    next: usize,
    errors: u64,
    unserved: u64,
    get: Hist,
    put: Hist,
    lag: Hist,
    parks: u64,
    parked_grants: u64,
    tracer: Tracer,
    epoch: Instant,
}

impl Client {
    fn new(id: usize, epoch: Instant) -> Self {
        Self {
            own_puts: vec![0; KEYS as usize],
            next: 0,
            errors: 0,
            unserved: 0,
            get: Hist::default(),
            put: Hist::default(),
            lag: Hist::default(),
            parks: 0,
            parked_grants: 0,
            tracer: Tracer::new(false, epoch, id as u32),
            epoch,
        }
    }

    async fn request(&mut self, svc: &Service, op: u64) {
        let key = op & !PUT_BIT;
        let tr = &mut self.tracer;
        let mut parks = 0;
        if op & PUT_BIT != 0 {
            tr.enter(Layer::AsyncWriteGrant);
            let mut g = counting_parks(svc.write(), &mut parks).await;
            tr.exit();
            tr.enter(Layer::Data);
            let ok = match g.get_mut(&key) {
                Some(v) if *v >> 32 == key => {
                    *v += 1;
                    true
                }
                _ => false,
            };
            tr.exit();
            drop(g);
            if ok {
                self.own_puts[key as usize] += 1;
            } else {
                self.errors += 1;
            }
        } else {
            tr.enter(Layer::AsyncRead);
            let g = counting_parks(svc.read(), &mut parks).await;
            tr.enter(Layer::Data);
            let v = g.get(&key).copied();
            tr.exit();
            drop(g);
            tr.exit();
            match v {
                Some(v) if v >> 32 == key && v as u32 >= self.own_puts[key as usize] => {}
                _ => self.errors += 1,
            }
        }
        self.parks += parks;
        self.parked_grants += u64::from(parks > 0);
    }

    /// Serves one open-loop segment of the schedule `sched`.
    async fn segment(
        &mut self,
        svc: &Service,
        sched: &[u64],
        mut ol: OpenLoop,
        ctl: &Control,
        record: bool,
    ) -> u64 {
        let epoch = self.epoch;
        let mut clock = || ns_since(epoch);
        while let Some(due) = ol.next_due() {
            // A backlog of over a second means the offered rate is beyond
            // capacity: give up on the rest of the schedule, counting it
            // as unserved, rather than run on indefinitely.
            if ctl.stopped() && clock() > due + 1_000_000_000 {
                let rest = ol.abandon();
                self.unserved += rest;
                return ol.issued() - rest;
            }
            let lag = ol.issue(due, &mut clock);
            let op = sched[self.next & (sched.len() - 1)];
            self.next += 1;
            self.tracer.enter(Layer::Op);
            self.request(svc, op).await;
            self.tracer.exit();
            let latency = ol.complete(due, clock());
            if record {
                self.lag.record(lag);
                if op & PUT_BIT != 0 {
                    self.put.record(latency);
                } else {
                    self.get.record(latency);
                }
            }
        }
        ol.issued()
    }
}

/// Checks the table against the PUTs issued (`puts[client][key]`) and
/// that the lock is quiescent.
fn check_final(svc: &Service, puts: &[Vec<u32>]) -> u64 {
    on_fresh_thread(|| {
        let map = block_on(svc.read());
        let mut errors = u64::from(map.len() != puts[0].len());
        for (&k, &v) in map.iter() {
            let issued: u32 = puts.iter().map(|p| p[k as usize]).sum();
            errors += u64::from(v >> 32 != k || v as u32 != issued);
        }
        drop(map);
        errors + u64::from(!svc.is_quiescent() || !svc.raw().is_quiescent())
    })
}

fn replay(cfg: &AsyncConfig, scheds: &[Vec<u64>]) -> RmrTally {
    let ops = (0..cfg.replay_ops).flat_map(|i| {
        scheds.iter().enumerate().map(move |(c, s)| (c, s[i % s.len()] & PUT_BIT != 0))
    });
    probes::replay_fig1(ops)
}

pub fn run(cfg: &AsyncConfig, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        let t0 = Instant::now();
        black_box(build());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let svc = build();
    let scheds = schedules(seed);

    // The traced run measures the same workload untraced first, to report
    // the tracing overhead.
    let plan = plan(Duration::from_secs_f64(seconds), traced);
    // Each client serves every `clients`-th request of the total stream.
    let interval = (CLIENTS as f64 * 1e9 / cfg.rate_per_s) as u64;
    let ctl = Control::new();
    let epoch = Instant::now();
    let (clients, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, ctl, plan) = (&svc, &ctl, &plan);
                let sched = &scheds[c][..];
                s.spawn(move || {
                    let mut cl = Client::new(c, epoch);
                    block_on(async {
                        for &op in &sched[..WARMUP_OPS] {
                            cl.request(svc, op).await;
                        }
                        cl.next = WARMUP_OPS;
                        (cl.parks, cl.parked_grants) = (0, 0);
                        let mut ops = Vec::new();
                        for &(len, on) in plan {
                            ctl.start();
                            cl.tracer = Tracer::new(on, epoch, c as u32);
                            let start = ns_since(epoch);
                            let end = start + len.as_nanos() as u64;
                            let phase = interval * c as u64 / CLIENTS as u64;
                            let ol = OpenLoop::new(start, interval, phase, end);
                            ops.push(cl.segment(svc, sched, ol, ctl, !on).await);
                            ctl.finish();
                        }
                        (cl, ops)
                    })
                })
            })
            .collect();
        let elapsed = ctl.run_plan(&plan, || {});
        let clients: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("async client panicked")).collect();
        (clients, elapsed)
    });

    let puts: Vec<Vec<u32>> = clients.iter().map(|(c, _)| c.own_puts.clone()).collect();
    let tally = replay(cfg, &scheds);
    let mut errors: u64 = clients.iter().map(|(c, _)| c.errors + c.unserved).sum();
    errors += check_final(&svc, &puts) + u64::from(!tally.within_constant_bound(0));

    let seg_ops: Vec<u64> =
        (0..plan.len()).map(|i| clients.iter().map(|(_, ops)| ops[i]).sum()).collect();
    let (untraced_rate, traced_rate) = split_rates(&plan, &elapsed, &seg_ops);
    let attempted = clients.iter().map(|(c, _)| c.next as u64 + c.unserved).sum();
    let (mut get, mut put, mut lag) = (Hist::default(), Hist::default(), Hist::default());
    for (c, _) in &clients {
        get.merge(&c.get);
        put.merge(&c.put);
        lag.merge(&c.lag);
    }
    println!(
        "async-fig1-open: {} executor threads, open loop at {:.0} req/s offered, {} keys, \
         1 in {} PUTs",
        CLIENTS, cfg.rate_per_s, KEYS, PUT_ONE_IN
    );
    println!(
        "  samples: {} GETs, {} PUTs (every request timed from its due time); \
         {} wake-ups; errors {errors}",
        get.count(),
        put.count(),
        svc.wakeups()
    );
    let mut m = Metrics::new();
    if !traced {
        m.insert("setup_s", median(&setups));
        m.insert("ops_per_s", untraced_rate);
        m.insert("get_p50_ns", get.quantile(0.5));
        m.insert("get_p99_ns", get.quantile(0.99));
        m.insert("put_p99_ns", put.quantile(0.99));
        m.insert("peak_rss_mib", peak_rss_mib());
        return Outcome { attempted, errors, metrics: m };
    }

    let mut times = LayerTimes::default();
    for (c, _) in &clients {
        times.merge(&c.tracer.times);
    }
    let ops = attempted as f64;
    let parks: u64 = clients.iter().map(|(c, _)| c.parks).sum();
    let parked_grants: u64 = clients.iter().map(|(c, _)| c.parked_grants).sum();
    let wakeups = svc.wakeups();
    m.insert("async.parks_per_op", parks as f64 / ops);
    m.insert("async.wakeups_per_op", wakeups as f64 / ops);
    m.insert("async.useful_wake_frac", parked_grants as f64 / wakeups.max(1) as f64);
    m.insert("async.read_ns", times.mean_self_ns(Layer::AsyncRead));
    m.insert("async.write_grant_ns", times.mean_self_ns(Layer::AsyncWriteGrant));
    m.insert("data.ns", times.mean_self_ns(Layer::Data));
    // The async tier leases a pid per acquisition from its own registry,
    // not from the thread-local lease table.
    m.insert("core.locks_touched", 0.0);
    m.insert("core.lease_ns", probes::lease_ns(1, &[0]));
    probes::core_rw(&mut m);
    tally.insert(&mut m);
    probes::swap(&mut m);
    probes::bravo_obs(&mut m);
    errors += crate::verify::sim_probe(&mut m);
    m.insert("gen_lag_p99_ns", lag.quantile(0.99));
    m.insert("trace.untraced_ops_per_s", untraced_rate);
    m.insert("trace.traced_ops_per_s", traced_rate);
    crate::finish_trace("async-fig1-open", seed, &mut m, clients.iter().map(|(c, _)| &c.tracer));
    Outcome { attempted, errors, metrics: m }
}

/// Length of each of [`probe`]'s two segments.
const PROBE_SEGMENT: Duration = Duration::from_millis(300);

/// The service as a probe in the traced runs of the other workloads.
/// An open-loop segment at the standard rate comes first; then, in a
/// traced closed-loop segment, both threads issue requests back to back,
/// so readers park behind PUTs and PUTs wait for readers: that segment
/// gives the `async.*` metrics. Returns the errors found and the open
/// loop's p99 generator lag in ns.
pub fn probe(seed: u64, m: &mut Metrics) -> (u64, f64) {
    let svc = build();
    let scheds = schedules(seed);
    let interval = (CLIENTS as f64 * 1e9 / AsyncConfig::standard().rate_per_s) as u64;
    let plan = [(PROBE_SEGMENT, false), (PROBE_SEGMENT, true)];
    let ctl = Control::new();
    let epoch = Instant::now();
    let mut wakeups = Vec::new();
    let clients: Vec<(Client, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, ctl, sched) = (&svc, &ctl, &scheds[c][..]);
                s.spawn(move || {
                    let mut cl = Client::new(c, epoch);
                    block_on(async {
                        ctl.start();
                        let start = ns_since(epoch);
                        let end = start + PROBE_SEGMENT.as_nanos() as u64;
                        let phase = interval * c as u64 / CLIENTS as u64;
                        let ol = OpenLoop::new(start, interval, phase, end);
                        cl.segment(svc, sched, ol, ctl, true).await;
                        ctl.finish();
                        (cl.parks, cl.parked_grants) = (0, 0);
                        let before = cl.next;
                        ctl.start();
                        cl.tracer = Tracer::new(true, epoch, c as u32);
                        while !ctl.stopped() {
                            let op = sched[cl.next & (sched.len() - 1)];
                            cl.next += 1;
                            cl.request(svc, op).await;
                        }
                        ctl.finish();
                        let closed_ops = (cl.next - before) as u64;
                        (cl, closed_ops)
                    })
                })
            })
            .collect();
        ctl.run_plan(&plan, || wakeups.push(svc.wakeups()));
        handles.into_iter().map(|h| h.join().expect("async probe client panicked")).collect()
    });
    let puts: Vec<Vec<u32>> = clients.iter().map(|(c, _)| c.own_puts.clone()).collect();
    let mut errors: u64 = clients.iter().map(|(c, _)| c.errors + c.unserved).sum();
    errors += check_final(&svc, &puts);

    let ops: u64 = clients.iter().map(|(_, ops)| ops).sum();
    let parks: u64 = clients.iter().map(|(c, _)| c.parks).sum();
    let parked_grants: u64 = clients.iter().map(|(c, _)| c.parked_grants).sum();
    let woken = wakeups[1] - wakeups[0];
    let (mut times, mut lag) = (LayerTimes::default(), Hist::default());
    for (c, _) in &clients {
        times.merge(&c.tracer.times);
        lag.merge(&c.lag);
    }
    m.insert("async.parks_per_op", parks as f64 / ops.max(1) as f64);
    m.insert("async.wakeups_per_op", woken as f64 / ops.max(1) as f64);
    m.insert("async.useful_wake_frac", parked_grants as f64 / woken.max(1) as f64);
    m.insert("async.read_ns", times.mean_self_ns(Layer::AsyncRead));
    m.insert("async.write_grant_ns", times.mean_self_ns(Layer::AsyncWriteGrant));
    println!(
        "async probe: {ops} closed-loop requests, {parks} parks, {woken} wake-ups; errors {errors}"
    );
    (errors, lag.quantile(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_correct() {
        let cfg = AsyncConfig { rate_per_s: 2e5, setup_reps: 1, replay_ops: 1 << 10 };
        let out = run(&cfg, 2, 0.3, false);
        assert_eq!(out.errors, 0);
        let rate = out.metrics["ops_per_s"];
        assert!((1.5e5..2.5e5).contains(&rate), "achieved {rate} of 2e5 offered");
    }

    #[test]
    fn probe_sees_contention() {
        let mut m = Metrics::new();
        let (errors, lag) = probe(4, &mut m);
        assert_eq!(errors, 0);
        assert!(lag > 0.0);
        assert!(m["async.parks_per_op"] > 0.0, "no read or write parked in the closed loop");
        assert!(m["async.wakeups_per_op"] > 0.0);
        assert!(m["async.write_grant_ns"] > 0.0);
    }
}
