//! `kv-zipf`: the sharded key-value service users deploy.
//!
//! 2^20 keys live in 4096 shards of `RwLock<HashMap<u64, u64>,
//! MwmrStarvationFree>`, reached through the typed front end with leased
//! pids. Two closed-loop clients run a 90% get / 9% put / 1% single-shard
//! scan mix over zipf(0.99) keys. Every op first `load()`s the routing
//! `Snapshot` that maps keys to shards; client 0 also reloads it at a
//! fixed period, and how late each reload ran is the workload's generator
//! lag.
//!
//! A value is `key << 32 | puts`: a put adds one, so a get must see its
//! own key and at least the puts its client made, and the final count of
//! every key must equal the puts issued to it.

use crate::closed::{ns_since, plan, spin_ns, split_rates, time_per_call, Control, CLIENTS};
use crate::hist::{mean_of_medians, Hist};
use crate::probes::{self, on_fresh_thread, RmrTally};
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::rng::{scatter, stream_seed, SplitMix64, Zipf};
use crate::trace::{Layer, LayerTimes, Tracer};
use rmrw::core::mwmr::MwmrStarvationFree;
use rmrw::core::rwlock::{lease_pid, release_pid};
use rmrw::core::{Pid, PidRegistry, RawRwLock, RwLock};
use rmrw::mutex::mem::Counting;
use rmrw::swap::Snapshot;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct KvConfig {
    pub shards: usize,
    pub key_bits: u32,
    /// Ops generated per client; the schedule is replayed cyclically.
    pub sched_len: usize,
    /// Ops each client runs before the first measured segment.
    pub warmup_ops: usize,
    /// Attribution self-test: a fault on the workload's path, a
    /// benchmark-side lease this much slower before each leased
    /// acquisition (see [`slow_lease`]); 0 for none.
    pub lease_delay_ns: u64,
    /// Builds timed before the run; one more is timed after each segment.
    pub setup_reps: usize,
    /// Ops per client in the `Counting` replay.
    pub replay_ops: usize,
}

impl KvConfig {
    pub fn standard() -> Self {
        Self {
            shards: 4096,
            key_bits: 20,
            sched_len: 1 << 20,
            warmup_ops: 1 << 16,
            lease_delay_ns: 0,
            setup_reps: 3,
            replay_ops: 1 << 15,
        }
    }

    fn keys(&self) -> usize {
        1 << self.key_bits
    }

    fn bucket_mask(&self) -> u64 {
        (self.shards * 4) as u64 - 1
    }
}

const ZIPF_S: f64 = 0.99;
/// Client 0 reloads the routing snapshot this often.
const RELOAD_PERIOD: Duration = Duration::from_millis(1);

type Shard = RwLock<HashMap<u64, u64>, MwmrStarvationFree>;

/// The routing table: bucket → shard. Reloads install an equal table
/// under a new version.
struct Routing {
    version: u64,
    table: Vec<u32>,
}

struct Store {
    routing: Snapshot<Routing>,
    shards: Vec<Shard>,
    /// The benchmark's own copy of the routing, for checks and replays.
    route: Vec<u32>,
    mask: u64,
}

const KEY_MASK: u64 = (1 << 62) - 1;
const GET: u64 = 0;
const PUT: u64 = 1;
const SCAN: u64 = 2;

fn bucket_of(key: u64, mask: u64) -> usize {
    ((key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 32) & mask) as usize
}

impl Store {
    fn build(cfg: &KvConfig) -> Self {
        let mask = cfg.bucket_mask();
        let route: Vec<u32> = (0..=mask).map(|b| (b % cfg.shards as u64) as u32).collect();
        let per_shard = cfg.keys() / cfg.shards + 1;
        let mut maps: Vec<HashMap<u64, u64>> =
            (0..cfg.shards).map(|_| HashMap::with_capacity(per_shard + per_shard / 4)).collect();
        for key in 0..cfg.keys() as u64 {
            maps[route[bucket_of(key, mask)] as usize].insert(key, key << 32);
        }
        let shards = maps.into_iter().map(|m| RwLock::starvation_free(m, CLIENTS)).collect();
        let routing = Snapshot::new(Routing { version: 0, table: route.clone() }, CLIENTS);
        Self { routing, shards, route, mask }
    }

    fn shard_of(&self, key: u64) -> usize {
        self.route[bucket_of(key, self.mask)] as usize
    }
}

/// The attribution self-test's fault: a public `lease_pid` +
/// `release_pid` pair on the benchmark's own registry, with `delay_ns`
/// spun around the `lease_pid` call.
fn slow_lease(reg: &Arc<PidRegistry>, delay_ns: u64) {
    spin_ns(delay_ns / 2);
    let (pid, source) = lease_pid(reg).expect("the benchmark's registry has room");
    spin_ns(delay_ns - delay_ns / 2);
    release_pid(reg, pid, source);
}

fn schedules(cfg: &KvConfig, seed: u64) -> Vec<Vec<u64>> {
    assert!(cfg.sched_len.is_power_of_two());
    let zipf = Zipf::new(cfg.keys(), ZIPF_S);
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix64::new(stream_seed(seed, c as u64));
            (0..cfg.sched_len)
                .map(|_| {
                    let key = scatter(zipf.sample(&mut rng) as u64, cfg.key_bits);
                    let kind = match rng.below(1000) {
                        0..=899 => GET,
                        900..=989 => PUT,
                        _ => SCAN,
                    };
                    kind << 62 | key
                })
                .collect()
        })
        .collect()
}

struct Client<'a> {
    id: usize,
    store: &'a Store,
    cfg: &'a KvConfig,
    sched: &'a [u64],
    /// The injected fault's registry, when `cfg.lease_delay_ns > 0`.
    fault: Option<Arc<PidRegistry>>,
    next: usize,
    own_puts: Vec<u32>,
    touched: Vec<bool>,
    touched_count: usize,
    last_version: u64,
    errors: u64,
    get: Hist,
    put: Hist,
    scan: Hist,
    lag: Hist,
    reloads: u64,
    tracer: Tracer,
    epoch: Instant,
}

impl<'a> Client<'a> {
    fn new(
        id: usize,
        store: &'a Store,
        cfg: &'a KvConfig,
        sched: &'a [u64],
        epoch: Instant,
    ) -> Self {
        let fault = (cfg.lease_delay_ns > 0).then(|| Arc::new(PidRegistry::new(1)));
        // Leased first, the fault's registry heads this thread's lease
        // table: finding it costs next to nothing beyond the delay.
        if let Some(reg) = &fault {
            slow_lease(reg, 0);
        }
        Self {
            id,
            store,
            cfg,
            sched,
            fault,
            next: 0,
            own_puts: vec![0; cfg.keys()],
            touched: vec![false; cfg.shards],
            touched_count: 0,
            last_version: 0,
            errors: 0,
            get: Hist::default(),
            put: Hist::default(),
            scan: Hist::default(),
            lag: Hist::default(),
            reloads: 0,
            tracer: Tracer::new(false, epoch, id as u32),
            epoch,
        }
    }

    /// Runs the next scheduled op; returns its kind.
    fn step(&mut self) -> u64 {
        let op = self.sched[self.next & (self.sched.len() - 1)];
        self.next += 1;
        let (kind, key) = (op >> 62, op & KEY_MASK);
        let tr = &mut self.tracer;
        tr.enter(Layer::Op);
        tr.enter(Layer::SwapLoad);
        let (s, version) = {
            let r = self.store.routing.load();
            (r.table[bucket_of(key, self.store.mask)] as usize, r.version)
        };
        tr.exit();
        if version < self.last_version {
            self.errors += 1;
        }
        self.last_version = version;
        if !self.touched[s] {
            self.touched[s] = true;
            self.touched_count += 1;
        }
        let shard = &self.store.shards[s];
        let (fault, delay) = (self.fault.as_ref(), self.cfg.lease_delay_ns);
        let inject = || {
            if let Some(reg) = fault {
                slow_lease(reg, delay);
            }
        };
        match kind {
            GET => {
                tr.enter(Layer::CoreRead);
                inject();
                let g = shard.read();
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
            PUT => {
                tr.enter(Layer::CoreWrite);
                inject();
                let mut g = shard.write();
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
                tr.exit();
                if ok {
                    self.own_puts[key as usize] += 1;
                } else {
                    self.errors += 1;
                }
            }
            _ => {
                tr.enter(Layer::CoreRead);
                inject();
                let g = shard.read();
                tr.enter(Layer::Data);
                let (mut sum, mut bad) = (0u64, 0u64);
                for (&k, &v) in g.iter() {
                    bad += u64::from(v >> 32 != k || self.store.shard_of(k) != s);
                    sum = sum.wrapping_add(v & 0xFFFF_FFFF);
                }
                tr.exit();
                drop(g);
                tr.exit();
                black_box(sum);
                self.errors += bad;
            }
        }
        tr.exit();
        kind
    }

    fn reload(&mut self) {
        self.tracer.enter(Layer::SwapUpdate);
        self.store.routing.update(|r| Routing { version: r.version + 1, table: r.table.clone() });
        self.tracer.exit();
        self.reloads += 1;
    }

    /// One measured segment; returns the ops completed.
    fn segment(&mut self, ctl: &Control, record: bool) -> u64 {
        let period = RELOAD_PERIOD.as_nanos() as u64;
        let start = ns_since(self.epoch);
        let mut reload_due = start + period;
        let mut ops = 0;
        while !ctl.stopped() {
            let t0 = ns_since(self.epoch);
            let kind = self.step();
            let t1 = ns_since(self.epoch);
            ops += 1;
            if record {
                match kind {
                    GET => self.get.record(t1 - t0),
                    PUT => self.put.record(t1 - t0),
                    _ => self.scan.record(t1 - t0),
                }
            }
            if self.id == 0 && t1 >= reload_due {
                if record {
                    self.lag.record(t1 - reload_due);
                }
                self.reload();
                // A missed period is skipped, not made up: one stall of
                // this client costs one late reload.
                reload_due = reload_due.max(t1) + period;
            }
        }
        ops
    }
}

/// Checks the final state against the puts issued: every key present
/// once, in the shard its route names, with a count equal to its puts.
fn check_final(store: &Store, puts: &[Vec<u32>], keys: usize) -> u64 {
    on_fresh_thread(|| {
        let mut errors = 0u64;
        let mut seen = 0usize;
        for (s, shard) in store.shards.iter().enumerate() {
            let g = shard.read();
            for (&k, &v) in g.iter() {
                let issued: u32 = puts.iter().map(|p| p[k as usize]).sum();
                errors += u64::from(v >> 32 != k || store.shard_of(k) != s || v as u32 != issued);
                seen += 1;
            }
        }
        errors + u64::from(seen != keys)
    })
}

/// Replays the clients' first `cfg.replay_ops` ops, interleaved, as raw
/// passages on `Counting`-backed copies of the shard locks.
fn replay(cfg: &KvConfig, store: &Store, scheds: &[Vec<u64>]) -> RmrTally {
    on_fresh_thread(|| {
        let locks: Vec<_> =
            (0..cfg.shards).map(|_| MwmrStarvationFree::new_in(CLIENTS, Counting)).collect();
        let mut tally = RmrTally::default();
        for i in 0..cfg.replay_ops {
            for (c, sched) in scheds.iter().enumerate() {
                let op = sched[i % sched.len()];
                let lock = &locks[store.shard_of(op & KEY_MASK)];
                let pid = Pid::from_index(c);
                let write = op >> 62 == PUT;
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

/// Mean ns of `LockHandle::read` on the shards client 0 visits, from a
/// thread whose lease table is filled the way a client's is.
fn pinned_read_ns(store: &Store, order: &[u32]) -> f64 {
    on_fresh_thread(|| {
        drop(store.routing.load());
        for &s in order {
            drop(store.shards[s as usize].read());
        }
        for shard in &store.shards {
            drop(shard.read());
        }
        let mut handles: Vec<_> = store
            .shards
            .iter()
            .map(|s| s.register().expect("client leases are returned when clients exit"))
            .collect();
        time_per_call(Duration::from_millis(120), 3, 64, |i| {
            let s = order[i as usize % order.len()] as usize;
            black_box(handles[s].read().len());
        })
    })
}

pub fn run(cfg: &KvConfig, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = vec![Vec::new()];
    let mut store = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(store.take());
        let t0 = Instant::now();
        store = Some(Store::build(cfg));
        setups[0].push(t0.elapsed().as_secs_f64());
    }
    let store = store.expect("built at least once");
    let scheds = schedules(cfg, seed);

    // The traced run measures the same workload untraced first, to report
    // the tracing overhead.
    let plan = plan(Duration::from_secs_f64(seconds), traced);
    let ctl = Control::new();
    let epoch = Instant::now();
    // Between segments, while the clients wait, one more build of the
    // store is timed: the host's speed swings over seconds, so builds
    // timed at one moment would catch one speed.
    let (clients, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (store, ctl, plan) = (&store, &ctl, &plan);
                let sched = &scheds[c][..];
                s.spawn(move || {
                    let mut cl = Client::new(c, store, cfg, sched, epoch);
                    for _ in 0..cfg.warmup_ops {
                        cl.step();
                    }
                    let mut ops = Vec::new();
                    for &(_, on) in plan {
                        ctl.start();
                        cl.tracer = Tracer::new(on, epoch, c as u32);
                        ops.push(cl.segment(ctl, !on));
                        ctl.finish();
                    }
                    (cl, ops)
                })
            })
            .collect();
        let elapsed = ctl.run_plan(&plan, || {
            let t0 = Instant::now();
            let extra = Store::build(cfg);
            setups.push(vec![t0.elapsed().as_secs_f64()]);
            drop(extra);
        });
        let clients: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("kv client panicked")).collect();
        (clients, elapsed)
    });

    let puts: Vec<Vec<u32>> = clients.iter().map(|(c, _)| c.own_puts.clone()).collect();
    let tally = replay(cfg, &store, &scheds);
    let mut errors: u64 = clients.iter().map(|(c, _)| c.errors).sum();
    errors += check_final(&store, &puts, cfg.keys()) + u64::from(!tally.within_constant_bound(0));

    let seg_ops: Vec<u64> =
        (0..plan.len()).map(|i| clients.iter().map(|(_, ops)| ops[i]).sum()).collect();
    let (untraced_rate, traced_rate) = split_rates(&plan, &elapsed, &seg_ops);
    let attempted = clients.iter().map(|(c, _)| c.next as u64 + c.reloads).sum();
    let mut m = Metrics::new();
    let (mut get, mut put, mut scan, mut lag) =
        (Hist::default(), Hist::default(), Hist::default(), Hist::default());
    for (c, _) in &clients {
        get.merge(&c.get);
        put.merge(&c.put);
        scan.merge(&c.scan);
        lag.merge(&c.lag);
    }
    println!(
        "kv-zipf: {} shards, {} keys, {} closed-loop clients, zipf({}), 90/9/1 get/put/scan",
        cfg.shards,
        cfg.keys(),
        CLIENTS,
        ZIPF_S
    );
    println!(
        "  samples: {} gets, {} puts, {} scans (every op timed), {} routing reloads",
        get.count(),
        put.count(),
        scan.count(),
        lag.count()
    );
    println!(
        "  {:.0} ops/s; scan p50 {:.0} ns; errors {errors}",
        untraced_rate,
        scan.quantile(0.5)
    );
    if !traced {
        m.insert("setup_s", mean_of_medians(&setups));
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
    let order: Vec<u32> = scheds[0][..cfg.warmup_ops]
        .iter()
        .map(|&op| store.shard_of(op & KEY_MASK) as u32)
        .collect();
    m.insert("core.lease_ns", probes::lease_ns(cfg.shards + 1, &order));
    m.insert(
        "core.locks_touched",
        clients.iter().map(|(c, _)| c.touched_count as f64 + 1.0).sum::<f64>() / CLIENTS as f64,
    );
    m.insert("core.read_ns", times.mean_self_ns(Layer::CoreRead));
    m.insert("core.write_ns", times.mean_self_ns(Layer::CoreWrite));
    m.insert("core.pinned_read_ns", pinned_read_ns(&store, &order));
    tally.insert(&mut m);
    m.insert("swap.load_ns", times.mean_self_ns(Layer::SwapLoad));
    m.insert("swap.update_ns", times.mean_self_ns(Layer::SwapUpdate));
    m.insert("swap.swaps", store.routing.swaps() as f64);
    m.insert("swap.peak_retired", store.routing.peak_retired() as f64);
    m.insert("data.ns", times.mean_self_ns(Layer::Data));
    probes::bravo_obs(&mut m);
    errors += crate::asyncw::probe(seed, &mut m).0;
    errors += crate::verify::sim_probe(&mut m);
    m.insert("gen_lag_p99_ns", lag.quantile(0.99));
    m.insert("trace.untraced_ops_per_s", untraced_rate);
    m.insert("trace.traced_ops_per_s", traced_rate);
    crate::finish_trace("kv-zipf", seed, &mut m, clients.iter().map(|(c, _)| &c.tracer));
    Outcome { attempted, errors, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(lease_delay_ns: u64) -> KvConfig {
        KvConfig {
            shards: 256,
            key_bits: 14,
            sched_len: 1 << 14,
            warmup_ops: 1 << 12,
            lease_delay_ns,
            setup_reps: 1,
            replay_ops: 1 << 10,
        }
    }

    #[test]
    fn small_run_is_correct() {
        let out = run(&small(0), 3, 0.3, false);
        assert_eq!(out.errors, 0);
        assert!(out.metrics["ops_per_s"] > 0.0);
    }

    /// A calibrated delay injected on the workload's path, around a
    /// benchmark-side `lease_pid` call at the start of every leased
    /// acquisition, accounts for the end-to-end slowdown in the in-situ
    /// acquisition spans and the read − pinned gap, and in no span around
    /// them. The probes are not handed the delay and stay put: the lease
    /// probe times the program's own lease pair, which the fault leaves
    /// alone, and the Bravo and recorder probes are other layers.
    #[test]
    fn injected_lease_delay_is_attributed_to_the_lease_layer() {
        const D: f64 = 4000.0;
        let base = run(&small(0), 5, 0.8, true);
        let slow = run(&small(D as u64), 5, 0.8, true);
        assert_eq!(base.errors + slow.errors, 0);
        let (b, s) = (&base.metrics, &slow.metrics);
        let near_d = |what: &str, delta: f64| {
            assert!((delta - D).abs() < 0.4 * D, "{what} moved by {delta:.0} ns, injected {D} ns");
        };
        // End to end: each client's per-op time grew by about D.
        let per_op = |m: &Metrics| 2.0 / m["trace.untraced_ops_per_s"] * 1e9;
        near_d("per-op time", per_op(s) - per_op(b));
        near_d("core.read_ns", s["core.read_ns"] - b["core.read_ns"]);
        near_d("core.write_ns", s["core.write_ns"] - b["core.write_ns"]);
        let gap = |m: &Metrics| m["core.read_ns"] - m["core.pinned_read_ns"];
        near_d("read - pinned gap", gap(s) - gap(b));
        for name in ["swap.load_ns", "data.ns", "core.pinned_read_ns", "core.lease_ns"] {
            let delta = s[name] - b[name];
            assert!(delta.abs() < 0.1 * D, "{name} moved by {delta:.0} ns, outside the fault");
        }
        // The Bravo probe is time-bounded, so its revocation count follows
        // its own speed, not the lease delay.
        let revs = s["bravo.revocations"] / b["bravo.revocations"];
        assert!((0.5..2.0).contains(&revs), "bravo.revocations moved by {revs}x");
        assert!((b["bravo.fast_read_frac"] - s["bravo.fast_read_frac"]).abs() < 0.05);
        assert!((b["obs.read_overhead_ns"] - s["obs.read_overhead_ns"]).abs() < 0.1 * D);
    }
}
