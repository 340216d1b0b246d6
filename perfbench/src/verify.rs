//! `verify`: the model checker as its users run it.
//!
//! One thread explores, exhaustively and with the Appendix A invariants
//! checked in every state, Fig. 1 with 3 readers × 1 attempt (writer 2)
//! and Fig. 2 with 2 readers × 2 attempts, in rounds until the run's time
//! is up. A round is one exploration of each. A heartbeat falls due every
//! 50 ms; it can only run between explorations, and how late it ran is
//! the workload's generator lag (the longest stretch the checker holds
//! its thread).
//!
//! In the end-to-end metrics a Fig. 1 exploration plays the part of a
//! get and a Fig. 2 exploration that of a put; an op is one explored
//! state.

use crate::hist::{exact_quantile, median};
use crate::probes::{self, RmrTally};
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::rng::{stream_seed, SplitMix64};
use crate::trace::{Layer, Tracer};
use rmrw::sim::algos::fig1::Fig1;
use rmrw::sim::algos::fig2::Fig2;
use rmrw::sim::explore::{explore, ExploreReport, StateCheck};
use rmrw::sim::invariants::{fig1_invariants, fig2_invariants};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The recorded size of each explored space; any other count is an error.
const FIG1_STATES: usize = 282_882;
const FIG1_TRANSITIONS: usize = 825_121;
const FIG2_STATES: usize = 1_260_956;
const FIG2_TRANSITIONS: usize = 3_354_294;

const HEARTBEAT: Duration = Duration::from_millis(50);
const SETUP_REPS: usize = 1001;

struct Round {
    fig1: ExploreReport,
    fig2: ExploreReport,
    fig1_s: f64,
    fig2_s: f64,
    /// How late each heartbeat that fell due in this round ran, in ns.
    lags: Vec<f64>,
    /// Peak resident set of the process so far, in MiB.
    peak_rss_mib: f64,
}

impl Round {
    fn secs(&self) -> f64 {
        self.fig1_s + self.fig2_s
    }

    fn states(&self) -> f64 {
        (self.fig1.states + self.fig2.states) as f64
    }
}

/// One round; `beat` runs the heartbeat between the explorations.
fn round(tr: &mut Tracer, mut beat: impl FnMut()) -> Round {
    let c1: [StateCheck<'_, Fig1>; 1] = [&fig1_invariants];
    let c2: [StateCheck<'_, Fig2>; 1] = [&fig2_invariants];
    let t0 = Instant::now();
    tr.enter(Layer::SimExplore);
    let fig1 = explore(&Fig1::new(3), &[2, 1, 1, 1], usize::MAX, &c1);
    tr.exit();
    let fig1_s = t0.elapsed().as_secs_f64();
    beat();
    let t1 = Instant::now();
    tr.enter(Layer::SimExplore);
    let fig2 = explore(&Fig2::new(2), &[2, 2, 2], usize::MAX, &c2);
    tr.exit();
    let fig2_s = t1.elapsed().as_secs_f64();
    Round { fig1, fig2, fig1_s, fig2_s, lags: Vec::new(), peak_rss_mib: peak_rss_mib() }
}

fn errors_of(r: &Round) -> u64 {
    let bad = |rep: &ExploreReport, states: usize, transitions: usize| {
        u64::from(!rep.clean())
            + u64::from(rep.states != states)
            + u64::from(rep.transitions != transitions)
    };
    bad(&r.fig1, FIG1_STATES, FIG1_TRANSITIONS) + bad(&r.fig2, FIG2_STATES, FIG2_TRANSITIONS)
}

fn insert_sim(m: &mut Metrics, r: &Round, ns_per_state: f64) {
    m.insert("sim.fig1_states", r.fig1.states as f64);
    m.insert("sim.fig2_states", r.fig2.states as f64);
    m.insert("sim.states", r.states());
    m.insert("sim.transitions", (r.fig1.transitions + r.fig2.transitions) as f64);
    m.insert("sim.ns_per_state", ns_per_state);
}

/// The explorer for the lock workloads' traced runs: one round, its
/// `sim.*` metrics; returns its errors.
pub fn sim_probe(m: &mut Metrics) -> u64 {
    let r = round(&mut Tracer::new(false, Instant::now(), 0), || {});
    insert_sim(m, &r, r.secs() * 1e9 / r.states());
    errors_of(&r)
}

/// Rounds until `budget` is spent (at least one), with the heartbeat.
fn rounds(budget: Duration, tr: &mut Tracer) -> Vec<Round> {
    let t0 = Instant::now();
    let mut due = HEARTBEAT;
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed() < budget {
        let mut lags = Vec::new();
        let mut beat = || {
            let now = t0.elapsed();
            while due <= now {
                lags.push((now - due).as_nanos() as f64);
                due += HEARTBEAT;
            }
        };
        let mut r = round(tr, &mut beat);
        beat();
        r.lags = lags;
        out.push(r);
    }
    out
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        black_box((Fig1::new(3), Fig2::new(2)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let total = Duration::from_secs_f64(seconds);
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let first = rounds(if traced { total / 2 } else { total }, &mut tr);
    let mut traced_rounds = Vec::new();
    if traced {
        tr = Tracer::new(true, Instant::now(), 0);
        traced_rounds = rounds(total / 2, &mut tr);
    }
    let all: Vec<&Round> = first.iter().chain(&traced_rounds).collect();
    let mut errors: u64 = all.iter().map(|r| errors_of(r)).sum();
    let attempted = all.iter().map(|r| r.states() as u64).sum();
    // Host noise only slows a round: the timed
    // metrics come from the fastest round.
    let fastest = |rs: &[Round]| -> usize {
        (0..rs.len()).min_by(|&a, &b| rs[a].secs().total_cmp(&rs[b].secs())).expect("a round")
    };
    let best = &first[fastest(&first)];
    println!(
        "verify: {} rounds; fig1 3r×1a: {} ; fig2 2r×2a: {} ; errors {errors}",
        all.len(),
        best.fig1,
        best.fig2
    );
    println!(
        "  round times {:?} s; {} heartbeats in the fastest",
        first.iter().map(Round::secs).collect::<Vec<_>>(),
        best.lags.len()
    );
    let mut m = Metrics::new();
    if !traced {
        // Each exploration's own fastest run: a round's two explorations
        // can fall in stretches of different host speed.
        let fig1_ns = first.iter().map(|r| r.fig1_s).fold(f64::INFINITY, f64::min) * 1e9;
        let fig2_ns = first.iter().map(|r| r.fig2_s).fold(f64::INFINITY, f64::min) * 1e9;
        m.insert("setup_s", median(&setups));
        m.insert("ops_per_s", best.states() / best.secs());
        m.insert("get_p50_ns", fig1_ns);
        m.insert("get_p99_ns", fig1_ns);
        m.insert("put_p99_ns", fig2_ns);
        // The peak of the first round, in a fresh process: later rounds
        // reuse freed memory in an order that varies from run to run.
        m.insert("peak_rss_mib", first[0].peak_rss_mib);
        return Outcome { attempted, errors, metrics: m };
    }
    let states = |rs: &[Round]| rs.iter().map(Round::states).sum::<f64>();
    let secs = |rs: &[Round]| rs.iter().map(Round::secs).sum::<f64>();

    let t = &traced_rounds;
    let explore_ns =
        tr.times.mean_self_ns(Layer::SimExplore) * tr.times.count(Layer::SimExplore) as f64;
    insert_sim(&mut m, &t[0], explore_ns / states(t));
    // No lock layer is on this path: they come from the probes.
    m.insert("core.locks_touched", 0.0);
    m.insert("core.lease_ns", probes::lease_ns(1, &[0]));
    probes::core_rw(&mut m);
    let mut rng = SplitMix64::new(stream_seed(seed, 0x5EED));
    let tally: RmrTally =
        probes::replay_fig1((0..1 << 17).map(|_| (rng.below(3) as usize, rng.below(64) == 0)));
    tally.insert(&mut m);
    probes::swap(&mut m);
    probes::bravo_obs(&mut m);
    let (async_errors, _) = crate::asyncw::probe(seed, &mut m);
    probes::data(&mut m);
    m.insert("gen_lag_p99_ns", exact_quantile(&best.lags, 0.99));
    m.insert("trace.untraced_ops_per_s", states(&first) / secs(&first));
    m.insert("trace.traced_ops_per_s", states(t) / secs(t));
    crate::finish_trace("verify", seed, &mut m, std::iter::once(&tr));
    errors += async_errors;
    Outcome { attempted, errors, metrics: m }
}
