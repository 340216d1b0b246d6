//! Cross-validation of the `Counting` and `Sched` memory backends against
//! `rmr-sim`'s cost models, plus the zero-cost guard for `Native`.
//!
//! The `Counting` backend (rmr-mutex `mem` module) claims to replicate the
//! simulator's CC and DSM accounting on the real implementations, and the
//! `Sched` backend charges the same tallies (the E7/E13 ledger). These
//! tests pin that claim where it is exactly checkable: on a deterministic
//! single-threaded schedule, the same operation sequence must produce
//! *identical* per-operation RMR verdicts from both accountants.

use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::mem::{self, Backend, Counting, Native, Ordering, SharedBool, SharedWord};
use rmr_mutex::sched::Sched;
use rmr_sim::cost::{AccessKind, CcModel, CostModel, DsmModel};
use rmr_sim::mem::VarId;
use rmr_sim::rng::SplitMix64;

/// One shared-memory operation of the generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load,
    Store,
    Swap,
    FetchAdd,
    FetchSub,
    Cas,
}

impl Op {
    fn from_rng(r: u64) -> Self {
        match r % 6 {
            0 => Op::Load,
            1 => Op::Store,
            2 => Op::Swap,
            3 => Op::FetchAdd,
            4 => Op::FetchSub,
            _ => Op::Cas,
        }
    }

    fn kind(self) -> AccessKind {
        match self {
            Op::Load => AccessKind::Read,
            _ => AccessKind::Update,
        }
    }

    /// A legal ordering for this operation, drawn from the seeded stream —
    /// reads get read orderings, writes get write orderings, RMWs get the
    /// full menu. The accounting claims to be ordering-blind (DESIGN.md
    /// §13); feeding every op a varying ordering is what pins that.
    fn ordering_from_rng(self, r: u64) -> Ordering {
        match self {
            Op::Load => [Ordering::Relaxed, Ordering::Acquire, Ordering::SeqCst][r as usize % 3],
            Op::Store => [Ordering::Relaxed, Ordering::Release, Ordering::SeqCst][r as usize % 3],
            _ => [
                Ordering::Relaxed,
                Ordering::Acquire,
                Ordering::Release,
                Ordering::AcqRel,
                Ordering::SeqCst,
            ][r as usize % 5],
        }
    }
}

/// Applies `op` to a word under `order` and returns `(cc, dsm)` charged
/// for it.
fn charged<W: SharedWord>(word: &W, op: Op, order: Ordering) -> (u64, u64) {
    let before = mem::thread_tally();
    match op {
        Op::Load => {
            let _ = word.load(order);
        }
        Op::Store => word.store(7, order),
        Op::Swap => {
            let _ = word.swap(9, order);
        }
        Op::FetchAdd => {
            let _ = word.fetch_add(1, order);
        }
        Op::FetchSub => {
            let _ = word.fetch_sub(1, order);
        }
        Op::Cas => {
            // Mixed success/failure; a failed CAS must charge identically.
            // Failure ordering must not be Release/AcqRel (std contract).
            let _ = word.compare_exchange(9, 3, order, Ordering::Relaxed);
        }
    }
    let after = mem::thread_tally();
    (after.cc - before.cc, after.dsm - before.dsm)
}

/// The core cross-validation: 4 processes, 6 variables, 2000 pseudo-random
/// operations. Every operation's CC and DSM verdict from the Counting
/// backend, and from the Sched backend (off a scheduler task its operations
/// run natively and still tally), must equal `CcModel` /
/// `DsmModel::all_at(0)` fed the same schedule.
#[test]
fn counting_matches_sim_cost_models_on_deterministic_schedule() {
    matches_sim_cost_models::<<Counting as Backend>::Word>();
    matches_sim_cost_models::<<Sched as Backend>::Word>();
}

fn matches_sim_cost_models<W: SharedWord>() {
    const PROCS: usize = 4;
    const VARS: usize = 6;
    const STEPS: usize = 2000;

    let words: Vec<W> = (0..VARS).map(|_| W::new(0)).collect();
    let mut cc = CcModel::new(PROCS, VARS);
    let mut dsm = DsmModel::all_at(0, VARS);
    let mut rng = SplitMix64::new(0xC0FFEE);

    for step in 0..STEPS {
        let pid = (rng.next_u64() % PROCS as u64) as usize;
        let var = (rng.next_u64() % VARS as u64) as usize;
        let op = Op::from_rng(rng.next_u64());
        let order = op.ordering_from_rng(rng.next_u64());

        mem::set_thread_slot(pid);
        let (got_cc, got_dsm) = charged(&words[var], op, order);
        let want_cc = u64::from(cc.account(pid, VarId::from_index(var), op.kind()));
        let want_dsm = u64::from(dsm.account(pid, VarId::from_index(var), op.kind()));

        assert_eq!(
            got_cc,
            want_cc,
            "{}: CC divergence at step {step}: pid {pid}, var {var}, {op:?} ({order:?})",
            std::any::type_name::<W>()
        );
        assert_eq!(
            got_dsm,
            want_dsm,
            "{}: DSM divergence at step {step}: pid {pid}, var {var}, {op:?} ({order:?})",
            std::any::type_name::<W>()
        );
    }
}

/// The ordering-blindness property (DESIGN.md §13), pinned directly: the
/// *same* seeded operation schedule replayed once with every op `SeqCst`
/// and once with seeded pseudo-random per-op orderings must produce
/// bit-identical tallies. The relaxation sweep must never change what
/// E13/E17 count — only what the hardware is allowed to reorder.
#[test]
fn counting_tallies_are_ordering_independent() {
    const PROCS: usize = 4;
    const VARS: usize = 5;
    const STEPS: usize = 1500;
    const SEED: u64 = 0x0D15_EA5E;

    let run = |randomize_orderings: bool| -> (u64, u64, u64) {
        let words: Vec<<Counting as Backend>::Word> =
            (0..VARS).map(|_| SharedWord::new(0)).collect();
        let mut rng = SplitMix64::new(SEED);
        let mut totals = (0u64, 0u64, 0u64);
        for _ in 0..STEPS {
            let pid = (rng.next_u64() % PROCS as u64) as usize;
            let var = (rng.next_u64() % VARS as u64) as usize;
            let op = Op::from_rng(rng.next_u64());
            // Always consume the ordering draw so both replays see the
            // identical pid/var/op stream.
            let draw = rng.next_u64();
            let order =
                if randomize_orderings { op.ordering_from_rng(draw) } else { Ordering::SeqCst };
            mem::set_thread_slot(pid);
            let before = mem::thread_tally();
            let (cc, dsm) = charged(&words[var], op, order);
            let ops = mem::thread_tally().ops - before.ops;
            totals = (totals.0 + cc, totals.1 + dsm, totals.2 + ops);
        }
        totals
    };

    let seqcst = run(false);
    let mixed = run(true);
    assert_eq!(seqcst, mixed, "tallies depend on the ordering annotations");
}

/// Same cross-validation for the boolean variables (loads/stores/swaps/CAS
/// on flags are most of what the locks' gates and permits do).
#[test]
fn counting_bools_match_cc_model() {
    const PROCS: usize = 3;
    const VARS: usize = 4;

    let flags: Vec<<Counting as Backend>::Bool> =
        (0..VARS).map(|_| SharedBool::new(false)).collect();
    let mut cc = CcModel::new(PROCS, VARS);
    let mut rng = SplitMix64::new(42);

    for step in 0..1000 {
        let pid = (rng.next_u64() % PROCS as u64) as usize;
        let var = (rng.next_u64() % VARS as u64) as usize;
        let update = rng.next_u64().is_multiple_of(2);

        mem::set_thread_slot(pid);
        let before = mem::thread_tally();
        let kind = if update {
            match rng.next_u64() % 3 {
                0 => flags[var].store(true, Ordering::Release),
                1 => {
                    let _ = flags[var].swap(false, Ordering::AcqRel);
                }
                _ => {
                    let _ = flags[var].compare_exchange(
                        false,
                        true,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
            }
            AccessKind::Update
        } else {
            let _ = flags[var].load(Ordering::Acquire);
            AccessKind::Read
        };
        let got = mem::thread_tally().cc - before.cc;
        let want = u64::from(cc.account(pid, VarId::from_index(var), kind));
        assert_eq!(got, want, "divergence at step {step}: pid {pid}, var {var}");
    }
}

/// Zero-cost guard, part 1: the Native wrappers are layout-transparent
/// over the std atomics they wrap.
#[test]
fn native_wrappers_are_layout_transparent() {
    use std::mem::{align_of, size_of};
    use std::sync::atomic::AtomicU64;
    assert_eq!(size_of::<<Native as Backend>::Bool>(), size_of::<AtomicU64>());
    assert_eq!(align_of::<<Native as Backend>::Bool>(), align_of::<AtomicU64>());
    assert_eq!(size_of::<<Native as Backend>::Word>(), size_of::<AtomicU64>());
    assert_eq!(align_of::<<Native as Backend>::Word>(), align_of::<AtomicU64>());
}

/// Zero-cost guard, part 1b: every ordering-taking method of the Native
/// vocabulary accepts every legal ordering and computes the right value —
/// the wrapper forwards the annotation, it must never reinterpret the
/// operation. (Misuse like a `Relaxed` fence panics in std; the sweep
/// never emits one, and `Backend::fence` documents the same contract.)
#[test]
fn native_methods_forward_every_legal_ordering() {
    let b = <Native as Backend>::Bool::new(false);
    for order in [Ordering::Relaxed, Ordering::Acquire, Ordering::SeqCst] {
        assert!(!b.load(order) || b.load(order));
    }
    for order in [Ordering::Relaxed, Ordering::Release, Ordering::SeqCst] {
        b.store(true, order);
    }
    for order in [
        Ordering::Relaxed,
        Ordering::Acquire,
        Ordering::Release,
        Ordering::AcqRel,
        Ordering::SeqCst,
    ] {
        assert!(b.swap(true, order));
        assert_eq!(b.compare_exchange(true, false, order, Ordering::Relaxed), Ok(true));
        assert!(!b.swap(true, order));
    }

    let w = <Native as Backend>::Word::new(0);
    for order in [
        Ordering::Relaxed,
        Ordering::Acquire,
        Ordering::Release,
        Ordering::AcqRel,
        Ordering::SeqCst,
    ] {
        let base = w.load(Ordering::Relaxed);
        assert_eq!(w.fetch_add(3, order), base);
        assert_eq!(w.fetch_sub(1, order), base + 3);
        assert_eq!(w.swap(base, order), base + 2);
        assert_eq!(w.compare_exchange(base, base + 10, order, Ordering::Relaxed), Ok(base));
        w.store(
            base,
            if order == Ordering::Acquire { Ordering::Relaxed } else { Ordering::SeqCst },
        );
        assert_eq!(w.load(Ordering::Acquire), base);
    }
    Native::fence(Ordering::SeqCst);
    Native::fence(Ordering::Release);
    Native::fence(Ordering::Acquire);
}

/// Zero-cost guard, part 2: a Native-backed lock (the default type — the
/// exact pre-refactor public API) still runs the uncontended fast path.
#[test]
fn native_uncontended_smoke() {
    let lock = SwmrWriterPriority::new(); // default = Native backend
    for _ in 0..1000 {
        let r = lock.read_lock();
        lock.read_unlock(r);
    }
    let w = lock.write_lock();
    lock.write_unlock(w);
}

/// The property the paper's design is *about*, observable on the real
/// implementation: a solo reader's passage performs **zero** CC RMRs once
/// its variables are cached (every re-read is a local cache hit, every
/// update is by the sole holder).
#[test]
fn fig1_solo_reader_steady_state_is_cc_free() {
    mem::set_thread_slot(5);
    let lock = SwmrWriterPriority::new_in(Counting);
    // Warm-up: pay the cold misses once.
    for _ in 0..3 {
        let r = lock.read_lock();
        lock.read_unlock(r);
    }
    for i in 0..10 {
        mem::reset_thread_tally();
        let r = lock.read_lock();
        lock.read_unlock(r);
        let t = mem::thread_tally();
        assert!(t.ops > 0, "passage {i} performed no shared ops");
        assert_eq!(t.cc, 0, "passage {i} of a solo reader paid CC RMRs");
        assert!(t.dsm > 0, "slot 5 is never the DSM home, so DSM must charge");
    }
}

/// The writer side settles to a small constant too (not zero — the writer
/// toggles sides, so it touches both sides' variables), and stays put.
#[test]
fn fig1_solo_writer_steady_state_is_constant() {
    mem::set_thread_slot(9);
    let lock = SwmrWriterPriority::new_in(Counting);
    for _ in 0..4 {
        let w = lock.write_lock();
        lock.write_unlock(w);
    }
    let mut costs = Vec::new();
    for _ in 0..8 {
        mem::reset_thread_tally();
        let w = lock.write_lock();
        lock.write_unlock(w);
        costs.push(mem::thread_tally().cc);
    }
    assert!(costs.iter().all(|&c| c == costs[0]), "unstable steady state: {costs:?}");
    assert!(costs[0] <= 4, "solo writer passage should be near-free: {costs:?}");
}
