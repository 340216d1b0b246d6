//! The mutation battery: every seeded bug must be caught, every control
//! must pass, and every reported failure must replay deterministically.
//!
//! This is the checker proving it has teeth (the acceptance bar of the
//! `rmr-check` subsystem): the *shipped* lock code with one seeded bug —
//! one dropped store, one lying swap, one demoted ordering — must fall to
//! a bounded schedule budget, and the *identical* budget must pass the
//! same code unfaulted, so a red battery always means a real bug, never
//! a flaky harness.
//!
//! The bugs are [`Fault`]s armed at typed sites of the shipped locks (see
//! `rmr_mutex::sched`): each test arms its fault for its own scope, and
//! every run the battery starts on the test's thread applies it. Two
//! bugs that are not single-site faults keep hand-written mutants
//! ([`MutantTokenlessTicket`], [`MutantSwap`]; see `rmr_check::mutants`).

use rmr_async::lock::AsyncRwLock;
use rmr_baselines::{DistributedFlagRwLock, TicketRwLock};
use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::async_exec::async_rw_trial;
use rmr_check::harness::{
    mutex_trial, randomized_batteries, randomized_batteries_in, run_trial, run_trial_in, rw_trial,
    Scenario, TaskBody, Trial,
};
use rmr_check::mutants::{MutantSwap, MutantTokenlessTicket, Mutation};
use rmr_check::{exhaustive, exhaustive_in};
use rmr_core::registry::Pid;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::mem::{Ordering, Site};
use rmr_mutex::sched::{self, Fault, FaultGuard, FaultKind, MemoryModel, Replay, RunError};
use rmr_mutex::{AndersonLock, Sched, TtasLock};
use std::sync::Arc;

const BUDGET: u64 = 30_000;
/// Randomized schedules per stage before escalating to the next.
const MUTANT_SCHEDULES: u64 = 40;
/// DFS schedule cap for the final exhaustive stage.
const MUTANT_DFS_CAP: u64 = 5_000;
/// Schedules each control must survive.
const CONTROL_SCHEDULES: u64 = 15;

/// Arms `kind` at `site` for every run the calling test starts until the
/// guard drops.
fn fault(site: Site, kind: FaultKind) -> FaultGuard {
    sched::arm(Fault { site, kind })
}

fn fig1_trial(scenario: Scenario) -> Trial {
    let lock = Arc::new(SwmrWriterPriority::new_in(Sched));
    let q = Arc::clone(&lock);
    rw_trial(lock, scenario, move || q.is_quiescent())
}

fn ttas_trial(tasks: usize) -> Trial {
    mutex_trial(Arc::new(TtasLock::new_in(Sched)), tasks, 2)
}

fn anderson_trial() -> Trial {
    mutex_trial(Arc::new(AndersonLock::new_in(2, Sched)), 2, 3)
}

/// Async readers and writers (deterministic executors, one per task)
/// through the shipped `AsyncRwLock` over the ticket baseline. The
/// release paths' full wake-up is the fault point: with `wake_all`'s
/// skip checks reading zero, a future that parked behind the writer is
/// never re-polled — a deadlock (or budget) report, exactly like the
/// Figure 1 lost-permit fault.
fn async_trial(scenario: Scenario) -> Trial {
    let capacity = scenario.tasks();
    let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        TicketRwLock::new_in(capacity, Sched),
        capacity,
        Sched,
    ));
    let q = Arc::clone(&lock);
    async_rw_trial(lock, scenario, move || q.is_quiescent())
}

/// Readers pin epoch-stamped snapshots; one writer task models the
/// lock-serialized install stream (swap, epoch bump, grace scan, free).
/// The scan is the mutation point: [`Mutation::PrematureRetire`] skips
/// slot 0, so the reader publishing there can observe a freed payload —
/// the freed-flag oracle panics inside the read session.
fn swap_mutant_trial(
    mutation: Mutation,
    readers: usize,
    reader_attempts: u64,
    writer_passages: u64,
) -> Trial {
    let arena = writer_passages as usize + 2;
    let model = Arc::new(MutantSwap::new_in(mutation, readers, arena, Sched));
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..readers {
        let model = Arc::clone(&model);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            for _ in 0..reader_attempts {
                model.reader_passage(pid);
            }
        }));
    }
    {
        let model = Arc::clone(&model);
        tasks.push(Box::new(move || {
            for _ in 0..writer_passages {
                model.writer_passage();
            }
        }));
    }
    let q = Arc::clone(&model);
    Trial {
        tasks,
        post: Box::new(move || {
            if mutation == Mutation::None && !q.is_quiescent() {
                return Err("swap mutant control is not quiescent after a clean run".into());
            }
            Ok(())
        }),
    }
}

fn flags_trial(scenario: Scenario) -> Trial {
    let lock = Arc::new(DistributedFlagRwLock::new_in(scenario.tasks(), Sched));
    let q = Arc::clone(&lock);
    rw_trial(lock, scenario, move || q.is_quiescent())
}

fn bravo_trial(scenario: Scenario) -> Trial {
    // 2 table slots, re-bias after 2 slow reads: revocation, collision and
    // re-bias all reachable within small scenarios.
    let lock = Arc::new(Bravo::new_in(
        TicketRwLock::new_in(scenario.tasks(), Sched),
        BravoConfig { table_slots: 2, rebias_after: 2, initial_bias: true },
        Sched,
    ));
    let q = Arc::clone(&lock);
    rw_trial(lock, scenario, move || q.is_quiescent())
}

/// Escalating hunt: PCT, then uniform random walks, then bounded DFS on
/// the (smaller) `mk_small` config. Asserts the mutant is caught, checks
/// the failure class, and replays the recorded schedule to verify
/// determinism. Returns which stage fired, for curiosity in test output.
fn assert_caught(
    label: &str,
    mk: impl Fn() -> Trial,
    mk_small: impl Fn() -> Trial,
    expected_any: &[&str],
) {
    let randomized = randomized_batteries(label, &mk, 0x0b5e_55ed, MUTANT_SCHEDULES, 3, BUDGET)
        .into_iter()
        .find_map(|report| report.failure);
    let (failure, replay_big) = if let Some(f) = randomized {
        (f, true)
    } else if let Some(f) = exhaustive(label, &mk_small, 2, BUDGET, MUTANT_DFS_CAP).failure {
        (f, false)
    } else {
        panic!("{label}: mutant survived PCT, random and bounded-DFS exploration");
    };
    assert!(
        expected_any.iter().any(|s| failure.reason.contains(s)),
        "{label}: unexpected failure class: {failure}"
    );

    // Determinism: replaying the recorded decisions reproduces the exact
    // failure — same decisions, same kind, same message for panics.
    let fresh = if replay_big { mk() } else { mk_small() };
    let mut strategy = Replay::new(failure.schedule.clone());
    let replayed = run_trial(fresh, &mut strategy, BUDGET);
    let err = replayed.result.expect_err("replay of a failing schedule came back clean");
    assert_eq!(replayed.schedule, failure.schedule, "{label}: replay took different decisions");
    match err {
        RunError::Panic { message, .. } => {
            assert!(
                expected_any.iter().any(|s| message.contains(s)),
                "{label}: replayed into a different failure: {message}"
            );
        }
        RunError::Deadlock { .. } => {
            assert!(
                failure.reason.starts_with("deadlock"),
                "{label}: replay deadlocked but original was: {}",
                failure.reason
            );
        }
        RunError::Budget { .. } => {
            assert!(
                failure.reason.contains("budget"),
                "{label}: replay exhausted budget but original was: {}",
                failure.reason
            );
        }
    }
}

/// The control must pass both battery styles at the mutants' budgets.
fn assert_control_passes(label: &str, mk: impl Fn() -> Trial) {
    for report in randomized_batteries(label, mk, 0x0c0a_7401, CONTROL_SCHEDULES, 3, BUDGET) {
        assert!(report.passed(), "{report}");
    }
}

/// [`assert_caught`] under [`MemoryModel::StoreBuffer`]: the escalating
/// hunt (PCT, random walks, bounded DFS with flush decisions in the
/// tree) plus a weak-model replay of the recorded schedule. This is what
/// the `Demote*` ordering mutants answer to — they are *invisible* under
/// sequential consistency by construction (see
/// `sc_cannot_see_the_ordering_mutants`), so catching them here is the
/// proof that the weak mode guards the relaxation sweep.
fn assert_caught_weak(
    label: &str,
    mk: impl Fn() -> Trial,
    mk_small: impl Fn() -> Trial,
    expected_any: &[&str],
) {
    let model = MemoryModel::StoreBuffer;
    let randomized =
        randomized_batteries_in(label, &mk, 0x0b5e_55ed, MUTANT_SCHEDULES, 3, BUDGET, model)
            .into_iter()
            .find_map(|report| report.failure);
    let (failure, replay_big) = if let Some(f) = randomized {
        (f, true)
    } else if let Some(f) =
        exhaustive_in(label, &mk_small, 2, BUDGET, MUTANT_DFS_CAP, model).failure
    {
        (f, false)
    } else {
        panic!("{label}: ordering mutant survived weak-model PCT, random and DFS exploration");
    };
    assert!(
        expected_any.iter().any(|s| failure.reason.contains(s)),
        "{label}: unexpected failure class: {failure}"
    );

    // Determinism holds under the weak model too: flush decisions are
    // recorded decisions, so the replay reproduces the exact failure.
    let fresh = if replay_big { mk() } else { mk_small() };
    let mut strategy = Replay::new(failure.schedule.clone());
    let replayed = run_trial_in(fresh, &mut strategy, BUDGET, model);
    let err = replayed.result.expect_err("replay of a failing weak schedule came back clean");
    assert_eq!(replayed.schedule, failure.schedule, "{label}: replay took different decisions");
    if let RunError::Panic { message, .. } = err {
        assert!(
            expected_any.iter().any(|s| message.contains(s)),
            "{label}: replayed into a different failure: {message}"
        );
    }
}

/// The control must also pass the *weak-model* batteries at the
/// same budgets: a catch only counts if the un-mutated twin survives the
/// identical exploration.
fn assert_control_passes_weak(label: &str, mk: impl Fn() -> Trial) {
    let reports = randomized_batteries_in(
        label,
        mk,
        0x0c0a_7401,
        CONTROL_SCHEDULES,
        3,
        BUDGET,
        MemoryModel::StoreBuffer,
    );
    for report in reports {
        assert!(report.passed(), "{report}");
    }
}

#[test]
fn fig1_control_passes_the_mutant_budgets() {
    assert_control_passes("fig1-control", || fig1_trial(Scenario::new(2, 1, 2)));
}

#[test]
fn fig1_skip_gate_close_is_caught() {
    // Site F1-L8, both stores. The stale open gate needs the writer's
    // second attempt, hence 2+ writer passages (also in the small DFS
    // config).
    let _fault = fault(Site::F1_L8, FaultKind::Skip);
    assert_caught(
        "fig1-skip-gate-close",
        || fig1_trial(Scenario::new(2, 1, 3)),
        || fig1_trial(Scenario::new(1, 1, 2)),
        &["P1 violated", "torn read", "deadlock", "not quiescent"],
    );
}

#[test]
fn fig1_skip_side_flip_is_caught() {
    // Site F1-L3: readers keep registering on the stale side the writer
    // is draining.
    let _fault = fault(Site::F1_L3, FaultKind::Skip);
    assert_caught(
        "fig1-skip-side-flip",
        || fig1_trial(Scenario::new(2, 1, 3)),
        || fig1_trial(Scenario::new(1, 1, 2)),
        &["P1 violated", "torn read", "deadlock", "not quiescent"],
    );
}

#[test]
fn fig1_skip_reader_permit_is_caught() {
    // Site F1-L28. The lost wakeup parks the writer forever: a deadlock
    // (or, if the budget trips first mid-confirmation, a budget report).
    let _fault = fault(Site::F1_L28, FaultKind::Skip);
    assert_caught(
        "fig1-skip-reader-permit",
        || fig1_trial(Scenario::new(2, 1, 2)),
        || fig1_trial(Scenario::new(1, 1, 2)),
        &["deadlock", "budget"],
    );
}

#[test]
fn ttas_control_passes_the_mutant_budgets() {
    assert_control_passes("ttas-control", || ttas_trial(3));
}

#[test]
fn ttas_wrong_cas_expected_is_caught() {
    // Site MX-TTAS: the acquire swap reports "was free" whatever it
    // displaced — the swap form of a CAS whose expected value is the
    // value just read. A second holder walks in over the first.
    let _fault = fault(Site::MX_TTAS, FaultKind::Read(0));
    assert_caught(
        "ttas-wrong-cas",
        || ttas_trial(3),
        || ttas_trial(2),
        &["mutual exclusion violated", "torn pair"],
    );
}

#[test]
fn anderson_control_passes_the_mutant_budgets() {
    assert_control_passes("anderson-control", anderson_trial);
}

#[test]
fn bravo_control_passes_the_mutant_budgets() {
    assert_control_passes("bravo-control", || bravo_trial(Scenario::new(2, 1, 2)));
}

#[test]
fn bravo_skip_revocation_scan_is_caught() {
    // Site BR-SCAN: every slot reads empty, so the writer enters over a
    // still-published fast reader — an exclusion violation or a torn
    // read, depending on who the oracle trips first.
    let _fault = fault(Site::BR_SCAN, FaultKind::Read(0));
    assert_caught(
        "bravo-skip-revocation-scan",
        || bravo_trial(Scenario::new(2, 1, 2)),
        || bravo_trial(Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn swap_control_passes_the_mutant_budgets() {
    assert_control_passes("swap-control", || swap_mutant_trial(Mutation::None, 2, 2, 2));
}

#[test]
fn swap_premature_retire_is_caught() {
    // The reader in slot 0 pins a payload; the mutant writer's grace scan
    // starts at slot 1, frees it anyway, and the reader's freed-flag
    // oracle trips inside the read session. One reader keeps the mutant
    // scan a no-op, so the whole race is the single-window interleaving
    // "publish/load → full writer passage → dereference".
    assert_caught(
        "swap-premature-retire",
        || swap_mutant_trial(Mutation::PrematureRetire, 2, 2, 2),
        || swap_mutant_trial(Mutation::PrematureRetire, 1, 1, 2),
        &["freed payload observed"],
    );
}

#[test]
fn async_control_passes_the_mutant_budgets() {
    assert_control_passes("async-control", || async_trial(Scenario::new(2, 1, 2)));
}

/// The fairness trial over the doorway mutant: the production
/// `AsyncRwLock` drives the wrapper's (possibly tokenless) doorway, and
/// the bounded-bypass oracle must distinguish the faithful forward from
/// the dropped token.
fn async_fair_mutant_trial(mutation: Mutation, scenario: Scenario) -> Trial {
    let capacity = scenario.tasks().max(4);
    let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        MutantTokenlessTicket::new_in(mutation, capacity, Sched),
        capacity,
        Sched,
    ));
    let q = Arc::clone(&lock);
    rmr_check::async_exec::async_fair_trial(lock, scenario, move || {
        mutation != Mutation::None || q.is_quiescent()
    })
}

#[test]
fn async_fair_control_passes_the_mutant_budgets() {
    assert_control_passes("async-fair-control", || {
        async_fair_mutant_trial(Mutation::None, Scenario::new(2, 1, 2))
    });
}

#[test]
fn async_drop_waiter_token_is_caught() {
    // With the token dropped, the readers' remaining passages all clear
    // the "parked" writer's bare try-polling: any schedule that parks the
    // writer early sees more than `readers` bypasses at the grant. 3
    // reader attempts guarantee the overshoot is reachable (up to 6
    // bypasses against a bound of 2).
    assert_caught(
        "async-drop-waiter-token",
        || async_fair_mutant_trial(Mutation::DropWaiterToken, Scenario::new(2, 1, 3)),
        || async_fair_mutant_trial(Mutation::DropWaiterToken, Scenario::new(1, 1, 3)),
        &["bounded bypass violated"],
    );
}

#[test]
fn async_drop_wakeup_is_caught() {
    // Site AS-WAKE-ALL: the write release (and the last reader's) skips
    // its wake-up. A reader must park behind the writer before the
    // writer's release — 2 writer passages give every strategy that
    // window.
    let _fault = fault(Site::AS_WAKE_ALL, FaultKind::Read(0));
    assert_caught(
        "async-drop-wakeup",
        || async_trial(Scenario::new(2, 1, 2)),
        || async_trial(Scenario::new(1, 1, 2)),
        &["deadlock", "budget"],
    );
}

#[test]
fn anderson_skip_slot_close_is_caught() {
    // Site MX-ANDERSON-RESET: both slots end up open and two later
    // tickets enter together.
    let _fault = fault(Site::MX_ANDERSON_RESET, FaultKind::Skip);
    assert_caught(
        "anderson-skip-slot-close",
        anderson_trial,
        anderson_trial,
        &["mutual exclusion violated", "torn pair"],
    );
}

// ---------------------------------------------------------------------
// The ordering faults (`Demote*`): each demotes exactly one SeqCst
// store to Release at a site DESIGN.md §13 proves must stay SeqCst.
// Under sequential consistency the demotion changes nothing — the SC
// batteries must pass it. Under the store buffer the demoted store can
// sit buffered across the protocol's Dekker window, and the batteries
// must catch it. Together the pair shows the weak mode (not luck, not
// the oracles alone) is what polices the relaxation sweep.
// ---------------------------------------------------------------------

/// `DemoteFlagRaise`: the flags baseline's reader raise, SeqCst → Release.
fn demote_flag_raise() -> FaultGuard {
    fault(Site::BL_FLAGS_RAISE, FaultKind::Order(Ordering::Release))
}

/// `DemoteBiasClear`: Bravo's bias clear, SeqCst → Release.
fn demote_bias_clear() -> FaultGuard {
    fault(Site::BR_CLEAR, FaultKind::Order(Ordering::Release))
}

#[test]
fn flags_control_passes_the_weak_budgets() {
    assert_control_passes("flags-control", || flags_trial(Scenario::new(2, 1, 2)));
    assert_control_passes_weak("flags-control", || flags_trial(Scenario::new(2, 1, 2)));
}

#[test]
fn bravo_and_swap_controls_pass_the_weak_budgets() {
    assert_control_passes_weak("bravo-control", || bravo_trial(Scenario::new(2, 1, 2)));
    assert_control_passes_weak("swap-control", || swap_mutant_trial(Mutation::None, 2, 2, 2));
}

#[test]
fn sc_cannot_see_the_ordering_mutants() {
    // The demotions are no-ops under sequential consistency: every store
    // is applied immediately whatever its ordering, so the SC batteries
    // (the mutants' own budgets) must come back green. This is the
    // "invisible half" of the Demote* proof — a mutant the SC batteries
    // caught would be a protocol bug, not an ordering bug.
    {
        let _fault = demote_flag_raise();
        assert_control_passes("flags-demote-sc", || flags_trial(Scenario::new(2, 1, 2)));
    }
    {
        let _fault = demote_bias_clear();
        assert_control_passes("bravo-demote-sc", || bravo_trial(Scenario::new(2, 1, 2)));
    }
    assert_control_passes("swap-demote-sc", || {
        swap_mutant_trial(Mutation::DemotePublishEpoch, 2, 2, 2)
    });
}

#[test]
fn flags_demote_flag_raise_is_caught_under_the_weak_model() {
    // Site BL-FLAGS-RAISE: the reader's flag raise is one half of a
    // Dekker square. Buffered, the raise is invisible to the writer's
    // scan while the reader's SeqCst `writer_present` check (a buffer
    // drain + native load) still sees no writer: both sides enter.
    let _fault = demote_flag_raise();
    assert_caught_weak(
        "flags-demote-flag-raise",
        || flags_trial(Scenario::new(2, 1, 2)),
        || flags_trial(Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn bravo_demote_bias_clear_is_caught_under_the_weak_model() {
    // Site BR-CLEAR: the revoking writer's bias clear sits buffered, so a
    // fast reader's SeqCst re-check still sees the bias up after the
    // writer's (already passed) revocation scan: reader and writer
    // overlap in the critical section.
    let _fault = demote_bias_clear();
    assert_caught_weak(
        "bravo-demote-bias-clear",
        || bravo_trial(Scenario::new(2, 1, 2)),
        || bravo_trial(Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn swap_demote_publish_epoch_is_caught_under_the_weak_model() {
    // Site SW-PUB: the reader's epoch publication sits buffered, so the
    // writer's grace scan reads slot 0 and frees the payload the reader
    // is still dereferencing — the freed-flag oracle trips inside the
    // read session.
    assert_caught_weak(
        "swap-demote-publish-epoch",
        || swap_mutant_trial(Mutation::DemotePublishEpoch, 2, 2, 2),
        || swap_mutant_trial(Mutation::DemotePublishEpoch, 1, 1, 2),
        &["freed payload observed"],
    );
}
