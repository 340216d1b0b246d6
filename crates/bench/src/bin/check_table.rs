//! E14 — checker coverage table: every shipped lock under deterministic
//! schedule exploration.
//!
//! For each lock (over the `Sched` backend) this runs a seeded PCT
//! battery, a random-walk battery and — for the core locks — a
//! preemption-bounded exhaustive DFS pass, and prints one row per
//! lock × mode with the schedules and scheduler steps explored. In
//! `--quick` mode (the CI `check --quick` job) the batteries are capped
//! so the whole table smoke-runs in seconds; any failing row prints its
//! replay line (seed + decision schedule) and the binary exits nonzero
//! so CI can upload the artifact.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin check_table -- [--quick] [--json]
//! ```

use rmr_async::lock::AsyncRwLock;
use rmr_bench::cli::{BenchArgs, Table};
use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::async_exec::{
    async_cancel_trial, async_fair_trial, async_read_blocking_write_trial, async_rw_trial,
    async_write_cancel_trial,
};
use rmr_check::exhaustive;
use rmr_check::harness::{
    mutex_trial, randomized_batteries, randomized_batteries_in, rw_trial, try_rw_trial,
    CheckReport, Scenario, Trial,
};
use rmr_check::litmus::litmus_suite;
use rmr_check::obs::{guard_balance_trial, obs_recorder, park_wake_trial};
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::swmr::{SwmrReaderPriority, SwmrWriterPriority};
use rmr_mutex::sched::MemoryModel;
use rmr_mutex::{AndersonLock, McsLock, Sched, TasLock, TicketLock, TtasLock};
use std::sync::Arc;

struct Budgets {
    randomized: u64,
    dfs_cap: u64,
}

fn run_modes(
    label: &str,
    mk: &dyn Fn() -> Trial,
    mk_small: Option<&dyn Fn() -> Trial>,
    budgets: &Budgets,
) -> Vec<CheckReport> {
    let mut reports = randomized_batteries(label, mk, 0xe14, budgets.randomized, 3, 30_000);
    if let Some(mk_small) = mk_small {
        reports.push(exhaustive(label, mk_small, 2, 30_000, budgets.dfs_cap));
    }
    reports
}

fn main() {
    let args = BenchArgs::parse(
        "check_table",
        "E14: deterministic schedule exploration coverage of the real locks",
    );
    let budgets = if args.quick {
        Budgets { randomized: 6, dfs_cap: 800 }
    } else {
        Budgets { randomized: 40, dfs_cap: 20_000 }
    };

    macro_rules! core_lock {
        ($label:expr, $make:expr) => {{
            let big: &dyn Fn() -> Trial = &|| {
                let lock = Arc::new($make);
                let q = Arc::clone(&lock);
                rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
            };
            let small: &dyn Fn() -> Trial = &|| {
                let lock = Arc::new($make);
                let q = Arc::clone(&lock);
                rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
            };
            run_modes($label, big, Some(small), &budgets)
        }};
    }

    let mut reports: Vec<CheckReport> = Vec::new();
    reports.extend(core_lock!("fig1-swmr-wp", SwmrWriterPriority::new_in(Sched)));
    reports.extend(core_lock!("fig2-swmr-rp", SwmrReaderPriority::new_in(Sched)));
    reports.extend(core_lock!("fig3-mwmr-sf", MwmrStarvationFree::new_in(3, Sched)));
    reports.extend(core_lock!("fig3-mwmr-rp", MwmrReaderPriority::new_in(3, Sched)));
    reports.extend(core_lock!("fig4-mwmr-wp", MwmrWriterPriority::new_in(3, Sched)));

    macro_rules! mutex {
        ($label:expr, $make:expr) => {{
            let big: &dyn Fn() -> Trial = &|| mutex_trial(Arc::new($make), 3, 2);
            let small: &dyn Fn() -> Trial = &|| mutex_trial(Arc::new($make), 2, 1);
            run_modes($label, big, Some(small), &budgets)
        }};
    }
    reports.extend(mutex!("anderson", AndersonLock::new_in(4, Sched)));
    reports.extend(mutex!("mcs", McsLock::new_in(Sched)));
    reports.extend(mutex!("ticket", TicketLock::new_in(Sched)));
    reports.extend(mutex!("tas", TasLock::new_in(Sched)));
    reports.extend(mutex!("ttas", TtasLock::new_in(Sched)));

    macro_rules! baseline {
        ($label:expr, $make:expr) => {{
            let big: &dyn Fn() -> Trial =
                &|| rw_trial(Arc::new($make), Scenario::new(2, 1, 2), || true);
            run_modes($label, big, None, &budgets)
        }};
    }
    reports.extend(baseline!("centralized", rmr_baselines::CentralizedRwLock::new_in(3, Sched)));
    reports.extend(baseline!(
        "courtois-wp",
        rmr_baselines::CourtoisWriterPrefRwLock::new_in(3, Sched)
    ));
    reports.extend(baseline!("ticket-rw", rmr_baselines::TicketRwLock::new_in(3, Sched)));
    reports.extend(baseline!("flags", rmr_baselines::DistributedFlagRwLock::new_in(3, Sched)));
    reports.extend(baseline!("tournament", rmr_baselines::TournamentRwLock::new_in(3, Sched)));
    {
        let big: &dyn Fn() -> Trial = &|| {
            try_rw_trial(
                Arc::new(rmr_baselines::TicketRwLock::new_in(3, Sched)),
                Scenario::new(2, 1, 2),
                || true,
            )
        };
        reports.extend(run_modes("ticket-rw-try", big, None, &budgets));
    }

    // The Bravo wrapper (rmr-bravo): wrapper state and inner lock both
    // over `Sched`, with the default policy. The table has one slot per
    // pid, so inner locks are sized to the scenario's tasks and the
    // revocation scan stays cheap per schedule. Quiescence = table fully
    // drained (plus the inner lock's own notion where one exists).
    let bravo_cfg = BravoConfig::default();
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(Bravo::new_in(
                rmr_baselines::TicketRwLock::new_in(3, Sched),
                bravo_cfg,
                Sched,
            ));
            let q = Arc::clone(&lock);
            rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
        };
        let small: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(Bravo::new_in(
                rmr_baselines::TicketRwLock::new_in(2, Sched),
                bravo_cfg,
                Sched,
            ));
            let q = Arc::clone(&lock);
            rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
        };
        reports.extend(run_modes("bravo-ticket-rw", big, Some(small), &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock =
                Arc::new(Bravo::new_in(MwmrStarvationFree::new_in(3, Sched), bravo_cfg, Sched));
            let q = Arc::clone(&lock);
            rw_trial(lock, Scenario::new(2, 1, 2), move || {
                q.is_quiescent() && q.inner().is_quiescent()
            })
        };
        reports.extend(run_modes("bravo-fig3-sf", big, None, &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(Bravo::new_in(
                rmr_baselines::TicketRwLock::new_in(3, Sched),
                bravo_cfg,
                Sched,
            ));
            let q = Arc::clone(&lock);
            try_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
        };
        reports.extend(run_modes("bravo-ticket-rw-try", big, None, &budgets));
    }

    // The async tier (rmr-async): futures over the Sched backend — waker
    // table, parked counters and the executors' parker flags all
    // scheduled, so parking races are explored at the same atomicity as
    // the sync locks. Quiescence = nothing parked, nothing held, no pid
    // leased (plus the raw lock's own notion where one exists).
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                rmr_baselines::TicketRwLock::new_in(8, Sched),
                8,
                Sched,
            ));
            let q = Arc::clone(&lock);
            async_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
        };
        let small: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                rmr_baselines::TicketRwLock::new_in(4, Sched),
                4,
                Sched,
            ));
            let q = Arc::clone(&lock);
            async_rw_trial(lock, Scenario::new(1, 1, 1), move || q.is_quiescent())
        };
        reports.extend(run_modes("async-ticket-rw", big, Some(small), &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock =
                Arc::new(AsyncRwLock::with_raw_in((), MwmrStarvationFree::new_in(4, Sched), Sched));
            let q = Arc::clone(&lock);
            async_read_blocking_write_trial(lock, Scenario::new(2, 1, 2), move || {
                q.is_quiescent() && q.raw().is_quiescent()
            })
        };
        reports.extend(run_modes("async-fig3-sf", big, None, &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                Bravo::new_in(rmr_baselines::TicketRwLock::new_in(8, Sched), bravo_cfg, Sched),
                8,
                Sched,
            ));
            let q = Arc::clone(&lock);
            async_rw_trial(lock, Scenario::new(2, 1, 2), move || {
                q.is_quiescent() && q.raw().is_quiescent()
            })
        };
        reports.extend(run_modes("async-bravo-ticket", big, None, &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            async_cancel_trial(
                Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                    (),
                    rmr_baselines::TicketRwLock::new_in(8, Sched),
                    8,
                    Sched,
                )),
                Scenario::new(2, 1, 2),
            )
        };
        reports.extend(run_modes("async-cancel", big, None, &budgets));
    }

    // The doorway tier (`RawParkedWaiters`): `write().await` on queued
    // doorways, held to the bounded-bypass oracle — once the writer's
    // first Pending tokened its doorway, at most the in-flight read set
    // may complete ahead of the grant — plus the writer-side cancel
    // trial (drop mid-drain must revoke the doorway and wake the
    // bystanders). `async-fair-fig1` is `write().await` model-checked on
    // a core paper lock, DFS included.
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                rmr_baselines::TicketRwLock::new_in(8, Sched),
                8,
                Sched,
            ));
            let q = Arc::clone(&lock);
            async_fair_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
        };
        reports.extend(run_modes("async-fair-ticket", big, None, &budgets));
    }
    {
        let mk_fig1 = |capacity| {
            Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                SwmrWriterPriority::new_in(Sched),
                capacity,
                Sched,
            ))
        };
        let big: &dyn Fn() -> Trial = &|| {
            let lock = mk_fig1(8);
            let q = Arc::clone(&lock);
            async_fair_trial(lock, Scenario::new(2, 1, 2), move || {
                q.is_quiescent() && q.raw().is_quiescent()
            })
        };
        let small: &dyn Fn() -> Trial = &|| {
            let lock = mk_fig1(4);
            let q = Arc::clone(&lock);
            async_fair_trial(lock, Scenario::new(1, 1, 1), move || {
                q.is_quiescent() && q.raw().is_quiescent()
            })
        };
        reports.extend(run_modes("async-fair-fig1", big, Some(small), &budgets));

        let big: &dyn Fn() -> Trial =
            &|| async_write_cancel_trial(mk_fig1(8), Scenario::new(2, 1, 2));
        let small: &dyn Fn() -> Trial =
            &|| async_write_cancel_trial(mk_fig1(4), Scenario::new(1, 1, 1));
        reports.extend(run_modes("async-write-cancel-fig1", big, Some(small), &budgets));
    }

    // The observability batteries (rmr-check::obs): instrumented locks
    // where the recorder's own numbers join the post-run oracle — the
    // counter ledger must balance exactly against the scenario, and the
    // drained deterministic trace must keep park/wake causality closed
    // (every park later granted or cancelled, ring lossless). Rows are
    // named `obs/*` so coverage is visible here like `/sb` and
    // `litmus/*`.
    {
        let big: &dyn Fn() -> Trial = &|| {
            guard_balance_trial(
                MwmrStarvationFree::new_in(3, Sched),
                Scenario::new(2, 1, 2),
                obs_recorder(4, 256),
            )
        };
        reports.extend(run_modes("obs/guard-balance", big, None, &budgets));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(
                AsyncRwLock::with_raw_and_capacity_in(
                    (),
                    rmr_baselines::TicketRwLock::new_in(8, Sched),
                    8,
                    Sched,
                )
                .with_recorder(obs_recorder(8, 1024)),
            );
            park_wake_trial(lock, Scenario::new(2, 1, 2))
        };
        reports.extend(run_modes("obs/park-wake", big, None, &budgets));
    }

    // The weak-memory re-run: the same trials under the store-buffer
    // model, so the relaxed orderings the sweep left behind (DESIGN.md
    // §13) are exercised against real reorderings, not just against
    // sequential consistency. Mode column reads `…/sb`.
    macro_rules! weak_rw {
        ($label:expr, $make:expr) => {{
            let big: &dyn Fn() -> Trial = &|| {
                let lock = Arc::new($make);
                let q = Arc::clone(&lock);
                rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
            };
            randomized_batteries_in(
                $label,
                big,
                0xe14,
                budgets.randomized,
                3,
                40_000,
                MemoryModel::StoreBuffer,
            )
        }};
    }
    reports.extend(weak_rw!("fig1-swmr-wp", SwmrWriterPriority::new_in(Sched)));
    reports.extend(weak_rw!("fig2-swmr-rp", SwmrReaderPriority::new_in(Sched)));
    reports.extend(weak_rw!("fig3-mwmr-sf", MwmrStarvationFree::new_in(3, Sched)));
    reports.extend(weak_rw!("fig3-mwmr-rp", MwmrReaderPriority::new_in(3, Sched)));
    reports.extend(weak_rw!("fig4-mwmr-wp", MwmrWriterPriority::new_in(3, Sched)));
    reports.extend(weak_rw!(
        "bravo-ticket-rw",
        Bravo::new_in(rmr_baselines::TicketRwLock::new_in(3, Sched), bravo_cfg, Sched)
    ));
    {
        let big: &dyn Fn() -> Trial = &|| {
            rw_trial(
                Arc::new(rmr_baselines::DistributedFlagRwLock::new_in(3, Sched)),
                Scenario::new(2, 1, 2),
                || true,
            )
        };
        reports.extend(randomized_batteries_in(
            "flags",
            big,
            0xe14,
            budgets.randomized,
            3,
            40_000,
            MemoryModel::StoreBuffer,
        ));
    }
    {
        let big: &dyn Fn() -> Trial = &|| {
            let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
                (),
                rmr_baselines::TicketRwLock::new_in(8, Sched),
                8,
                Sched,
            ));
            let q = Arc::clone(&lock);
            async_rw_trial(lock, Scenario::new(2, 1, 2), move || q.is_quiescent())
        };
        reports.extend(randomized_batteries_in(
            "async-ticket-rw",
            big,
            0xe14,
            budgets.randomized,
            3,
            40_000,
            MemoryModel::StoreBuffer,
        ));
    }

    // The litmus pins: exact full-tree statements about the memory model
    // itself. The relaxed outcomes the store-buffer mode must exhibit
    // (MP stale read, SB both-zero) and the ones it must forbid
    // (release-fronted flushes, SeqCst drains, IRIW disagreement) are
    // checked against their pinned expectations.
    let litmus = litmus_suite();

    let mut table = Table::new(&[
        ("lock", "lock"),
        ("mode", "mode"),
        ("schedules", "schedules"),
        ("steps", "steps"),
        ("result", "result"),
    ]);
    let mut failures = Vec::new();
    for r in &reports {
        table.row(vec![
            r.lock.clone(),
            format!("{}{}", r.mode, if r.truncated { " (capped)" } else { "" }),
            r.schedules.to_string(),
            r.steps.to_string(),
            if r.passed() { "ok".into() } else { "FAIL".into() },
        ]);
        if let Some(f) = &r.failure {
            failures.push(format!("{}: {f}", r.lock));
        }
    }
    for r in &litmus {
        table.row(vec![
            format!("litmus-{}", r.name),
            format!("litmus/{}", r.model),
            r.schedules.to_string(),
            r.steps.to_string(),
            if r.passed() { "ok".into() } else { "FAIL".into() },
        ]);
        if !r.passed() {
            failures.push(format!(
                "litmus-{}: expected observed={}, got observed={}",
                r.name, r.expect_observed, r.observed
            ));
        }
    }
    print!("{}", table.emit(args.json));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
