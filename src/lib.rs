//! **rmrw** — facade over the full reproduction of Bhatt & Jayanti,
//! *"Constant RMR Solutions to Reader Writer Synchronization"*
//! (Dartmouth TR2010-662 / PODC 2010).
//!
//! Re-exports the eight library crates under stable names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `rmr-core` | the paper's five lock algorithms + typed `RwLock` API |
//! | [`mutex`] | `rmr-mutex` | Anderson's array lock (the paper's `M`), classic spin locks, memory backends (incl. the `Sched` scheduling backend) |
//! | [`bravo`] | `rmr-bravo` | BRAVO-style reader-biased fast path (`Bravo<L>`) over any raw lock |
//! | [`async_lock`] | `rmr-async` | waker-parking async front end (`AsyncRwLock<T, L>`): `read().await` instead of spinning, plus a dependency-free `block_on` |
//! | [`swap`] | `rmr-swap` | epoch-swap snapshot tier (`Snapshot<T>`): zero-RMR wait-free reads, copy-swap-retire writes with an RCU-style retirement knob |
//! | [`obs`] | `rmr-obs` | zero-cost-when-off observability: `Recorder` hooks in every tier, counters + log-bucket histograms (`StatsRecorder`), replayable Chrome-trace event ring |
//! | [`baselines`] | `rmr-baselines` | the prior-art lock classes the paper improves on |
//! | [`sim`] | `rmr-sim` | the abstract machine: model checking, RMR cost models, invariants |
//!
//! Two workspace crates stay out of the facade. `rmr-check`
//! (deterministic schedule exploration of the shipped locks — PCT,
//! bounded DFS, the mutation battery) is a dev-dependency only: it ships
//! deliberately broken mutant locks for its battery, which must never
//! reach this production facade. `rmr-bench` holds the paper's experiment
//! binaries.
//!
//! Most applications only need [`core`]. The lock is used exactly like
//! `std::sync::RwLock` — pids are leased per thread behind the scenes:
//!
//! ```
//! use rmrw::core::RwLock;
//!
//! let lock = RwLock::starvation_free(vec![1, 2, 3], 8);
//! lock.write().push(4);
//! assert_eq!(lock.read().len(), 4);
//! assert_eq!(lock.try_read().expect("no writer").len(), 4);
//! ```
//!
//! For pinned pids (explicit registration) use [`core`]'s
//! `RwLock::register`; for the statically-enforced single-writer split of
//! Figures 1–2 use `rmrw::core::swmr_rwlock`. For read-mostly traffic,
//! wrap any lock in [`bravo`]'s `Bravo` to give readers a biased fast
//! path that skips the inner lock entirely while no writer is active:
//!
//! ```
//! use rmrw::bravo::Bravo;
//! use rmrw::core::mwmr::MwmrStarvationFree;
//! use rmrw::core::RwLock;
//!
//! let lock = RwLock::with_raw(0u32, Bravo::new(MwmrStarvationFree::new(8)));
//! *lock.write() += 1;
//! assert_eq!(*lock.read(), 1);
//! ```
//!
//! For data that is read overwhelmingly more than it is written (config,
//! routing tables, feature flags), [`swap`]'s `Snapshot` goes one step
//! further than Bravo: a read is wait-free and performs zero remote
//! memory references in steady state; writers pay a payload copy plus
//! deferred reclamation. Snapshot reads are also safely reentrant, where
//! a nested lock read can self-deadlock behind a waiting writer:
//!
//! ```
//! use rmrw::swap::Snapshot;
//!
//! let snap = Snapshot::new(vec![1u32, 2, 3], 8);
//! let outer = snap.load(); // wait-free, pins this version
//! assert_eq!(outer.len(), 3);
//! assert_eq!(snap.load().len(), 3); // nested load: fine
//! drop(outer);
//! snap.update(|v| v.iter().map(|x| x * 2).collect());
//! assert_eq!(snap.load()[0], 2);
//! ```
//!
//! Services that must not burn a core per waiter use [`async_lock`]'s
//! `AsyncRwLock` instead: a blocked `read().await` suspends (waker
//! parked, core released) and the lock's release paths wake it — over
//! any of the same raw locks, Bravo-wrapped included:
//!
//! ```
//! use rmrw::async_lock::exec::block_on;
//! use rmrw::async_lock::AsyncRwLock;
//! use rmrw::baselines::TicketRwLock;
//!
//! let lock = AsyncRwLock::with_raw(0u32, TicketRwLock::new(8));
//! block_on(async {
//!     *lock.write().await += 1;
//!     assert_eq!(*lock.read().await, 1);
//! });
//! ```
//!
//! Every tier accepts an [`obs`] recorder via `with_recorder` — the
//! default `NoopRecorder` compiles the hooks away entirely (proven
//! op-for-op by E19), while a `StatsRecorder` yields counters, p50/p99
//! latency histograms and an optional replayable event trace:
//!
//! ```
//! use rmrw::core::RwLock;
//! use rmrw::obs::{Event, StatsRecorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(StatsRecorder::new(8));
//! let lock = RwLock::starvation_free(0u32, 8).with_recorder(Arc::clone(&rec));
//! *lock.write() += 1;
//! assert_eq!(rec.counter(Event::WriteAcquire), 1);
//! ```
//!
//! See the workspace README for the paper map, DESIGN.md for the system
//! inventory, and EXPERIMENTS.md for how to reproduce the measurements.

#![warn(missing_docs)]

pub use rmr_async as async_lock;
pub use rmr_baselines as baselines;
pub use rmr_bravo as bravo;
pub use rmr_core as core;
pub use rmr_mutex as mutex;
pub use rmr_obs as obs;
pub use rmr_sim as sim;
pub use rmr_swap as swap;
