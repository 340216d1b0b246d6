//! The algorithm abstraction: processes as PC-based step machines.
//!
//! Every algorithm (the paper's Figures 1–4 and the classic mutexes) is encoded
//! as an implementation of [`Algorithm`]: a set of shared variables plus a
//! per-process local state whose program counter mirrors the paper's line
//! numbers. One call to [`Algorithm::step`] executes one atomic
//! shared-memory operation — the granularity at which the paper's
//! interleaving semantics and invariants are stated.

use crate::mem::{MemAccess, MemLayout};
use std::fmt;
use std::hash::Hash;

/// Whether a process is a reader or a writer (fixed per process, as in the
/// paper's model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// May share the critical section with other readers.
    Reader,
    /// Excludes everyone.
    Writer,
}

/// The paper's four code sections, with the try section split into its
/// bounded doorway and its waiting room (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Not competing.
    Remainder,
    /// The bounded straight-line prefix of the try section.
    Doorway,
    /// Busy-waiting for permission to enter.
    WaitingRoom,
    /// Inside the critical section.
    Cs,
    /// The (bounded) exit section.
    Exit,
}

/// What a single step did, as far as the harness needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// State advanced normally.
    Progress,
    /// The process re-checked a wait condition that is still false; its
    /// local state did not change.
    Blocked,
}

/// An encoded algorithm.
///
/// Implementations allocate their shared variables from a [`MemLayout`] at
/// construction time and keep the `VarId`s; the harness owns the actual
/// memory image so that configurations can be cloned, hashed and explored.
pub trait Algorithm {
    /// Per-process local state (program counter + local variables). Must be
    /// hashable so the explorer can deduplicate configurations.
    type Local: Clone + Eq + Hash + fmt::Debug;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// The memory layout (shared-variable names and initial values).
    fn layout(&self) -> &MemLayout;

    /// Number of processes this instance was built for.
    fn processes(&self) -> usize;

    /// The fixed role of process `pid`.
    fn role(&self, pid: usize) -> Role;

    /// The initial local state of `pid` (in its remainder section).
    fn initial_local(&self, pid: usize) -> Self::Local;

    /// Executes one atomic step of `pid`.
    ///
    /// A process in its remainder section begins a new attempt; a process
    /// whose wait condition is false returns [`StepEvent::Blocked`] and
    /// leaves `local` unchanged.
    fn step(&self, pid: usize, local: &mut Self::Local, mem: &mut MemAccess<'_>) -> StepEvent;

    /// The section `local` is currently in.
    fn phase(&self, pid: usize, local: &Self::Local) -> Phase;
}

/// Extension helpers shared by the harness.
pub trait AlgorithmExt: Algorithm {
    /// Readers among the processes.
    fn readers(&self) -> Vec<usize> {
        (0..self.processes()).filter(|&p| self.role(p) == Role::Reader).collect()
    }

    /// Writers among the processes.
    fn writers(&self) -> Vec<usize> {
        (0..self.processes()).filter(|&p| self.role(p) == Role::Writer).collect()
    }
}

impl<A: Algorithm + ?Sized> AlgorithmExt for A {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemLayout;

    /// A trivial one-variable "lock" used to test the harness plumbing: a
    /// single process that toggles a flag and cycles through all phases.
    struct Toggle {
        layout: MemLayout,
        flag: crate::mem::VarId,
    }

    impl Toggle {
        fn new() -> Self {
            let mut layout = MemLayout::new();
            let flag = layout.var("flag", 0);
            Self { layout, flag }
        }
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum TogglePc {
        Remainder,
        Doorway,
        Cs,
        Exit,
    }

    impl Algorithm for Toggle {
        type Local = TogglePc;

        fn name(&self) -> &'static str {
            "toggle"
        }

        fn layout(&self) -> &MemLayout {
            &self.layout
        }

        fn processes(&self) -> usize {
            1
        }

        fn role(&self, _pid: usize) -> Role {
            Role::Writer
        }

        fn initial_local(&self, _pid: usize) -> TogglePc {
            TogglePc::Remainder
        }

        fn step(&self, _pid: usize, local: &mut TogglePc, mem: &mut MemAccess<'_>) -> StepEvent {
            *local = match local {
                TogglePc::Remainder => TogglePc::Doorway,
                TogglePc::Doorway => {
                    mem.write(self.flag, 1);
                    TogglePc::Cs
                }
                TogglePc::Cs => TogglePc::Exit,
                TogglePc::Exit => {
                    mem.write(self.flag, 0);
                    TogglePc::Remainder
                }
            };
            StepEvent::Progress
        }

        fn phase(&self, _pid: usize, local: &TogglePc) -> Phase {
            match local {
                TogglePc::Remainder => Phase::Remainder,
                TogglePc::Doorway => Phase::Doorway,
                TogglePc::Cs => Phase::Cs,
                TogglePc::Exit => Phase::Exit,
            }
        }
    }

    #[test]
    fn toggle_cycles_through_phases() {
        use crate::cost::FreeModel;
        let alg = Toggle::new();
        let mut cells = alg.layout().build();
        let mut local = alg.initial_local(0);
        let mut cost = FreeModel;
        let mut phases = Vec::new();
        for _ in 0..8 {
            phases.push(alg.phase(0, &local));
            let mut mem = MemAccess::new(0, &mut cells, &mut cost);
            alg.step(0, &mut local, &mut mem);
        }
        assert_eq!(
            phases,
            vec![
                Phase::Remainder,
                Phase::Doorway,
                Phase::Cs,
                Phase::Exit,
                Phase::Remainder,
                Phase::Doorway,
                Phase::Cs,
                Phase::Exit,
            ]
        );
    }

    #[test]
    fn ext_helpers_partition_roles() {
        let alg = Toggle::new();
        assert_eq!(alg.writers(), vec![0]);
        assert!(alg.readers().is_empty());
    }
}
