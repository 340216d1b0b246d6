//! Machine encodings of the classic mutual-exclusion locks, used to
//! validate the CC cost model against the literature's known RMR results:
//!
//! | lock | RMRs per acquire/release (CC) |
//! |---|---|
//! | test-and-set | unbounded under contention (every retry is remote) |
//! | test-and-test-and-set | Θ(waiters) per handoff (invalidation storm) |
//! | Anderson array lock | O(1) |
//!
//! Anderson's O(1) result is what made the paper's use of it as `M` free of
//! charge; seeing these three separate cleanly in our model is the
//! calibration that makes the E6 tables trustworthy.

use super::anderson::AndersonVars;
use crate::machine::{Algorithm, Phase, Role, StepEvent};
use crate::mem::{MemAccess, MemLayout, VarId};

/// Which mutex a [`MutexMachine`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexKind {
    /// Swap in a loop (no local spinning at all).
    Tas,
    /// Read-spin, then swap.
    Ttas,
    /// Anderson's array lock.
    Anderson,
}

/// Local state for [`MutexMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MutexLocal {
    Remainder,
    // TAS
    TasTry,
    // TTAS
    TtasSpin,
    TtasSwap,
    // Anderson
    AndTicket,
    AndWait { ticket: u64 },
    // common
    Cs { ticket: u64 },
    Rel1 { ticket: u64 },
    Rel2 { ticket: u64 },
}

/// A population of processes contending on one mutex; every process is a
/// "writer" (mutual exclusion has no readers).
#[derive(Debug)]
pub struct MutexMachine {
    layout: MemLayout,
    kind: MutexKind,
    /// TAS/TTAS flag.
    flag: VarId,
    /// Anderson state (allocated for all kinds; unused by TAS/TTAS).
    anderson: AndersonVars,
    procs: usize,
}

impl MutexMachine {
    /// Builds `procs` contenders on a `kind` mutex.
    pub fn new(kind: MutexKind, procs: usize) -> Self {
        let mut layout = MemLayout::new();
        let flag = layout.var("flag", 0);
        let anderson = AndersonVars::alloc(&mut layout, procs.max(2));
        Self { layout, kind, flag, anderson, procs }
    }
}

impl Algorithm for MutexMachine {
    type Local = MutexLocal;

    fn name(&self) -> &'static str {
        match self.kind {
            MutexKind::Tas => "mutex-tas",
            MutexKind::Ttas => "mutex-ttas",
            MutexKind::Anderson => "mutex-anderson",
        }
    }

    fn layout(&self) -> &MemLayout {
        &self.layout
    }

    fn processes(&self) -> usize {
        self.procs
    }

    fn role(&self, _pid: usize) -> Role {
        Role::Writer
    }

    fn initial_local(&self, _pid: usize) -> MutexLocal {
        MutexLocal::Remainder
    }

    fn step(&self, _pid: usize, l: &mut MutexLocal, mem: &mut MemAccess<'_>) -> StepEvent {
        use MutexLocal::*;
        match *l {
            Remainder => {
                *l = match self.kind {
                    MutexKind::Tas => TasTry,
                    MutexKind::Ttas => TtasSpin,
                    MutexKind::Anderson => AndTicket,
                };
            }
            TasTry => {
                // swap(flag, 1): an Update every retry — each one a remote
                // reference, which is exactly TAS's pathology. (CAS and
                // swap are indistinguishable to the cost model.)
                if mem.cas(self.flag, 0, 1) {
                    *l = Cs { ticket: 0 };
                }
                // else: stay at TasTry; the failed attempt still progressed
                // (and paid).
            }
            TtasSpin => {
                if mem.read(self.flag) == 0 {
                    *l = TtasSwap;
                } else {
                    return StepEvent::Blocked;
                }
            }
            TtasSwap => {
                *l = if mem.cas(self.flag, 0, 1) { Cs { ticket: 0 } } else { TtasSpin };
            }
            AndTicket => {
                let t = self.anderson.take_ticket(mem);
                *l = AndWait { ticket: t };
            }
            AndWait { ticket } => {
                if self.anderson.poll(ticket, mem) {
                    *l = Cs { ticket };
                } else {
                    return StepEvent::Blocked;
                }
            }
            Cs { ticket } => {
                *l = Rel1 { ticket };
            }
            Rel1 { ticket } => match self.kind {
                MutexKind::Tas | MutexKind::Ttas => {
                    mem.write(self.flag, 0);
                    *l = Remainder;
                }
                MutexKind::Anderson => {
                    self.anderson.close_own(ticket, mem);
                    *l = Rel2 { ticket };
                }
            },
            Rel2 { ticket } => {
                self.anderson.open_next(ticket, mem);
                *l = Remainder;
            }
        }
        StepEvent::Progress
    }

    fn phase(&self, _pid: usize, l: &MutexLocal) -> Phase {
        use MutexLocal::*;
        match l {
            Remainder => Phase::Remainder,
            TasTry | TtasSpin | TtasSwap | AndWait { .. } => Phase::WaitingRoom,
            AndTicket => Phase::Doorway,
            Cs { .. } => Phase::Cs,
            Rel1 { .. } | Rel2 { .. } => Phase::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CcModel;
    use crate::runner::{RandomSched, Runner};

    fn max_rmr(kind: MutexKind, procs: usize, seed: u64) -> u64 {
        let alg = MutexMachine::new(kind, procs);
        let vars = alg.layout().len();
        let mut r = Runner::new(alg, CcModel::new(procs.min(64), vars), 3);
        r.run(&mut RandomSched::new(seed), 5_000_000);
        assert!(r.quiescent(), "{kind:?} run did not quiesce");
        assert!(r.violations().is_empty());
        r.finished_attempts().iter().map(|a| a.rmrs).max().unwrap()
    }

    #[test]
    fn anderson_exhaustive_exclusion_and_liveness() {
        // Every interleaving of 3 contenders × 2 attempts: mutual exclusion
        // and deadlock freedom of the Anderson encoding (the lock M that
        // Figures 3 and 4 lean on).
        let alg = MutexMachine::new(MutexKind::Anderson, 3);
        let report = crate::explore::explore(&alg, &[2, 2, 2], 10_000_000, &[]);
        assert!(report.clean(), "{report}: {:?} {:?}", report.violations, report.deadlocks);
    }

    #[test]
    fn ttas_exhaustive_exclusion() {
        let alg = MutexMachine::new(MutexKind::Ttas, 3);
        let report = crate::explore::explore(&alg, &[2, 2, 2], 10_000_000, &[]);
        assert!(report.clean(), "{report}: {:?} {:?}", report.violations, report.deadlocks);
    }

    #[test]
    fn anderson_is_constant_rmr() {
        let small = max_rmr(MutexKind::Anderson, 2, 7);
        let large = max_rmr(MutexKind::Anderson, 24, 7);
        assert!(small <= 6 && large <= 6, "Anderson must be O(1): {small} vs {large}");
    }

    #[test]
    fn ttas_handoffs_scale_with_waiters() {
        let small = max_rmr(MutexKind::Ttas, 2, 7);
        let large = max_rmr(MutexKind::Ttas, 24, 7);
        assert!(
            large > small,
            "TTAS worst attempt should grow with contention: {small} vs {large}"
        );
    }

    #[test]
    fn separation_anderson_beats_ttas_at_scale() {
        let anderson = max_rmr(MutexKind::Anderson, 24, 3);
        let ttas = max_rmr(MutexKind::Ttas, 24, 3);
        assert!(anderson < ttas, "Anderson ({anderson}) must beat TTAS ({ttas}) at 24 contenders");
    }
}
