//! Simulator sweeps behind the RMR tables (experiments E6 and E8), and the
//! row and table types the shipped-code ledger (E7/E13) shares with them.

use crate::cli::Table;
use rmr_sim::algos::{Fig1, Fig2, Fig3Rp, Fig3Sf, Fig4};
use rmr_sim::cost::{CcModel, CostModel, DsmModel};
use rmr_sim::machine::Algorithm;
use rmr_sim::runner::{RandomSched, Runner};

/// The paper's algorithms, as `rmr-sim` line-level models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAlgo {
    /// Figure 1 (SWMR writer priority). Forces `writers = 1`.
    Fig1,
    /// Figure 2 (SWMR reader priority). Forces `writers = 1`.
    Fig2,
    /// Figure 3 over Figure 1 (MWMR starvation free).
    Fig3Sf,
    /// Figure 3 over Figure 2 (MWMR reader priority).
    Fig3Rp,
    /// Figure 4 (MWMR writer priority).
    Fig4,
}

impl SimAlgo {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SimAlgo::Fig1 => "fig1-swmr-wp",
            SimAlgo::Fig2 => "fig2-swmr-rp",
            SimAlgo::Fig3Sf => "fig3-mwmr-sf",
            SimAlgo::Fig3Rp => "fig3-mwmr-rp",
            SimAlgo::Fig4 => "fig4-mwmr-wp",
        }
    }

    /// All paper algorithms.
    pub const PAPER: [SimAlgo; 5] =
        [SimAlgo::Fig1, SimAlgo::Fig2, SimAlgo::Fig3Sf, SimAlgo::Fig3Rp, SimAlgo::Fig4];

    /// Whether this algorithm supports only a single writer.
    pub fn single_writer(self) -> bool {
        matches!(self, SimAlgo::Fig1 | SimAlgo::Fig2)
    }
}

/// Which cost model a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Cache-coherent write-invalidate (the model of Theorems 1–5).
    Cc,
    /// Distributed shared memory, all variables homed at process 0.
    Dsm,
}

/// One row of an RMR table.
#[derive(Debug, Clone)]
pub struct RmrRow {
    /// Algorithm name.
    pub algo: String,
    /// Cost model ("cc"/"dsm").
    pub model: String,
    /// Number of writer processes.
    pub writers: usize,
    /// Number of reader processes.
    pub readers: usize,
    /// Worst RMRs charged to any single completed attempt.
    pub max_rmr: u64,
    /// Mean RMRs per completed attempt.
    pub mean_rmr: f64,
    /// Worst RMRs over reader attempts only.
    pub max_reader_rmr: u64,
    /// Worst RMRs over writer attempts only.
    pub max_writer_rmr: u64,
    /// Completed attempts measured.
    pub attempts: usize,
}

fn measure<A: Algorithm>(
    make: impl Fn() -> A,
    model: Model,
    attempts_per_proc: u32,
    seeds: u64,
) -> (u64, f64, u64, u64, usize) {
    let mut max_rmr = 0u64;
    let mut max_reader = 0u64;
    let mut max_writer = 0u64;
    let mut sum = 0u64;
    let mut count = 0usize;
    for seed in 0..seeds {
        let alg = make();
        let procs = alg.processes();
        let vars = alg.layout().len();
        let cost: Box<dyn CostModel> = match model {
            Model::Cc => Box::new(CcModel::new(procs.min(64), vars)),
            Model::Dsm => Box::new(DsmModel::all_at(0, vars)),
        };
        let mut runner = Runner::new(alg, cost, attempts_per_proc);
        let mut sched = RandomSched::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed));
        runner.run(&mut sched, 20_000_000);
        assert!(
            runner.violations().is_empty(),
            "safety violation during measurement: {:?}",
            runner.violations()
        );
        assert!(runner.quiescent(), "measurement run did not quiesce (seed {seed})");
        for a in runner.finished_attempts() {
            max_rmr = max_rmr.max(a.rmrs);
            if a.role_writer {
                max_writer = max_writer.max(a.rmrs);
            } else {
                max_reader = max_reader.max(a.rmrs);
            }
            sum += a.rmrs;
            count += 1;
        }
    }
    (max_rmr, sum as f64 / count.max(1) as f64, max_reader, max_writer, count)
}

/// Runs the RMR sweep for one algorithm/population/model point.
pub fn rmr_row(
    algo: SimAlgo,
    writers: usize,
    readers: usize,
    model: Model,
    attempts_per_proc: u32,
    seeds: u64,
) -> RmrRow {
    let writers = if algo.single_writer() { 1 } else { writers };
    let (max_rmr, mean_rmr, max_reader_rmr, max_writer_rmr, attempts) = match algo {
        SimAlgo::Fig1 => measure(|| Fig1::new(readers), model, attempts_per_proc, seeds),
        SimAlgo::Fig2 => measure(|| Fig2::new(readers), model, attempts_per_proc, seeds),
        SimAlgo::Fig3Sf => {
            measure(|| Fig3Sf::new(writers, readers), model, attempts_per_proc, seeds)
        }
        SimAlgo::Fig3Rp => {
            measure(|| Fig3Rp::new(writers, readers), model, attempts_per_proc, seeds)
        }
        SimAlgo::Fig4 => measure(|| Fig4::new(writers, readers), model, attempts_per_proc, seeds),
    };
    RmrRow {
        algo: algo.name().to_string(),
        model: match model {
            Model::Cc => "cc".into(),
            Model::Dsm => "dsm".into(),
        },
        writers,
        readers,
        max_rmr,
        mean_rmr,
        max_reader_rmr,
        max_writer_rmr,
        attempts,
    }
}

/// Builds the shared two-format [`Table`] for a set of RMR rows — one
/// emission path for the simulator sweeps (E6, E8) and the shipped-code
/// ledger (E7/E13).
pub fn rmr_table_of(rows: &[RmrRow]) -> Table {
    let mut t = Table::new(&[
        ("algorithm", "algo"),
        ("model", "model"),
        ("writers", "writers"),
        ("readers", "readers"),
        ("max RMR", "max_rmr"),
        ("mean RMR", "mean_rmr"),
        ("max reader RMR", "max_reader_rmr"),
        ("max writer RMR", "max_writer_rmr"),
        ("attempts", "attempts"),
    ]);
    for r in rows {
        t.row(vec![
            r.algo.clone(),
            r.model.clone(),
            r.writers.to_string(),
            r.readers.to_string(),
            r.max_rmr.to_string(),
            format!("{:.2}", r.mean_rmr),
            r.max_reader_rmr.to_string(),
            r.max_writer_rmr.to_string(),
            r.attempts.to_string(),
        ]);
    }
    t
}

/// Renders rows as a GitHub-flavored markdown table.
pub fn markdown_table(rows: &[RmrRow]) -> String {
    rmr_table_of(rows).markdown()
}

/// Renders rows as a JSON array (hand-rolled: the workspace carries no
/// serialization dependency).
pub fn json_table(rows: &[RmrRow]) -> String {
    rmr_table_of(rows).json()
}

/// Classifies the growth of max RMR between the smallest and largest
/// population of a sweep. One heuristic shared by E6 (`rmr_table`) and
/// E7/E13 (`real_rmr_table`), so the two tables can never disagree on what
/// counts as flat.
pub fn growth_shape(small_max: u64, large_max: u64) -> &'static str {
    if large_max <= small_max.saturating_mul(2).max(small_max + 4) {
        "O(1) — flat"
    } else if large_max <= small_max.saturating_mul(8) {
        "grows ~log n"
    } else {
        "grows ~n"
    }
}

/// Builds the compact flat-vs-growing summary table for a sweep: one row
/// per algorithm name, comparing max RMR at the smallest and largest
/// reader population present in `rows`.
///
/// # Panics
///
/// Panics if an algorithm has no row at either population.
pub fn shape_summary<'a>(
    rows: &[RmrRow],
    algos: impl IntoIterator<Item = &'a str>,
    small_n: usize,
    large_n: usize,
) -> Table {
    let mut summary = Table::new(&[
        ("algorithm", "algo"),
        (&format!("n={small_n} readers"), "max_rmr_small"),
        (&format!("n={large_n} readers"), "max_rmr_large"),
        ("shape", "shape"),
    ]);
    for name in algos {
        let at = |n: usize| {
            rows.iter()
                .find(|r| r.algo == name && r.readers == n)
                .unwrap_or_else(|| panic!("no row for {name} at {n} readers"))
                .max_rmr
        };
        let (small, large) = (at(small_n), at(large_n));
        summary.row(vec![
            name.into(),
            small.to_string(),
            large.to_string(),
            growth_shape(small, large).into(),
        ]);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_row_is_constant_and_small() {
        let row = rmr_row(SimAlgo::Fig1, 1, 4, Model::Cc, 2, 3);
        assert!(row.max_rmr <= 20, "{row:?}");
        assert!(row.attempts > 0);
        assert_eq!(row.writers, 1);
    }

    /// E7's tournament row, now measured on the shipped tree, is classed as
    /// growing by the shape summary `real_rmr_table` prints.
    #[test]
    fn tournament_row_grows_with_population() {
        use crate::real::{real_rmr_row, RealAlgo};
        let rows: Vec<RmrRow> =
            [1, 8].iter().map(|&n| real_rmr_row(RealAlgo::Tournament, 2, n, 2)).collect();
        let summary = shape_summary(&rows, ["tournament-tree"], 1, 8).json();
        assert!(summary.contains("grows"), "expected growth: {rows:?}\n{summary}");
    }

    #[test]
    fn markdown_renders_all_rows() {
        let rows = vec![rmr_row(SimAlgo::Fig2, 1, 2, Model::Cc, 1, 1)];
        let md = markdown_table(&rows);
        assert!(md.contains("fig2-swmr-rp"));
        assert_eq!(md.lines().count(), 3);
    }
}
