//! **E1 — Theorem 1**: the time-bounded protocol under synchrony.
//!
//! Sweeps chain length × drift bound × seeds; every run draws random
//! message delays, computation times, clock rates and offsets within the
//! synchrony envelope. Claim under test: success rate is exactly 100%,
//! every Definition 1 clause holds, and Alice's measured termination time
//! never exceeds the a-priori bound from the timeout calculus.

use crate::stats::{Rate, Summary};
use crate::sweep::parallel_map;
use crate::table::{check, Table};
use anta::net::SyncNet;
use anta::oracle::RandomOracle;
use payment::properties::{check_definition1, Compliance};
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, ValuePlan};

/// Parameters of one E1 cell.
#[derive(Debug, Clone, Copy)]
pub struct E1Params {
    /// Number of escrows in the chain / sample size, per context.
    pub n: usize,
    /// Clock-drift bound in parts-per-million.
    pub rho_ppm: u64,
    /// Number of seeded runs.
    pub seeds: u64,
}

/// Result of one E1 cell.
#[derive(Debug, Clone)]
pub struct E1Cell {
    /// The cell's parameters.
    pub params: E1Params,
    /// Bob-paid success rate.
    pub success: Rate,
    /// Definition 1 all-clauses success rate.
    pub props_ok: Rate,
    /// Alice's termination time as a fraction of the a-priori bound
    /// (ticks of measured / ticks of bound, sampled per run, ×1000).
    pub bound_usage_permille: Summary,
    /// Messages sent per run (`Trace::sent_count`).
    pub messages: Summary,
}

/// Runs one cell.
pub fn run_cell(p: &E1Params) -> E1Cell {
    let params = SyncParams {
        rho_ppm: p.rho_ppm,
        ..SyncParams::baseline()
    };
    let setup = ChainSetup::new(p.n, ValuePlan::with_commission(p.n, 1_000, 7), params, 0xE1);
    let mut success = Rate::default();
    let mut props_ok = Rate::default();
    let mut usage = Vec::with_capacity(p.seeds as usize);
    let mut messages = Vec::with_capacity(p.seeds as usize);
    for seed in 0..p.seeds {
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(params.delta, 64)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
        );
        let report = eng.run();
        messages.push(eng.trace().sent_count() as u64);
        let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
        success.record(outcome.bob_paid());
        let verdicts = check_definition1(&outcome, &setup, &Compliance::all_compliant());
        props_ok.record(verdicts.all_ok());
        if let (Some(view), Some(sent)) = (outcome.customers[0], outcome.alice_sent_local) {
            if let Some(halt) = view.halted_local {
                let elapsed = halt.saturating_since(sent).ticks();
                usage.push(elapsed * 1_000 / setup.schedule.alice_bound.ticks().max(1));
            }
        }
    }
    E1Cell {
        params: *p,
        success,
        props_ok,
        bound_usage_permille: Summary::of(&usage).expect("alice always engages"),
        messages: Summary::of(&messages).expect("at least one seed"),
    }
}

/// The full E1 report.
pub struct E1Report {
    /// One entry per parameter-grid cell.
    pub cells: Vec<E1Cell>,
}

/// Runs the sweep (default grid if `cells` is empty).
pub fn run(seeds: u64, threads: usize) -> E1Report {
    let mut grid = Vec::new();
    for n in [1usize, 2, 4, 8, 12] {
        for rho_ppm in [0u64, 1_000, 50_000, 150_000] {
            grid.push(E1Params { n, rho_ppm, seeds });
        }
    }
    let cells = parallel_map(&grid, threads, run_cell);
    E1Report { cells }
}

impl E1Report {
    /// True iff the theorem's claims held in every cell.
    pub fn theorem_holds(&self) -> bool {
        self.cells.iter().all(|c| {
            c.success.is_perfect() && c.props_ok.is_perfect() && c.bound_usage_permille.max <= 1_000
        })
    }

    /// Renders the E1 table and its claim line.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E1 — Theorem 1: time-bounded protocol under synchrony",
            &[
                "n",
                "rho(ppm)",
                "runs",
                "Bob paid",
                "Def.1 holds",
                "T-bound use p50/p99/max (‰)",
                "msgs",
            ],
        );
        for c in &self.cells {
            t.push(&[
                c.params.n.to_string(),
                c.params.rho_ppm.to_string(),
                c.success.total.to_string(),
                c.success.render(),
                c.props_ok.render(),
                format!(
                    "{}/{}/{}",
                    c.bound_usage_permille.p50,
                    c.bound_usage_permille.p99,
                    c.bound_usage_permille.max
                ),
                match (c.messages.min, c.messages.max) {
                    (lo, hi) if lo == hi => lo.to_string(),
                    (lo, hi) => format!("{lo}–{hi}"),
                },
            ]);
        }
        format!(
            "{}\nTheorem 1 empirically holds on this grid: {}\n",
            t.render(),
            check(self.theorem_holds())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_perfect() {
        let cell = run_cell(&E1Params {
            n: 3,
            rho_ppm: 100_000,
            seeds: 10,
        });
        assert!(cell.success.is_perfect(), "{:?}", cell.success);
        assert!(cell.props_ok.is_perfect());
        assert!(cell.bound_usage_permille.max <= 1_000, "bound exceeded");
    }

    #[test]
    fn small_sweep_theorem_holds() {
        let report = E1Report {
            cells: parallel_map(
                &[
                    E1Params {
                        n: 1,
                        rho_ppm: 0,
                        seeds: 5,
                    },
                    E1Params {
                        n: 4,
                        rho_ppm: 150_000,
                        seeds: 5,
                    },
                ],
                0,
                run_cell,
            ),
        };
        assert!(report.theorem_holds());
        let s = report.render();
        assert!(s.contains("Theorem 1 empirically holds on this grid: yes"));
    }
}
