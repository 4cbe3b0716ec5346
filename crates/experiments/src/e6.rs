//! **E6 — ablation of the timeout calculus** (the "precise values of d_i"
//! the brief announcement defers to \[5\]).
//!
//! Sweeps a *cut* subtracted from every derived deadline `a_i`, from
//! generous surplus down past zero margin into under-provisioned
//! schedules. Two curves per chain length:
//!
//! * the static validator's verdict (`TimeoutSchedule::validate`);
//! * the empirical success rate under adversarial (extreme-drift,
//!   worst-case-delay) runs.
//!
//! The experiment shows the crossover where both flip — schedules the
//! calculus accepts never fail, and schedules it rejects start failing —
//! i.e. the calculus is sound and usefully tight.
//!
//! The cuts are multiples of half a hop, and the grid lands on one strict
//! boundary of the validator only: the zero-margin cut of one hop leaves
//! `a_{n-1}` exactly at the forward check's `need`. The validator rejects
//! that cell, and at n = 4 it loses a run, so a forward check that
//! admitted `a_i = need` would fail E6's soundness claim. No cut lands on
//! the chaining check's boundary, so E6 cannot tell that check's
//! `a_i > need` from `a_i ≥ need`.
//! `tests/property.rs::chaining_and_forward_checks_are_strict_at_need`
//! holds both checks to their boundaries.

use crate::stats::Rate;
use crate::sweep::parallel_map;
use crate::table::{check, Table};
use anta::net::SyncNet;
use anta::oracle::RandomOracle;
use anta::time::SimDuration;
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, TimeoutSchedule, ValuePlan};

/// One ablation cell.
#[derive(Debug, Clone, Copy)]
pub struct E6Params {
    /// Number of escrows in the chain.
    pub n: usize,
    /// Ticks subtracted from every `a_i`.
    pub cut: SimDuration,
    /// Number of seeded runs.
    pub seeds: u64,
}

/// One cell's results.
#[derive(Debug, Clone)]
pub struct E6Cell {
    /// The cell's parameters.
    pub params: E6Params,
    /// Did the static checker accept the shortened schedule?
    pub statically_valid: bool,
    /// Bob-paid success rate.
    pub success: Rate,
}

/// Runs one cell under adversarial clocks and worst-case delays.
pub fn run_cell(p: &E6Params) -> E6Cell {
    let params = SyncParams {
        rho_ppm: 100_000,
        ..SyncParams::baseline()
    };
    let base = TimeoutSchedule::derive(p.n, &params);
    let schedule = base.shortened(p.cut);
    let statically_valid = schedule.validate(&params).is_ok();
    let mut success = Rate::default();
    for seed in 0..p.seeds {
        let setup = ChainSetup::new(p.n, ValuePlan::uniform(p.n, 100), params, 0xE6)
            .with_schedule(schedule.clone());
        let mut eng = setup.build_engine(
            Box::new(SyncNet::worst_case(params.delta)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Extremes,
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
        success.record(o.bob_paid());
    }
    E6Cell {
        params: *p,
        statically_valid,
        success,
    }
}

/// The full E6 report.
pub struct E6Report {
    /// One entry per parameter-grid cell.
    pub cells: Vec<E6Cell>,
}

/// Runs the default ablation grid.
pub fn run(seeds: u64, threads: usize) -> E6Report {
    let params = SyncParams {
        rho_ppm: 100_000,
        ..SyncParams::baseline()
    };
    let h = params.hop();
    let mut grid = Vec::new();
    for n in [2usize, 4] {
        for cut_hops in [0u64, 1, 2, 3, 4, 6, 8, 12] {
            grid.push(E6Params {
                n,
                cut: SimDuration::from_ticks(h.ticks() * cut_hops / 2),
                seeds,
            });
        }
    }
    let cells = parallel_map(&grid, threads, run_cell);
    E6Report { cells }
}

impl E6Report {
    /// Soundness: every statically valid schedule succeeded always.
    pub fn calculus_sound(&self) -> bool {
        self.cells
            .iter()
            .all(|c| !c.statically_valid || c.success.is_perfect())
    }

    /// Usefulness: some rejected schedule indeed failed empirically.
    pub fn calculus_tight(&self) -> bool {
        self.cells
            .iter()
            .any(|c| !c.statically_valid && !c.success.is_perfect())
    }

    /// Renders the crossover table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E6 — timeout-calculus ablation: cutting the a_i deadlines",
            &["n", "cut (µs)", "validator accepts", "adversarial success"],
        );
        for c in &self.cells {
            t.push(&[
                c.params.n.to_string(),
                c.params.cut.ticks().to_string(),
                check(c.statically_valid),
                c.success.render(),
            ]);
        }
        format!(
            "{}\nCalculus sound (accepted ⇒ always succeeds): {}\nCalculus tight (rejected schedules do fail): {}\n",
            t.render(),
            check(self.calculus_sound()),
            check(self.calculus_tight()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cut_valid_and_perfect() {
        let c = run_cell(&E6Params {
            n: 3,
            cut: SimDuration::ZERO,
            seeds: 3,
        });
        assert!(c.statically_valid);
        assert!(c.success.is_perfect(), "{:?}", c.success);
    }

    #[test]
    fn huge_cut_invalid_and_failing() {
        let params = SyncParams {
            rho_ppm: 100_000,
            ..SyncParams::baseline()
        };
        let big = TimeoutSchedule::derive(3, &params).a[2] * 2;
        let c = run_cell(&E6Params {
            n: 3,
            cut: big,
            seeds: 3,
        });
        assert!(!c.statically_valid);
        assert!(!c.success.is_perfect(), "{:?}", c.success);
    }

    #[test]
    fn small_sweep_sound_and_tight() {
        let r = run(2, 0);
        assert!(r.calculus_sound(), "a statically-valid schedule failed");
        assert!(r.calculus_tight(), "no rejected schedule ever failed");
    }
}
