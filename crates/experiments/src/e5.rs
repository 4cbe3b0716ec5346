//! **E5 — baselines**: the §1 criticisms, quantified.
//!
//! 1. *"the synchronous solutions of \[4\] and \[3\] do not consider clock
//!    drift"*: sweep drift × chain length; the un-tuned Interledger
//!    universal schedule degrades to failure while the paper's fine-tuned
//!    schedule stays at 100%.
//! 2. HTLC atomic swaps: happy-path works, but a griefing counterparty
//!    freezes the initiator's capital for the full `2T` window, and there
//!    is no transferable receipt — the weak protocol aborts on request
//!    instead.

use crate::stats::Rate;
use crate::sweep::parallel_map;
use crate::table::{check, Table};
use anta::net::SyncNet;
use anta::oracle::RandomOracle;
use interledger::untuned::{predicted_failure_drift_ppm, untuned_schedule};
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, ValuePlan};

/// One drift×n cell comparing tuned vs untuned schedules.
#[derive(Debug, Clone, Copy)]
pub struct E5Params {
    /// Number of escrows in the chain.
    pub n: usize,
    /// Clock-drift bound in parts-per-million.
    pub rho_ppm: u64,
    /// Number of seeded runs.
    pub seeds: u64,
}

/// Results of one cell.
#[derive(Debug, Clone)]
pub struct E5Cell {
    /// The cell's parameters.
    pub params: E5Params,
    /// Success rate with the paper's drift-inflated schedule.
    pub tuned: Rate,
    /// Success rate with the drift-oblivious schedule.
    pub untuned: Rate,
}

/// Runs one cell: same seeds, same clocks, both schedules.
pub fn run_cell(p: &E5Params) -> E5Cell {
    let params = SyncParams {
        rho_ppm: p.rho_ppm,
        ..SyncParams::baseline()
    };
    let mut tuned = Rate::default();
    let mut untuned = Rate::default();
    for seed in 0..p.seeds {
        for (which, schedule) in [(0, None), (1, Some(untuned_schedule(p.n, &params)))] {
            let mut setup = ChainSetup::new(p.n, ValuePlan::uniform(p.n, 500), params, 0xE5);
            if let Some(s) = schedule {
                setup = setup.with_schedule(s);
            }
            // Adversarial-extreme clocks make failure deterministic once
            // the margin is gone; sampled clocks also fail, just later.
            let clocks = if seed % 2 == 0 {
                ClockPlan::Extremes
            } else {
                ClockPlan::Sampled { seed }
            };
            let mut eng = setup.build_engine(
                Box::new(SyncNet::worst_case(params.delta)),
                Box::new(RandomOracle::seeded(seed)),
                clocks,
            );
            let report = eng.run();
            let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
            if which == 0 {
                tuned.record(o.bob_paid());
            } else {
                untuned.record(o.bob_paid());
            }
        }
    }
    E5Cell {
        params: *p,
        tuned,
        untuned,
    }
}

/// HTLC comparison figures.
#[derive(Debug, Clone)]
pub struct HtlcComparison {
    /// Griefing window (capital locked) in simulated ms for T = 500 ms.
    pub griefing_lock_ms: u64,
    /// Weak-protocol abort latency for the same scenario (impatient
    /// customer) in simulated ms.
    pub weak_abort_ms: u64,
}

/// Measures the HTLC griefing window vs the weak protocol's abort
/// latency under the same network.
pub fn htlc_comparison() -> HtlcComparison {
    use anta::time::{SimDuration, SimTime};
    use htlc::swap::{SwapBehaviour, SwapSetup};
    use ledger::{Asset, CurrencyId};

    // HTLC griefing run: responder refuses; initiator's 100 units stay
    // locked until 2T.
    let t_ms = 500u64;
    let swap = SwapSetup {
        offer_a: Asset::new(CurrencyId(0), 100),
        offer_b: Asset::new(CurrencyId(1), 100),
        secret: b"secret".to_vec(),
        timelock_a: SimTime::from_millis(2 * t_ms),
        timelock_b: SimTime::from_millis(t_ms),
    };
    let mut eng = anta::engine::Engine::new(
        Box::new(SyncNet::worst_case(SimDuration::from_millis(2))),
        Box::new(RandomOracle::seeded(5)),
        anta::engine::EngineConfig::default(),
    );
    let clock = anta::clock::DriftClock::perfect();
    swap.assemble(&mut eng, clock, SwapBehaviour::BobGriefs);
    eng.run_until(SimTime::from_secs(30));
    let reclaim = eng
        .trace()
        .marks("alice_reclaimed")
        .next()
        .map(|(_, real, _, _)| real)
        .expect("initiator reclaimed");
    let griefing_lock_ms = reclaim.ticks() / 1_000;

    // Weak protocol: Alice stages, Bob withholds, Alice aborts at 40 ms —
    // the whole thing resolves in ~an RTT after her patience runs out.
    use payment::weak::{Patience, TmKind, WeakOutcome, WeakSetup, ESCROW_MARKS};
    let setup = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, 0xE5)
        .with_patience(2, Patience::absent())
        .with_patience(0, Patience::until(SimDuration::from_millis(40)));
    let mut eng2 = setup.build_engine(
        Box::new(SyncNet::worst_case(SimDuration::from_millis(2))),
        Box::new(RandomOracle::seeded(6)),
    );
    eng2.run();
    let o = WeakOutcome::extract(&eng2, &setup);
    assert_eq!(o.verdict(), Some(xcrypto::Verdict::Abort));
    let abort_done = eng2
        .trace()
        .marks(ESCROW_MARKS.refunded)
        .map(|(_, real, _, _)| real)
        .max()
        .expect("refund happened");
    HtlcComparison {
        griefing_lock_ms,
        weak_abort_ms: abort_done.ticks() / 1_000,
    }
}

/// The E5 report.
pub struct E5Report {
    /// One entry per parameter-grid cell.
    pub cells: Vec<E5Cell>,
    /// Per chain length, the validator's first failing drift.
    pub predicted_failure: Vec<(usize, Option<u64>)>,
    /// The HTLC griefing comparison.
    pub htlc: HtlcComparison,
}

/// Runs the default grid.
pub fn run(seeds: u64, threads: usize) -> E5Report {
    let mut grid = Vec::new();
    for n in [2usize, 4, 6] {
        for rho_ppm in [0u64, 10_000, 50_000, 100_000, 200_000] {
            grid.push(E5Params { n, rho_ppm, seeds });
        }
    }
    let cells = parallel_map(&grid, threads, run_cell);
    let predicted_failure = [2usize, 4, 6]
        .iter()
        .map(|&n| (n, predicted_failure_drift_ppm(n, &SyncParams::baseline())))
        .collect();
    E5Report {
        cells,
        predicted_failure,
        htlc: htlc_comparison(),
    }
}

impl E5Report {
    /// The headline claims: tuned is always perfect; untuned fails
    /// somewhere on the grid.
    pub fn claims_hold(&self) -> bool {
        let tuned_perfect = self.cells.iter().all(|c| c.tuned.is_perfect());
        let untuned_fails_somewhere = self.cells.iter().any(|c| !c.untuned.is_perfect());
        tuned_perfect && untuned_fails_somewhere
    }

    /// Renders the drift-sweep table plus the HTLC comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E5 — drift sweep: paper's tuned schedule vs Interledger untuned [4]",
            &["n", "rho(ppm)", "tuned success", "untuned success"],
        );
        for c in &self.cells {
            t.push(&[
                c.params.n.to_string(),
                c.params.rho_ppm.to_string(),
                c.tuned.render(),
                c.untuned.render(),
            ]);
        }
        let mut p = Table::new(
            "E5 — static predictor: smallest drift violating the untuned schedule",
            &["n", "predicted failure drift (ppm)"],
        );
        for (n, rho) in &self.predicted_failure {
            p.push(&[
                n.to_string(),
                rho.map(|r| r.to_string()).unwrap_or_else(|| "none".into()),
            ]);
        }
        format!(
            "{}\n{}\nHTLC vs weak protocol (honest counterparty walks away):\n  HTLC griefing window: initiator's capital locked {} ms (= 2T)\n  weak protocol abort: everyone refunded within {} ms of losing patience\n\nClaims hold (tuned perfect, untuned fails under drift): {}\n",
            t.render(),
            p.render(),
            self.htlc.griefing_lock_ms,
            self.htlc.weak_abort_ms,
            check(self.claims_hold()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_beats_untuned_at_high_drift() {
        let cell = run_cell(&E5Params {
            n: 4,
            rho_ppm: 200_000,
            seeds: 4,
        });
        assert!(cell.tuned.is_perfect(), "{:?}", cell.tuned);
        assert!(!cell.untuned.is_perfect(), "{:?}", cell.untuned);
    }

    #[test]
    fn both_perfect_without_drift() {
        let cell = run_cell(&E5Params {
            n: 3,
            rho_ppm: 0,
            seeds: 3,
        });
        assert!(cell.tuned.is_perfect());
        assert!(cell.untuned.is_perfect());
    }

    #[test]
    fn htlc_comparison_shows_the_gap() {
        let h = htlc_comparison();
        assert!(
            h.griefing_lock_ms >= 1_000,
            "locked for 2T = 1000 ms: {h:?}"
        );
        assert!(h.weak_abort_ms < 200, "weak abort is quick: {h:?}");
    }
}
