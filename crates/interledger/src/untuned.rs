//! The drift-oblivious universal protocol.
//!
//! Identical automata to the paper's Figure 2 — the paper adopted them
//! from Interledger — but with the timeout schedule the original protocol
//! would use: real-time bounds with **no clock-drift inflation and no
//! safety margin**. On perfect clocks this schedule is exactly tight and
//! the protocol succeeds; under drift, an escrow's fast clock fires the
//! `now ≥ u + a_i` timeout while χ is still legitimately in flight, and
//! the run degenerates (premature refunds stranding compliant connectors
//! or Bob). Experiment E5 maps that failure region.

use anta::time::SimDuration;
use payment::{SyncParams, TimeoutSchedule};

/// Derives the schedule the un-tuned universal protocol would use for `n`
/// escrows: the same recurrence as [`TimeoutSchedule::derive`] but with
/// `ρ = 0` and zero margin, i.e. bounds that are only correct on perfect
/// clocks.
pub fn untuned_schedule(n: usize, p: &SyncParams) -> TimeoutSchedule {
    let naive = SyncParams {
        rho_ppm: 0,
        margin: SimDuration::from_ticks(1),
        ..*p
    };
    TimeoutSchedule::derive(n, &naive)
}

/// The smallest drift (ppm) at which the un-tuned schedule for `n` escrows
/// stops satisfying the chaining inequality — a closed-form predictor for
/// where E5's empirical failures begin.
pub fn predicted_failure_drift_ppm(n: usize, p: &SyncParams) -> Option<u64> {
    let untuned = untuned_schedule(n, p);
    (0..=500_000u64).step_by(500).find(|&rho| {
        let drifted = SyncParams { rho_ppm: rho, ..*p };
        untuned.validate(&drifted).is_err()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
    use payment::ValuePlan;

    fn run(setup: &ChainSetup, seed: u64, clocks: ClockPlan) -> ChainOutcome {
        let mut eng = setup.build_engine(
            Box::new(SyncNet::worst_case(setup.params.delta)),
            Box::new(RandomOracle::seeded(seed)),
            clocks,
        );
        let report = eng.run();
        ChainOutcome::extract(&eng, setup, report.quiescent)
    }

    #[test]
    fn untuned_succeeds_on_perfect_clocks() {
        let p = SyncParams::baseline();
        for n in 1..=4 {
            let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), p, 3)
                .with_schedule(untuned_schedule(n, &p));
            let o = run(&setup, 1, ClockPlan::Perfect);
            assert!(
                o.bob_paid(),
                "n = {n}: untuned must work without drift: {o:?}"
            );
        }
    }

    #[test]
    fn untuned_fails_under_adversarial_drift() {
        // Large drift + worst-case delays: the drift-oblivious deadlines
        // fire early somewhere along the chain and the payment collapses,
        // exactly the defect §1 attributes to [4].
        let p = SyncParams {
            rho_ppm: 150_000,
            ..SyncParams::baseline()
        }; // 15%
        let n = 4;
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), p, 4)
            .with_schedule(untuned_schedule(n, &p));
        let o = run(&setup, 2, ClockPlan::Extremes);
        assert!(
            !o.bob_paid(),
            "drift must break the untuned schedule: {o:?}"
        );
    }

    #[test]
    fn tuned_schedule_survives_the_same_drift() {
        let p = SyncParams {
            rho_ppm: 150_000,
            ..SyncParams::baseline()
        };
        let n = 4;
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), p, 4);
        let o = run(&setup, 2, ClockPlan::Extremes);
        assert!(
            o.bob_paid(),
            "the fine-tuned schedule is exactly the fix: {o:?}"
        );
    }

    #[test]
    fn untuned_failure_strands_someone_compliant() {
        // The failure is not graceful: with money in flight and a
        // premature refund, a compliant party ends short. Find a seed
        // where Bob issued χ but was not paid or a connector lost out.
        let p = SyncParams {
            rho_ppm: 200_000,
            ..SyncParams::baseline()
        };
        let n = 3;
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), p, 5)
            .with_schedule(untuned_schedule(n, &p));
        let mut stranded = false;
        for seed in 0..20 {
            let o = run(&setup, seed, ClockPlan::Extremes);
            let bob_stranded = o.bob_issued_chi == Some(true) && !o.bob_paid();
            let connector_stranded = (1..n).any(|i| {
                matches!(o.net_positions[i], Some(neg) if neg < 0)
                    || matches!(
                        o.customers[i].map(|v| v.outcome),
                        Some(CustomerOutcome::Pending)
                    ) && o.customers[i].map(|v| v.sent_money).unwrap_or(false)
            });
            if bob_stranded || connector_stranded {
                stranded = true;
                break;
            }
        }
        assert!(
            stranded,
            "expected at least one stranding failure across seeds"
        );
    }

    #[test]
    fn tuning_gap_grows_with_chain_length_and_drift() {
        // How much shorter the un-tuned a_0 is than the drift-safe one.
        let tuning_gap =
            |n, p: &SyncParams| TimeoutSchedule::derive(n, p).a[0] - untuned_schedule(n, p).a[0];
        let p = SyncParams::baseline();
        let g2 = tuning_gap(2, &p);
        let g6 = tuning_gap(6, &p);
        assert!(g6 > g2, "longer chains need more slack: {g2} vs {g6}");
        let p_hi = SyncParams {
            rho_ppm: 10_000,
            ..p
        };
        assert!(tuning_gap(4, &p_hi) > tuning_gap(4, &p));
    }

    #[test]
    fn predicted_failure_drift_is_finite_and_positive() {
        let p = SyncParams::baseline();
        for n in 2..=6 {
            let rho = predicted_failure_drift_ppm(n, &p)
                .expect("the untuned schedule must fail at some finite drift");
            assert!(rho > 0);
            // Longer chains fail at smaller drift.
            if n > 2 {
                let prev = predicted_failure_drift_ppm(n - 1, &p).unwrap();
                assert!(rho <= prev, "n = {n}: {rho} vs {prev}");
            }
        }
    }
}
