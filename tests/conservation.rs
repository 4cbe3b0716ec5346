//! Money conservation as a workspace property: across randomized value
//! plans, chain lengths, drifts and schedules, every run of the
//! time-bounded protocol must (a) keep every escrow's book balanced and
//! (b) leave the customers' net positions summing to zero — value is
//! moved, never created or destroyed, whether Bob ends up paid or the
//! chain unwinds by refund.

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::{SyncParams, ValuePlan};
use proptest::prelude::*;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig {
        cases: n,
        ..ProptestConfig::default()
    }
}

/// Runs one time-bounded instance and checks both conservation layers.
fn assert_conserved(
    plan: ValuePlan,
    params: SyncParams,
    seed: u64,
    worst_case: bool,
) -> Result<(), TestCaseError> {
    let n = plan.hops();
    let setup = ChainSetup::new(n, plan, params, seed);
    let net = if worst_case {
        SyncNet::worst_case(params.delta)
    } else {
        SyncNet::new(params.delta, 16)
    };
    let mut eng = setup.build_engine(
        Box::new(net),
        Box::new(RandomOracle::seeded(seed)),
        ClockPlan::Sampled { seed },
    );
    let report = eng.run();
    let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
    prop_assert!(report.quiescent, "run must drain: {o:?}");
    // (a) Every escrow's ledger audit passes.
    for (i, c) in o.conservation.iter().enumerate() {
        prop_assert_eq!(*c, Some(true), "escrow {} book out of balance", i);
    }
    // (b) Customers' net positions are all known and sum to zero.
    let mut sum: i64 = 0;
    for (i, p) in o.net_positions.iter().enumerate() {
        prop_assert!(p.is_some(), "net position {} unknown", i);
        sum += p.unwrap();
    }
    prop_assert_eq!(
        sum,
        0,
        "net positions {:?} must sum to zero",
        o.net_positions
    );
    Ok(())
}

proptest! {
    #![proptest_config(cases(32))]

    /// Uniform plans: any chain length, drift within the envelope, any
    /// seed, friendly or worst-case delays.
    #[test]
    fn prop_uniform_plan_conserves(
        n in 1usize..6,
        amount in 1u64..1_000_000,
        rho in 0u64..150_000,
        seed in 0u64..10_000,
        worst in any::<bool>(),
    ) {
        let params = SyncParams { rho_ppm: rho, ..SyncParams::baseline() };
        assert_conserved(ValuePlan::uniform(n, amount), params, seed, worst)?;
    }

    /// Commission plans: hop values shrink along the chain, so the Chloes
    /// each pocket a spread — conservation must hold globally anyway.
    #[test]
    fn prop_commission_plan_conserves(
        n in 1usize..6,
        v0 in 1_000u64..100_000,
        commission in 1u64..100,
        seed in 0u64..10_000,
    ) {
        let params = SyncParams::baseline();
        assert_conserved(ValuePlan::with_commission(n, v0, commission), params, seed, false)?;
    }

    /// Money conservation under **active fault injection**: Byzantine
    /// escrows and customers (crashes, a late Bob, forged χ, a thieving
    /// escrow) composed with message drops and delays at the network
    /// layer. Whatever the fault mix does to liveness, no simulated
    /// instance may be classified a conservation violation: every
    /// auditable escrow book stays balanced, and whenever every net
    /// position is observable they sum to zero (the thief's own book is
    /// unobservable by construction and exempt).
    #[test]
    fn prop_conserves_under_fault_injection(
        n in 1usize..5,
        amount in 2u64..100_000,
        seed in 0u64..1_000_000,
        crash in 0u32..300,
        late in 0u32..200,
        forge in 0u32..200,
        thieve in 0u32..300,
        drop_pm in 0u32..200,
        delay_pm in 0u32..300,
    ) {
        use crosschain::anta::net::NetFaults;
        use crosschain::anta::time::SimDuration;
        use crosschain::sim::{
            workload, FaultPlan, InstanceOutcome, SimConfig, TimeBoundedHarness, TopologyFamily,
            WorkloadConfig,
        };
        let faults = FaultPlan {
            crash_permille: crash,
            late_bob_permille: late,
            forging_chloe_permille: forge,
            thieving_escrow_permille: thieve,
            net: NetFaults {
                drop_permille: drop_pm,
                delay_permille: delay_pm,
                extra_delay: SimDuration::from_millis(3),
                delay_buckets: 4,
            },
        };
        let config = WorkloadConfig {
            amount: (amount, amount),
            ..WorkloadConfig::new(TopologyFamily::Linear { n }, 4, seed)
        };
        let specs = workload::generate(&config);
        let mut queue_high = 0;
        for spec in &specs {
            let r = crosschain::protocol::run_harness_instance(
                &TimeBoundedHarness,
                spec,
                &faults,
                false,
                &mut queue_high,
            );
            prop_assert!(
                r.outcome != InstanceOutcome::Violation,
                "instance {} (faults {:?}) violated conservation",
                spec.id,
                r.faults
            );
        }
        // The aggregated report agrees with the per-instance view.
        let report = crosschain::sim::run_closed(&TimeBoundedHarness, &specs, &SimConfig {
            faults,
            threads: 1,
            lock_profile: false,
            ..SimConfig::new(config)
        });
        prop_assert!(report.conserved(), "violations: {}", report.violations);
    }

    /// Deliberately broken schedules (margin cut away): runs may refund
    /// instead of paying, but no outcome may create or destroy value.
    #[test]
    fn prop_cut_schedule_still_conserves(
        n in 1usize..5,
        cut_ticks in 0u64..40_000,
        seed in 0u64..10_000,
    ) {
        use crosschain::anta::time::SimDuration;
        use crosschain::payment::TimeoutSchedule;
        let params = SyncParams { rho_ppm: 100_000, ..SyncParams::baseline() };
        let schedule =
            TimeoutSchedule::derive(n, &params).shortened(SimDuration::from_ticks(cut_ticks));
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 500), params, seed)
            .with_schedule(schedule);
        let mut eng = setup.build_engine(
            Box::new(SyncNet::worst_case(params.delta)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Extremes,
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
        for (i, c) in o.conservation.iter().enumerate() {
            prop_assert_eq!(*c, Some(true), "escrow {} book out of balance", i);
        }
        prop_assert!(o.net_positions.iter().all(Option::is_some), "{:?}", o.net_positions);
        let sum: i64 = o.net_positions.iter().flatten().sum();
        prop_assert_eq!(sum, 0, "net positions {:?} must sum to zero", o.net_positions);
    }
}
