//! Workspace-level checks of the protocol abstraction layer: every
//! harness drives the same Monte-Carlo pipeline, reports are bit-identical
//! across thread counts for every protocol (the E9 determinism
//! guarantee), and the baseline classifiers are *sound* — a run whose
//! engine state shows a safety break is never reported as a success, no
//! matter which composed fault plan produced it.

use crosschain::anta::net::NetFaults;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::time::SimDuration;
use crosschain::anta::trace::TraceMode;
use crosschain::htlc::{ChainProcess, HtlcState};
use crosschain::protocol::harness::sample_instance_faults;
use crosschain::protocol::htlc::{CHAIN_A_PID, CHAIN_B_PID};
use crosschain::protocol::{
    DealsHarness, HtlcHarness, IlpAtomicHarness, IlpUntunedHarness, ProtocolHarness,
    ProtocolOutcome, TimeBoundedHarness,
};
use crosschain::sim::prelude::*;
use crosschain::sim::FamilyStats;
use proptest::prelude::*;

/// `cfg`'s own workload through `harness`, closed.
fn closed_run<H: ProtocolHarness>(harness: &H, cfg: &SimConfig) -> SimReport {
    run_closed(
        harness,
        &crosschain::sim::workload::generate(&cfg.workload),
        cfg,
    )
}

fn digest(f: &FamilyStats) -> (usize, usize, usize, usize, usize, usize, Option<u64>) {
    (
        f.instances,
        f.success.hits,
        f.refunds,
        f.stuck,
        f.violations,
        f.griefed,
        f.latency.as_ref().map(|l| l.max),
    )
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        crash_permille: 120,
        late_bob_permille: 40,
        forging_chloe_permille: 40,
        thieving_escrow_permille: 40,
        net: NetFaults {
            drop_permille: 25,
            delay_permille: 120,
            extra_delay: SimDuration::from_millis(4),
            delay_buckets: 4,
        },
    }
}

/// The E9 determinism guarantee: for every protocol harness, the same
/// campaign produces a bit-identical report at `threads = 1` and
/// `threads = 4` — mirroring the time-bounded check in `tests/sim.rs`.
#[test]
fn every_protocol_report_is_identical_across_thread_counts() {
    let run_one = |harness: &dyn Fn(&SimConfig) -> SimReport, threads: usize| {
        let cfg = SimConfig {
            threads,
            faults: faulty_plan(),
            lock_profile: false,
            ..SimConfig::new(WorkloadConfig::new(
                TopologyFamily::Linear { n: 3 },
                72,
                0xE9,
            ))
        };
        harness(&cfg)
    };
    type HarnessRunner = Box<dyn Fn(&SimConfig) -> SimReport>;
    let harnesses: Vec<(&str, HarnessRunner)> = vec![
        (
            "timebounded",
            Box::new(|cfg| closed_run(&TimeBoundedHarness, cfg)),
        ),
        ("htlc", Box::new(|cfg| closed_run(&HtlcHarness, cfg))),
        (
            "ilp-untuned",
            Box::new(|cfg| closed_run(&IlpUntunedHarness, cfg)),
        ),
        (
            "ilp-atomic",
            Box::new(|cfg| closed_run(&IlpAtomicHarness, cfg)),
        ),
        ("deals", Box::new(|cfg| closed_run(&DealsHarness, cfg))),
    ];
    for (name, harness) in &harnesses {
        let serial = run_one(harness, 1);
        let parallel = run_one(harness, 4);
        assert_eq!(serial.instances, parallel.instances, "{name}");
        assert_eq!(serial.violations, parallel.violations, "{name}");
        assert_eq!(serial.griefed, parallel.griefed, "{name}");
        for (a, b) in serial.families.iter().zip(&parallel.families) {
            assert_eq!(digest(a), digest(b), "{name}");
        }
    }
}

/// Every harness, pinned bit for bit under the `closed_mix`
/// benchmark's mixed fault plan (crash, late Bob, forging Chloe, thieving
/// escrow, drops, extra delay) at 1 and 4 threads. Each protocol is
/// assembled in one place — `ChainSetup` with `ByzFault::substitute`,
/// `SwapSetup`, `DealInstance::certified_assemble`, `DeadlineTm::new` — so
/// moving a pid, a registration or a clock there moves these digests.
#[test]
fn baseline_harness_reports_match_the_pinned_digests() {
    fn check<H: ProtocolHarness>(harness: &H, family: TopologyFamily, pinned: u64) {
        let mixed = FaultPlan {
            crash_permille: 50,
            late_bob_permille: 25,
            forging_chloe_permille: 25,
            thieving_escrow_permille: 25,
            net: NetFaults {
                drop_permille: 10,
                delay_permille: 100,
                extra_delay: SimDuration::from_millis(2),
                delay_buckets: 4,
            },
        };
        for threads in [1, 4] {
            let cfg = SimConfig {
                threads,
                faults: mixed,
                lock_profile: false,
                ..SimConfig::new(WorkloadConfig::new(family, 400, 0xBA5E))
            };
            let report = format!("{:?}", closed_run(harness, &cfg));
            let fnv = crosschain::experiments::digest::fnv1a64(report.as_bytes());
            let name = harness.name();
            assert_eq!(
                fnv, pinned,
                "{name} on {family:?} at {threads} threads: {fnv:#018x}"
            );
        }
    }
    let linear = TopologyFamily::Linear { n: 3 };
    check(&TimeBoundedHarness, linear, 0x7418_d066_711f_bcfa);
    check(&IlpUntunedHarness, linear, 0x5b81_215b_9782_23fe);
    check(&HtlcHarness, linear, 0x6a13_728a_10b7_8723);
    check(
        &HtlcHarness,
        TopologyFamily::HubAndSpoke { spokes: 4 },
        0xeb7d_8688_c0ab_8633,
    );
    check(&DealsHarness, linear, 0x9357_4c26_d8a5_3bdd);
    check(&IlpAtomicHarness, linear, 0x9b95_bf97_abb4_f5f1);
}

/// The comparative claims as workspace assertions on a faulty drifted
/// grid cell: time-bounded shows neither griefing nor violations; HTLC
/// griefs; the untuned schedule loses money.
#[test]
fn comparative_claims_hold_on_a_faulty_cell() {
    let mut workload = WorkloadConfig::new(TopologyFamily::Linear { n: 4 }, 96, 0xC0);
    workload.max_rho_ppm = (0, 100_000);
    let cfg = SimConfig {
        faults: FaultPlan {
            crash_permille: 60,
            late_bob_permille: 30,
            forging_chloe_permille: 30,
            thieving_escrow_permille: 30,
            net: NetFaults::NONE,
        },
        lock_profile: false,
        ..SimConfig::new(workload)
    };
    let tb = closed_run(&TimeBoundedHarness, &cfg);
    assert_eq!(tb.griefed, 0, "time-bounded never griefs");
    assert_eq!(tb.violations, 0, "time-bounded never violates");
    let htlc = closed_run(&HtlcHarness, &cfg);
    assert!(htlc.griefed > 0, "HTLC must grief under abandonment faults");
    let untuned = closed_run(&IlpUntunedHarness, &cfg);
    assert!(
        untuned.violations > 0,
        "the untuned schedule must lose money under drift"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Soundness of the HTLC classifier under composed fault plans: if the
    /// harness says Success, the engine's final chain state must show both
    /// legs claimed and both books balanced — i.e. a run that actually
    /// violated safety can never be reported as a success.
    #[test]
    fn prop_htlc_never_reports_violation_as_success(
        seed in 0u64..100_000,
        crash in 0u32..300,
        late in 0u32..300,
        drop in 0u32..60,
        delay in 0u32..200,
    ) {
        let plan = FaultPlan {
            crash_permille: crash,
            late_bob_permille: late,
            net: NetFaults {
                drop_permille: drop,
                delay_permille: delay,
                extra_delay: SimDuration::from_millis(4),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let specs = crosschain::sim::workload::generate(
            &WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 3, seed),
        );
        for spec in &specs {
            let harness = HtlcHarness;
            // Re-run the exact engine the harness classified, and audit it.
            let faults = sample_instance_faults(&harness, spec, &plan);
            let inst = harness.instance(spec, &faults);
            let mut eng = harness.build_engine(
                &inst,
                spec,
                Box::new(RandomOracle::seeded(spec.seed)),
                TraceMode::CountersOnly,
            );
            let report = eng.run();
            let outcome =
                harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);

            let a = eng.process_as::<ChainProcess>(CHAIN_A_PID).unwrap().chain();
            let b = eng.process_as::<ChainProcess>(CHAIN_B_PID).unwrap().chain();
            let conserved = a.ledger().check_conservation().is_ok()
                && b.ledger().check_conservation().is_ok();
            let asymmetric = matches!(
                (a.contract(0).map(|c| c.state), b.contract(0).map(|c| c.state)),
                (Some(HtlcState::Claimed), Some(HtlcState::Reclaimed))
                    | (Some(HtlcState::Reclaimed), Some(HtlcState::Claimed))
            );
            if outcome == ProtocolOutcome::Success {
                prop_assert!(conserved, "success with an unbalanced book");
                prop_assert!(!asymmetric, "success despite one-sided settlement");
                prop_assert_eq!(a.contract(0).unwrap().state, HtlcState::Claimed);
                prop_assert_eq!(b.contract(0).unwrap().state, HtlcState::Claimed);
            }
            if !conserved || asymmetric {
                prop_assert_eq!(
                    outcome,
                    ProtocolOutcome::Violation,
                    "a safety break must classify as Violation"
                );
            }
        }
    }

    /// Soundness of the untuned-Interledger classifier: a Success report
    /// requires Bob actually paid, every book balanced, net positions
    /// summing to zero, and no compliant participant out of pocket.
    #[test]
    fn prop_untuned_never_reports_violation_as_success(
        seed in 0u64..100_000,
        rho in 0u64..150_000,
        crash in 0u32..300,
        thieving in 0u32..200,
        drop in 0u32..60,
    ) {
        let plan = FaultPlan {
            crash_permille: crash,
            thieving_escrow_permille: thieving,
            net: NetFaults {
                drop_permille: drop,
                delay_permille: 100,
                extra_delay: SimDuration::from_millis(3),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let mut w = WorkloadConfig::new(TopologyFamily::Linear { n: 3 }, 3, seed);
        w.max_rho_ppm = (0, rho);
        for spec in &crosschain::sim::workload::generate(&w) {
            let harness = IlpUntunedHarness;
            let faults = sample_instance_faults(&harness, spec, &plan);
            let inst = harness.instance(spec, &faults);
            let mut eng = harness.build_engine(
                &inst,
                spec,
                Box::new(RandomOracle::seeded(spec.seed)),
                TraceMode::CountersOnly,
            );
            let report = eng.run();
            let outcome =
                harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);
            let o = crosschain::payment::timebounded::ChainOutcome::extract(
                &eng,
                &inst.setup,
                report.quiescent,
            );
            if outcome == ProtocolOutcome::Success {
                prop_assert!(o.bob_paid(), "success without payment");
                for c in o.conservation.iter().flatten() {
                    prop_assert!(*c, "success with an unbalanced escrow book");
                }
                if o.net_positions.iter().all(Option::is_some) {
                    let sum: i64 = o.net_positions.iter().flatten().sum();
                    prop_assert_eq!(sum, 0, "success with net positions {:?}", o.net_positions);
                }
            }
            if o.conservation.contains(&Some(false)) {
                prop_assert_eq!(outcome, ProtocolOutcome::Violation);
            }
        }
    }
}
