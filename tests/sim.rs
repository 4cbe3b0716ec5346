//! Workspace-level checks of the Monte-Carlo traffic simulator: the
//! umbrella re-export works, reports are bit-identical across thread
//! counts, the seed fully determines a campaign, every topology family
//! honours Theorem 1 when no faults are injected, and the open-system
//! (finite-liquidity) mode keeps its collateral accounting sound.

use crosschain::anta::engine::Engine;
use crosschain::anta::net::NetFaults;
use crosschain::anta::oracle::Oracle;
use crosschain::anta::time::SimDuration;
use crosschain::anta::trace::TraceMode;
use crosschain::protocol::{ByzSupport, LockProfile, ProtocolOutcome};
use crosschain::sim::campaign::{CampaignConfig, CampaignRunner};
use crosschain::sim::prelude::*;
use crosschain::sim::FamilyStats;
use proptest::prelude::*;

fn campaign(family: TopologyFamily, payments: usize, seed: u64) -> SimConfig {
    SimConfig::new(WorkloadConfig::new(family, payments, seed))
}

/// `cfg`'s own workload through the time-bounded protocol, closed.
fn closed_run(cfg: &SimConfig) -> SimReport {
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    run_closed(&TimeBoundedHarness, &specs, cfg)
}

/// `cfg`'s own workload through the time-bounded protocol, open, on its
/// static routes.
fn open_run(cfg: &SimConfig, liq: &LiquidityConfig) -> OpenReport {
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    run_open(&TimeBoundedHarness, &specs, cfg, liq, None).0
}

fn digest(f: &FamilyStats) -> (usize, usize, usize, usize, usize, Option<u64>) {
    (
        f.instances,
        f.success.hits,
        f.refunds,
        f.stuck,
        f.violations,
        f.latency.as_ref().map(|l| l.max),
    )
}

#[test]
fn all_families_succeed_without_faults() {
    for family in [
        TopologyFamily::Linear { n: 3 },
        TopologyFamily::HubAndSpoke { spokes: 8 },
        TopologyFamily::RandomTree { nodes: 32 },
        TopologyFamily::Packetized { paths: 3, hops: 2 },
    ] {
        let report = closed_run(&campaign(family, 48, 17));
        assert_eq!(report.families.len(), 1);
        let f = &report.families[0];
        assert!(f.success.is_perfect(), "{}: {:?}", f.family, f.success);
        assert!(report.conserved());
        if let Some(p) = f.packets {
            assert_eq!(p.complete, p.total, "no faults ⇒ every packet lands");
        }
    }
}

#[test]
fn report_identical_across_thread_counts_and_seeded() {
    let faulty = FaultPlan {
        crash_permille: 120,
        thieving_escrow_permille: 60,
        net: NetFaults {
            drop_permille: 30,
            delay_permille: 120,
            extra_delay: SimDuration::from_millis(4),
            delay_buckets: 4,
        },
        ..FaultPlan::NONE
    };
    let run_with = |threads: usize, seed: u64| {
        let cfg = SimConfig {
            threads,
            faults: faulty,
            ..campaign(TopologyFamily::RandomTree { nodes: 20 }, 96, seed)
        };
        closed_run(&cfg)
    };
    let serial = run_with(1, 23);
    let parallel = run_with(4, 23);
    assert_eq!(serial.instances, parallel.instances);
    assert_eq!(serial.peak_locked_global, parallel.peak_locked_global);
    assert_eq!(serial.peak_in_flight, parallel.peak_in_flight);
    for (a, b) in serial.families.iter().zip(&parallel.families) {
        assert_eq!(digest(a), digest(b));
    }
    // Same seed reproduces; another seed diverges.
    let again = run_with(1, 23);
    let other = run_with(1, 24);
    for (a, b) in serial.families.iter().zip(&again.families) {
        assert_eq!(digest(a), digest(b));
    }
    assert_ne!(
        serial.families[0].latency, other.families[0].latency,
        "different seeds must explore different traffic"
    );
}

#[test]
fn hub_concurrency_is_visible_in_the_lock_profile() {
    let mut cfg = campaign(TopologyFamily::HubAndSpoke { spokes: 8 }, 64, 31);
    cfg.workload.arrivals = ArrivalProcess::Bursty {
        burst: 32,
        gap: SimDuration::from_secs(2),
    };
    let report = closed_run(&cfg);
    assert!(
        report.peak_in_flight >= 16,
        "a 32-burst must overlap: {}",
        report.peak_in_flight
    );
    let per_instance_max = report.families[0].peak_locked.as_ref().unwrap().max;
    assert!(
        report.peak_locked_global.unwrap() > per_instance_max,
        "hub-wide lock pressure exceeds any single payment"
    );
    // Every payment crosses two of the eight gateways, and the load
    // statistics account for all of them.
    let load = report.families[0].spoke_load.as_ref().unwrap();
    assert!(load.n <= 8, "at most one entry per spoke");
    let total: f64 = load.mean * load.n as f64;
    assert_eq!(total.round() as usize, 2 * report.instances);
}

/// Digest of everything the open-system engine adds on top of the closed
/// report — compared bit-for-bit across thread counts.
#[allow(clippy::type_complexity)]
fn liquidity_digest(
    r: &crosschain::sim::OpenReport,
) -> (
    // Admission side: counts, wait summaries, shard structure.
    (
        usize,
        usize,
        usize,
        Option<(u64, u64)>,
        Option<(u64, u64)>,
        usize,
    ),
    // Book side: horizon, peaks, utilization, soundness, goodput.
    (u64, u64, u64, Option<u64>, usize, bool, u64),
) {
    let l = &r.liquidity;
    (
        (
            l.admitted,
            l.rejected,
            l.queued,
            l.wait.as_ref().map(|w| (w.p50, w.max)),
            l.rejected_wait.as_ref().map(|w| (w.p50, w.max)),
            l.shards,
        ),
        (
            l.horizon.ticks(),
            l.peak_locked_venue,
            l.peak_reserved_venue,
            l.utilization_ppm,
            l.budget_violations,
            l.drained,
            l.goodput_value,
        ),
    )
}

#[test]
fn open_system_report_identical_across_thread_counts() {
    // Faults on, queueing on: the richest steady-state path must still be
    // a pure function of the config, whatever the worker count.
    let faulty = FaultPlan {
        crash_permille: 100,
        late_bob_permille: 50,
        net: NetFaults {
            drop_permille: 20,
            delay_permille: 100,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
        ..FaultPlan::NONE
    };
    let open_with_threads = |threads: usize| {
        let mut cfg = SimConfig {
            threads,
            faults: faulty,
            ..campaign(TopologyFamily::HubAndSpoke { spokes: 6 }, 128, 53)
        };
        cfg.workload.arrivals = ArrivalProcess::Bursty {
            burst: 24,
            gap: SimDuration::from_millis(40),
        };
        open_run(
            &cfg,
            &LiquidityConfig::queue(18_000, SimDuration::from_millis(30)),
        )
    };
    let serial = open_with_threads(1);
    let parallel = open_with_threads(4);
    assert_eq!(liquidity_digest(&serial), liquidity_digest(&parallel));
    assert_eq!(serial.sim.instances, parallel.sim.instances);
    assert_eq!(serial.sim.rejected, parallel.sim.rejected);
    assert_eq!(
        serial.sim.peak_locked_global,
        parallel.sim.peak_locked_global
    );
    for (a, b) in serial.sim.families.iter().zip(&parallel.sim.families) {
        assert_eq!(digest(a), digest(b));
        assert_eq!(a.rejected, b.rejected);
    }
    // The campaign actually exercised the admission path.
    assert!(serial.liquidity.admitted > 0);
    assert!(
        serial.liquidity.rejected + serial.liquidity.queued > 0,
        "bursts over a finite budget must contend"
    );
}

#[test]
fn multi_shard_open_report_identical_across_thread_counts() {
    // A packetized workload splits into one liquidity shard per disjoint
    // path, so the shards genuinely run on different workers at 4
    // threads — the merged report must still be bit-identical.
    let faulty = FaultPlan {
        crash_permille: 80,
        net: NetFaults {
            drop_permille: 20,
            delay_permille: 80,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
        ..FaultPlan::NONE
    };
    let open_with_threads = |threads: usize| {
        let mut cfg = SimConfig {
            threads,
            faults: faulty,
            ..campaign(TopologyFamily::Packetized { paths: 4, hops: 2 }, 120, 61)
        };
        cfg.workload.arrivals = ArrivalProcess::Bursty {
            burst: 20,
            gap: SimDuration::from_millis(30),
        };
        open_run(
            &cfg,
            &LiquidityConfig::queue(9_000, SimDuration::from_millis(25)),
        )
    };
    let serial = open_with_threads(1);
    let parallel = open_with_threads(4);
    assert_eq!(liquidity_digest(&serial), liquidity_digest(&parallel));
    assert_eq!(serial.liquidity.shards, 4, "one shard per disjoint path");
    assert_eq!(serial.sim.instances, parallel.sim.instances);
    assert_eq!(
        serial.sim.peak_locked_global,
        parallel.sim.peak_locked_global
    );
    for (a, b) in serial.sim.families.iter().zip(&parallel.sim.families) {
        assert_eq!(digest(a), digest(b));
        assert_eq!(a.rejected, b.rejected);
    }
    assert!(serial.liquidity.admitted > 0);
}

/// The static-route `Queue` gate under faults, pinned bit for bit: bursty
/// arrivals over a budget that makes payments wait and some expire, on a
/// one-shard hub and on a three-shard packetized workload, at 1 and 4
/// threads. The digests were captured before static admission became
/// the one-leg case of routed admission.
#[test]
fn static_queue_gate_reports_match_the_pinned_digests() {
    let faulty = FaultPlan {
        crash_permille: 80,
        thieving_escrow_permille: 40,
        net: NetFaults {
            drop_permille: 30,
            delay_permille: 80,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
        ..FaultPlan::NONE
    };
    let cases = [
        (
            TopologyFamily::HubAndSpoke { spokes: 4 },
            12_000,
            0x2286_4c8f_da49_ae60,
        ),
        (
            TopologyFamily::Packetized { paths: 3, hops: 2 },
            6_000,
            0x35bc_d3e3_b648_6c26,
        ),
    ];
    for (family, budget, pinned) in cases {
        let open_with_threads = |threads: usize| {
            let mut cfg = SimConfig {
                threads,
                faults: faulty,
                ..campaign(family, 160, 0x5747)
            };
            cfg.workload.arrivals = ArrivalProcess::Bursty {
                burst: 16,
                gap: SimDuration::from_millis(50),
            };
            open_run(
                &cfg,
                &LiquidityConfig::queue(budget, SimDuration::from_millis(35)),
            )
        };
        let serial = open_with_threads(1);
        let fnv =
            |r: &OpenReport| crosschain::experiments::digest::fnv1a64(format!("{r:?}").as_bytes());
        assert_eq!(fnv(&serial), pinned, "{family:?}");
        assert_eq!(
            fnv(&open_with_threads(4)),
            pinned,
            "{family:?} at 4 threads"
        );
        let l = &serial.liquidity;
        assert!(l.queued > 0, "{family:?}: the gate must hold payments");
        assert!(
            l.rejected_wait.as_ref().is_some_and(|w| w.max > 0),
            "{family:?}: some queued payment must expire"
        );
    }
}

/// The instance every [`PoisonedHarness`] run panics on.
const POISONED_ID: u64 = 0;

/// The time-bounded harness, except that building instance
/// [`POISONED_ID`]'s context panics — every time, as a harness bug would.
struct PoisonedHarness;

impl ProtocolHarness for PoisonedHarness {
    type Msg = <TimeBoundedHarness as ProtocolHarness>::Msg;
    type Instance = <TimeBoundedHarness as ProtocolHarness>::Instance;

    fn name(&self) -> &'static str {
        "poisoned-timebounded"
    }

    fn supports(&self, workload: &WorkloadConfig) -> bool {
        TimeBoundedHarness.supports(workload)
    }

    fn byz_support(&self) -> ByzSupport {
        TimeBoundedHarness.byz_support()
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> Self::Instance {
        assert_ne!(spec.id, POISONED_ID, "poisoned instance");
        TimeBoundedHarness.instance(spec, faults)
    }

    fn assemble(
        &self,
        eng: &mut Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) {
        TimeBoundedHarness.assemble(eng, inst, spec, oracle, trace_mode)
    }

    fn classify(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        TimeBoundedHarness.classify(eng, inst, spec, quiescent, truncated)
    }

    fn griefed(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        outcome: ProtocolOutcome,
    ) -> bool {
        TimeBoundedHarness.griefed(eng, inst, outcome)
    }

    fn latency(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        TimeBoundedHarness.latency(eng, inst, spec, outcome)
    }

    fn lock_events(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        TimeBoundedHarness.lock_events(eng, inst, spec)
    }
}

/// A harness that panics on one instance costs exactly that instance,
/// through every way into `sim`: the closed batch loop, a campaign epoch
/// (at any thread count, with the seed named in the report) and the open
/// system's DES, whose collateral audit stays sound around the dead row.
#[test]
fn a_panicking_instance_degrades_to_one_failed_row_everywhere() {
    let cfg = campaign(TopologyFamily::Linear { n: 3 }, 40, 71);
    let specs = crosschain::sim::workload::generate(&cfg.workload);

    let clean = run_closed(&TimeBoundedHarness, &specs, &cfg);
    let poisoned = run_closed(&PoisonedHarness, &specs, &cfg);
    let (c, p) = (&clean.families[0], &poisoned.families[0]);
    assert_eq!((clean.failed, poisoned.failed, p.failed), (0, 1, 1));
    assert!(c.success.is_perfect(), "faultless: the dead row would pay");
    assert_eq!(p.success.hits + 1, c.success.hits);
    let others = |r: &SimReport| {
        let f = &r.families[0];
        [
            r.instances,
            r.violations,
            r.rejected,
            r.griefed,
            f.refunds,
            f.stuck,
            f.byzantine,
        ]
    };
    assert_eq!(others(&poisoned), others(&clean));

    let one_epoch = |threads: usize| {
        let epoch_cfg = CampaignConfig {
            threads,
            ..CampaignConfig::new(cfg.workload, 40, 40)
        };
        let poisoned_seed = crosschain::sim::workload::generate(&epoch_cfg.epoch_workload(0))
            [POISONED_ID as usize]
            .seed;
        let mut runner = CampaignRunner::new(PoisonedHarness, epoch_cfg);
        runner.run_to_end(None, None, |_| {}).unwrap();
        let report = runner.report();
        assert_eq!(report.tally.outcomes.failed, 1, "threads {threads}");
        assert_eq!(
            report.tally.failed_seeds,
            [poisoned_seed],
            "threads {threads}"
        );
        assert_eq!(report.tally.outcomes.success, 39, "threads {threads}");
        report.digest
    };
    assert_eq!(one_epoch(1), one_epoch(4));

    // The poisoned spec arrives first, at an empty book: the gate admits
    // it whatever the budget refuses later.
    let (open, _) = run_open(
        &PoisonedHarness,
        &specs,
        &cfg,
        &LiquidityConfig::reject(12_000),
        None,
    );
    assert_eq!(open.sim.failed, 1, "one Failed row");
    assert!(open.liquidity.rejected > 0, "the budget must bite");
    assert_eq!(open.liquidity.budget_violations, 0);
    assert!(
        open.liquidity.drained,
        "the dead row locked nothing and held nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Liquidity accounting soundness across random loads, budgets and
    /// policies (faultless, so every escrow is compliant): the audited
    /// locked value at each venue never exceeds its budget, and every
    /// venue drains back to zero once the campaign ends.
    #[test]
    fn prop_locked_never_exceeds_budget_and_drains(
        payments in 16usize..96,
        seed in 0u64..10_000,
        spokes in 3usize..9,
        budget in 8_000u64..40_000,
        patience_ms in 0u64..40,
        burst in 1usize..24,
    ) {
        let mut cfg = SimConfig::new(WorkloadConfig::new(
            TopologyFamily::HubAndSpoke { spokes },
            payments,
            seed,
        ));
        cfg.workload.arrivals = ArrivalProcess::Bursty {
            burst,
            gap: SimDuration::from_millis(10),
        };
        let liq = if patience_ms == 0 {
            LiquidityConfig::reject(budget)
        } else {
            LiquidityConfig::queue(budget, SimDuration::from_millis(patience_ms))
        };
        let open = open_run(&cfg, &liq);
        let l = &open.liquidity;
        prop_assert_eq!(l.budget_violations, 0, "locked exceeded a venue budget");
        prop_assert!(l.drained, "collateral not fully returned");
        prop_assert!(l.peak_locked_venue <= budget, "audited peak above budget");
        prop_assert!(l.peak_reserved_venue <= budget, "reservations above budget");
        prop_assert_eq!(l.admitted + l.rejected, l.offered);
        // Faultless: admitted ⇔ success, rejected instances carry no locks.
        let f = &open.sim.families[0];
        prop_assert_eq!(f.success.hits, l.admitted);
        prop_assert_eq!(f.rejected, l.rejected);
        if let Some(w) = &l.wait {
            prop_assert!(w.max <= patience_ms * 1_000, "a wait exceeded the patience");
        }
        if let Some(w) = &l.rejected_wait {
            prop_assert!(
                w.max <= patience_ms * 1_000,
                "a rejection wasted more than the patience"
            );
        }
    }

    /// Finite-budget admission soundness on the sharded engine (Reject
    /// policy, faultless), across multi-shard packetized topologies: the
    /// engine never admits a payment whose demand exceeds a venue's
    /// remaining budget at its admission instant. Faultless payments
    /// lock no more than they declare, so `peak_reserved_venue` (the
    /// high-water mark over every admission) staying within the budget
    /// proves the gate held at each individual admission instant.
    #[test]
    fn prop_reject_admissions_never_oversubscribe_a_venue(
        payments in 16usize..80,
        seed in 0u64..10_000,
        paths in 2usize..5,
        hops in 2usize..4,
        budget in 2_000u64..30_000,
        burst in 1usize..16,
    ) {
        let mut cfg = SimConfig::new(WorkloadConfig::new(
            TopologyFamily::Packetized { paths, hops },
            payments,
            seed,
        ));
        cfg.workload.arrivals = ArrivalProcess::Bursty {
            burst,
            gap: SimDuration::from_millis(8),
        };
        let open = open_run(&cfg, &LiquidityConfig::reject(budget));
        let l = &open.liquidity;
        prop_assert_eq!(l.shards, paths, "one shard per disjoint path");
        prop_assert_eq!(l.budget_violations, 0, "locked exceeded a venue budget");
        prop_assert!(l.drained, "collateral not fully returned");
        prop_assert!(l.peak_reserved_venue <= budget, "reservations above budget");
        prop_assert!(l.peak_locked_venue <= budget, "audited peak above budget");
        prop_assert_eq!(l.admitted + l.rejected, l.offered);
        prop_assert_eq!(l.queued, 0, "reject never queues");
        prop_assert!(l.wait.is_none(), "reject admits only at arrival");
        if let Some(w) = &l.rejected_wait {
            prop_assert_eq!(w.max, 0, "reject refuses on the spot");
        }
    }
}
