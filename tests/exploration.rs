//! Exhaustive schedule exploration across protocols — the "for every
//! execution" quantifier on bounded instances, at workspace level.

use crosschain::anta::clock::DriftClock;
use crosschain::anta::engine::{Engine, EngineConfig};
use crosschain::anta::explore::{
    explore, explore_parallel, replay, replay_pruned, ExploreConfig, ExploreMode, ExploreReport,
};
use crosschain::anta::fingerprint::{fingerprint, Fnv64};
use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::Oracle;
use crosschain::anta::process::{Ctx, Pid, Process, TimerId};
use crosschain::anta::time::SimDuration;
use crosschain::consensus::ConsMsg;
use crosschain::ledger::{Asset, CurrencyId};
use crosschain::payment::msg::{PMsg, PromiseKind, SignedPromise, TmInput, TmInputKind};
use crosschain::payment::properties::{check_definition1, check_definition2, Compliance};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::weak::{TmKind, WeakOutcome, WeakSetup};
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::telemetry::NullSink;
use crosschain::xcrypto::{DecisionCert, KeyId, PaymentId, Receipt, Signature, Verdict};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

#[test]
fn every_schedule_of_small_timebounded_chain_is_safe_and_live() {
    let setup = Arc::new(ChainSetup::new(
        1,
        ValuePlan::uniform(1, 100),
        SyncParams::baseline(),
        5,
    ));
    let s1 = setup.clone();
    let s2 = setup.clone();
    let report = explore(
        move |oracle: Box<dyn Oracle>| {
            s1.build_engine(
                Box::new(SyncNet {
                    delta_min: SimDuration::ZERO,
                    delta_max: s1.params.delta,
                    buckets: 2,
                }),
                oracle,
                ClockPlan::Perfect,
            )
        },
        move |eng, run| {
            let o = ChainOutcome::extract(eng, &s2, run.quiescent);
            let v = check_definition1(&o, &s2, &Compliance::all_compliant());
            if !v.all_ok() {
                return Err(format!("{:?}", v.violations()));
            }
            if !o.bob_paid() {
                return Err("liveness failed on a synchronous schedule".into());
            }
            Ok(())
        },
        200_000,
    );
    assert!(report.exhausted, "only ran {} schedules", report.runs);
    assert!(
        report.all_ok(),
        "first violation: {:?}",
        report.violations.first()
    );
    assert!(report.runs > 1_000, "nontrivial space: {}", report.runs);
}

#[test]
fn every_schedule_of_small_weak_instance_keeps_cc_and_conservation() {
    // n = 1 chain (Alice, Bob, one escrow) with the trusted manager; two
    // delay buckets per message. The weak protocol's safety clauses must
    // hold on every interleaving of locks, acceptance and decisions.
    let setup = Arc::new(WeakSetup::new(
        1,
        ValuePlan::uniform(1, 77),
        TmKind::Trusted,
        6,
    ));
    let s1 = setup.clone();
    let s2 = setup.clone();
    let report = explore(
        move |oracle: Box<dyn Oracle>| {
            s1.build_engine(
                Box::new(SyncNet {
                    delta_min: SimDuration::ZERO,
                    delta_max: SimDuration::from_millis(5),
                    buckets: 2,
                }),
                oracle,
            )
        },
        move |eng, _run| {
            let o = WeakOutcome::extract(eng, &s2);
            if !o.cc_ok {
                return Err("CC violated".into());
            }
            let v = check_definition2(&o, &Compliance::all_compliant(), true);
            if !v.all_ok() {
                return Err(format!("{:?}", v.violations()));
            }
            if !o.bob_paid {
                return Err("patient compliant run must commit".into());
            }
            Ok(())
        },
        200_000,
    );
    assert!(report.exhausted, "only ran {} schedules", report.runs);
    assert!(
        report.all_ok(),
        "first violation: {:?}",
        report.violations.first()
    );
}

/// Two racers send to a judge that records the first arrival — the smallest
/// system with a real schedule race, parameterised by racer count and delay
/// resolution so the property test can vary the tree shape.
#[derive(Debug, Clone, Default)]
struct Judge {
    first: Option<Pid>,
}
impl Process<u32> for Judge {
    fn on_start(&mut self, _ctx: &mut Ctx<u32>) {}
    fn on_message(&mut self, from: Pid, _m: u32, ctx: &mut Ctx<u32>) {
        if self.first.is_none() {
            self.first = Some(from);
            ctx.mark("winner", from as i64);
        }
    }
    fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
    fn fp_digest(&self) -> u64 {
        fingerprint(&self.first)
    }
}

#[derive(Debug, Clone)]
struct Racer;
impl Process<u32> for Racer {
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        ctx.send(0, 1);
    }
    fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
    fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
    fn fp_digest(&self) -> u64 {
        0
    }
}

fn build_race(racers: usize, buckets: usize, oracle: Box<dyn Oracle>) -> Engine<u32> {
    let mut eng = Engine::new(
        Box::new(SyncNet::new(SimDuration::from_ticks(100), buckets)),
        oracle,
        EngineConfig::default(),
    );
    eng.add_process(Box::new(Judge::default()), DriftClock::perfect());
    for _ in 0..racers {
        eng.add_process(Box::new(Racer), DriftClock::perfect());
    }
    eng
}

/// `(runs, exhausted, violation (path, message) list)` — everything the
/// equivalence properties compare.
type ReportKey = (usize, bool, Vec<(Vec<usize>, String)>);

fn key(r: &ExploreReport) -> ReportKey {
    (
        r.runs,
        r.exhausted,
        r.violations
            .iter()
            .map(|v| (v.path.clone(), v.message.clone()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Parallel full exploration with 1/2/4/8 workers is bit-identical to
    /// the serial DFS (runs, exhaustion, violation path list in DFS order)
    /// on race systems of varying tree shape.
    #[test]
    fn parallel_explorer_equivalent_to_serial_on_races(
        racers in 2usize..4,
        buckets in 1usize..4,
    ) {
        let checker = |eng: &Engine<u32>, _: &crosschain::anta::engine::RunReport| {
            let judge = eng.process_as::<Judge>(0).unwrap();
            // Flag "the last racer won" so some schedules violate.
            if judge.first == Some(racers) {
                Err(format!("racer {racers} won"))
            } else {
                Ok(())
            }
        };
        let serial = explore(
            |oracle| build_race(racers, buckets, oracle),
            checker,
            usize::MAX,
        );
        prop_assert!(serial.exhausted);
        for threads in [1usize, 2, 4, 8] {
            let par = explore_parallel(
                |oracle| build_race(racers, buckets, oracle),
                checker,
                ExploreConfig::with_threads(threads),
            );
            prop_assert_eq!(key(&par), key(&serial));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// DPOR-style reduced exploration reports the same exhaustion verdict,
    /// the same overall pass/fail, and the same distinct violation set as
    /// full enumeration, on random small race instances, serial and with 4
    /// workers. (Executed-run counts legitimately differ — that is the
    /// reduction.)
    #[test]
    fn reduced_explorer_equivalent_to_full_on_races(
        racers in 2usize..4,
        buckets in 1usize..5,
    ) {
        let checker = |eng: &Engine<u32>, _: &crosschain::anta::engine::RunReport| {
            let judge = eng.process_as::<Judge>(0).unwrap();
            if judge.first == Some(racers) {
                Err(format!("racer {racers} won"))
            } else {
                Ok(())
            }
        };
        let full = explore(
            |oracle| build_race(racers, buckets, oracle),
            checker,
            usize::MAX,
        );
        prop_assert!(full.exhausted);
        for threads in [1usize, 4] {
            let reduced = explore_parallel(
                |oracle| build_race(racers, buckets, oracle),
                checker,
                ExploreConfig {
                    mode: ExploreMode::Reduced,
                    threads,
                    ..Default::default()
                },
            );
            prop_assert!(reduced.exhausted);
            prop_assert_eq!(reduced.all_ok(), full.all_ok());
            prop_assert_eq!(
                reduced.distinct_violation_messages(),
                full.distinct_violation_messages(),
                "threads = {}", threads
            );
            prop_assert!(reduced.runs <= full.runs);
        }
    }
}

/// Seeded regression: a known-violating instance (last racer can win on
/// some schedule) whose violation DPOR must keep finding, with a path that
/// replays to the same failure.
#[test]
fn reduced_explorer_finds_known_violation_and_path_replays() {
    let checker = |eng: &Engine<u32>, _: &crosschain::anta::engine::RunReport| {
        let judge = eng.process_as::<Judge>(0).unwrap();
        if judge.first == Some(3) {
            Err("racer 3 won".to_owned())
        } else {
            Ok(())
        }
    };
    for threads in [1usize, 4] {
        let reduced = explore_parallel(
            |oracle| build_race(3, 3, oracle),
            checker,
            ExploreConfig {
                max_runs: 200_000,
                ..ExploreConfig::reduced(threads)
            },
        );
        assert!(reduced.exhausted, "threads = {threads}");
        assert!(!reduced.all_ok(), "threads = {threads}: violation lost");
        for v in &reduced.violations {
            let (eng, _) = replay_pruned(|oracle| build_race(3, 3, oracle), &v.path);
            let judge = eng.process_as::<Judge>(0).unwrap();
            assert_eq!(judge.first, Some(3), "threads = {threads}: stale path");
        }
    }
}

/// Differential full-vs-reduced check on the E4 payment instance the CI
/// gate uses, at its smallest size.
#[test]
fn differential_full_vs_reduced_on_e4_small_instance() {
    let diff =
        crosschain::experiments::e4::explore_instance_differential(1, 1, 200_000, 1, &mut NullSink);
    assert!(diff.agree(), "{:?}", diff.mismatch);
    assert!(diff.full.exhausted);
    let ratio = diff
        .reduced
        .reduction_ratio()
        .expect("full count known after exhaustion");
    assert!(ratio <= 1.0);
}

/// Exact reduced work on the E4 n = 2, σ = 1 instance at one worker (full
/// enumeration is 4 096 schedules). Every process and message digest feeds
/// these counts: a digest that dropped a behaviour-bearing field would merge
/// more states, one that folded an absolute time would merge fewer.
#[test]
fn reduced_e4_n2_work_is_pinned() {
    let r = crosschain::experiments::e4::explore_instance_dpor(2, 1, 200_000, 1);
    assert!(r.exhausted && r.all_ok());
    assert_eq!((r.runs, r.dedup_hits), (8, 368));
}

/// One `PMsg` from a kind and four small field values; fields a kind does
/// not use are ignored, so distinct draws can build equal messages.
fn pmsg_from(kind: u8, f: (u8, u8, u8, u8)) -> PMsg {
    let (a, b, c, d) = f;
    let payment = PaymentId([a; 32]);
    let sig = Signature {
        signer: KeyId(b as u32),
        tag: [c; 32],
    };
    let verdict = if d % 2 == 0 {
        Verdict::Commit
    } else {
        Verdict::Abort
    };
    match kind {
        0 => PMsg::Promise(SignedPromise {
            kind: if d % 2 == 0 {
                PromiseKind::Guarantee
            } else {
                PromiseKind::Promise
            },
            payment,
            escrow_index: b as usize,
            bound: SimDuration::from_ticks(c as u64),
            sig,
        }),
        1 => PMsg::Money {
            payment,
            asset: Asset::new(CurrencyId(b as u32), c as u64 + 256 * d as u64),
        },
        2 => PMsg::Receipt(Receipt { payment, sig }),
        3 => PMsg::TmInput(TmInput {
            kind: if d % 2 == 0 {
                TmInputKind::Locked
            } else {
                TmInputKind::AbortRequest
            },
            payment,
            index: b as u64,
            sig,
        }),
        4 => PMsg::Accept(Receipt { payment, sig }),
        5 => PMsg::Decision(std::sync::Arc::new(DecisionCert {
            payment,
            verdict,
            sigs: vec![sig; b as usize],
        })),
        _ => PMsg::Cons(match d {
            0 => ConsMsg::Prevote {
                round: a as u32,
                value: None,
                sig,
            },
            1 => ConsMsg::Prevote {
                round: a as u32,
                value: Some(Verdict::Commit),
                sig,
            },
            _ => ConsMsg::Precommit {
                round: a as u32,
                value: Some(verdict),
                sig,
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A message's `Hash`, fed into the explorer's `Fnv64`, distinguishes
    /// exactly what `==` distinguishes.
    /// The second message is the first with at most one field or the kind
    /// redrawn from a domain of three, so equal pairs and pairs one field
    /// apart both occur often.
    #[test]
    fn pmsg_fingerprint_equal_iff_messages_equal(
        kind in 0u8..7,
        f in (0u8..3, 0u8..3, 0u8..3, 0u8..3),
        redraw in 0usize..5,
        v in 0u8..3,
    ) {
        let a = pmsg_from(kind, f);
        let mut g = [f.0, f.1, f.2, f.3];
        let mut kind_b = kind;
        match redraw {
            4 => kind_b = (kind + v) % 7,
            i => g[i] = v,
        }
        let b = pmsg_from(kind_b, (g[0], g[1], g[2], g[3]));
        let fnv = |m: &PMsg| {
            let mut h = Fnv64::new();
            m.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(a == b, fnv(&a) == fnv(&b), "{:?} vs {:?}", a, b);
    }
}

#[test]
fn parallel_explorer_equivalent_to_serial_on_e4_small_instance() {
    let serial = crosschain::experiments::e4::explore_instance_opts(1, 1, 200_000, 4);
    assert!(serial.exhausted);
    assert!(serial.all_ok());
    for threads in [2usize, 4, 8] {
        let par = crosschain::experiments::e4::explore_instance_opts(1, threads, 200_000, 4);
        assert_eq!(key(&par), key(&serial), "threads = {threads}");
    }
}

#[test]
fn violating_paths_replay_deterministically() {
    // Sanity for the explorer's replay facility on a checker that flags a
    // benign condition ("Bob paid") as a violation, so we get paths back.
    let setup = Arc::new(ChainSetup::new(
        1,
        ValuePlan::uniform(1, 100),
        SyncParams::baseline(),
        5,
    ));
    let s1 = setup.clone();
    let s2 = setup.clone();
    let build = move |oracle: Box<dyn Oracle>| {
        s1.build_engine(
            Box::new(SyncNet {
                delta_min: SimDuration::ZERO,
                delta_max: s1.params.delta,
                buckets: 2,
            }),
            oracle,
            ClockPlan::Perfect,
        )
    };
    let report = explore(
        build.clone(),
        move |eng, run| {
            let o = ChainOutcome::extract(eng, &s2, run.quiescent);
            if o.bob_paid() {
                Err("flagging success to harvest paths".into())
            } else {
                Ok(())
            }
        },
        64,
    );
    assert!(!report.violations.is_empty());
    let path = &report.violations[0].path;
    let s3 = setup.clone();
    let (eng, run) = replay(build, path);
    let o = ChainOutcome::extract(&eng, &s3, run.quiescent);
    assert!(o.bob_paid(), "replay must reproduce the flagged run");
}
