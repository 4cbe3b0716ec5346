//! Cross-crate integration: the full stack (crypto → ledger → anta →
//! consensus → payment) exercised end to end, with property checks from
//! `payment::properties` on every run.

use crosschain::anta::net::{PartialSyncNet, SyncNet};
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::{Ctx, Pid, Process, TimerId};
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::consensus::msg::sign_propose;
use crosschain::consensus::{ConsMsg, ProofOfLock};
use crosschain::payment::properties::{
    check_definition1, check_definition2, Compliance, PropCheck,
};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::weak::{Patience, TmKind, WeakOutcome, WeakSetup};
use crosschain::payment::{PMsg, SyncParams, ValuePlan};
use crosschain::xcrypto::{Signer, Verdict};

#[test]
fn time_bounded_protocol_many_seeds_many_sizes() {
    for n in [1usize, 3, 6] {
        let setup = ChainSetup::new(
            n,
            ValuePlan::with_commission(n, 10_000, 11),
            SyncParams::baseline(),
            17,
        );
        for seed in 0..8u64 {
            let mut eng = setup.build_engine(
                Box::new(SyncNet::new(setup.params.delta, 32)),
                Box::new(RandomOracle::seeded(seed)),
                ClockPlan::Sampled { seed },
            );
            let report = eng.run();
            assert!(report.quiescent, "n={n} seed={seed}");
            let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
            let v = check_definition1(&o, &setup, &Compliance::all_compliant());
            assert!(v.all_ok(), "n={n} seed={seed}: {:?}", v.violations());
            assert_eq!(v.l, PropCheck::Holds);
            // Money conservation story: Alice pays 10000, Bob receives
            // 10000 − 11(n−1), each connector keeps 11.
            let bob_gain = *o.net_positions.last().unwrap().as_ref().unwrap();
            assert_eq!(bob_gain, 10_000 - 11 * (n as i64 - 1));
        }
    }
}

#[test]
fn weak_protocol_all_tm_kinds_under_partial_synchrony() {
    // Each kind's five runs — report, send count and outcome — fold into
    // one digest, so a change in how `WeakSetup` wires the customers,
    // escrows or managers cannot pass unseen.
    for (kind, pinned) in [
        (TmKind::Trusted, 0xb52c_e8c0_c55e_86f7),
        (TmKind::Contract, 0x563d_5df8_68d4_efa4),
        (TmKind::Committee { k: 4 }, 0xa1bc_5c9d_0e8e_12d4),
    ] {
        let mut runs = String::new();
        for seed in 0..5u64 {
            let setup = WeakSetup::new(3, ValuePlan::uniform(3, 777), kind, 23 + seed);
            let gst = SimTime::from_millis(100 + 50 * seed);
            let mut eng = setup.build_engine(
                Box::new(PartialSyncNet::randomized(
                    gst,
                    SimDuration::from_millis(5),
                    8,
                )),
                Box::new(RandomOracle::seeded(seed)),
            );
            let report = eng.run();
            let o = WeakOutcome::extract(&eng, &setup);
            assert_eq!(
                o.verdict(),
                Some(Verdict::Commit),
                "{kind:?} seed={seed}: {o:?}"
            );
            assert!(o.bob_paid, "{kind:?} seed={seed}");
            let v = check_definition2(&o, &Compliance::all_compliant(), true);
            assert!(v.all_ok(), "{kind:?} seed={seed}: {:?}", v.violations());
            runs += &format!("{report:?} {} {o:?}\n", eng.trace().sent_count());
        }
        let fnv = crosschain::experiments::digest::fnv1a64(runs.as_bytes());
        assert_eq!(fnv, pinned, "{kind:?}: {fnv:#018x}");
    }
}

#[test]
fn weak_protocol_abort_path_is_lossless_everywhere() {
    for kind in [TmKind::Trusted, TmKind::Committee { k: 4 }] {
        let setup = WeakSetup::new(4, ValuePlan::uniform(4, 321), kind, 31)
            .with_patience(4, Patience::absent())
            .with_patience(2, Patience::until(SimDuration::from_millis(250)));
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(SimDuration::from_millis(3), 8)),
            Box::new(RandomOracle::seeded(9)),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &setup);
        assert_eq!(o.verdict(), Some(Verdict::Abort), "{kind:?}: {o:?}");
        for (i, p) in o.net_positions.iter().enumerate() {
            assert_eq!(*p, Some(0), "{kind:?}: customer {i} must end whole");
        }
        assert!(o.cc_ok);
    }
}

/// A round-0 leader that proposes χc, validly signed, before any evidence
/// justifies it, and then falls silent. `pol` is the proof-of-lock it
/// attaches, if any.
struct CommitPusher {
    signer: Signer,
    peers: Vec<Pid>,
    pol: Option<ProofOfLock>,
}

impl Process<PMsg> for CommitPusher {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        let pol_round = self.pol.as_ref().map(|p| p.round);
        let sig = sign_propose(&self.signer, 0, 0, Verdict::Commit, pol_round);
        for &p in &self.peers {
            ctx.send(
                p,
                PMsg::Cons(ConsMsg::Propose {
                    round: 0,
                    value: Verdict::Commit,
                    pol: self.pol.clone(),
                    sig,
                }),
            );
        }
    }
    fn on_message(&mut self, _from: Pid, _msg: PMsg, _ctx: &mut Ctx<PMsg>) {}
    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}
    fn fp_digest(&self) -> u64 {
        0
    }
}

/// External validity is the notary's gate: Bob never accepts, so χc is
/// never justified, and a leader's authentic χc proposal must not gather
/// the honest notaries' prevotes — bare, or behind a proof-of-lock with
/// no signatures. They decide the χa Alice asked for.
#[test]
fn committee_withholds_an_unjustified_commit_proposal() {
    let setup = WeakSetup::new(2, ValuePlan::uniform(2, 60), TmKind::Committee { k: 4 }, 41)
        .with_patience(2, Patience::absent())
        .with_patience(
            0,
            Patience {
                act_at: None,
                abort_at: Some(SimDuration::from_millis(1)),
            },
        );
    let peers: Vec<_> = setup.tm_pids().skip(1).collect();
    let empty_pol = ProofOfLock {
        round: 0,
        value: Verdict::Commit,
        sigs: Vec::new(),
    };
    for (seed, pol) in (0..4u64).flat_map(|s| [(s, None), (s, Some(empty_pol.clone()))]) {
        let mut eng = setup.build_engine_with(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(seed)),
            |_| None,
            |i| {
                (i == 0).then(|| {
                    Box::new(CommitPusher {
                        signer: setup.tm_signer(0).clone(),
                        peers: peers.clone(),
                        pol: pol.clone(),
                    }) as Box<dyn Process<PMsg>>
                })
            },
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &setup);
        let case = format!("seed {seed}, pol {}", pol.is_some());
        assert_eq!(o.verdict(), Some(Verdict::Abort), "{case}: {o:?}");
        let v = check_definition2(&o, &Compliance::all_compliant(), false);
        assert!(v.all_ok(), "{case}: {:?}", v.violations());
    }
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| {
        let setup = ChainSetup::new(4, ValuePlan::uniform(4, 50), SyncParams::baseline(), 3);
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(setup.params.delta, 16)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
        );
        let report = eng.run();
        (
            report.events,
            report.end_time,
            eng.trace().events.len(),
            eng.trace().sent_count(),
        )
    };
    assert_eq!(run(5), run(5), "bit-reproducibility");
    assert_ne!(run(5), run(6), "seeds matter");
}

#[test]
fn the_paper_in_one_test() {
    // Theorem 1: synchrony ⇒ success.
    let setup = ChainSetup::new(2, ValuePlan::uniform(2, 100), SyncParams::baseline(), 1);
    let mut eng = setup.build_engine(
        Box::new(SyncNet::new(setup.params.delta, 8)),
        Box::new(RandomOracle::seeded(1)),
        ClockPlan::Sampled { seed: 1 },
    );
    let report = eng.run();
    let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
    assert!(o.bob_paid(), "Theorem 1");

    // Theorem 2: partial synchrony defeats the same protocol.
    let w = crosschain::payment::impossibility::indistinguishability_pair(2, 100);
    assert!(w.run_a_refund_correct && w.run_b_cs2_violated, "Theorem 2");

    // Theorem 3: the weak variant survives partial synchrony.
    let wsetup = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Committee { k: 4 }, 2);
    let mut weng = wsetup.build_engine(
        Box::new(PartialSyncNet::new(
            SimTime::from_millis(400),
            SimDuration::from_millis(5),
        )),
        Box::new(RandomOracle::seeded(2)),
    );
    weng.run();
    let wo = WeakOutcome::extract(&weng, &wsetup);
    assert_eq!(wo.verdict(), Some(Verdict::Commit), "Theorem 3");
    assert!(wo.bob_paid && wo.cc_ok);
}
