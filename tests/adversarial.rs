//! Cross-crate adversarial integration: Byzantine strategies and hostile
//! networks against the full stack, checked with the property suite.

use crosschain::anta::net::{AdversarialNet, Delivery, EnvelopeMeta, SyncNet};
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::InertProcess;
use crosschain::anta::time::SimDuration;
use crosschain::payment::byzantine::{CrashAfter, LateBob};
use crosschain::payment::msg::PMsg;
use crosschain::payment::properties::{check_definition1, Compliance};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
use crosschain::payment::{Role, SyncParams, ValuePlan};

fn setup(n: usize) -> ChainSetup {
    ChainSetup::new(n, ValuePlan::uniform(n, 200), SyncParams::baseline(), 41)
}

#[test]
fn crash_matrix_every_role_every_phase() {
    // Crash each participant at each of three protocol phases; compliant
    // parties must keep Definition 1 in all 3 × (2n+1) runs.
    let s = setup(2);
    let phases = [5u64, 25, 60]; // ms: during setup, mid-flow, settlement
    for victim_pid in 0..s.chain.topo.participants() {
        let role = s.chain.topo.role_of(victim_pid).unwrap();
        for (pi, at_ms) in phases.iter().enumerate() {
            let mut eng = s.build_engine_with(
                Box::new(SyncNet::new(s.params.delta, 8)),
                Box::new(RandomOracle::seeded(pi as u64)),
                ClockPlan::Sampled { seed: pi as u64 },
                |r| {
                    (r == role).then(|| {
                        Box::new(CrashAfter::new(
                            s.default_process(role),
                            SimDuration::from_millis(*at_ms),
                        )) as Box<_>
                    })
                },
            );
            let report = eng.run();
            let o = ChainOutcome::extract(&eng, &s, report.quiescent);
            let v = check_definition1(&o, &s, &Compliance::with_byzantine(vec![role]));
            assert!(
                v.all_ok(),
                "victim {role:?} phase {pi}: {:?}",
                v.violations()
            );
        }
    }
}

#[test]
fn message_dropping_network_cannot_break_safety() {
    // Drop a percentage of χ messages (hostile network), everything else
    // flows: safety must hold regardless (liveness legitimately fails).
    let s = setup(3);
    for drop_mod in [2u64, 3] {
        let net = AdversarialNet::new(move |m: &EnvelopeMeta, msg: &PMsg, _| {
            if matches!(msg, PMsg::Receipt(_)) && m.seq % drop_mod == 0 {
                Delivery::Never
            } else {
                Delivery::At(m.sent_at + SimDuration::from_millis(5))
            }
        });
        let mut eng = s.build_engine(
            Box::new(net),
            Box::new(RandomOracle::seeded(drop_mod)),
            ClockPlan::Perfect,
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &s, report.quiescent);
        // In a drop-capable network nobody promises liveness; the paper's
        // ES safety must survive (conservation everywhere). CS clauses can
        // be legitimately violated because a dropping network is outside
        // even partial synchrony — but money never appears or vanishes:
        for (i, c) in o.conservation.iter().enumerate() {
            assert_eq!(
                *c,
                Some(true),
                "escrow {i} conservation, drop_mod {drop_mod}"
            );
        }
    }
}

#[test]
fn late_bob_plus_drift_still_safe_for_chain() {
    let s = setup(2);
    let delay = s.schedule.a[1] + s.params.delta * 10;
    let mut eng = s.build_engine_with(
        Box::new(SyncNet::new(s.params.delta, 8)),
        Box::new(RandomOracle::seeded(4)),
        ClockPlan::Extremes,
        |r| (r == Role::Customer(2)).then(|| Box::new(LateBob::new(&s, delay)) as Box<_>),
    );
    let report = eng.run();
    let o = ChainOutcome::extract(&eng, &s, report.quiescent);
    let v = check_definition1(&o, &s, &Compliance::with_byzantine(vec![Role::Customer(2)]));
    assert!(v.all_ok(), "{:?}", v.violations());
    assert_eq!(o.customers[0].unwrap().outcome, CustomerOutcome::Refunded);
}

#[test]
fn two_simultaneous_byzantine_customers() {
    // Alice withholds AND Bob crashes: the chain simply never moves money.
    let s = setup(3);
    let mut eng = s.build_engine_with(
        Box::new(SyncNet::new(s.params.delta, 8)),
        Box::new(RandomOracle::seeded(6)),
        ClockPlan::Sampled { seed: 6 },
        |r| match r {
            Role::Customer(0) | Role::Customer(3) => Some(Box::new(InertProcess) as Box<_>),
            _ => None,
        },
    );
    let report = eng.run();
    let o = ChainOutcome::extract(&eng, &s, report.quiescent);
    let v = check_definition1(
        &o,
        &s,
        &Compliance::with_byzantine(vec![Role::Customer(0), Role::Customer(3)]),
    );
    assert!(v.all_ok(), "{:?}", v.violations());
    for i in 1..3 {
        assert!(
            !o.customers[i].unwrap().sent_money,
            "Chloe{i} never engaged"
        );
        assert_eq!(o.net_positions[i], Some(0));
    }
}
