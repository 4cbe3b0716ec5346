//! The trust rule of Definitions 1 and 2, pinned clause by clause.
//!
//! A customer's clauses hold only "provided her escrow(s) abide": c_i
//! trusts e_{i−1} (when i > 0) and e_i (when i < n), and strong liveness
//! needs everybody. Each case runs one honest chain, then checks it with
//! every participant compliant and again with each single position marked
//! Byzantine in `Compliance`. The run does not change, only the
//! preconditions do, so each row records which clauses one position's
//! defection makes vacuous. A change to which participants a clause trusts
//! moves a row.

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::time::SimDuration;
use crosschain::payment::properties::{
    check_definition1, check_definition2, Compliance, PropCheck,
};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::weak::{TmKind, WeakOutcome, WeakSetup};
use crosschain::payment::{ChainTopology, SyncParams, ValuePlan};

/// `H` holds, `-` not applicable, `V` violated.
fn kind(c: &PropCheck) -> char {
    match c {
        PropCheck::Holds => 'H',
        PropCheck::NotApplicable => '-',
        PropCheck::Violated(_) => 'V',
    }
}

/// The markings of an `n`-escrow chain: nobody, then each pid alone
/// (customers `c_0..=c_n`, then escrows `e_0..e_{n-1}`).
fn markings(topo: &ChainTopology) -> Vec<(String, Compliance)> {
    let n = topo.n;
    let mut out = vec![("none".to_owned(), Compliance::all_compliant())];
    for pid in 0..topo.participants() {
        let who = if pid <= n {
            format!("c{pid}")
        } else {
            format!("e{}", pid - n - 1)
        };
        let role = topo.role_of(pid).expect("chain pid");
        out.push((who, Compliance::with_byzantine(vec![role])));
    }
    out
}

/// One row per marking: Definition 1's ES CS1 CS2 CS3 T L on a seeded
/// time-bounded run, then Definition 2's CC ES CS1 CS2 CS3 T weak-L on a
/// trusted-manager weak run.
fn table() -> String {
    let mut out = String::new();
    for n in 1..=4usize {
        let seed = n as u64;
        let tb = ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), seed);
        let mut eng = tb.build_engine(
            Box::new(SyncNet::new(tb.params.delta, 8)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
        );
        let report = eng.run();
        let chain = ChainOutcome::extract(&eng, &tb, report.quiescent);

        let weak = WeakSetup::new(n, ValuePlan::uniform(n, 100), TmKind::Trusted, seed);
        let mut eng = weak.build_engine(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(seed)),
        );
        eng.run();
        let weak_outcome = WeakOutcome::extract(&eng, &weak);

        for (who, compliance) in markings(&tb.chain.topo) {
            let d1 = check_definition1(&chain, &tb, &compliance);
            let d2 = check_definition2(&weak_outcome, &compliance, true);
            let d1: String = [&d1.es, &d1.cs1, &d1.cs2, &d1.cs3, &d1.t, &d1.l]
                .into_iter()
                .map(kind)
                .collect();
            let d2: String = [&d2.cc, &d2.es, &d2.cs1, &d2.cs2, &d2.cs3, &d2.t, &d2.weak_l]
                .into_iter()
                .map(kind)
                .collect();
            out.push_str(&format!("n={n} {who:<4} D1 {d1}  D2 {d2}\n"));
        }
    }
    out
}

/// Recorded while the customers were named `Alice`, `Chloe(i)` and `Bob`
/// and each checker spelled out its own trust conjunctions.
const PINNED: &str = "\
n=1 none D1 HHH-HH  D2 HHHH-HH
n=1 c0   D1 H-H-H-  D2 HH-H-H-
n=1 c1   D1 HH--H-  D2 HHH--H-
n=1 e0   D1 ------  D2 H----H-
n=2 none D1 HHHHHH  D2 HHHHHHH
n=2 c0   D1 H-HHH-  D2 HH-HHH-
n=2 c1   D1 HHH-H-  D2 HHHH-H-
n=2 c2   D1 HH-HH-  D2 HHH-HH-
n=2 e0   D1 H-H-H-  D2 HH-H-H-
n=2 e1   D1 HH--H-  D2 HHH--H-
n=3 none D1 HHHHHH  D2 HHHHHHH
n=3 c0   D1 H-HHH-  D2 HH-HHH-
n=3 c1   D1 HHHHH-  D2 HHHHHH-
n=3 c2   D1 HHHHH-  D2 HHHHHH-
n=3 c3   D1 HH-HH-  D2 HHH-HH-
n=3 e0   D1 H-HHH-  D2 HH-HHH-
n=3 e1   D1 HHH-H-  D2 HHHH-H-
n=3 e2   D1 HH-HH-  D2 HHH-HH-
n=4 none D1 HHHHHH  D2 HHHHHHH
n=4 c0   D1 H-HHH-  D2 HH-HHH-
n=4 c1   D1 HHHHH-  D2 HHHHHH-
n=4 c2   D1 HHHHH-  D2 HHHHHH-
n=4 c3   D1 HHHHH-  D2 HHHHHH-
n=4 c4   D1 HH-HH-  D2 HHH-HH-
n=4 e0   D1 H-HHH-  D2 HH-HHH-
n=4 e1   D1 HHHHH-  D2 HHHHHH-
n=4 e2   D1 HHHHH-  D2 HHHHHH-
n=4 e3   D1 HH-HH-  D2 HHH-HH-
";

#[test]
fn clause_preconditions_follow_the_trust_rule() {
    let actual = table();
    assert_eq!(actual, PINNED, "actual table:\n{actual}");
}
