//! Executable checkers for the paper's correctness properties.
//!
//! Definitions 1 and 2 quantify over protocol executions ("for each
//! participant…", "upon termination…"). This module turns each clause into
//! a decidable predicate over a finished run's extracted outcome, given
//! which participants were substituted by Byzantine strategies. The
//! experiments evaluate these predicates over thousands of randomized and
//! exhaustively-explored runs; a single `Violated` anywhere falsifies the
//! corresponding theorem's claim for this implementation.
//!
//! The conditionality of the paper's clauses is encoded precisely: safety
//! for a customer is only promised *"provided her escrow(s) abide by the
//! protocol"*, strong liveness only *"if all parties abide"*. Clauses whose
//! precondition fails return [`PropCheck::NotApplicable`] rather than
//! `Holds`, so reports distinguish "verified" from "vacuous".

use crate::timebounded::{ChainOutcome, ChainSetup, CustomerOutcome};
use crate::topology::Role;
use crate::weak::WeakOutcome;
use xcrypto::Verdict;

/// Result of checking one property clause on one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropCheck {
    /// The clause's precondition held and the conclusion was verified.
    Holds,
    /// The clause was violated; the string says how.
    Violated(String),
    /// The clause's precondition did not apply to this run.
    NotApplicable,
}

impl PropCheck {
    /// True unless violated.
    pub fn ok(&self) -> bool {
        !matches!(self, PropCheck::Violated(_))
    }

    fn and_also(self, other: PropCheck) -> PropCheck {
        match (self, other) {
            (v @ PropCheck::Violated(_), _) => v,
            (_, v @ PropCheck::Violated(_)) => v,
            (PropCheck::Holds, _) | (_, PropCheck::Holds) => PropCheck::Holds,
            _ => PropCheck::NotApplicable,
        }
    }
}

/// Which participants abide by the protocol in a run.
#[derive(Debug, Clone, Default)]
pub struct Compliance {
    byzantine: Vec<Role>,
}

impl Compliance {
    /// Everybody abides.
    pub fn all_compliant() -> Self {
        Compliance::default()
    }

    /// The given roles were substituted by non-abiding processes.
    pub fn with_byzantine(byzantine: Vec<Role>) -> Self {
        Compliance { byzantine }
    }

    /// Whether `role` abides.
    pub fn abides(&self, role: Role) -> bool {
        !self.byzantine.contains(&role)
    }

    /// Whether every participant abides.
    pub fn all_abide(&self) -> bool {
        self.byzantine.is_empty()
    }

    /// The trust rule: customer `c_i` of an `n`-escrow chain abides, and so
    /// does every escrow she trusts (`e_{i-1}` if `i > 0`, `e_i` if
    /// `i < n`). Each customer clause holds only "provided her escrow(s)
    /// abide by the protocol".
    pub fn protects(&self, i: usize, n: usize) -> bool {
        self.abides(Role::Customer(i))
            && (i == 0 || self.abides(Role::Escrow(i - 1)))
            && (i == n || self.abides(Role::Escrow(i)))
    }
}

/// ES — no abiding escrow loses money. `conservation[i]` is escrow `e_i`'s
/// book audit, `None` where its state could not be read.
fn escrow_security(conservation: &[Option<bool>], compliance: &Compliance) -> PropCheck {
    let mut es = PropCheck::NotApplicable;
    for (i, audit) in conservation.iter().enumerate() {
        if !compliance.abides(Role::Escrow(i)) {
            continue;
        }
        es = es.and_also(match audit {
            Some(true) => PropCheck::Holds,
            Some(false) => PropCheck::Violated(format!("escrow {i} lost money")),
            None => PropCheck::Violated(format!("escrow {i} state unreadable")),
        });
    }
    es
}

/// Verdicts for every clause of Definition 1 (time-bounded problem).
#[derive(Debug, Clone)]
pub struct Definition1Verdicts {
    /// ES — no abiding escrow loses money.
    pub es: PropCheck,
    /// CS1 — Alice ends with her money back or with χ.
    pub cs1: PropCheck,
    /// CS2 — Bob ends paid or having never issued χ.
    pub cs2: PropCheck,
    /// CS3 — every abiding connector ends whole.
    pub cs3: PropCheck,
    /// T — abiding customers terminate, Alice within the a-priori bound.
    pub t: PropCheck,
    /// L — all abiding ⇒ Bob is paid.
    pub l: PropCheck,
}

impl Definition1Verdicts {
    /// Every clause, labelled, in the Definition's order.
    pub fn clauses(&self) -> [(&'static str, &PropCheck); 6] {
        [
            ("ES", &self.es),
            ("CS1", &self.cs1),
            ("CS2", &self.cs2),
            ("CS3", &self.cs3),
            ("T", &self.t),
            ("L", &self.l),
        ]
    }

    /// True when no clause is violated.
    pub fn all_ok(&self) -> bool {
        self.clauses().iter().all(|(_, check)| check.ok())
    }

    /// All violations, labelled.
    pub fn violations(&self) -> Vec<(&'static str, String)> {
        violated(&self.clauses())
    }
}

/// The violated clauses among `clauses`, labelled, in order.
fn violated(clauses: &[(&'static str, &PropCheck)]) -> Vec<(&'static str, String)> {
    clauses
        .iter()
        .filter_map(|&(name, check)| match check {
            PropCheck::Violated(why) => Some((name, why.clone())),
            _ => None,
        })
        .collect()
}

/// Checks Definition 1 against a finished time-bounded run.
pub fn check_definition1(
    outcome: &ChainOutcome,
    setup: &ChainSetup,
    compliance: &Compliance,
) -> Definition1Verdicts {
    let n = outcome.n;
    let es = escrow_security(&outcome.conservation, compliance);

    // CS1 — Alice.
    let cs1 = if compliance.protects(0, n) {
        match outcome.customers[0] {
            Some(view) => match (view.sent_money, view.halted_at.is_some(), view.outcome) {
                (false, _, _) => PropCheck::Holds, // never parted with money
                (true, true, CustomerOutcome::Refunded | CustomerOutcome::GotReceipt) => {
                    PropCheck::Holds
                }
                (true, true, other) => {
                    PropCheck::Violated(format!("Alice terminated as {other:?}"))
                }
                (true, false, _) => PropCheck::NotApplicable, // termination is T's business
            },
            None => PropCheck::Violated("compliant Alice unreadable".into()),
        }
    } else {
        PropCheck::NotApplicable
    };

    // CS2 — Bob.
    let cs2 = if compliance.protects(n, n) {
        match (outcome.customers[n], outcome.bob_issued_chi) {
            (Some(view), Some(issued)) => {
                if view.halted_at.is_some() || outcome.quiescent {
                    if issued && view.outcome != CustomerOutcome::Paid {
                        PropCheck::Violated("Bob issued χ but was not paid".into())
                    } else {
                        PropCheck::Holds
                    }
                } else {
                    PropCheck::NotApplicable
                }
            }
            _ => PropCheck::Violated("compliant Bob unreadable".into()),
        }
    } else {
        PropCheck::NotApplicable
    };

    // CS3 — each connector.
    let mut cs3 = PropCheck::NotApplicable;
    for i in (1..n).filter(|&i| compliance.protects(i, n)) {
        let check = match outcome.customers[i] {
            Some(view) => match (view.sent_money, view.halted_at.is_some(), view.outcome) {
                (false, _, _) => PropCheck::Holds,
                (true, true, CustomerOutcome::Refunded | CustomerOutcome::Reimbursed) => {
                    match outcome.net_positions[i] {
                        Some(net) if net < 0 => {
                            PropCheck::Violated(format!("Chloe{i} terminated {net} out of pocket"))
                        }
                        _ => PropCheck::Holds,
                    }
                }
                (true, true, other) => {
                    PropCheck::Violated(format!("Chloe{i} terminated as {other:?}"))
                }
                (true, false, _) => PropCheck::NotApplicable,
            },
            None => PropCheck::Violated(format!("compliant Chloe{i} unreadable")),
        };
        cs3 = cs3.and_also(check);
    }

    // T — abiding customers (with abiding escrows) terminate; Alice within
    // her a-priori bound. Only meaningful on quiescent runs (otherwise the
    // horizon, not the protocol, stopped the clock).
    let t = if outcome.quiescent {
        let mut t = PropCheck::NotApplicable;
        for i in (0..=n).filter(|&i| compliance.protects(i, n)) {
            // The T clause covers customers that made a payment or issued
            // a certificate.
            let engaged = match outcome.customers[i] {
                Some(v) => v.sent_money || (i == n && outcome.bob_issued_chi == Some(true)),
                None => false,
            };
            if !engaged {
                continue;
            }
            let check = match outcome.customers[i] {
                Some(view) if view.halted_at.is_some() => PropCheck::Holds,
                Some(_) => PropCheck::Violated(format!("customer {i} never terminated")),
                None => PropCheck::Violated(format!("compliant customer {i} unreadable")),
            };
            t = t.and_also(check);
        }
        // Alice's time bound.
        if let (Some(view), Some(sent)) = (outcome.customers[0], outcome.alice_sent_local) {
            if compliance.protects(0, n) {
                if let Some(halt_local) = view.halted_local {
                    let elapsed = halt_local.saturating_since(sent);
                    if elapsed > setup.schedule.alice_bound {
                        t = t.and_also(PropCheck::Violated(format!(
                            "Alice terminated after {elapsed}, bound {}",
                            setup.schedule.alice_bound
                        )));
                    } else {
                        t = t.and_also(PropCheck::Holds);
                    }
                }
            }
        }
        t
    } else {
        PropCheck::NotApplicable
    };

    // L — all abide ⇒ Bob paid.
    let l = if compliance.all_abide() {
        if outcome.bob_paid() {
            PropCheck::Holds
        } else {
            PropCheck::Violated("all parties abided but Bob was not paid".into())
        }
    } else {
        PropCheck::NotApplicable
    };

    Definition1Verdicts {
        es,
        cs1,
        cs2,
        cs3,
        t,
        l,
    }
}

/// Verdicts for every clause of Definition 2 (weak problem).
#[derive(Debug, Clone)]
pub struct Definition2Verdicts {
    /// CC — never both χc and χa.
    pub cc: PropCheck,
    /// ES — as in Definition 1.
    pub es: PropCheck,
    /// CS1 (weak) — Alice ends with money back or χc.
    pub cs1: PropCheck,
    /// CS2 (weak) — Bob ends paid or holding χa.
    pub cs2: PropCheck,
    /// CS3 — connectors end whole.
    pub cs3: PropCheck,
    /// T — abiding customers terminate.
    pub t: PropCheck,
    /// Weak L — all abiding and patient ⇒ Bob eventually paid.
    pub weak_l: PropCheck,
}

impl Definition2Verdicts {
    /// Every clause, labelled, in the Definition's order.
    pub fn clauses(&self) -> [(&'static str, &PropCheck); 7] {
        [
            ("CC", &self.cc),
            ("ES", &self.es),
            ("CS1w", &self.cs1),
            ("CS2w", &self.cs2),
            ("CS3", &self.cs3),
            ("T", &self.t),
            ("weakL", &self.weak_l),
        ]
    }

    /// True when no clause is violated.
    pub fn all_ok(&self) -> bool {
        self.clauses().iter().all(|(_, check)| check.ok())
    }

    /// All violations, labelled.
    pub fn violations(&self) -> Vec<(&'static str, String)> {
        violated(&self.clauses())
    }
}

/// Checks Definition 2 against a finished weak-protocol run.
///
/// `everyone_patient` must be true iff no compliant customer was configured
/// to lose patience — the precondition of weak liveness.
pub fn check_definition2(
    outcome: &WeakOutcome,
    compliance: &Compliance,
    everyone_patient: bool,
) -> Definition2Verdicts {
    let n = outcome.n;

    let cc = if outcome.cc_ok {
        PropCheck::Holds
    } else {
        PropCheck::Violated("both χc and χa were accepted".into())
    };

    let es = escrow_security(&outcome.conservation, compliance);

    // CS1 (weak): upon termination Alice has her money back or holds χc.
    let cs1 = if compliance.protects(0, n) {
        match (outcome.customer_verdicts[0], outcome.net_positions[0]) {
            (Some(Some(Verdict::Commit)), _) => PropCheck::Holds, // holds χc
            (Some(Some(Verdict::Abort)), Some(net)) => {
                if net == 0 {
                    PropCheck::Holds
                } else {
                    PropCheck::Violated(format!("Alice aborted yet net {net}"))
                }
            }
            (Some(None), _) => PropCheck::NotApplicable, // not terminated: T's business
            (Some(Some(Verdict::Abort)), None) => {
                PropCheck::Violated("Alice's position unreadable".into())
            }
            (None, _) => PropCheck::Violated("compliant Alice unreadable".into()),
        }
    } else {
        PropCheck::NotApplicable
    };

    // CS2 (weak): Bob ends paid or holding χa.
    let cs2 = if compliance.protects(n, n) {
        match outcome.customer_verdicts[n] {
            Some(Some(Verdict::Commit)) => {
                if outcome.bob_paid {
                    PropCheck::Holds
                } else {
                    PropCheck::Violated("χc accepted but Bob unpaid".into())
                }
            }
            Some(Some(Verdict::Abort)) => PropCheck::Holds, // holds χa
            Some(None) => PropCheck::NotApplicable,
            None => PropCheck::Violated("compliant Bob unreadable".into()),
        }
    } else {
        PropCheck::NotApplicable
    };

    let mut cs3 = PropCheck::NotApplicable;
    for i in (1..n).filter(|&i| compliance.protects(i, n)) {
        let check = match (outcome.customer_verdicts[i], outcome.net_positions[i]) {
            (Some(Some(_)), Some(net)) if net >= 0 => PropCheck::Holds,
            (Some(Some(_)), Some(net)) => {
                PropCheck::Violated(format!("Chloe{i} terminated {net} out of pocket"))
            }
            (Some(None), _) => PropCheck::NotApplicable,
            _ => PropCheck::Violated(format!("compliant Chloe{i} unreadable")),
        };
        cs3 = cs3.and_also(check);
    }

    // T: abiding customers terminate eventually (all of ours do, on the
    // decision certificate). The manager, not an escrow, sends that
    // certificate, so this clause asks only that the customer abides.
    let t = if (0..=n)
        .all(|i| !compliance.abides(Role::Customer(i)) || outcome.customer_verdicts[i].is_none())
    {
        PropCheck::NotApplicable
    } else if outcome.all_customers_terminated {
        PropCheck::Holds
    } else {
        // Compliant customers not terminated: a violation only if a
        // decision certificate should have reached them. With no decision
        // at all (e.g. a withholding participant and nobody impatient) the
        // run simply has not terminated yet — the paper's T for the weak
        // protocol is conditional on the manager reaching a decision,
        // which patience policies guarantee for abiding customers.
        match outcome.verdict() {
            Some(_) => PropCheck::Violated(
                "a decision exists but some compliant customer never terminated".into(),
            ),
            None => PropCheck::NotApplicable,
        }
    };

    // Weak liveness: all abide + all patient ⇒ Bob paid.
    let weak_l = if compliance.all_abide() && everyone_patient {
        if outcome.bob_paid {
            PropCheck::Holds
        } else {
            PropCheck::Violated("all patient and abiding, yet Bob unpaid".into())
        }
    } else {
        PropCheck::NotApplicable
    };

    Definition2Verdicts {
        cc,
        es,
        cs1,
        cs2,
        cs3,
        t,
        weak_l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timebounded::{ChainSetup, ClockPlan};
    use crate::timing::SyncParams;
    use crate::topology::ValuePlan;
    use crate::weak::{Patience, TmKind, WeakOutcome, WeakSetup};
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::time::SimDuration;

    fn run_tb(n: usize, seed: u64) -> (ChainOutcome, ChainSetup) {
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 5);
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(setup.params.delta, 8)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
        );
        let report = eng.run();
        (ChainOutcome::extract(&eng, &setup, report.quiescent), setup)
    }

    #[test]
    fn definition1_holds_on_happy_paths() {
        for n in 1..=5 {
            let (outcome, setup) = run_tb(n, n as u64);
            let v = check_definition1(&outcome, &setup, &Compliance::all_compliant());
            assert!(v.all_ok(), "n = {n}: {:?}", v.violations());
            assert_eq!(v.l, PropCheck::Holds);
            assert_eq!(v.es, PropCheck::Holds);
        }
    }

    #[test]
    fn definition1_detects_seeded_cs2_violation() {
        // Fabricate an outcome where Bob issued χ but ended unpaid.
        let (mut outcome, setup) = run_tb(2, 3);
        outcome.bob_issued_chi = Some(true);
        if let Some(view) = outcome.customers[2].as_mut() {
            view.outcome = CustomerOutcome::Pending;
        }
        let v = check_definition1(&outcome, &setup, &Compliance::all_compliant());
        assert!(!v.cs2.ok());
        assert!(v.violations().iter().any(|(name, _)| *name == "CS2"));
    }

    #[test]
    fn definition1_detects_seeded_cs3_violation() {
        let (mut outcome, setup) = run_tb(3, 4);
        outcome.net_positions[1] = Some(-100);
        let v = check_definition1(&outcome, &setup, &Compliance::all_compliant());
        assert!(!v.cs3.ok());
    }

    #[test]
    fn definition1_clauses_vacuous_under_byzantine_preconditions() {
        let (outcome, setup) = run_tb(2, 5);
        // With e_0 Byzantine, CS1 and L are not applicable.
        let c = Compliance::with_byzantine(vec![Role::Escrow(0)]);
        let v = check_definition1(&outcome, &setup, &c);
        assert_eq!(v.cs1, PropCheck::NotApplicable);
        assert_eq!(v.l, PropCheck::NotApplicable);
        // ES still applies to the other escrow.
        assert_eq!(v.es, PropCheck::Holds);
    }

    #[test]
    fn definition1_alice_bound_violation_detected() {
        let (mut outcome, setup) = run_tb(1, 6);
        // Pretend Alice halted far beyond the bound.
        outcome.alice_sent_local = Some(anta::time::SimTime::ZERO);
        if let Some(view) = outcome.customers[0].as_mut() {
            view.halted_local = Some(anta::time::SimTime::ZERO + setup.schedule.alice_bound * 3);
        }
        let v = check_definition1(&outcome, &setup, &Compliance::all_compliant());
        assert!(!v.t.ok());
    }

    fn run_weak(setup: &WeakSetup, seed: u64) -> WeakOutcome {
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(seed)),
        );
        eng.run();
        WeakOutcome::extract(&eng, setup)
    }

    #[test]
    fn definition2_holds_on_patient_runs() {
        for kind in [
            TmKind::Trusted,
            TmKind::Contract,
            TmKind::Committee { k: 4 },
        ] {
            let s = WeakSetup::new(2, ValuePlan::uniform(2, 100), kind, 11);
            let o = run_weak(&s, 1);
            let v = check_definition2(&o, &Compliance::all_compliant(), true);
            assert!(v.all_ok(), "{kind:?}: {:?}", v.violations());
            assert_eq!(v.weak_l, PropCheck::Holds, "{kind:?}");
        }
    }

    #[test]
    fn definition2_holds_on_impatient_runs() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, 12)
            .with_patience(1, Patience::until(SimDuration::from_millis(1)));
        let o = run_weak(&s, 2);
        let v = check_definition2(&o, &Compliance::all_compliant(), false);
        assert!(v.all_ok(), "{:?}", v.violations());
        // weak L is vacuous when someone is impatient.
        assert_eq!(v.weak_l, PropCheck::NotApplicable);
    }

    #[test]
    fn definition2_detects_cc_violation() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, 13);
        let mut o = run_weak(&s, 3);
        o.cc_ok = false;
        let v = check_definition2(&o, &Compliance::all_compliant(), true);
        assert!(!v.cc.ok());
    }

    #[test]
    fn definition2_detects_unpaid_commit() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, 14);
        let mut o = run_weak(&s, 4);
        o.bob_paid = false; // χc exists but money never moved
        let v = check_definition2(&o, &Compliance::all_compliant(), true);
        assert!(!v.cs2.ok());
        assert!(!v.weak_l.ok());
    }

    #[test]
    fn propcheck_combinators() {
        assert!(PropCheck::Holds.ok());
        assert!(PropCheck::NotApplicable.ok());
        assert!(!PropCheck::Violated("x".into()).ok());
        assert_eq!(
            PropCheck::Holds.and_also(PropCheck::NotApplicable),
            PropCheck::Holds
        );
        assert!(!PropCheck::Holds
            .and_also(PropCheck::Violated("y".into()))
            .ok());
    }
}
