//! Executable witnesses for Theorem 2.
//!
//! *"If communications are partially synchronous, there is no eventually
//! terminating cross-chain payment protocol."* Code cannot re-prove a
//! universally quantified impossibility, but it can mechanise the proof's
//! argument and exhibit it on every concrete candidate in this repository:
//!
//! 1. **Deadline-based candidates** (the Theorem 1 protocol, for *any*
//!    finite timeout schedule): a partially synchronous adversary delays χ
//!    past the deadline. The escrow refunds while the certificate is in
//!    flight — violating CS2 (Bob issued χ, never paid) or CS3 (a
//!    connector paid downstream, never reimbursed).
//! 2. **Infinitely patient candidates** (timeouts stripped): against a
//!    crashed Bob, the money stays escrowed and Alice never terminates —
//!    violating T.
//! 3. **The indistinguishability argument** that forces this dilemma: the
//!    escrow `e_{n-1}`'s observations in run A ("Bob crashed, χ will never
//!    come") and run B ("χ merely delayed") are *identical* up to its
//!    deadline, so any protocol must react identically — refunding breaks
//!    safety in B, waiting breaks termination in A. The
//!    [`indistinguishability_pair`] function executes both runs and checks
//!    the prefix equality and the conflicting obligations machine-side.

use crate::msg::PMsg;
use crate::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
use crate::timing::{SyncParams, TimeoutSchedule};
use crate::topology::{Role, ValuePlan};
use anta::net::{AdversarialNet, EnvelopeMeta, SyncNet};
use anta::oracle::FixedOracle;
use anta::process::InertProcess;
use anta::time::{SimDuration, SimTime};
use anta::trace::TraceKind;

/// A demonstrated violation on one candidate protocol.
#[derive(Debug, Clone)]
pub struct WitnessReport {
    /// Which candidate was attacked.
    pub candidate: &'static str,
    /// Which Definition 1 property the attack targets.
    pub violated: &'static str,
    /// Whether the run actually broke that property.
    pub witnessed: bool,
    /// Human-readable account of the run.
    pub description: String,
}

/// Witness 1a: the time-bounded protocol under a partially synchronous
/// adversary that delays Bob's χ beyond `a_{n-1}` — CS2 falls.
pub fn cs2_violation_under_partial_synchrony(n: usize, value: u64) -> WitnessReport {
    let setup = ChainSetup::new(n, ValuePlan::uniform(n, value), SyncParams::baseline(), 77);
    let delta = setup.params.delta;
    let bob_pid = setup.chain.topo.customer_pid(n);
    let escrow_pid = setup.chain.topo.escrow_pid(n - 1);
    // Delay only Bob→e_{n-1} χ traffic by more than the whole schedule —
    // legal before GST in a partially synchronous network.
    let extra = setup.schedule.d[0] * 4;
    let net = AdversarialNet::delaying(delta, extra, move |m: &EnvelopeMeta, msg: &PMsg| {
        m.from == bob_pid && m.to == escrow_pid && matches!(msg, PMsg::Receipt(_))
    });
    let mut eng = setup.build_engine(
        Box::new(net),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
    );
    let report = eng.run();
    let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
    let issued = outcome.bob_issued_chi == Some(true);
    let paid = outcome.bob_paid();
    WitnessReport {
        candidate: "time-bounded protocol (any finite schedule)",
        violated: "CS2",
        witnessed: issued && !paid,
        description: format!(
            "n = {n}: adversary held χ for {extra} (> a_{} = {}); e_{} timed out and \
             refunded; Bob issued χ yet was never paid",
            n - 1,
            setup.schedule.a[n - 1],
            n - 1
        ),
    }
}

/// Witness 1b: delaying a *connector's* forwarded χ instead — CS3 falls
/// (the connector paid downstream but the upstream escrow refunds Alice).
/// Requires `n ≥ 2`.
pub fn cs3_violation_under_partial_synchrony(n: usize, value: u64) -> WitnessReport {
    assert!(n >= 2, "needs a connector");
    let setup = ChainSetup::new(n, ValuePlan::uniform(n, value), SyncParams::baseline(), 78);
    let delta = setup.params.delta;
    let chloe_pid = setup.chain.topo.customer_pid(n - 1);
    let up_escrow_pid = setup.chain.topo.escrow_pid(n - 2);
    let extra = setup.schedule.d[0] * 4;
    let net = AdversarialNet::delaying(delta, extra, move |m: &EnvelopeMeta, msg: &PMsg| {
        m.from == chloe_pid && m.to == up_escrow_pid && matches!(msg, PMsg::Receipt(_))
    });
    let mut eng = setup.build_engine(
        Box::new(net),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
    );
    let report = eng.run();
    let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
    // The run substitutes no process, so Chloe and both her escrows are
    // the compliant ones the outcome can read.
    let view = outcome.customers[n - 1].expect("no process is substituted");
    let net_pos = outcome.net_positions[n - 1].expect("no escrow is substituted");
    WitnessReport {
        candidate: "time-bounded protocol (any finite schedule)",
        violated: "CS3",
        witnessed: view.sent_money && net_pos < 0,
        description: format!(
            "n = {n}: Chloe{} paid {value} downstream (χ accepted at e_{}), but her \
             forwarded χ was delayed past e_{}'s deadline; she terminated {net_pos} \
             out of pocket",
            n - 1,
            n - 1,
            n - 2
        ),
    }
}

/// Witness 2: strip the timeouts (an "eventually terminating" candidate
/// that never gives up) and crash Bob — termination falls.
pub fn no_timeout_never_terminates(n: usize, value: u64) -> WitnessReport {
    let params = SyncParams::baseline();
    // A schedule with absurdly long deadlines models the protocol variant
    // that "waits forever" (within any finite horizon we run).
    let forever = TimeoutSchedule {
        a: vec![SimDuration::from_secs(10_000_000); n],
        d: vec![SimDuration::from_secs(10_000_001); n],
        epsilon: SimDuration::from_secs(1),
        alice_bound: SimDuration::from_secs(10_000_002),
    };
    let setup = ChainSetup::new(n, ValuePlan::uniform(n, value), params, 79).with_schedule(forever);
    let mut eng = setup.build_engine_with(
        Box::new(SyncNet::worst_case(setup.params.delta)),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
        |role| (role == Role::Customer(n)).then(|| Box::new(InertProcess) as Box<_>),
    );
    // Even a generous horizon (an hour of simulated time) sees no
    // progress: the money is escrowed, Alice unresolved.
    let _ = eng.run_until(SimTime::from_secs(3_600));
    let outcome = ChainOutcome::extract(&eng, &setup, false);
    let alice = outcome.customers[0].expect("only Bob is substituted");
    WitnessReport {
        candidate: "timeout-free variant (infinite patience)",
        violated: "T",
        witnessed: alice.sent_money && alice.halted_at.is_none(),
        description: format!(
            "n = {n}: Bob crashed after the money was escrowed; with no timeout the \
             escrows hold the value forever and Alice never terminates"
        ),
    }
}

/// The executable indistinguishability pair behind Theorem 2.
#[derive(Debug, Clone)]
pub struct IndistinguishabilityWitness {
    /// Deliveries observed by `e_{n-1}` up to its deadline — identical in
    /// both runs.
    pub shared_prefix: Vec<String>,
    /// In run A (Bob crashed) the refund was correct.
    pub run_a_refund_correct: bool,
    /// In run B (χ delayed by the network) the same refund violates CS2.
    pub run_b_cs2_violated: bool,
}

/// Runs the two indistinguishable executions and checks the dilemma.
pub fn indistinguishability_pair(n: usize, value: u64) -> IndistinguishabilityWitness {
    let make_setup =
        || ChainSetup::new(n, ValuePlan::uniform(n, value), SyncParams::baseline(), 80);
    let setup_a = make_setup();
    let setup_b = make_setup();
    let bob_pid = setup_a.chain.topo.customer_pid(n);
    let escrow_pid = setup_a.chain.topo.escrow_pid(n - 1);
    let delta = setup_a.params.delta;

    // Run A: Bob has crashed. Fully synchronous network.
    let mut eng_a = setup_a.build_engine_with(
        Box::new(SyncNet::worst_case(delta)),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
        |role| (role == Role::Customer(n)).then(|| Box::new(InertProcess) as Box<_>),
    );
    let report_a = eng_a.run();

    // Run B: Bob abides; the (partially synchronous) network delays his χ
    // beyond the deadline.
    let extra = setup_b.schedule.d[0] * 4;
    let net_b = AdversarialNet::delaying(delta, extra, move |m: &EnvelopeMeta, msg: &PMsg| {
        m.from == bob_pid && m.to == escrow_pid && matches!(msg, PMsg::Receipt(_))
    });
    let mut eng_b = setup_b.build_engine(
        Box::new(net_b),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
    );
    let report_b = eng_b.run();

    // The deliveries e_{n-1} saw before its timeout fired, as
    // (sender, message-kind) pairs.
    let deadline_of = |eng: &anta::engine::Engine<PMsg>| {
        eng.trace()
            .events
            .iter()
            .find_map(|e| match e.kind {
                TraceKind::TimerFired { pid, .. } if pid == escrow_pid => Some(e.real),
                _ => None,
            })
            .expect("escrow timeout fired")
    };
    let prefix_of = |eng: &anta::engine::Engine<PMsg>, until: SimTime| {
        eng.trace()
            .events
            .iter()
            .filter(|e| e.real <= until)
            .filter_map(|e| match &e.kind {
                TraceKind::Delivered { from, to, msg } if *to == escrow_pid => {
                    Some(format!("r({from}, {})", msg.kind()))
                }
                _ => None,
            })
            .collect::<Vec<String>>()
    };
    let t_a = deadline_of(&eng_a);
    let t_b = deadline_of(&eng_b);
    let prefix_a = prefix_of(&eng_a, t_a);
    let prefix_b = prefix_of(&eng_b, t_b);
    assert_eq!(
        prefix_a,
        prefix_b,
        "the two runs must be indistinguishable at e_{} up to its deadline",
        n - 1
    );

    let outcome_a = ChainOutcome::extract(&eng_a, &setup_a, report_a.quiescent);
    let outcome_b = ChainOutcome::extract(&eng_b, &setup_b, report_b.quiescent);
    // Run A: refund is the right call — every compliant customer whole.
    let a_ok = outcome_a.customers[0]
        .map(|v| v.outcome == CustomerOutcome::Refunded)
        .unwrap_or(false)
        && outcome_a.net_positions[0] == Some(0);
    // Run B: the same refund strands compliant Bob — χ issued, no money.
    let b_violated = outcome_b.bob_issued_chi == Some(true) && !outcome_b.bob_paid();
    IndistinguishabilityWitness {
        shared_prefix: prefix_a,
        run_a_refund_correct: a_ok,
        run_b_cs2_violated: b_violated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs2_witness_materialises() {
        for n in [1usize, 2, 4] {
            let w = cs2_violation_under_partial_synchrony(n, 100);
            assert!(w.witnessed, "n = {n}: {w:?}");
            assert_eq!(w.violated, "CS2");
            assert!(w.description.contains("refunded"));
        }
    }

    #[test]
    fn cs3_witness_materialises() {
        for n in [2usize, 3, 5] {
            let w = cs3_violation_under_partial_synchrony(n, 100);
            assert!(w.witnessed, "n = {n}: {w:?}");
            assert_eq!(w.violated, "CS3");
            assert!(w.description.contains("out of pocket"));
        }
    }

    #[test]
    fn no_timeout_witness_materialises() {
        let w = no_timeout_never_terminates(2, 100);
        assert!(w.witnessed, "{w:?}");
        assert_eq!(w.violated, "T");
    }

    #[test]
    fn indistinguishability_pair_checks_out() {
        for n in [1usize, 3] {
            let w = indistinguishability_pair(n, 100);
            assert!(
                w.run_a_refund_correct,
                "n = {n}: refund must be correct when Bob crashed"
            );
            assert!(
                w.run_b_cs2_violated,
                "n = {n}: the same refund must violate CS2 when χ was merely slow"
            );
            // The prefix contains the money arriving but never χ.
            assert!(w.shared_prefix.iter().any(|s| s.contains("$")));
            assert!(!w.shared_prefix.iter().any(|s| s.contains("chi")));
        }
    }
}
