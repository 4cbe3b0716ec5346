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
//!
//! Every witness is one of the argument's two runs, each built in one
//! place: run A (`bob_crashed`) replaces Bob with an inert process on a
//! worst-case synchronous network, and run B (`chi_delayed`) lets every
//! process abide while the network holds one customer's χ to one escrow
//! for 4·d₀. Witnesses 1a and 1b are run B (Bob's χ, then a connector's),
//! witness 2 is run A under a schedule that never times out.

use crate::msg::PMsg;
use crate::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome, ESCROW_MARKS};
use crate::timing::{SyncParams, TimeoutSchedule};
use crate::topology::{Role, ValuePlan};
use anta::engine::Engine;
use anta::net::{AdversarialNet, EnvelopeMeta, SyncNet};
use anta::oracle::FixedOracle;
use anta::process::{InertProcess, Pid};
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

/// The chain every witness attacks: `n` hops of `value`, baseline
/// synchrony bounds, keys from `seed`.
fn chain(n: usize, value: u64, seed: u64) -> ChainSetup {
    ChainSetup::new(
        n,
        ValuePlan::uniform(n, value),
        SyncParams::baseline(),
        seed,
    )
}

/// Run A: Bob (`c_n`) has crashed, on a worst-case synchronous network.
/// The engine is returned unrun.
fn bob_crashed(setup: &ChainSetup) -> Engine<PMsg> {
    let bob = Role::Customer(setup.chain.topo.n);
    setup.build_engine_with(
        Box::new(SyncNet::worst_case(setup.params.delta)),
        Box::new(FixedOracle::maximal()),
        ClockPlan::Perfect,
        |role| (role == bob).then(|| Box::new(InertProcess) as Box<_>),
    )
}

/// Run B: everyone abides, but the network holds the χ that `from` sends
/// to escrow `to` for 4·d₀, longer than the whole schedule (legal before
/// GST in a partially synchronous network). Returns the unrun engine and
/// the hold.
fn chi_delayed(setup: &ChainSetup, from: Pid, to: Pid) -> (Engine<PMsg>, SimDuration) {
    let hold = setup.schedule.d[0] * 4;
    let net = AdversarialNet::delaying(setup.params.delta, hold, move |m: &EnvelopeMeta, msg| {
        m.from == from && m.to == to && matches!(msg, PMsg::Receipt(_))
    });
    let oracle = Box::new(FixedOracle::maximal());
    (
        setup.build_engine(Box::new(net), oracle, ClockPlan::Perfect),
        hold,
    )
}

/// Witness 1a: the time-bounded protocol under a partially synchronous
/// adversary that delays Bob's χ beyond `a_{n-1}` — CS2 falls.
pub fn cs2_violation_under_partial_synchrony(n: usize, value: u64) -> WitnessReport {
    let setup = chain(n, value, 77);
    let topo = &setup.chain.topo;
    let (mut eng, extra) = chi_delayed(&setup, topo.customer_pid(n), topo.escrow_pid(n - 1));
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
    let setup = chain(n, value, 78);
    let topo = &setup.chain.topo;
    let (mut eng, _) = chi_delayed(&setup, topo.customer_pid(n - 1), topo.escrow_pid(n - 2));
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
    // A schedule with absurdly long deadlines models the protocol variant
    // that "waits forever" (within any finite horizon we run).
    let forever = TimeoutSchedule {
        a: vec![SimDuration::from_secs(10_000_000); n],
        d: vec![SimDuration::from_secs(10_000_001); n],
        epsilon: SimDuration::from_secs(1),
        alice_bound: SimDuration::from_secs(10_000_002),
    };
    let setup = chain(n, value, 79).with_schedule(forever);
    let mut eng = bob_crashed(&setup);
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
    let setup = chain(n, value, 80);
    let bob_pid = setup.chain.topo.customer_pid(n);
    let escrow_pid = setup.chain.topo.escrow_pid(n - 1);
    let mut eng_a = bob_crashed(&setup);
    let report_a = eng_a.run();
    let (mut eng_b, _) = chi_delayed(&setup, bob_pid, escrow_pid);
    let report_b = eng_b.run();

    // The deliveries e_{n-1} saw up to its refund on timeout, as
    // (sender, message-kind) pairs.
    let prefix_of = |eng: &Engine<PMsg>| {
        let trace = eng.trace();
        let deadline = trace.first_mark(escrow_pid, ESCROW_MARKS.refunded);
        let deadline = deadline.expect("the escrow refunds on timeout");
        let seen = trace.events.iter().filter(|e| e.real <= deadline);
        seen.filter_map(|e| match &e.kind {
            TraceKind::Delivered { from, to, msg } if *to == escrow_pid => {
                Some(format!("r({from}, {})", msg.kind()))
            }
            _ => None,
        })
        .collect::<Vec<String>>()
    };
    let prefix_a = prefix_of(&eng_a);
    assert_eq!(
        prefix_a,
        prefix_of(&eng_b),
        "the two runs must be indistinguishable at e_{} up to its deadline",
        n - 1
    );

    let outcome_a = ChainOutcome::extract(&eng_a, &setup, report_a.quiescent);
    let outcome_b = ChainOutcome::extract(&eng_b, &setup, report_b.quiescent);
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
