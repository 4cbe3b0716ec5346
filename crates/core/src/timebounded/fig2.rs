//! Figure 2 as *data*: the declarative ANTA automata for every participant.
//!
//! These specs mirror the executable processes of [`super::escrow`] and
//! [`super::customers`] state-for-state but carry no ledger: the paper's
//! diagram, executable as automata. [`spec`] builds each from the
//! participant's role and the same [`ChainSetup`] as the executable chain
//! (one [`Chain`](crate::Chain) of pids, keys and values, one schedule of
//! bounds), and [`ChainSetup::build_engine_with`] assembles both chains
//! through the one assembly loop, under one engine configuration, network
//! and clock plan. Each process signs with its own key only: an escrow or
//! a connector forwards the χ it received (`r(id, χ)` then `s(id', χ)`), so
//! Bob's signer is used by Bob's automaton alone. Experiment E4 uses them
//! to (a) regenerate Figure 2 as Graphviz DOT and (b) compare them with
//! the executable protocol, narrowly: `experiments::e4::cross_check` runs
//! both on one worst-case deterministic schedule and compares their
//! `(from, to, kind)` send skeletons. No code explores the automata's
//! schedules or checks their safety outcomes.

use super::scenario::ChainSetup;
use crate::msg::{PMsg, PromiseKind, SignedPromise};
use crate::topology::Role;
use anta::automaton::{AutomatonBuilder, AutomatonSpec, VarStore};
use anta::process::Pid;
use ledger::Asset;
use std::sync::Arc;
use xcrypto::{KeyId, PaymentId, Pki, Receipt};

fn is_money(m: &PMsg, payment: PaymentId, asset: Asset) -> bool {
    matches!(m, PMsg::Money { payment: p, asset: a } if *p == payment && *a == asset)
}

fn is_valid_chi(m: &PMsg, payment: PaymentId, pki: &Pki, bob: KeyId) -> bool {
    matches!(m, PMsg::Receipt(chi) if chi.payment == payment && chi.verify(pki, bob))
}

fn is_promise(m: &PMsg, kind: PromiseKind, payment: PaymentId) -> bool {
    matches!(m, PMsg::Promise(p) if p.kind == kind && p.payment == payment)
}

/// The χ whose receipt entered a forwarding state, passed on as received.
fn forward(_: &VarStore, chi: Option<&PMsg>) -> PMsg {
    chi.cloned().expect("entered on a χ receive")
}

/// The escrow `e_i` automaton of Figure 2.
///
/// ```text
/// ● send G(d_i) → ○ await $ → ● send P(a_i), u := now → ○ await χ
///      (from c_i)                    (to c_{i+1})          │  \
///                                      χ in time ──────────┘   \ now ≥ u + a_i
///                                      ● forward χ to c_i       ● send $ to c_i
///                                      ● send $ to c_{i+1}      ○ refunded
///                                      ○ done
/// ```
fn escrow_spec(setup: &ChainSetup, i: usize) -> AutomatonSpec<PMsg> {
    let up: Pid = setup.chain.topo.customer_pid(i);
    let down: Pid = setup.chain.topo.customer_pid(i + 1);
    let payment = setup.chain.payment;
    let asset = setup.chain.plan.amounts[i];
    let a_i = setup.schedule.a[i];
    let d_i = setup.schedule.d[i];
    let signer = setup.chain.escrow_signer(i).clone();
    let signer2 = signer.clone();
    let pki = setup.chain.pki.clone();
    let bob = setup.chain.bob_key();

    let mut b = AutomatonBuilder::new(format!("escrow_{i}"));
    let send_g = b.output_state("send_G");
    let await_money = b.input_state("await_$");
    let send_p = b.output_state("send_P");
    let await_chi = b.input_state("await_chi");
    let fwd_chi = b.output_state("send_chi_up");
    let pay_down = b.output_state("send_$_down");
    let done = b.input_state("done");
    let refund = b.output_state("send_$_refund");
    let refunded = b.input_state("refunded");
    b.clock_vars(1); // u
    b.initial(send_g);

    b.send(
        send_g,
        await_money,
        up,
        move |_, _| {
            PMsg::Promise(SignedPromise::issue(
                &signer,
                PromiseKind::Guarantee,
                payment,
                i,
                d_i,
            ))
        },
        None,
    );
    b.receive(
        await_money,
        send_p,
        up,
        move |m, _| is_money(m, payment, asset),
        None,
    );
    b.send(
        send_p,
        await_chi,
        down,
        move |_, _| {
            PMsg::Promise(SignedPromise::issue(
                &signer2,
                PromiseKind::Promise,
                payment,
                i,
                a_i,
            ))
        },
        // u := now — on leaving the grey state, per Figure 2.
        Some(Arc::new(|st: &mut VarStore, now| st.clocks[0] = now)),
    );
    b.receive(
        await_chi,
        fwd_chi,
        down,
        move |m, _| is_valid_chi(m, payment, &pki, bob),
        None,
    );
    b.send(fwd_chi, pay_down, up, forward, None);
    b.send(
        pay_down,
        done,
        down,
        move |_, _| PMsg::Money { payment, asset },
        None,
    );
    b.timeout(await_chi, refund, 0, a_i, None);
    b.send(
        refund,
        refunded,
        up,
        move |_, _| PMsg::Money { payment, asset },
        None,
    );
    b.build().expect("escrow spec is well-formed")
}

/// Alice's automaton (`c_0`).
fn alice_spec(setup: &ChainSetup) -> AutomatonSpec<PMsg> {
    let escrow = setup.chain.topo.escrow_pid(0);
    let payment = setup.chain.payment;
    let asset = setup.chain.plan.amounts[0];
    let pki = setup.chain.pki.clone();
    let pki2 = setup.chain.pki.clone();
    let bob = setup.chain.bob_key();
    let e0_key = setup.chain.escrow_signer(0).id();

    let mut b = AutomatonBuilder::new("alice");
    let await_g = b.input_state("await_G");
    let pay = b.output_state("send_$");
    let await_outcome = b.input_state("await_outcome");
    let got_refund = b.input_state("refunded");
    let got_chi = b.input_state("got_chi");
    b.initial(await_g);
    b.receive(
        await_g,
        pay,
        escrow,
        move |m, _| {
            is_promise(m, PromiseKind::Guarantee, payment)
                && matches!(m, PMsg::Promise(pr) if pr.verify(&pki, e0_key))
        },
        None,
    );
    b.send(
        pay,
        await_outcome,
        escrow,
        move |_, _| PMsg::Money { payment, asset },
        None,
    );
    b.receive(
        await_outcome,
        got_refund,
        escrow,
        move |m, _| is_money(m, payment, asset),
        None,
    );
    b.receive(
        await_outcome,
        got_chi,
        escrow,
        move |m, _| is_valid_chi(m, payment, &pki2, bob),
        None,
    );
    b.build().expect("alice spec is well-formed")
}

/// Chloe_i's automaton (`c_i`, `0 < i < n`). Promises may arrive in either
/// order (diamond at the start); she forwards the χ she received.
fn chloe_spec(setup: &ChainSetup, i: usize) -> AutomatonSpec<PMsg> {
    let up_escrow = setup.chain.topo.escrow_pid(i - 1);
    let down_escrow = setup.chain.topo.escrow_pid(i);
    let payment = setup.chain.payment;
    let send_asset = setup.chain.plan.amounts[i];
    let recv_asset = setup.chain.plan.amounts[i - 1];
    let pki = setup.chain.pki.clone();
    let bob = setup.chain.bob_key();

    let mut b = AutomatonBuilder::new(format!("chloe_{i}"));
    let start = b.input_state("await_promises");
    let has_g = b.input_state("has_G");
    let has_p = b.input_state("has_P");
    let pay = b.output_state("send_$");
    let await_outcome = b.input_state("await_outcome");
    let refunded = b.input_state("refunded");
    let fwd = b.output_state("fwd_chi");
    let await_reimb = b.input_state("await_reimb");
    let reimbursed = b.input_state("reimbursed");
    b.initial(start);

    let g_guard = move |m: &PMsg, _: &VarStore| is_promise(m, PromiseKind::Guarantee, payment);
    let p_guard = move |m: &PMsg, _: &VarStore| is_promise(m, PromiseKind::Promise, payment);
    b.receive(start, has_g, down_escrow, g_guard, None);
    b.receive(start, has_p, up_escrow, p_guard, None);
    b.receive(has_g, pay, up_escrow, p_guard, None);
    b.receive(has_p, pay, down_escrow, g_guard, None);
    b.send(
        pay,
        await_outcome,
        down_escrow,
        move |_, _| PMsg::Money {
            payment,
            asset: send_asset,
        },
        None,
    );
    b.receive(
        await_outcome,
        refunded,
        down_escrow,
        move |m, _| is_money(m, payment, send_asset),
        None,
    );
    let pki3 = pki.clone();
    b.receive(
        await_outcome,
        fwd,
        down_escrow,
        move |m, _| is_valid_chi(m, payment, &pki3, bob),
        None,
    );
    b.send(fwd, await_reimb, up_escrow, forward, None);
    b.receive(
        await_reimb,
        reimbursed,
        up_escrow,
        move |m, _| is_money(m, payment, recv_asset),
        None,
    );
    b.build().expect("chloe spec is well-formed")
}

/// Bob's automaton (`c_n`): the one χ signer.
fn bob_spec(setup: &ChainSetup) -> AutomatonSpec<PMsg> {
    let n = setup.chain.n();
    let escrow = setup.chain.topo.escrow_pid(n - 1);
    let payment = setup.chain.payment;
    let asset = setup.chain.plan.amounts[n - 1];
    let bob_signer = setup.chain.customer_signer(n).clone();

    let mut b = AutomatonBuilder::new("bob");
    let await_p = b.input_state("await_P");
    let send_chi = b.output_state("send_chi");
    let await_money = b.input_state("await_$");
    let paid = b.input_state("paid");
    b.initial(await_p);
    b.receive(
        await_p,
        send_chi,
        escrow,
        move |m, _| is_promise(m, PromiseKind::Promise, payment),
        None,
    );
    b.send(
        send_chi,
        await_money,
        escrow,
        move |_, _| PMsg::Receipt(Receipt::issue(&bob_signer, payment)),
        None,
    );
    b.receive(
        await_money,
        paid,
        escrow,
        move |m, _| is_money(m, payment, asset),
        None,
    );
    b.build().expect("bob spec is well-formed")
}

/// The Figure 2 automaton of `role` in `setup`'s chain.
pub fn spec(setup: &ChainSetup, role: Role) -> AutomatonSpec<PMsg> {
    match role {
        Role::Customer(0) => alice_spec(setup),
        Role::Customer(i) if i == setup.chain.n() => bob_spec(setup),
        Role::Customer(i) => chloe_spec(setup, i),
        Role::Escrow(i) => escrow_spec(setup, i),
    }
}

/// All Figure 2 specs for a chain, in pid order (customers `c_0..=c_n`,
/// then escrows `e_0..e_{n-1}`).
pub fn all_specs(setup: &ChainSetup) -> Vec<AutomatonSpec<PMsg>> {
    (0..setup.chain.topo.participants())
        .map(|pid| {
            let role = setup.chain.topo.role_of(pid);
            spec(setup, role.expect("pids 0..2n+1 are the chain's"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timebounded::ClockPlan;
    use crate::timing::SyncParams;
    use crate::topology::ValuePlan;
    use anta::automaton::AutomatonProcess;
    use anta::engine::Engine;
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::process::{InertProcess, Process};

    fn params(n: usize) -> ChainSetup {
        ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 5)
    }

    /// The declarative chain, assembled like the executable one, with
    /// `silent`'s automaton replaced by an inert process.
    fn declarative(p: &ChainSetup, net: SyncNet, seed: u64, silent: Option<Role>) -> Engine<PMsg> {
        p.build_engine_with(
            Box::new(net),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Perfect,
            |role| -> Option<Box<dyn Process<PMsg>>> {
                Some(if silent == Some(role) {
                    Box::new(InertProcess)
                } else {
                    Box::new(AutomatonProcess::new(Arc::new(spec(p, role))))
                })
            },
        )
    }

    #[test]
    fn declarative_chain_completes_happy_path() {
        for n in 1..=4 {
            let p = params(n);
            let mut eng = declarative(&p, SyncNet::new(SyncParams::baseline().delta, 8), 3, None);
            eng.run();
            // Alice ends in got_chi, Bob in paid, escrows in done.
            let alice = eng.process_as::<AutomatonProcess<PMsg>>(0).unwrap();
            assert_eq!(alice.state_name(), "got_chi", "n = {n}");
            let bob = eng
                .process_as::<AutomatonProcess<PMsg>>(p.chain.topo.customer_pid(n))
                .unwrap();
            assert_eq!(bob.state_name(), "paid", "n = {n}");
            for i in 0..n {
                let e = eng
                    .process_as::<AutomatonProcess<PMsg>>(p.chain.topo.escrow_pid(i))
                    .unwrap();
                assert_eq!(e.state_name(), "done", "escrow {i}, n = {n}");
            }
            for i in 1..n {
                let c = eng
                    .process_as::<AutomatonProcess<PMsg>>(p.chain.topo.customer_pid(i))
                    .unwrap();
                assert_eq!(c.state_name(), "reimbursed", "chloe {i}, n = {n}");
            }
        }
    }

    #[test]
    fn specs_render_figure2_dot() {
        let p = params(2);
        for spec in all_specs(&p) {
            let dot = spec.to_dot();
            assert!(dot.contains("digraph"));
            assert!(
                dot.contains("fillcolor=grey"),
                "{} has grey states",
                spec.name
            );
        }
        // The escrow automaton has the paper's 9 states and 8 transitions.
        let e = spec(&p, Role::Escrow(0));
        assert_eq!(e.n_states(), 9);
        assert_eq!(e.n_transitions(), 8);
    }

    #[test]
    fn escrow_timeout_path_in_declarative_model() {
        // Drop Bob (replace with an inert process): escrows refund, Alice
        // ends refunded.
        let p = params(2);
        let net = SyncNet::worst_case(SyncParams::baseline().delta);
        let mut eng = declarative(&p, net, 1, Some(Role::Customer(2)));
        eng.run();
        let alice = eng.process_as::<AutomatonProcess<PMsg>>(0).unwrap();
        assert_eq!(alice.state_name(), "refunded");
        let chloe = eng.process_as::<AutomatonProcess<PMsg>>(1).unwrap();
        assert_eq!(chloe.state_name(), "refunded");
        for i in 0..2 {
            let e = eng
                .process_as::<AutomatonProcess<PMsg>>(p.chain.topo.escrow_pid(i))
                .unwrap();
            assert_eq!(e.state_name(), "refunded", "escrow {i}");
        }
    }
}
