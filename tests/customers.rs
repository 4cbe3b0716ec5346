//! The time-bounded customers against hostile escrows. Every escrow of an
//! n = 2 chain is a script, so each customer (c_0, the connector c_1 and
//! c_2 = Bob) sees exactly the messages a test sends it:
//!
//! * a `G` or `P` whose bound is off the schedule ends the run at
//!   `Refused`: the customer halts and sends neither $ nor χ;
//! * a message from the wrong sender, for the wrong payment or amount,
//!   under a bad signature, a duplicate promise, and χ or money that
//!   arrives before the customer has paid are all ignored: alone they
//!   move the customer to nothing, and among the honest promises it pays
//!   exactly once and stays pending;
//! * a connector forwards χ once, and then only `e_{i-1}`'s payment ends
//!   its run.

use crosschain::anta::engine::Engine;
use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::{Ctx, Pid, Process, TimerId};
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::anta::trace::TraceKind;
use crosschain::ledger::Asset;
use crosschain::payment::msg::{PMsg, PromiseKind, SignedPromise};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
use crosschain::payment::topology::Role;
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::xcrypto::{PaymentId, Receipt};

const N: usize = 2;

fn setup() -> ChainSetup {
    ChainSetup::new(
        N,
        ValuePlan::with_commission(N, 100, 5),
        SyncParams::baseline(),
        21,
    )
}

/// A scripted escrow: sends `(local µs, pid, message)` in order and
/// ignores what it receives.
struct Script(Vec<(u64, Pid, PMsg)>);

impl Process<PMsg> for Script {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        for (i, (at, _, _)) in self.0.iter().enumerate() {
            ctx.set_timer_at(i as TimerId, SimTime::from_ticks(*at));
        }
    }
    fn on_message(&mut self, _from: Pid, _msg: PMsg, _ctx: &mut Ctx<PMsg>) {}
    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        let (_, to, msg) = self.0[id as usize].clone();
        ctx.send(to, msg);
    }
    fn fp_digest(&self) -> u64 {
        0
    }
}

/// One scripted send `(escrow, customer, message)`: escrow `e_j` sends the
/// message to customer `c_i`.
type Step = (usize, usize, PMsg);

/// Runs the chain with every escrow scripted; steps go out 1 ms apart in
/// the order given. Returns the engine and the extracted outcome.
fn run(s: &ChainSetup, steps: Vec<Step>) -> (Engine<PMsg>, ChainOutcome) {
    let mut scripts: Vec<Vec<(u64, Pid, PMsg)>> = vec![Vec::new(); N];
    for (k, (e, i, msg)) in steps.into_iter().enumerate() {
        let at = 1_000 * (k as u64 + 1);
        scripts[e].push((at, s.chain.topo.customer_pid(i), msg));
    }
    let mut scripts = scripts.into_iter().map(Some).collect::<Vec<_>>();
    let mut eng = s.build_engine_with(
        Box::new(SyncNet::worst_case(SimDuration::from_millis(1))),
        Box::new(RandomOracle::seeded(0)),
        ClockPlan::Perfect,
        |role| match role {
            Role::Escrow(e) => {
                let script = scripts[e].take().expect("one process per escrow");
                Some(Box::new(Script(script)) as Box<dyn Process<PMsg>>)
            }
            _ => None,
        },
    );
    let report = eng.run();
    let outcome = ChainOutcome::extract(&eng, s, report.quiescent);
    (eng, outcome)
}

/// Everything customer `i` sent, as `(recipient pid, message)`.
fn sent_by(eng: &Engine<PMsg>, s: &ChainSetup, i: usize) -> Vec<(Pid, PMsg)> {
    let pid = s.chain.topo.customer_pid(i);
    eng.trace()
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            TraceKind::Sent { from, to, msg } if *from == pid => Some((*to, msg.clone())),
            _ => None,
        })
        .collect()
}

fn promise(s: &ChainSetup, signer: usize, kind: PromiseKind, e: usize, bound: SimDuration) -> PMsg {
    PMsg::Promise(SignedPromise::issue(
        s.chain.escrow_signer(signer),
        kind,
        s.chain.payment,
        e,
        bound,
    ))
}

/// The promises customer `i` awaits, as steps from their honest issuers:
/// `G(d_i)` from `e_i` unless `i` is Bob, `P(a_{i-1})` from `e_{i-1}`
/// unless `i` is Alice.
fn honest(s: &ChainSetup, i: usize) -> Vec<Step> {
    let mut out = Vec::new();
    if i < N {
        let msg = promise(s, i, PromiseKind::Guarantee, i, s.schedule.d[i]);
        out.push((i, i, msg));
    }
    if i > 0 {
        let msg = promise(s, i - 1, PromiseKind::Promise, i - 1, s.schedule.a[i - 1]);
        out.push((i - 1, i, msg));
    }
    out
}

/// `step` with its promise's bound moved by `by` ticks (re-signed by the
/// honest issuer).
fn off_bound(s: &ChainSetup, step: &Step, by: i64) -> Step {
    let PMsg::Promise(p) = &step.2 else {
        panic!("not a promise")
    };
    let bound = SimDuration::from_ticks(p.bound.ticks().checked_add_signed(by).unwrap());
    (
        step.0,
        step.1,
        promise(s, p.escrow_index, p.kind, p.escrow_index, bound),
    )
}

fn money(s: &ChainSetup, hop: usize) -> PMsg {
    PMsg::Money {
        payment: s.chain.payment,
        asset: s.chain.plan.amounts[hop],
    }
}

fn chi(s: &ChainSetup) -> PMsg {
    PMsg::Receipt(Receipt::issue(s.chain.customer_signer(N), s.chain.payment))
}

fn other_payment(s: &ChainSetup) -> PaymentId {
    let mut id = s.chain.payment;
    id.0[0] ^= 1;
    id
}

/// The one message customer `i` sends once its promises are in: $ to
/// `e_i`, or Bob's χ to `e_{n-1}`.
fn payment_of(s: &ChainSetup, i: usize) -> (Pid, PMsg) {
    if i < N {
        (s.chain.topo.escrow_pid(i), money(s, i))
    } else {
        (s.chain.topo.escrow_pid(N - 1), chi(s))
    }
}

#[test]
fn an_off_schedule_bound_is_refused_and_nothing_is_sent() {
    let s = setup();
    for i in 0..=N {
        let promises = honest(&s, i);
        for (k, bad) in promises.iter().enumerate() {
            for by in [-1, 1] {
                // The other side's honest promise first, so only the bad
                // bound stands between the customer and paying.
                let mut steps = honest(&s, i);
                steps.remove(k);
                steps.push(off_bound(&s, bad, by));
                // Honest promises after the refusal change nothing.
                steps.extend(honest(&s, i));
                let (eng, o) = run(&s, steps);
                let view = o.customers[i].expect("compliant customer");
                let case = format!("c_{i}, promise {k}, bound {by:+} tick");
                assert_eq!(view.outcome, CustomerOutcome::Refused, "{case}");
                assert!(view.halted_at.is_some(), "{case}: halts");
                assert!(!view.sent_money, "{case}");
                assert_eq!(sent_by(&eng, &s, i), vec![], "{case}: sends nothing");
                if i == N {
                    assert_eq!(o.bob_issued_chi, Some(false), "{case}");
                }
            }
        }
    }
}

#[test]
fn hostile_inputs_are_ignored_and_the_customer_pays_once() {
    let s = setup();
    for i in 0..=N {
        let mut steps = Vec::new();
        // Before any promise: χ and money from each neighbour.
        for e in [i.checked_sub(1), (i < N).then_some(i)]
            .into_iter()
            .flatten()
        {
            steps.push((e, i, chi(&s)));
            steps.push((e, i, money(&s, e)));
        }
        for honest_step in honest(&s, i) {
            let PMsg::Promise(p) = honest_step.2 else {
                unreachable!()
            };
            let e = p.escrow_index;
            let other = 1 - e;
            // Wrong sender: the honest promise from the other escrow.
            steps.push((other, i, honest_step.2.clone()));
            // Wrong payment, honestly signed.
            let wrong = SignedPromise::issue(
                s.chain.escrow_signer(e),
                p.kind,
                other_payment(&s),
                e,
                p.bound,
            );
            steps.push((e, i, PMsg::Promise(wrong)));
            // Bad signatures: the other escrow's key, and a bound that
            // is not the one signed.
            steps.push((e, i, promise(&s, other, p.kind, e, p.bound)));
            let mut forged = SignedPromise::issue(
                s.chain.escrow_signer(e),
                p.kind,
                s.chain.payment,
                e,
                p.bound + SimDuration::from_ticks(1),
            );
            forged.bound = p.bound;
            steps.push((e, i, PMsg::Promise(forged)));
        }
        // Alone, none of it moves the customer.
        let (eng, o) = run(&s, steps.clone());
        assert_eq!(sent_by(&eng, &s, i), vec![], "c_{i} acts on hostile input");
        let view = o.customers[i].expect("compliant customer");
        assert_eq!(view.outcome, CustomerOutcome::Pending, "c_{i}");
        // The honest promises, each followed by a duplicate that is off
        // the schedule: a promise already in is not read again.
        for honest_step in honest(&s, i) {
            let dup = off_bound(&s, &honest_step, 1);
            steps.push(honest_step);
            steps.push(dup);
        }
        // After paying: a refund of the wrong amount or payment, χ not
        // signed by Bob, and Bob's χ for another payment.
        if i < N {
            let wrong_amount = PMsg::Money {
                payment: s.chain.payment,
                asset: Asset {
                    amount: s.chain.plan.amounts[i].amount + 1,
                    ..s.chain.plan.amounts[i]
                },
            };
            let wrong_payment = PMsg::Money {
                payment: other_payment(&s),
                asset: s.chain.plan.amounts[i],
            };
            let bad_chi =
                PMsg::Receipt(Receipt::issue(s.chain.customer_signer(i), s.chain.payment));
            let other_chi = PMsg::Receipt(Receipt::issue(
                s.chain.customer_signer(N),
                other_payment(&s),
            ));
            for msg in [wrong_amount, wrong_payment, bad_chi, other_chi] {
                steps.push((i, i, msg));
            }
        }
        if i > 0 {
            let wrong_amount = PMsg::Money {
                payment: s.chain.payment,
                asset: Asset {
                    amount: s.chain.plan.amounts[i - 1].amount + 1,
                    ..s.chain.plan.amounts[i - 1]
                },
            };
            steps.push((i - 1, i, wrong_amount));
        }
        let (eng, o) = run(&s, steps);
        let view = o.customers[i].expect("compliant customer");
        assert_eq!(view.outcome, CustomerOutcome::Pending, "c_{i}");
        assert!(view.halted_at.is_none(), "c_{i} keeps waiting");
        assert_eq!(
            sent_by(&eng, &s, i),
            vec![payment_of(&s, i)],
            "c_{i} pays once"
        );
        assert_eq!(view.sent_money, i < N, "c_{i}");
        if i == N {
            assert_eq!(o.bob_issued_chi, Some(true));
        }
    }
}

#[test]
fn a_connector_forwards_chi_once_and_then_waits_for_upstream() {
    let s = setup();
    let mut steps = honest(&s, 1);
    // χ from e_1 is forwarded to e_0; after that, neither a second χ nor
    // a refund from e_1 is read, and only e_0's payment ends the run.
    steps.push((1, 1, chi(&s)));
    steps.push((1, 1, chi(&s)));
    steps.push((1, 1, money(&s, 1)));
    steps.push((0, 1, money(&s, 0)));
    let (eng, o) = run(&s, steps);
    let view = o.customers[1].expect("compliant customer");
    assert_eq!(view.outcome, CustomerOutcome::Reimbursed);
    assert_eq!(
        sent_by(&eng, &s, 1),
        vec![payment_of(&s, 1), (s.chain.topo.escrow_pid(0), chi(&s))]
    );
}
