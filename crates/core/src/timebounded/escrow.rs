//! Escrow `e_i` of the time-bounded protocol — the executable counterpart
//! of Figure 2's escrow automaton: the escrow core both protocols share
//! (the book, the guarded lock on `$` from `c_i`, release and refund) plus
//! this protocol's rule, the race of χ against `u + a_i`.
//!
//! The paper's description (§4): *"An escrow e_i first sends promise G(d_i)
//! to its (upstream) customer c_i. … Then it awaits receipt of the
//! money/value from customer c_i. If the money does arrive, the escrow
//! issues promise P(a_i) to its downstream customer c_{i+1}. It remembers
//! the time this promise was issued as u. Then it awaits receipt of the
//! certificate χ from customer c_{i+1}. If χ does not arrive by time
//! u + a_i, a time-out occurs, and the escrow refunds the money to customer
//! c_i. If it does arrive in time, the escrow reacts by forwarding the
//! certificate to customer c_i, and forwarding the money to customer
//! c_{i+1}."*
//!
//! [`super::fig2`]'s automaton mirrors it one-for-one and forwards the χ it
//! received just as this process does. Only `experiments::e4::cross_check`
//! compares the two, on the send skeleton of one worst-case schedule.

use super::scenario::ChainSetup;
use crate::escrow::EscrowCore;
use crate::msg::{PMsg, PromiseKind, SignedPromise};
use anta::fingerprint::{fingerprint, Stamp};
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::{SimDuration, SimTime};
use ledger::{Ledger, Marks};
use xcrypto::KeyId;

/// Escrow control states (Figure 2's white states; the grey states are
/// transient within a single handler).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EscrowState {
    /// Waiting for $ from the upstream customer (after sending `G(d_i)`).
    #[default]
    AwaitMoney,
    /// Waiting for χ from the downstream customer (after sending `P(a_i)`),
    /// racing the timeout `now ≥ u + a_i`.
    AwaitChi,
    /// χ arrived in time: certificate forwarded upstream, money released
    /// downstream.
    Paid,
    /// Timed out: money refunded upstream.
    Refunded,
}

const TIMER_CHI: TimerId = 1;

/// The time-bounded escrow's lifecycle labels.
pub const ESCROW_MARKS: Marks = Marks {
    locked: "escrow_locked",
    lock_rejected: "escrow_lock_rejected",
    released: "escrow_released",
    refunded: "escrow_refunded",
};

/// The executable escrow: the shared escrow core plus the χ race.
#[derive(Debug, Clone)]
pub struct EscrowProcess {
    core: EscrowCore<RaceState>,
    /// The key χ must verify under.
    bob_key: KeyId,
    /// Promise bounds from the timeout calculus.
    a_i: SimDuration,
    d_i: SimDuration,
}

/// The χ race's run state, kept in the core beside the book. `u` is a
/// [`Stamp`], hashed by presence: [`Process::fp_times`] feeds it while the
/// `now ≥ u + a_i` race is live, as a clock residue rather than an
/// absolute instant.
#[derive(Debug, Clone, Default, Hash)]
struct RaceState {
    state: EscrowState,
    /// `u := now` — local issuance time of `P(a_i)`.
    u: Stamp,
}

impl EscrowProcess {
    /// Builds escrow `e_i` of `setup`'s chain. `ledger` must already hold
    /// accounts for `c_i` and `c_{i+1}`; an abiding `c_i` is funded to
    /// cover `v_i` ([`Chain::escrow_book`](crate::topology::Chain::escrow_book)).
    pub fn new(setup: &ChainSetup, i: usize, ledger: Ledger) -> Self {
        EscrowProcess {
            core: EscrowCore::new(&setup.chain, i, ledger, &ESCROW_MARKS, RaceState::default()),
            bob_key: setup.chain.bob_key(),
            a_i: setup.schedule.a[i],
            d_i: setup.schedule.d[i],
        }
    }

    /// Current control state.
    pub fn state(&self) -> EscrowState {
        self.core.st.rule.state
    }

    /// The escrow's book (for conservation audits and balance assertions).
    pub fn ledger(&self) -> &Ledger {
        &self.core.st.ledger
    }

    fn promise(&self, kind: PromiseKind, bound: SimDuration) -> PMsg {
        let c = &self.core;
        PMsg::Promise(SignedPromise::issue(
            &c.signer, kind, c.payment, c.index, bound,
        ))
    }
}

impl Process<PMsg> for EscrowProcess {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        // Grey state: issue G(d_i) to the upstream customer.
        ctx.send(self.core.up, self.promise(PromiseKind::Guarantee, self.d_i));
        ctx.mark("escrow_sent_g", self.core.index as i64);
    }

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        let index = self.core.index as i64;
        match msg {
            PMsg::Money { payment, asset } => {
                if !self.core.lock(from, payment, asset, ctx) {
                    return;
                }
                // Grey state: issue P(a_i) downstream; u := now.
                let u = ctx.now();
                self.core.st.rule.u.set(u);
                ctx.send(self.core.down, self.promise(PromiseKind::Promise, self.a_i));
                ctx.mark("escrow_sent_p", index);
                // Arm the time-out `now ≥ u + a_i`.
                ctx.set_timer_at(TIMER_CHI, u + self.a_i);
                self.core.st.rule.state = EscrowState::AwaitChi;
            }
            PMsg::Receipt(chi) if self.state() == EscrowState::AwaitChi => {
                if from != self.core.down {
                    return;
                }
                // Authenticity: χ must be Bob's signature over this payment.
                if chi.payment != self.core.payment || !chi.verify(&self.core.pki, self.bob_key) {
                    ctx.mark("escrow_bad_chi", index);
                    return;
                }
                // Timeliness: the P(a) promise covers χ received at local
                // time v < u + a_i only.
                let u = self.core.st.rule.u.get();
                let u = u.expect("AwaitChi is entered with u := now");
                if ctx.now() >= u + self.a_i {
                    ctx.mark("escrow_late_chi", index);
                    return; // the timer will refund
                }
                // Grey-state chain of Figure 2: s(c_i, χ) then s(c_{i+1}, $).
                ctx.send(self.core.up, PMsg::Receipt(chi));
                self.core.settle(true, ctx);
                self.core.st.rule.state = EscrowState::Paid;
                ctx.halt();
            }
            _ => {} // anything else is out of protocol; an abiding escrow ignores it
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        if id == TIMER_CHI && self.state() == EscrowState::AwaitChi {
            self.core.settle(false, ctx);
            self.core.st.rule.state = EscrowState::Refunded;
            ctx.halt();
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.core.st)
    }

    /// `u` is future-relevant only while the `now ≥ u + a_i` race is live;
    /// once resolved it is a past time, abstracted out of the fingerprint.
    fn fp_times(&self, out: &mut Vec<SimTime>) {
        if self.state() == EscrowState::AwaitChi {
            out.extend(self.core.st.rule.u.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::SyncParams;
    use crate::topology::ValuePlan;
    use anta::clock::DriftClock;
    use anta::engine::{Engine, EngineConfig};
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::process::InertProcess;
    use ledger::{Asset, CurrencyId};
    use xcrypto::{PaymentId, Receipt, Signer};

    /// Harness: a one-escrow chain carrying 50 — the escrow `e_0` at
    /// pid 2, its customers scripted at pids 0 (up, Alice) and 1 (down,
    /// Bob).
    struct Rig {
        setup: ChainSetup,
        up_signer: Signer,
        down_signer: Signer,
        payment: PaymentId,
        asset: Asset,
    }

    fn rig() -> Rig {
        let setup = ChainSetup::new(1, ValuePlan::uniform(1, 50), SyncParams::baseline(), 11);
        Rig {
            up_signer: setup.chain.customer_signer(0).clone(),
            down_signer: setup.chain.customer_signer(1).clone(),
            payment: setup.chain.payment,
            asset: setup.chain.plan.amounts[0],
            setup,
        }
    }

    fn escrow_of(r: &Rig) -> EscrowProcess {
        EscrowProcess::new(&r.setup, 0, r.setup.chain.escrow_book(0))
    }

    /// A scripted customer that sends a canned sequence of messages at
    /// fixed local times and records everything it receives.
    #[derive(Debug, Clone)]
    struct Script {
        sends: Vec<(u64 /*local µs*/, Pid, PMsg)>,
        received: Vec<PMsg>,
    }

    impl Script {
        fn new(sends: Vec<(u64, Pid, PMsg)>) -> Self {
            Script {
                sends,
                received: Vec::new(),
            }
        }
    }

    impl Process<PMsg> for Script {
        fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
            for (i, (at, _, _)) in self.sends.iter().enumerate() {
                ctx.set_timer_at(i as u64, SimTime::from_ticks(*at));
            }
        }
        fn on_message(&mut self, _f: Pid, m: PMsg, _c: &mut Ctx<PMsg>) {
            self.received.push(m);
        }
        fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
            let (_, to, msg) = self.sends[id as usize].clone();
            ctx.send(to, msg);
        }
        fn fp_digest(&self) -> u64 {
            anta::fingerprint::fingerprint(&self.received)
        }
    }

    fn run(r: &Rig, up: Script, down: Script) -> Engine<PMsg> {
        let mut eng = Engine::new(
            Box::new(SyncNet::worst_case(SimDuration::from_millis(1))),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        eng.add_process(Box::new(up), DriftClock::perfect());
        eng.add_process(Box::new(down), DriftClock::perfect());
        eng.add_process(Box::new(escrow_of(r)), DriftClock::perfect());
        eng.run_until(SimTime::from_secs(600));
        eng
    }

    #[test]
    fn happy_path_releases_downstream() {
        let r = rig();
        let chi = Receipt::issue(&r.down_signer, r.payment);
        let up = Script::new(vec![(
            5_000,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        // Down replies with χ shortly after the P promise would arrive.
        let down = Script::new(vec![(10_000, 2, PMsg::Receipt(chi))]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::Paid);
        assert_eq!(e.ledger().balance(r.down_signer.id(), CurrencyId(0)), 50);
        assert_eq!(e.ledger().balance(r.up_signer.id(), CurrencyId(0)), 0);
        e.ledger().check_conservation().unwrap();
        // χ was forwarded upstream.
        let up_proc = eng.process_as::<Script>(0).unwrap();
        assert!(up_proc
            .received
            .iter()
            .any(|m| matches!(m, PMsg::Receipt(_))));
    }

    #[test]
    fn timeout_refunds_upstream() {
        let r = rig();
        let up = Script::new(vec![(
            5_000,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        let down = Script::new(vec![]); // never sends χ
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::Refunded);
        assert_eq!(e.ledger().balance(r.up_signer.id(), CurrencyId(0)), 50);
        e.ledger().check_conservation().unwrap();
        // Refund notification went up.
        let up_proc = eng.process_as::<Script>(0).unwrap();
        assert!(up_proc
            .received
            .iter()
            .any(|m| matches!(m, PMsg::Money { .. })));
    }

    #[test]
    fn late_chi_is_refused() {
        let r = rig();
        let chi = Receipt::issue(&r.down_signer, r.payment);
        let a0 = r.setup.schedule.a[0].ticks();
        let up = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        // χ sent well after u + a_0.
        let down = Script::new(vec![(a0 + 50_000, 2, PMsg::Receipt(chi))]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::Refunded, "late χ must not pay out");
        assert_eq!(e.ledger().balance(r.up_signer.id(), CurrencyId(0)), 50);
    }

    #[test]
    fn forged_chi_rejected() {
        let r = rig();
        // χ signed by the WRONG key (the upstream customer, not Bob).
        let forged = Receipt::issue(&r.up_signer, r.payment);
        let up = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        let down = Script::new(vec![(5_000, 2, PMsg::Receipt(forged))]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::Refunded);
        assert!(eng.trace().marks("escrow_bad_chi").count() == 1);
    }

    #[test]
    fn wrong_payment_chi_rejected() {
        let r = rig();
        let other_payment = PaymentId::derive(999, &[r.up_signer.id()]);
        let chi = Receipt::issue(&r.down_signer, other_payment);
        let up = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        let down = Script::new(vec![(5_000, 2, PMsg::Receipt(chi))]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::Refunded);
    }

    #[test]
    fn money_from_wrong_party_ignored() {
        let r = rig();
        let up = Script::new(vec![]);
        // The DOWNSTREAM party tries to inject money.
        let down = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::AwaitMoney, "still waiting");
        assert!(!e.core.locked());
    }

    #[test]
    fn wrong_amount_ignored() {
        let r = rig();
        let up = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: Asset::new(CurrencyId(0), 49),
            },
        )]);
        let down = Script::new(vec![]);
        let eng = run(&r, up, down);
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::AwaitMoney);
    }

    #[test]
    fn unfunded_customer_cannot_lock() {
        let r = rig();
        // Build an escrow whose book has no funds for the upstream party.
        let mut book = Ledger::new();
        book.open_account(r.up_signer.id()).unwrap();
        book.open_account(r.down_signer.id()).unwrap();
        let escrow = EscrowProcess::new(&r.setup, 0, book);
        let mut eng = Engine::new(
            Box::new(SyncNet::worst_case(SimDuration::from_millis(1))),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let up = Script::new(vec![(
            0,
            2,
            PMsg::Money {
                payment: r.payment,
                asset: r.asset,
            },
        )]);
        eng.add_process(Box::new(up), DriftClock::perfect());
        eng.add_process(Box::new(InertProcess), DriftClock::perfect());
        eng.add_process(Box::new(escrow), DriftClock::perfect());
        eng.run();
        let e = eng.process_as::<EscrowProcess>(2).unwrap();
        assert_eq!(e.state(), EscrowState::AwaitMoney);
        assert_eq!(eng.trace().marks("escrow_lock_rejected").count(), 1);
        e.ledger().check_conservation().unwrap();
    }
}
