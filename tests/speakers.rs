//! Who may speak to an escrow of the paper's two payment protocols: rows
//! of the speaker tables in `payment::timebounded` and `payment::weak`.
//! Both protocols' escrows share one core, which takes `$` only from the
//! upstream customer `c_i`, only for this payment and amount, and only
//! once; a time-bounded escrow takes χ only from the downstream customer
//! `c_{i+1}`. Every process but the escrow under test is a script, so
//! the escrow sees exactly the messages a test sends it, and each sweep
//! has its positive control: the allowed speaker's copy is taken.

use crosschain::anta::engine::Engine;
use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::{Ctx, InertProcess, Pid, Process, TimerId};
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::ledger::Asset;
use crosschain::payment::msg::PMsg;
use crosschain::payment::timebounded::{ChainSetup, ClockPlan, EscrowProcess, EscrowState};
use crosschain::payment::topology::{Chain, Role};
use crosschain::payment::weak::{TmKind, WeakSetup};
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::xcrypto::Receipt;

const N: usize = 2;

/// A scripted participant: sends `(local µs, pid, message)` in order and
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

/// One protocol's n = 2 chain.
enum Setup {
    TimeBounded(ChainSetup),
    Weak(WeakSetup),
}

/// One scripted send: `(local µs, speaker pid, message)`, to the escrow.
type Send = (u64, Pid, PMsg);

impl Setup {
    fn time_bounded() -> Setup {
        let plan = ValuePlan::with_commission(N, 100, 5);
        Setup::TimeBounded(ChainSetup::new(N, plan, SyncParams::baseline(), 31))
    }

    fn weak() -> Setup {
        let plan = ValuePlan::with_commission(N, 100, 5);
        Setup::Weak(WeakSetup::new(N, plan, TmKind::Trusted, 31))
    }

    fn chain(&self) -> &Chain {
        match self {
            Setup::TimeBounded(s) => &s.chain,
            Setup::Weak(s) => &s.chain,
        }
    }

    /// The escrow's lock mark and lock-rejected mark.
    fn lock_marks(&self) -> [&'static str; 2] {
        match self {
            Setup::TimeBounded(_) => ["escrow_locked", "escrow_lock_rejected"],
            Setup::Weak(_) => ["weak_escrow_locked", "weak_escrow_lock_rejected"],
        }
    }

    /// Runs the chain with escrow `e_i` compliant, the weak manager inert
    /// and every other process scripted with `sends`.
    fn run(&self, i: usize, sends: &[Send]) -> Engine<PMsg> {
        let topo = &self.chain().topo;
        let escrow = topo.escrow_pid(i);
        let script = |role| {
            let pid = match role {
                Role::Customer(j) => topo.customer_pid(j),
                Role::Escrow(j) => topo.escrow_pid(j),
            };
            let mine = sends.iter().filter(|s| s.1 == pid);
            let mine = mine
                .map(|(at, _, msg)| (*at, escrow, msg.clone()))
                .collect();
            (pid != escrow).then(|| Box::new(Script(mine)) as Box<dyn Process<PMsg>>)
        };
        let net = Box::new(SyncNet::worst_case(SimDuration::from_millis(1)));
        let oracle = Box::new(RandomOracle::seeded(0));
        let mut eng = match self {
            Setup::TimeBounded(s) => s.build_engine_with(net, oracle, ClockPlan::Perfect, script),
            Setup::Weak(s) => s.build_engine_with(net, oracle, script, |_| {
                Some(Box::new(InertProcess) as Box<dyn Process<PMsg>>)
            }),
        };
        eng.run();
        eng
    }

    /// How often escrow `e_i` locked, and how often its lock was
    /// rejected, when sent `sends`.
    fn locks(&self, i: usize, sends: &[Send]) -> [usize; 2] {
        let eng = self.run(i, sends);
        self.lock_marks().map(|m| eng.trace().marks(m).count())
    }
}

/// `$` for hop `i` of this payment.
fn money(c: &Chain, i: usize) -> PMsg {
    PMsg::Money {
        payment: c.payment,
        asset: c.plan.amounts[i],
    }
}

/// Escrow `e_i` locks `$` from `c_i` and ignores the same `$` from every
/// other pid of the chain.
fn takes_money_only_from_its_upstream_customer(setup: Setup) {
    let c = setup.chain();
    for i in 0..N {
        for speaker in (0..c.topo.participants()).filter(|&p| p != c.topo.escrow_pid(i)) {
            let want = usize::from(speaker == c.topo.customer_pid(i));
            assert_eq!(
                setup.locks(i, &[(1_000, speaker, money(c, i))]),
                [want, 0],
                "{:?} e_{i}, $ from pid {speaker}",
                setup.lock_marks()
            );
        }
    }
}

/// Escrow `e_i` ignores `$` for another payment or amount, and a second
/// `$` after its lock.
fn locks_only_this_payments_amount_and_only_once(setup: Setup) {
    let c = setup.chain();
    for i in 0..N {
        let up = c.topo.customer_pid(i);
        let mut other_payment = c.payment;
        other_payment.0[0] ^= 1;
        let v = c.plan.amounts[i];
        let wrong = [
            PMsg::Money {
                payment: other_payment,
                asset: v,
            },
            PMsg::Money {
                payment: c.payment,
                asset: Asset::new(v.currency, v.amount - 1),
            },
        ];
        for msg in wrong {
            assert_eq!(
                setup.locks(i, &[(1_000, up, msg.clone())]),
                [0, 0],
                "{msg:?}"
            );
        }
        // A second `$` after the lock is ignored, not re-tried: the book
        // holds no second cover, so a retry would be rejected.
        let twice = [(1_000, up, money(c, i)), (2_000, up, money(c, i))];
        assert_eq!(
            setup.locks(i, &twice),
            [1, 0],
            "{:?} e_{i}",
            setup.lock_marks()
        );
    }
}

#[test]
fn a_timebounded_escrow_takes_money_only_from_its_upstream_customer() {
    takes_money_only_from_its_upstream_customer(Setup::time_bounded());
}

#[test]
fn a_weak_escrow_takes_money_only_from_its_upstream_customer() {
    takes_money_only_from_its_upstream_customer(Setup::weak());
}

#[test]
fn a_timebounded_escrow_locks_only_this_payments_amount_and_only_once() {
    locks_only_this_payments_amount_and_only_once(Setup::time_bounded());
}

#[test]
fn a_weak_escrow_locks_only_this_payments_amount_and_only_once() {
    locks_only_this_payments_amount_and_only_once(Setup::weak());
}

#[test]
fn a_timebounded_escrow_takes_chi_only_from_its_downstream_customer() {
    let setup = Setup::time_bounded();
    let c = setup.chain();
    let chi = PMsg::Receipt(Receipt::issue(c.customer_signer(N), c.payment));
    for i in 0..N {
        let escrow = c.topo.escrow_pid(i);
        for speaker in (0..c.topo.participants()).filter(|&p| p != escrow) {
            // c_i pays at 1 ms; Bob's valid χ leaves `speaker` at 3 ms and
            // arrives long before u + a_i.
            let sends = [
                (1_000, c.topo.customer_pid(i), money(c, i)),
                (3_000, speaker, chi.clone()),
            ];
            let eng = setup.run(i, &sends);
            let state = eng
                .process_as::<EscrowProcess>(escrow)
                .map(EscrowProcess::state);
            let paid = speaker == c.topo.customer_pid(i + 1);
            let want = if paid {
                EscrowState::Paid
            } else {
                EscrowState::Refunded
            };
            assert_eq!(state, Some(want), "e_{i}, χ from pid {speaker}");
        }
    }
}
