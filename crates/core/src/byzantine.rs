//! Byzantine participant strategies — fault injection for the safety
//! claims.
//!
//! The paper's safety properties (ES, CS1–CS3, CC) are unconditional on
//! the *other* participants' behaviour: "These requirements do not assume
//! that any other participant abides by the protocol, and should hold no
//! matter how malicious the other participants turn out to be" — except
//! that a customer's security presumes her own escrow(s) abide. The
//! strategies here exercise exactly those quantifiers: each substitutes
//! one (or more) participants with an adversarial process, and the tests
//! assert via [`crate::properties`] that everyone else keeps their
//! guarantees.

use crate::msg::{PMsg, TmInput, TmInputKind};
use crate::timebounded::ChainSetup;
use crate::weak::WeakSetup;
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::{SimDuration, SimTime};
use xcrypto::{PaymentId, Receipt, Signer};

/// Wraps any process and crashes it (silently drops all events) once the
/// local clock passes `at`. Models fail-stop at an arbitrary protocol
/// step.
pub struct CrashAfter {
    inner: Box<dyn Process<PMsg>>,
    at: SimDuration,
    crashed: bool,
}

/// Timer id reserved for the crash fuse (far outside protocol ranges).
const CRASH_TIMER: TimerId = u64::MAX;

impl CrashAfter {
    /// Crashes `inner` at local time `at`.
    pub fn new(inner: Box<dyn Process<PMsg>>, at: SimDuration) -> Self {
        CrashAfter {
            inner,
            at,
            crashed: false,
        }
    }
}

impl Process<PMsg> for CrashAfter {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        ctx.set_timer_after(CRASH_TIMER, self.at);
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if !self.crashed {
            self.inner.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        if id == CRASH_TIMER {
            self.crashed = true;
            ctx.mark("crashed", 0);
            return;
        }
        if !self.crashed {
            self.inner.on_timer(id, ctx);
        }
    }

    /// `at` is setup (the pending crash is a queued timer). The inner
    /// digest is forwarded as it is, and so are the inner timeout anchors
    /// while the inner process can still act: dropping them would merge
    /// states whose live timeout races differ.
    fn fp_digest(&self) -> u64 {
        let CrashAfter {
            inner,
            at: _,
            crashed,
        } = self;
        fingerprint(&(inner.fp_digest(), crashed))
    }

    fn fp_times(&self, out: &mut Vec<SimTime>) {
        if !self.crashed {
            self.inner.fp_times(out);
        }
    }
}

/// A Bob that deliberately issues χ *late*: he waits `delay` after
/// receiving `P(a_{n-1})` before sending the certificate — past the
/// escrow's deadline if `delay` exceeds it. A late Bob is not abiding, so
/// CS2 does not protect him; the tests assert everyone else stays whole.
#[derive(Debug, Clone)]
pub struct LateBob {
    escrow: Pid,
    signer: Signer,
    payment: PaymentId,
    delay: SimDuration,
    st: LateBobState,
}

/// Whether he has started sitting on χ; the rest of [`LateBob`] is setup.
#[derive(Debug, Clone, Hash)]
struct LateBobState {
    issued: bool,
}

const LATE_TIMER: TimerId = 7;

impl LateBob {
    /// Builds `setup`'s Bob, sitting on χ for `delay`.
    pub fn new(setup: &ChainSetup, delay: SimDuration) -> Self {
        let n = setup.chain.n();
        LateBob {
            escrow: setup.chain.topo.escrow_pid(n - 1),
            signer: setup.chain.customer_signer(n).clone(),
            payment: setup.chain.payment,
            delay,
            st: LateBobState { issued: false },
        }
    }
}

impl Process<PMsg> for LateBob {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if from == self.escrow && matches!(msg, PMsg::Promise(_)) && !self.st.issued {
            self.st.issued = true;
            ctx.set_timer_after(LATE_TIMER, self.delay);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        if id == LATE_TIMER {
            let chi = Receipt::issue(&self.signer, self.payment);
            ctx.send(self.escrow, PMsg::Receipt(chi));
            ctx.mark("late_bob_sent_chi", 0);
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// A connector that tries to fabricate χ (signing it herself) instead of
/// paying downstream — the classic theft attempt, defeated by
/// authentication.
#[derive(Debug, Clone)]
pub struct ForgingChloe {
    up_escrow: Pid,
    signer: Signer,
    payment: PaymentId,
    st: ForgingChloeState,
}

/// Whether she has sent her forgery; the rest of [`ForgingChloe`] is setup.
#[derive(Debug, Clone, Hash)]
struct ForgingChloeState {
    fired: bool,
}

impl ForgingChloe {
    /// Builds `setup`'s connector `c_i` as the forger (she targets her
    /// upstream escrow `e_{i-1}` directly).
    pub fn new(setup: &ChainSetup, i: usize) -> Self {
        ForgingChloe {
            up_escrow: setup.chain.topo.escrow_pid(i - 1),
            signer: setup.chain.customer_signer(i).clone(),
            payment: setup.chain.payment,
            st: ForgingChloeState { fired: false },
        }
    }
}

impl Process<PMsg> for ForgingChloe {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, _from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        // On the first promise she sees, she skips paying and immediately
        // sends a self-signed "certificate" upstream.
        if matches!(msg, PMsg::Promise(_)) && !self.st.fired {
            self.st.fired = true;
            let forged = Receipt::issue(&self.signer, self.payment);
            ctx.send(self.up_escrow, PMsg::Receipt(forged));
            ctx.mark("forged_chi_sent", 0);
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// An escrow that takes the money and does nothing else — theft by a
/// trusted party. The paper's trust model is explicit that the victim's
/// customer security is forfeit (she trusted this escrow); the tests
/// assert the *other* hops stay safe.
#[derive(Debug, Clone)]
pub struct ThievingEscrow {
    up: Pid,
    signer: Signer,
    payment: PaymentId,
    index: usize,
    d_bound: SimDuration,
}

impl ThievingEscrow {
    /// Builds `setup`'s escrow `e_i` as the thief; it issues a perfectly
    /// normal-looking `G(d_i)` so the upstream customer engages.
    pub fn new(setup: &ChainSetup, i: usize) -> Self {
        ThievingEscrow {
            up: setup.chain.topo.customer_pid(i),
            signer: setup.chain.escrow_signer(i).clone(),
            payment: setup.chain.payment,
            index: i,
            d_bound: setup.schedule.d[i],
        }
    }
}

impl Process<PMsg> for ThievingEscrow {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        let g = crate::msg::SignedPromise::issue(
            &self.signer,
            crate::msg::PromiseKind::Guarantee,
            self.payment,
            self.index,
            self.d_bound,
        );
        ctx.send(self.up, PMsg::Promise(g));
    }

    fn on_message(&mut self, _from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if matches!(msg, PMsg::Money { .. }) {
            ctx.mark("escrow_stole", self.index as i64);
            // …and never sends P, χ, or a refund.
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    /// Stateless: every field is setup.
    fn fp_digest(&self) -> u64 {
        0
    }
}

/// Weak protocol: a customer who forges abort requests *in other
/// customers' names*. Authentication makes these inert; her own (honest)
/// abort right is unaffected.
#[derive(Debug, Clone)]
pub struct ImpersonatingAborter {
    tm_pids: Vec<Pid>,
    signer: Signer,
    payment: PaymentId,
    /// The customer index she pretends to be.
    victim_index: u64,
}

impl ImpersonatingAborter {
    /// Builds `setup`'s customer `c_i` as the impersonator of customer
    /// `c_victim`.
    pub fn new(setup: &WeakSetup, i: usize, victim: usize) -> Self {
        ImpersonatingAborter {
            tm_pids: setup.tm_pids(),
            signer: setup.chain.customer_signer(i).clone(),
            payment: setup.chain.payment,
            victim_index: victim as u64,
        }
    }
}

impl Process<PMsg> for ImpersonatingAborter {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        // Signed with HER key but claiming the victim's index: the
        // evidence verifier checks index-vs-key binding and drops it.
        let forged = TmInput::issue(
            &self.signer,
            TmInputKind::AbortRequest,
            self.payment,
            self.victim_index,
        );
        for &tm in &self.tm_pids {
            ctx.send(tm, PMsg::TmInput(forged));
        }
        ctx.mark("impersonated_abort_sent", self.victim_index as i64);
    }

    fn on_message(&mut self, _f: Pid, _m: PMsg, _c: &mut Ctx<PMsg>) {}
    fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<PMsg>) {}

    /// Stateless: every field is setup.
    fn fp_digest(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{check_definition1, check_definition2, Compliance, PropCheck};
    use crate::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome, EscrowState};
    use crate::timing::SyncParams;
    use crate::topology::{Role, ValuePlan};
    use crate::weak::{TmKind, WeakOutcome, WeakSetup};
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::process::InertProcess;

    fn tb_setup(n: usize) -> ChainSetup {
        ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 21)
    }

    fn run_with(
        setup: &ChainSetup,
        seed: u64,
        byz: Vec<Role>,
        make: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
    ) -> (ChainOutcome, Compliance) {
        let mut eng = setup.build_engine_with(
            Box::new(SyncNet::new(setup.params.delta, 8)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
            make,
        );
        let report = eng.run();
        (
            ChainOutcome::extract(&eng, setup, report.quiescent),
            Compliance::with_byzantine(byz),
        )
    }

    #[test]
    fn crashed_bob_everyone_else_safe() {
        let setup = tb_setup(3);
        let (outcome, compliance) = run_with(&setup, 1, vec![Role::Customer(3)], |role| {
            (role == Role::Customer(3)).then(|| Box::new(InertProcess) as Box<dyn Process<PMsg>>)
        });
        let v = check_definition1(&outcome, &setup, &compliance);
        assert!(v.all_ok(), "{:?}", v.violations());
        // Everyone got refunded.
        assert_eq!(
            outcome.customers[0].unwrap().outcome,
            CustomerOutcome::Refunded
        );
        for i in 1..3 {
            assert_eq!(
                outcome.customers[i].unwrap().outcome,
                CustomerOutcome::Refunded
            );
            assert_eq!(outcome.net_positions[i], Some(0));
        }
        assert!(outcome
            .escrow_states
            .iter()
            .all(|s| *s == Some(EscrowState::Refunded)));
    }

    #[test]
    fn late_bob_hurts_only_himself() {
        let setup = tb_setup(2);
        let delay = setup.schedule.a[1] + setup.params.delta * 4;
        let (outcome, compliance) = run_with(&setup, 2, vec![Role::Customer(2)], |role| {
            (role == Role::Customer(2))
                .then(|| Box::new(LateBob::new(&setup, delay)) as Box<dyn Process<PMsg>>)
        });
        let v = check_definition1(&outcome, &setup, &compliance);
        assert!(v.all_ok(), "{:?}", v.violations());
        // The money went back up the chain; Bob's late χ bought nothing.
        assert_eq!(
            outcome.customers[0].unwrap().outcome,
            CustomerOutcome::Refunded
        );
        assert_eq!(outcome.net_positions[1], Some(0));
    }

    #[test]
    fn withholding_alice_harms_nobody() {
        let setup = tb_setup(2);
        let (outcome, compliance) = run_with(&setup, 3, vec![Role::Customer(0)], |role| {
            (role == Role::Customer(0)).then(|| Box::new(InertProcess) as Box<dyn Process<PMsg>>)
        });
        let v = check_definition1(&outcome, &setup, &compliance);
        assert!(v.all_ok(), "{:?}", v.violations());
        // Nothing ever moved.
        for i in 1..=2 {
            assert_eq!(outcome.net_positions[i], Some(0));
        }
    }

    #[test]
    fn forging_chloe_steals_nothing() {
        let setup = tb_setup(3);
        let (outcome, compliance) = run_with(&setup, 4, vec![Role::Customer(1)], |role| {
            (role == Role::Customer(1))
                .then(|| Box::new(ForgingChloe::new(&setup, 1)) as Box<dyn Process<PMsg>>)
        });
        let v = check_definition1(&outcome, &setup, &compliance);
        assert!(v.all_ok(), "{:?}", v.violations());
        // Alice refunded (chain stalled at the forger), forger gained 0.
        assert_eq!(
            outcome.customers[0].unwrap().outcome,
            CustomerOutcome::Refunded
        );
        assert_eq!(outcome.net_positions[1], Some(0), "forgery must not pay");
    }

    #[test]
    fn thieving_escrow_victim_documented_others_safe() {
        // e_1 steals. Its upstream customer (Chloe1) loses her stake —
        // she trusted e_1, exactly the paper's trust assumption — but
        // everyone else ends whole.
        let setup = tb_setup(3);
        let (outcome, compliance) = run_with(&setup, 5, vec![Role::Escrow(1)], |role| {
            (role == Role::Escrow(1))
                .then(|| Box::new(ThievingEscrow::new(&setup, 1)) as Box<dyn Process<PMsg>>)
        });
        let v = check_definition1(&outcome, &setup, &compliance);
        assert!(v.all_ok(), "{:?}", v.violations());
        // CS3 for Chloe1 is Not-Applicable (her escrow is Byzantine), and
        // her position is unobservable — the thief controls the only book
        // that knows where her stake went:
        assert_eq!(v.cs3, PropCheck::NotApplicable);
        assert_eq!(
            outcome.net_positions[1], None,
            "victim's position is with the thief"
        );
        // What compliant processes do show: she is left hanging, never
        // refunded nor reimbursed.
        assert_eq!(
            outcome.customers[1].unwrap().outcome,
            CustomerOutcome::Pending,
            "the victim is left hanging"
        );
        // Alice was refunded by the honest e_0. Chloe2 never received a
        // P(a_1) promise from the thief, so she never risked her capital
        // (her aggregate position also touches the thief's book, hence
        // None). Bob, whose position involves only the honest e_2, is
        // exactly whole.
        assert_eq!(
            outcome.customers[0].unwrap().outcome,
            CustomerOutcome::Refunded
        );
        assert!(
            !outcome.customers[2].unwrap().sent_money,
            "Chloe2 never engaged"
        );
        assert_eq!(outcome.net_positions[3], Some(0));
    }

    #[test]
    fn crash_mid_protocol_at_every_customer() {
        // Fail-stop each customer shortly into the run: all remaining
        // compliant parties keep every guarantee.
        let setup = tb_setup(3);
        for victim in 0..=3usize {
            let role = Role::Customer(victim);
            let (outcome, compliance) = run_with(&setup, 6, vec![role], |r| {
                (r == role).then(|| {
                    let inner = setup.default_process(role);
                    Box::new(CrashAfter::new(inner, SimDuration::from_millis(15)))
                        as Box<dyn Process<PMsg>>
                })
            });
            let v = check_definition1(&outcome, &setup, &compliance);
            assert!(v.all_ok(), "victim {role:?}: {:?}", v.violations());
        }
    }

    #[test]
    fn impersonated_abort_is_inert() {
        // A substituted Chloe forges an abort request in Alice's name. The
        // TM must ignore it: no χa on forged evidence. (With the forger
        // not staging money, no commit forms either.)
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 60), TmKind::Trusted, 31);
        let mut eng = s.build_engine_with(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(7)),
            |role| {
                // Chloe1 pretends to be Alice.
                (role == Role::Customer(1)).then(|| {
                    Box::new(ImpersonatingAborter::new(&s, 1, 0)) as Box<dyn Process<PMsg>>
                })
            },
            |_| None,
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &s);
        assert_eq!(o.verdict(), None, "forged abort must not produce χa: {o:?}");
        let v = check_definition2(
            &o,
            &Compliance::with_byzantine(vec![Role::Customer(1)]),
            true,
        );
        assert!(v.cc.ok() && v.es.ok(), "{:?}", v.violations());
    }
}
