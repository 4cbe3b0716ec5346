//! Customers and escrows of the weak-liveness protocol (Theorem 3).
//!
//! Protocol shape (reconstructed from §3's description):
//!
//! 1. every customer *may wait as long as she likes* (her patience) before
//!    staging money: Alice and each Chloe eventually lock their hop's value
//!    at their escrow; Bob eventually sends his signed acceptance χ to the
//!    transaction manager;
//! 2. each escrow, upon locking, reports `Locked(i)` (signed) to the
//!    manager;
//! 3. the manager issues **χc** once it holds all `n` lock reports plus
//!    Bob's acceptance, or **χa** as soon as any customer's signed
//!    `AbortRequest` arrives first — never both (property CC);
//! 4. escrows settle on the certificate: release downstream on χc, refund
//!    upstream on χa. Certificates are transferable: χc is Alice's proof
//!    that Bob has been paid (CS1'), χa is Bob's proof that the payment is
//!    off (CS2').
//!
//! Any customer may lose patience at any time *before* a decision without
//! risking her funds — the abort path refunds every locked hop. This is
//! exactly the weakening that makes the problem solvable under partial
//! synchrony: no step depends on a wall-clock deadline.

use super::scenario::WeakSetup;
use crate::escrow::EscrowCore;
use crate::msg::{PMsg, TmInput, TmInputKind};
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use ledger::{Asset, Ledger, Marks};
use std::sync::Arc;
use xcrypto::{Authority, DecisionCert, PaymentId, Pki, Receipt, Signature, Signer, Verdict};

/// Accumulates decision-certificate shares until one verdict verifies
/// against the authority (a single-signer authority verifies on the first
/// valid share; a committee authority once `2f+1` distinct notary
/// signatures have arrived).
#[derive(Debug, Clone, Default, Hash)]
pub struct CertCollector {
    commit: Vec<Signature>,
    abort: Vec<Signature>,
    accepted: Option<Verdict>,
}

impl CertCollector {
    /// Offers a received certificate (share); returns the verdict when the
    /// accumulated evidence first verifies.
    pub fn offer(
        &mut self,
        cert: &DecisionCert,
        payment: PaymentId,
        pki: &Pki,
        authority: &Authority,
    ) -> Option<Verdict> {
        if self.accepted.is_some() || cert.payment != payment {
            return None;
        }
        let bucket = match cert.verdict {
            Verdict::Commit => &mut self.commit,
            Verdict::Abort => &mut self.abort,
        };
        for sig in &cert.sigs {
            if !bucket.iter().any(|s| s.signer == sig.signer) {
                bucket.push(*sig);
            }
        }
        let assembled = DecisionCert::assemble(payment, cert.verdict, bucket.clone());
        if assembled.verify(pki, authority) {
            self.accepted = Some(cert.verdict);
            self.accepted
        } else {
            None
        }
    }

    /// The verdict this participant accepted, if any.
    pub fn accepted(&self) -> Option<Verdict> {
        self.accepted
    }
}

/// Patience policy of one customer, in local time from her start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Patience {
    /// When to stage money (Alice/Chloe) or send acceptance (Bob).
    /// `None`: never (models a withholding/crashed customer).
    pub act_at: Option<SimDuration>,
    /// When to lose patience and request an abort if still unresolved.
    /// `None`: infinitely patient.
    pub abort_at: Option<SimDuration>,
}

impl Patience {
    /// Acts immediately, never aborts — the fully patient customer.
    pub fn patient() -> Self {
        Patience {
            act_at: Some(SimDuration::ZERO),
            abort_at: None,
        }
    }

    /// Acts immediately but aborts if unresolved by `after`.
    pub fn until(after: SimDuration) -> Self {
        Patience {
            act_at: Some(SimDuration::ZERO),
            abort_at: Some(after),
        }
    }

    /// Never acts (crash-by-omission), never aborts.
    pub fn absent() -> Self {
        Patience {
            act_at: None,
            abort_at: None,
        }
    }
}

const TIMER_ACT: TimerId = 1;
const TIMER_ABORT: TimerId = 2;

/// A customer in the weak protocol (role-dispatched: Alice/Chloe stage
/// money, Bob sends acceptance).
#[derive(Debug, Clone)]
pub struct WeakCustomer {
    /// Customer index `0..=n` (`n` ⇒ Bob).
    index: usize,
    n: usize,
    /// Escrow to stage money at (`e_i` for `c_i`, `i < n`; unused for Bob).
    own_escrow: Pid,
    /// All transaction-manager pids (1 for single TM, k for a committee).
    tm_pids: std::ops::Range<Pid>,
    signer: Signer,
    pki: Arc<Pki>,
    payment: PaymentId,
    asset: Asset,
    authority: Authority,
    patience: Patience,
    st: WeakCustomerState,
}

/// A weak customer's run state: the progress flags and the collected
/// certificate shares. The rest of [`WeakCustomer`] is setup (index, pids,
/// keys, asset, authority, patience).
#[derive(Debug, Clone, Hash)]
struct WeakCustomerState {
    acted: bool,
    abort_requested: bool,
    certs: CertCollector,
}

impl WeakCustomer {
    /// Builds customer `c_i` of `setup`'s chain, with her patience from
    /// the setup.
    pub fn new(setup: &WeakSetup, i: usize) -> Self {
        let (chain, n) = (&setup.chain, setup.chain.n());
        // Bob stages nothing; his escrow and asset are never read.
        let hop = i.min(n - 1);
        WeakCustomer {
            index: i,
            n,
            own_escrow: chain.topo.escrow_pid(hop),
            tm_pids: setup.tm_pids(),
            signer: chain.customer_signer(i).clone(),
            pki: chain.pki.clone(),
            payment: chain.payment,
            asset: chain.plan.amounts[hop],
            authority: setup.authority.clone(),
            patience: setup.patience[i],
            st: WeakCustomerState {
                acted: false,
                abort_requested: false,
                certs: CertCollector::default(),
            },
        }
    }

    fn is_bob(&self) -> bool {
        self.index == self.n
    }

    /// The verdict this customer accepted (χc or χa), if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.st.certs.accepted()
    }

    /// Whether this customer staged money / sent acceptance.
    pub fn acted(&self) -> bool {
        self.st.acted
    }

    /// Whether this customer requested an abort.
    pub fn abort_requested(&self) -> bool {
        self.st.abort_requested
    }

    fn act(&mut self, ctx: &mut Ctx<PMsg>) {
        if self.st.acted || self.st.certs.accepted().is_some() {
            return;
        }
        self.st.acted = true;
        if self.is_bob() {
            let chi = Receipt::issue(&self.signer, self.payment);
            for tm in self.tm_pids.clone() {
                ctx.send(tm, PMsg::Accept(chi));
            }
            ctx.mark("weak_bob_accept", 0);
        } else {
            ctx.send(
                self.own_escrow,
                PMsg::Money {
                    payment: self.payment,
                    asset: self.asset,
                },
            );
            ctx.mark("weak_staged", self.index as i64);
        }
    }
}

impl Process<PMsg> for WeakCustomer {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        if let Some(at) = self.patience.act_at {
            ctx.set_timer_after(TIMER_ACT, at);
        }
        if let Some(at) = self.patience.abort_at {
            ctx.set_timer_after(TIMER_ABORT, at);
        }
    }

    fn on_message(&mut self, _from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if let PMsg::Decision(cert) = msg {
            if let Some(v) = self
                .st
                .certs
                .offer(&cert, self.payment, &self.pki, &self.authority)
            {
                ctx.mark(
                    match v {
                        Verdict::Commit => "weak_customer_commit",
                        Verdict::Abort => "weak_customer_abort",
                    },
                    self.index as i64,
                );
                ctx.halt();
            }
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        match id {
            TIMER_ACT => self.act(ctx),
            TIMER_ABORT if self.st.certs.accepted().is_none() && !self.st.abort_requested => {
                self.st.abort_requested = true;
                let req = TmInput::issue(
                    &self.signer,
                    TmInputKind::AbortRequest,
                    self.payment,
                    self.index as u64,
                );
                for tm in self.tm_pids.clone() {
                    ctx.send(tm, PMsg::TmInput(req));
                }
                ctx.mark("weak_abort_requested", self.index as i64);
            }
            _ => {}
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// An escrow in the weak protocol: the shared escrow core, plus the
/// certificate rule — report the lock to the manager, settle on the
/// decision.
#[derive(Debug, Clone)]
pub struct WeakEscrow {
    core: EscrowCore<CertCollector>,
    tm_pids: std::ops::Range<Pid>,
    authority: Authority,
}

/// The weak escrow's lifecycle labels.
pub const ESCROW_MARKS: Marks = Marks {
    locked: "weak_escrow_locked",
    lock_rejected: "weak_escrow_lock_rejected",
    released: "weak_escrow_released",
    refunded: "weak_escrow_refunded",
};

impl WeakEscrow {
    /// Builds weak escrow `e_i` of `setup`'s chain, its book holding both
    /// customer accounts with the upstream one funded.
    pub fn new(setup: &WeakSetup, i: usize) -> Self {
        let (chain, book) = (&setup.chain, setup.chain.escrow_book(i));
        WeakEscrow {
            core: EscrowCore::new(chain, i, book, &ESCROW_MARKS, CertCollector::default()),
            tm_pids: setup.tm_pids(),
            authority: setup.authority.clone(),
        }
    }

    /// The escrow's book.
    pub fn ledger(&self) -> &Ledger {
        &self.core.st.ledger
    }

    /// The verdict this escrow settled on, if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.core.st.rule.accepted()
    }
}

impl Process<PMsg> for WeakEscrow {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        let c = &mut self.core;
        match msg {
            PMsg::Money { payment, asset } => {
                if !c.lock(from, payment, asset, ctx) {
                    return;
                }
                let notice =
                    TmInput::issue(&c.signer, TmInputKind::Locked, c.payment, c.index as u64);
                for tm in self.tm_pids.clone() {
                    ctx.send(tm, PMsg::TmInput(notice));
                }
            }
            PMsg::Decision(cert) => {
                let Some(v) = c.st.rule.offer(&cert, c.payment, &c.pki, &self.authority) else {
                    return;
                };
                if c.locked() {
                    c.settle(v == Verdict::Commit, ctx);
                } else {
                    // Nothing locked: nothing to settle (χa before any
                    // money, or a χc that — with an honest manager —
                    // cannot precede our lock; either way we hold no
                    // funds, so no-one loses anything).
                    ctx.mark("weak_escrow_no_deal", c.index as i64);
                }
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.core.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcrypto::KeyId;

    #[test]
    fn cert_collector_single_authority() {
        let mut pki = Pki::new(1);
        let (tm_id, tm) = pki.register();
        let payment = PaymentId::derive(1, &[tm_id]);
        let auth = Authority::Single(tm_id);
        let mut col = CertCollector::default();
        let cert = DecisionCert::issue_single(&tm, payment, Verdict::Commit);
        assert_eq!(
            col.offer(&cert, payment, &pki, &auth),
            Some(Verdict::Commit)
        );
        // Second offer is idempotent.
        assert_eq!(col.offer(&cert, payment, &pki, &auth), None);
        assert_eq!(col.accepted(), Some(Verdict::Commit));
    }

    #[test]
    fn cert_collector_committee_accumulates() {
        let mut pki = Pki::new(2);
        let pairs = pki.register_many(4);
        let members: Vec<KeyId> = pairs.iter().map(|(k, _)| *k).collect();
        let payment = PaymentId::derive(2, &members);
        let auth = Authority::committee(members.clone()); // threshold 3
        let payload = DecisionCert::payload(&payment, Verdict::Abort);
        let mut col = CertCollector::default();
        for (i, (_, s)) in pairs.iter().enumerate() {
            let share = DecisionCert::assemble(
                payment,
                Verdict::Abort,
                vec![s.sign(xcrypto::cert::DOM_DECISION, &payload)],
            );
            let got = col.offer(&share, payment, &pki, &auth);
            if i < 2 {
                assert_eq!(got, None, "below threshold at {i}");
            } else if i == 2 {
                assert_eq!(got, Some(Verdict::Abort), "threshold reached");
                break;
            }
        }
    }

    #[test]
    fn cert_collector_ignores_wrong_payment_and_duplicates() {
        let mut pki = Pki::new(3);
        let pairs = pki.register_many(4);
        let members: Vec<KeyId> = pairs.iter().map(|(k, _)| *k).collect();
        let payment = PaymentId::derive(3, &members);
        let other = PaymentId::derive(4, &members);
        let auth = Authority::committee(members);
        let payload = DecisionCert::payload(&payment, Verdict::Commit);
        let mut col = CertCollector::default();
        // Wrong payment: ignored entirely.
        let alien = DecisionCert::issue_single(&pairs[0].1, other, Verdict::Commit);
        assert_eq!(col.offer(&alien, payment, &pki, &auth), None);
        // The same signer three times does not reach the threshold.
        let share = DecisionCert::assemble(
            payment,
            Verdict::Commit,
            vec![pairs[0].1.sign(xcrypto::cert::DOM_DECISION, &payload)],
        );
        assert_eq!(col.offer(&share, payment, &pki, &auth), None);
        assert_eq!(col.offer(&share, payment, &pki, &auth), None);
        assert_eq!(col.offer(&share, payment, &pki, &auth), None);
        assert_eq!(col.accepted(), None);
    }

    #[test]
    fn patience_constructors() {
        let p = Patience::patient();
        assert_eq!(p.act_at, Some(SimDuration::ZERO));
        assert_eq!(p.abort_at, None);
        let u = Patience::until(SimDuration::from_millis(5));
        assert_eq!(u.abort_at, Some(SimDuration::from_millis(5)));
        let a = Patience::absent();
        assert_eq!(a.act_at, None);
    }
}
