//! The customer automaton of Figure 2, executable: one process for every
//! position `c_i` of the chain, `i = 0…n`.
//!
//! A customer deals with up to two escrows. Upstream, `e_{i-1}` promises
//! it `P(a_{i-1})` and pays it for χ; Alice (`c_0`) has no upstream side.
//! Downstream, `e_i` guarantees it `G(d_i)` and takes its money; Bob
//! (`c_n`) has no downstream side. The connector's rule, read per side,
//! is every position's:
//!
//! * await the promise of each side, in either order (the asynchronous
//!   network may reorder them);
//! * then pay `e_i` — or, with no downstream side, issue χ to `e_{i-1}`
//!   (Bob);
//! * a refund from `e_i` ends the run;
//! * χ from `e_i` is forwarded to `e_{i-1}` — or, with no upstream side,
//!   kept, which ends the run (Alice);
//! * money from `e_{i-1}` for the χ that went up ends the run.
//!
//! Each customer validates every promise and certificate signature and
//! checks promised bounds against the agreed schedule: accepting a
//! shortened `P(a)` from a Byzantine escrow would silently void the
//! customer-security analysis, so an abiding customer refuses to proceed
//! and (safely) never pays.

use super::scenario::ChainSetup;
use crate::msg::{PMsg, PromiseKind};
use anta::fingerprint::{fingerprint, Stamp};
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::{SimDuration, SimTime};
use ledger::Asset;
use std::sync::Arc;
use xcrypto::{KeyId, PaymentId, Pki, Receipt, Signer};

/// Where a customer's run ended (for property checking).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CustomerOutcome {
    /// Still in protocol (non-terminated).
    #[default]
    Pending,
    /// Terminated holding the money back (refund path).
    Refunded,
    /// Terminated holding χ (Alice) — proof that Bob has been paid.
    GotReceipt,
    /// Terminated reimbursed upstream after forwarding χ (Chloe).
    Reimbursed,
    /// Terminated having been paid (Bob).
    Paid,
    /// Refused to participate (bad promise / mismatched parameters).
    Refused,
}

/// One escrow a customer deals with, and what it expects of it.
#[derive(Debug, Clone)]
struct Side {
    escrow: Pid,
    key: KeyId,
    /// The bound its promise must carry: `a_{i-1}` upstream, `d_i`
    /// downstream.
    bound: SimDuration,
    /// The money that crosses it: owed back upstream, paid in downstream.
    asset: Asset,
}

/// Customer `c_i` — Alice at `i = 0`, a connector (Chloe_i) at `0 < i <
/// n`, Bob at `i = n`.
#[derive(Debug, Clone)]
pub struct CustomerProcess {
    index: usize,
    /// `e_{i-1}`; `None` for Alice.
    up: Option<Side>,
    /// `e_i`; `None` for Bob.
    down: Option<Side>,
    /// Its own key, which signs χ when it is Bob.
    signer: Signer,
    bob_key: KeyId,
    pki: Arc<Pki>,
    payment: PaymentId,
    st: CustomerState,
}

/// A customer's run state; the rest of [`CustomerProcess`] is setup
/// (index, pids, keys, assets, bounds). `sent_money_at` is a [`Stamp`]:
/// no future behaviour reads it (it exists for the post-run `T`-clause
/// check on Alice, which the timeout calculus guarantees uniformly across
/// schedules — the time-robust checker contract on
/// `Engine::enable_fingerprints`).
#[derive(Debug, Clone, Default, Hash)]
struct CustomerState {
    /// `G(d_i)` accepted from `e_i`.
    got_g: bool,
    /// `P(a_{i-1})` accepted from `e_{i-1}`.
    got_p: bool,
    /// Paid `e_i` — or, for Bob, issued χ.
    paid: bool,
    sent_money_at: Stamp,
    /// χ went up to `e_{i-1}`: forwarded by a connector, issued by Bob.
    forwarded_chi: bool,
    outcome: CustomerOutcome,
}

impl CustomerProcess {
    /// Builds customer `c_i` (`i ≤ n`) between `e_{i-1}` and `e_i`.
    pub fn new(setup: &ChainSetup, i: usize) -> Self {
        let side = |e: usize, bound: SimDuration| Side {
            escrow: setup.chain.topo.escrow_pid(e),
            key: setup.chain.escrow_signer(e).id(),
            bound,
            asset: setup.chain.plan.amounts[e],
        };
        CustomerProcess {
            index: i,
            up: (i > 0).then(|| side(i - 1, setup.schedule.a[i - 1])),
            down: (i < setup.chain.n()).then(|| side(i, setup.schedule.d[i])),
            signer: setup.chain.customer_signer(i).clone(),
            bob_key: setup.chain.bob_key(),
            pki: setup.chain.pki.clone(),
            payment: setup.chain.payment,
            st: CustomerState::default(),
        }
    }

    /// Final outcome.
    pub fn outcome(&self) -> CustomerOutcome {
        self.st.outcome
    }

    /// Whether it parted with money (Bob never does: he pays with χ).
    pub fn sent_money(&self) -> bool {
        self.st.paid && self.down.is_some()
    }

    /// Local time at which it sent its money (for Alice, the start of her
    /// T-bound clock).
    pub fn sent_money_at(&self) -> Option<SimTime> {
        self.st.sent_money_at.get()
    }

    /// Whether χ went up to `e_{i-1}`: forwarded by a connector, signed
    /// and sent by Bob.
    pub fn forwarded_chi(&self) -> bool {
        self.st.forwarded_chi
    }

    /// Marks a step that Alice or Bob shares with a connector: Alice and
    /// Bob mark `end` with `value`, a connector marks `chloe` with its
    /// index.
    fn mark(&self, ctx: &mut Ctx<PMsg>, end: &'static str, chloe: &'static str, value: u64) {
        if self.up.is_some() && self.down.is_some() {
            ctx.mark(chloe, self.index as i64);
        } else {
            ctx.mark(end, value as i64);
        }
    }

    /// Every promise is in: pay `e_i`, or, with no downstream side (Bob),
    /// issue χ — the signed statement that Alice's obligation is met (it
    /// will be, by the escrow chain, once χ lands) — to `e_{i-1}`.
    fn pay(&mut self, ctx: &mut Ctx<PMsg>) {
        self.st.paid = true;
        if let Some(down) = &self.down {
            self.st.sent_money_at.set(ctx.now());
            let asset = down.asset;
            ctx.send(
                down.escrow,
                PMsg::Money {
                    payment: self.payment,
                    asset,
                },
            );
            self.mark(ctx, "alice_paid_out", "chloe_paid_out", asset.amount);
        } else {
            let up = self.up.as_ref().expect("c_n has e_{n-1} upstream");
            let chi = Receipt::issue(&self.signer, self.payment);
            self.st.forwarded_chi = true;
            ctx.send(up.escrow, PMsg::Receipt(chi));
            ctx.mark("bob_issued_chi", 0);
        }
    }
}

impl Process<PMsg> for CustomerProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if self.st.outcome != CustomerOutcome::Pending {
            return;
        }
        let up = self.up.as_ref().filter(|s| s.escrow == from);
        let down = self.down.as_ref().filter(|s| s.escrow == from);
        match msg {
            PMsg::Promise(p) => {
                let (side, got) = match p.kind {
                    PromiseKind::Guarantee => (down, &mut self.st.got_g),
                    PromiseKind::Promise => (up, &mut self.st.got_p),
                };
                let Some(side) = side else { return };
                if *got || p.payment != self.payment || !p.verify(&self.pki, side.key) {
                    return;
                }
                if p.bound != side.bound {
                    // Off-schedule promise: refuse (never pay).
                    self.st.outcome = CustomerOutcome::Refused;
                    let end = if self.up.is_none() {
                        "alice_refused"
                    } else {
                        "bob_refused"
                    };
                    self.mark(ctx, end, "chloe_refused", 0);
                    ctx.halt();
                    return;
                }
                *got = true;
                if self.st.got_g == self.down.is_some() && self.st.got_p == self.up.is_some() {
                    self.pay(ctx);
                }
            }
            PMsg::Money { payment, asset } if payment == self.payment => {
                if down.is_some_and(|d| asset == d.asset) && self.st.paid && !self.st.forwarded_chi
                {
                    // Refund from its own escrow: its work is done.
                    self.st.outcome = CustomerOutcome::Refunded;
                    self.mark(ctx, "alice_refunded", "chloe_refunded", asset.amount);
                    ctx.halt();
                } else if up.is_some_and(|u| asset == u.asset) && self.st.forwarded_chi {
                    // Paid upstream for χ (with commission, for a connector).
                    self.st.outcome = if self.down.is_some() {
                        CustomerOutcome::Reimbursed
                    } else {
                        CustomerOutcome::Paid
                    };
                    self.mark(ctx, "bob_paid", "chloe_reimbursed", asset.amount);
                    ctx.halt();
                }
            }
            PMsg::Receipt(chi) => {
                if down.is_none()
                    || !self.st.paid
                    || self.st.forwarded_chi
                    || chi.payment != self.payment
                    || !chi.verify(&self.pki, self.bob_key)
                {
                    return;
                }
                if let Some(up) = &self.up {
                    // Forward χ upstream and await the money from e_{i-1}.
                    self.st.forwarded_chi = true;
                    ctx.send(up.escrow, PMsg::Receipt(chi));
                    ctx.mark("chloe_forwarded_chi", self.index as i64);
                } else {
                    self.st.outcome = CustomerOutcome::GotReceipt;
                    ctx.mark("alice_got_receipt", 0);
                    ctx.halt();
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}
