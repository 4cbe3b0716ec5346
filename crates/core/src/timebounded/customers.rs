//! Alice, the connectors (Chloe_i) and Bob — the customer automata of
//! Figure 2, executable.
//!
//! * **Alice (c_0)**: awaits `G(d_0)` from `e_0`, sends $, then awaits
//!   either her money back or the certificate χ.
//! * **Chloe_i (c_i)**: awaits `G(d_i)` from `e_i` *and* `P(a_{i-1})` from
//!   `e_{i-1}` (in either order — the asynchronous network may reorder),
//!   then sends $ to `e_i` and waits for `e_i` to return either χ or the
//!   money. On refund her work is done; on χ she forwards it to `e_{i-1}`
//!   and awaits her money from there.
//! * **Bob (c_n)**: awaits `P(a_{n-1})`, issues and sends χ, awaits $.
//!
//! Each process validates every promise and certificate signature and
//! checks promised bounds against the agreed schedule: accepting a
//! shortened `P(a)` from a Byzantine escrow would silently void the
//! customer-security analysis, so an abiding customer refuses to proceed
//! and (safely) never sends money.

use super::scenario::ChainSetup;
use crate::msg::{PMsg, PromiseKind};
use anta::fingerprint::{fingerprint, Stamp};
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimTime;
use ledger::Asset;
use std::sync::Arc;
use xcrypto::{KeyId, PaymentId, Pki, Receipt, Signer};

/// Where a customer's run ended (for property checking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CustomerOutcome {
    /// Still in protocol (non-terminated).
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

/// Alice — customer `c_0`.
#[derive(Debug, Clone)]
pub struct AliceProcess {
    escrow: Pid,
    escrow_key: KeyId,
    bob_key: KeyId,
    pki: Arc<Pki>,
    payment: PaymentId,
    asset: Asset,
    /// The `d_0` she expects `e_0` to promise.
    expected_d: anta::time::SimDuration,
    st: AliceState,
}

/// Alice's run state; the rest of [`AliceProcess`] is setup (pids, keys,
/// bounds). `sent_money_at` is a [`Stamp`]: her future behaviour never
/// reads it (it exists for the post-run `T`-clause check, which the
/// timeout calculus guarantees uniformly across schedules — the
/// time-robust checker contract on `Engine::enable_fingerprints`).
#[derive(Debug, Clone, Hash)]
struct AliceState {
    sent_money: bool,
    sent_money_at: Stamp,
    outcome: CustomerOutcome,
    receipt: Option<Receipt>,
}

impl AliceProcess {
    /// Builds Alice, who pays `v_0` into `e_0` against `G(d_0)`.
    pub fn new(setup: &ChainSetup) -> Self {
        AliceProcess {
            escrow: setup.topo.escrow_pid(0),
            escrow_key: setup.escrow_signer(0).id(),
            bob_key: setup.bob_key(),
            pki: setup.pki.clone(),
            payment: setup.payment,
            asset: setup.plan.amounts[0],
            expected_d: setup.schedule.d[0],
            st: AliceState {
                sent_money: false,
                sent_money_at: Stamp::default(),
                outcome: CustomerOutcome::Pending,
                receipt: None,
            },
        }
    }

    /// Final outcome.
    pub fn outcome(&self) -> CustomerOutcome {
        self.st.outcome
    }

    /// The receipt χ, if she obtained it.
    pub fn receipt(&self) -> Option<&Receipt> {
        self.st.receipt.as_ref()
    }

    /// Local time at which she sent the money (start of her T-bound clock).
    pub fn sent_money_at(&self) -> Option<SimTime> {
        self.st.sent_money_at.get()
    }

    /// Whether she parted with her money at all.
    pub fn sent_money(&self) -> bool {
        self.st.sent_money
    }
}

impl Process<PMsg> for AliceProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if from != self.escrow || self.st.outcome != CustomerOutcome::Pending {
            return;
        }
        match msg {
            PMsg::Promise(p) if !self.st.sent_money => {
                if p.kind != PromiseKind::Guarantee
                    || p.payment != self.payment
                    || !p.verify(&self.pki, self.escrow_key)
                {
                    return;
                }
                if p.bound != self.expected_d {
                    // Off-schedule promise: refuse (never send money).
                    self.st.outcome = CustomerOutcome::Refused;
                    ctx.mark("alice_refused", 0);
                    ctx.halt();
                    return;
                }
                self.st.sent_money = true;
                self.st.sent_money_at.set(ctx.now());
                ctx.send(
                    self.escrow,
                    PMsg::Money {
                        payment: self.payment,
                        asset: self.asset,
                    },
                );
                ctx.mark("alice_paid_out", self.asset.amount as i64);
            }
            PMsg::Money { payment, asset } if self.st.sent_money => {
                if payment != self.payment || asset != self.asset {
                    return;
                }
                self.st.outcome = CustomerOutcome::Refunded;
                ctx.mark("alice_refunded", asset.amount as i64);
                ctx.halt();
            }
            PMsg::Receipt(chi) if self.st.sent_money => {
                if chi.payment != self.payment || !chi.verify(&self.pki, self.bob_key) {
                    return;
                }
                self.st.receipt = Some(chi);
                self.st.outcome = CustomerOutcome::GotReceipt;
                ctx.mark("alice_got_receipt", 0);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// Chloe_i — connector `c_i` (`0 < i < n`).
#[derive(Debug, Clone)]
pub struct ChloeProcess {
    index: usize,
    up_escrow: Pid,
    down_escrow: Pid,
    up_escrow_key: KeyId,
    down_escrow_key: KeyId,
    bob_key: KeyId,
    pki: Arc<Pki>,
    payment: PaymentId,
    /// What she must send downstream (to `e_i`).
    send_asset: Asset,
    /// What she is owed upstream (at `e_{i-1}`), ≥ `send_asset` by her
    /// commission.
    recv_asset: Asset,
    expected_d: anta::time::SimDuration,
    expected_a_up: anta::time::SimDuration,
    st: ChloeState,
}

/// Chloe's run state; the rest of [`ChloeProcess`] is setup (index, pids,
/// keys, assets, bounds).
#[derive(Debug, Clone, Hash)]
struct ChloeState {
    got_g: bool,
    got_p: bool,
    sent_money: bool,
    forwarded_chi: bool,
    outcome: CustomerOutcome,
}

impl ChloeProcess {
    /// Builds Chloe_i (`0 < i < n`), between `e_{i-1}` and `e_i`.
    pub fn new(setup: &ChainSetup, i: usize) -> Self {
        ChloeProcess {
            index: i,
            up_escrow: setup.topo.escrow_pid(i - 1),
            down_escrow: setup.topo.escrow_pid(i),
            up_escrow_key: setup.escrow_signer(i - 1).id(),
            down_escrow_key: setup.escrow_signer(i).id(),
            bob_key: setup.bob_key(),
            pki: setup.pki.clone(),
            payment: setup.payment,
            send_asset: setup.plan.amounts[i],
            recv_asset: setup.plan.amounts[i - 1],
            expected_d: setup.schedule.d[i],
            expected_a_up: setup.schedule.a[i - 1],
            st: ChloeState {
                got_g: false,
                got_p: false,
                sent_money: false,
                forwarded_chi: false,
                outcome: CustomerOutcome::Pending,
            },
        }
    }

    /// Final outcome.
    pub fn outcome(&self) -> CustomerOutcome {
        self.st.outcome
    }

    /// Whether she parted with her money.
    pub fn sent_money(&self) -> bool {
        self.st.sent_money
    }

    /// Chain index.
    pub fn index(&self) -> usize {
        self.index
    }

    fn maybe_send_money(&mut self, ctx: &mut Ctx<PMsg>) {
        if self.st.got_g && self.st.got_p && !self.st.sent_money {
            self.st.sent_money = true;
            ctx.send(
                self.down_escrow,
                PMsg::Money {
                    payment: self.payment,
                    asset: self.send_asset,
                },
            );
            ctx.mark("chloe_paid_out", self.index as i64);
        }
    }
}

impl Process<PMsg> for ChloeProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if self.st.outcome != CustomerOutcome::Pending
            && self.st.outcome != CustomerOutcome::Refused
        {
            return;
        }
        match msg {
            PMsg::Promise(p) => {
                match p.kind {
                    PromiseKind::Guarantee if from == self.down_escrow && !self.st.got_g => {
                        if p.payment != self.payment || !p.verify(&self.pki, self.down_escrow_key) {
                            return;
                        }
                        if p.bound != self.expected_d {
                            self.st.outcome = CustomerOutcome::Refused;
                            ctx.mark("chloe_refused", self.index as i64);
                            ctx.halt();
                            return;
                        }
                        self.st.got_g = true;
                    }
                    PromiseKind::Promise if from == self.up_escrow && !self.st.got_p => {
                        if p.payment != self.payment || !p.verify(&self.pki, self.up_escrow_key) {
                            return;
                        }
                        if p.bound != self.expected_a_up {
                            self.st.outcome = CustomerOutcome::Refused;
                            ctx.mark("chloe_refused", self.index as i64);
                            ctx.halt();
                            return;
                        }
                        self.st.got_p = true;
                    }
                    _ => return,
                }
                self.maybe_send_money(ctx);
            }
            PMsg::Money { payment, asset } => {
                if payment != self.payment {
                    return;
                }
                if from == self.down_escrow && self.st.sent_money && !self.st.forwarded_chi {
                    // Refund from her own escrow: her work is done.
                    if asset != self.send_asset {
                        return;
                    }
                    self.st.outcome = CustomerOutcome::Refunded;
                    ctx.mark("chloe_refunded", self.index as i64);
                    ctx.halt();
                } else if from == self.up_escrow && self.st.forwarded_chi {
                    // Reimbursement (with commission) from upstream.
                    if asset != self.recv_asset {
                        return;
                    }
                    self.st.outcome = CustomerOutcome::Reimbursed;
                    ctx.mark("chloe_reimbursed", self.index as i64);
                    ctx.halt();
                }
            }
            PMsg::Receipt(chi) => {
                if from != self.down_escrow || !self.st.sent_money || self.st.forwarded_chi {
                    return;
                }
                if chi.payment != self.payment || !chi.verify(&self.pki, self.bob_key) {
                    return;
                }
                // Forward χ upstream and await the money from e_{i-1}.
                self.st.forwarded_chi = true;
                ctx.send(self.up_escrow, PMsg::Receipt(chi));
                ctx.mark("chloe_forwarded_chi", self.index as i64);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// Bob — customer `c_n`.
#[derive(Debug, Clone)]
pub struct BobProcess {
    escrow: Pid,
    escrow_key: KeyId,
    signer: Signer,
    pki: Arc<Pki>,
    payment: PaymentId,
    asset: Asset,
    expected_a: anta::time::SimDuration,
    st: BobState,
}

/// Bob's run state; the rest of [`BobProcess`] is setup.
#[derive(Debug, Clone, Hash)]
struct BobState {
    issued_chi: bool,
    outcome: CustomerOutcome,
}

impl BobProcess {
    /// Builds Bob, who issues χ against `P(a_{n-1})` from `e_{n-1}`.
    pub fn new(setup: &ChainSetup) -> Self {
        let n = setup.n();
        BobProcess {
            escrow: setup.topo.escrow_pid(n - 1),
            escrow_key: setup.escrow_signer(n - 1).id(),
            signer: setup.customer_signer(n).clone(),
            pki: setup.pki.clone(),
            payment: setup.payment,
            asset: setup.plan.amounts[n - 1],
            expected_a: setup.schedule.a[n - 1],
            st: BobState {
                issued_chi: false,
                outcome: CustomerOutcome::Pending,
            },
        }
    }

    /// Final outcome.
    pub fn outcome(&self) -> CustomerOutcome {
        self.st.outcome
    }

    /// Whether Bob signed and sent χ.
    pub fn issued_chi(&self) -> bool {
        self.st.issued_chi
    }
}

impl Process<PMsg> for BobProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        if from != self.escrow || self.st.outcome != CustomerOutcome::Pending {
            return;
        }
        match msg {
            PMsg::Promise(p) if !self.st.issued_chi => {
                if p.kind != PromiseKind::Promise
                    || p.payment != self.payment
                    || !p.verify(&self.pki, self.escrow_key)
                {
                    return;
                }
                if p.bound != self.expected_a {
                    self.st.outcome = CustomerOutcome::Refused;
                    ctx.mark("bob_refused", 0);
                    ctx.halt();
                    return;
                }
                // Issue χ: Bob's signed statement that Alice's obligation
                // is met (it will be, by the escrow chain, once χ lands).
                let chi = Receipt::issue(&self.signer, self.payment);
                self.st.issued_chi = true;
                ctx.send(self.escrow, PMsg::Receipt(chi));
                ctx.mark("bob_issued_chi", 0);
            }
            PMsg::Money { payment, asset } if self.st.issued_chi => {
                if payment != self.payment || asset != self.asset {
                    return;
                }
                self.st.outcome = CustomerOutcome::Paid;
                ctx.mark("bob_paid", asset.amount as i64);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}
