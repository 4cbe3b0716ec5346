//! The escrow core both payment protocols share.
//!
//! Escrow `e_i` keeps the accounts of `c_i` and `c_{i+1}`. It locks `v_i`
//! on `$` from `c_i`, then either releases it to `c_{i+1}` or refunds it
//! to `c_i`. What decides between the two is each protocol's rule, kept
//! beside the core in its own file: Theorem 1's race of χ against
//! `u + a_i` ([`crate::timebounded::EscrowProcess`]) or Theorem 3's
//! decision certificate ([`crate::weak::WeakEscrow`]).

use crate::msg::PMsg;
use crate::topology::Chain;
use anta::process::{Ctx, Pid};
use ledger::{Asset, DealId, Ledger, Marks};
use std::sync::Arc;
use xcrypto::{KeyId, PaymentId, Pki, Signer};

/// Escrow `e_i`'s neighbours, keys, asset, book and deal; `S` is the
/// rule's run state.
#[derive(Debug, Clone)]
pub(crate) struct EscrowCore<S> {
    /// Chain index `i` of this escrow `e_i`.
    pub(crate) index: usize,
    /// Engine pid of upstream customer `c_i`.
    pub(crate) up: Pid,
    /// Engine pid of downstream customer `c_{i+1}`.
    pub(crate) down: Pid,
    up_key: KeyId,
    down_key: KeyId,
    pub(crate) signer: Signer,
    pub(crate) pki: Arc<Pki>,
    pub(crate) payment: PaymentId,
    /// The value this hop carries.
    asset: Asset,
    marks: &'static Marks,
    pub(crate) st: CoreState<S>,
}

/// An escrow's run state, and its `fp_digest`'s input; the rest of
/// [`EscrowCore`] is setup.
#[derive(Debug, Clone, Hash)]
pub(crate) struct CoreState<S> {
    pub(crate) ledger: Ledger,
    deal: Option<DealId>,
    pub(crate) rule: S,
}

impl<S> EscrowCore<S> {
    /// The core of `chain`'s escrow `e_i` over `ledger`, which must hold
    /// accounts for `c_i` and `c_{i+1}`.
    pub(crate) fn new(
        chain: &Chain,
        i: usize,
        ledger: Ledger,
        marks: &'static Marks,
        rule: S,
    ) -> Self {
        EscrowCore {
            index: i,
            up: chain.topo.customer_pid(i),
            down: chain.topo.customer_pid(i + 1),
            up_key: chain.customer_signer(i).id(),
            down_key: chain.customer_signer(i + 1).id(),
            signer: chain.escrow_signer(i).clone(),
            pki: chain.pki.clone(),
            payment: chain.payment,
            asset: chain.plan.amounts[i],
            marks,
            st: CoreState {
                ledger,
                deal: None,
                rule,
            },
        }
    }

    /// Whether a deal is locked (and not yet settled: settling halts).
    pub(crate) fn locked(&self) -> bool {
        self.st.deal.is_some()
    }

    /// The guarded lock: `$` for this payment and amount, from `c_i`,
    /// while nothing is locked. Returns whether it locked. A customer
    /// without cover is not abiding; the escrow then does not proceed
    /// (and owes nothing).
    pub(crate) fn lock(
        &mut self,
        from: Pid,
        payment: PaymentId,
        asset: Asset,
        ctx: &mut Ctx<PMsg>,
    ) -> bool {
        if from != self.up || payment != self.payment || asset != self.asset || self.locked() {
            return false; // wrong party, wrong deal or a second $: an abiding escrow ignores it
        }
        let Ok(deal) = self.st.ledger.lock(self.up_key, self.down_key, asset) else {
            ctx.mark(self.marks.lock_rejected, self.index as i64);
            return false;
        };
        self.st.deal = Some(deal);
        ctx.mark(self.marks.locked, self.index as i64);
        true
    }

    /// Settles the locked deal: releases it to `c_{i+1}`, or refunds it
    /// to `c_i`, and sends that customer the money.
    pub(crate) fn settle(&mut self, release: bool, ctx: &mut Ctx<PMsg>) {
        let deal = self.st.deal.expect("a rule settles only a locked deal");
        let (settled, to, mark) = if release {
            (self.st.ledger.release(deal), self.down, self.marks.released)
        } else {
            (self.st.ledger.refund(deal), self.up, self.marks.refunded)
        };
        settled.expect("a locked deal settles once: the escrow halts on settling");
        let (payment, asset) = (self.payment, self.asset);
        ctx.send(to, PMsg::Money { payment, asset });
        ctx.mark(mark, self.index as i64);
    }
}
