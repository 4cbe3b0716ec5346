//! The message alphabet of the cross-chain payment protocols.
//!
//! §4 of the paper: *"We consider three kinds of messages: (i) certificate
//! χ, signed by Bob, (ii) the value $ that is transmitted from one
//! participant to another, and (iii) promises made by escrow e_i to its
//! customers c_i and c_{i+1}"* — the guarantees `G(d)` and `P(a)`. The weak
//! protocol of Theorem 3 adds the transaction-manager traffic: lock
//! notifications, Bob's acceptance, abort requests, decision certificates,
//! and (for the notary-committee manager) embedded consensus messages.
//!
//! Promises are signed by the issuing escrow so a Byzantine escrow cannot
//! disown them and a Byzantine customer cannot fabricate them.

use anta::time::SimDuration;
use consensus::ConsMsg;
use ledger::Asset;
use xcrypto::wire::Payload;
use xcrypto::{DecisionCert, KeyId, PaymentId, Pki, Receipt, Signature, Signer, Verdict};

/// Domain label for escrow promises.
pub const DOM_PROMISE: &[u8] = b"xchain/payment/promise";
/// Domain label for weak-protocol transaction-manager inputs.
pub const DOM_TM_INPUT: &[u8] = b"xchain/payment/tm-input";

/// Which promise a signature covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PromiseKind {
    /// `G(d)` — to the upstream customer: "if I receive $ from you at my
    /// local time w, I will send you either $ or χ by my local time w + d."
    Guarantee,
    /// `P(a)` — to the downstream customer: "if I receive χ from you at my
    /// time v, with v < now + a, then I will send you $ by my local time
    /// v + ε."
    Promise,
}

/// Canonical signing payload of escrow `e_i`'s promise: 87 bytes, the
/// longest payload the workspace signs.
pub fn promise_payload(
    kind: PromiseKind,
    payment: &PaymentId,
    escrow_index: usize,
    bound: SimDuration,
) -> Payload {
    let mut w = Payload::new(DOM_PROMISE);
    w.put_u8(match kind {
        PromiseKind::Guarantee => 1,
        PromiseKind::Promise => 2,
    })
    .put_bytes(&payment.0)
    .put_u64(escrow_index as u64)
    .put_u64(bound.ticks());
    w
}

/// A signed escrow promise (`G(d)` or `P(a)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedPromise {
    /// Which promise the signature covers.
    pub kind: PromiseKind,
    /// The payment instance this belongs to.
    pub payment: PaymentId,
    /// Index `i` of the issuing escrow `e_i`.
    pub escrow_index: usize,
    /// The promised bound: `d_i` for guarantees, `a_i` for promises.
    pub bound: SimDuration,
    /// The issuer's signature.
    pub sig: Signature,
}

impl SignedPromise {
    /// Escrow `e_i` issues a promise.
    pub fn issue(
        signer: &Signer,
        kind: PromiseKind,
        payment: PaymentId,
        escrow_index: usize,
        bound: SimDuration,
    ) -> Self {
        let payload = promise_payload(kind, &payment, escrow_index, bound);
        SignedPromise {
            kind,
            payment,
            escrow_index,
            bound,
            sig: signer.sign(DOM_PROMISE, &payload),
        }
    }

    /// Verifies the promise against the expected escrow key.
    pub fn verify(&self, pki: &Pki, expected_escrow: KeyId) -> bool {
        self.sig.signer == expected_escrow
            && pki.verify(
                &self.sig,
                DOM_PROMISE,
                &promise_payload(self.kind, &self.payment, self.escrow_index, self.bound),
            )
    }
}

/// Weak-protocol inputs to the transaction manager, each signed by its
/// originator so the manager's decision is justified by evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TmInputKind {
    /// Escrow `e_i` reports that its deal is locked.
    Locked,
    /// A customer requests an abort (lost patience).
    AbortRequest,
}

/// Canonical signing payload of a transaction-manager input.
pub fn tm_input_payload(kind: TmInputKind, payment: &PaymentId, index: u64) -> Payload {
    let mut w = Payload::new(DOM_TM_INPUT);
    w.put_u8(match kind {
        TmInputKind::Locked => 1,
        TmInputKind::AbortRequest => 2,
    })
    .put_bytes(&payment.0)
    .put_u64(index);
    w
}

/// A signed transaction-manager input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TmInput {
    /// A lock report or an abort request.
    pub kind: TmInputKind,
    /// The payment instance this belongs to.
    pub payment: PaymentId,
    /// `Locked`: the escrow index. `AbortRequest`: the customer index.
    pub index: u64,
    /// The issuer's signature.
    pub sig: Signature,
}

impl TmInput {
    /// Signs a TM input.
    pub fn issue(signer: &Signer, kind: TmInputKind, payment: PaymentId, index: u64) -> Self {
        let payload = tm_input_payload(kind, &payment, index);
        TmInput {
            kind,
            payment,
            index,
            sig: signer.sign(DOM_TM_INPUT, &payload),
        }
    }

    /// Verifies origin authenticity against the expected signer.
    pub fn verify(&self, pki: &Pki, expected: KeyId) -> bool {
        self.sig.signer == expected
            && pki.verify(
                &self.sig,
                DOM_TM_INPUT,
                &tm_input_payload(self.kind, &self.payment, self.index),
            )
    }
}

/// Every message exchanged in the payment protocols. No `repr(u8)`: the
/// tag would no longer fit in a variant's padding, and every queued event
/// would grow by a word.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PMsg {
    /// `G(d_i)` or `P(a_i)` from an escrow.
    Promise(SignedPromise),
    /// `$` — a value transfer / lock instruction / payout notification.
    Money {
        /// The payment instance this belongs to.
        payment: PaymentId,
        /// The value at stake.
        asset: Asset,
    },
    /// `χ` — Bob's receipt.
    Receipt(Receipt),
    /// Weak protocol: signed lock notice or abort request to the TM.
    TmInput(TmInput),
    /// Weak protocol: Bob's signed acceptance sent to the TM (χ addressed
    /// to the manager rather than up the chain).
    Accept(Receipt),
    /// Weak protocol: the decision certificate χc / χa.
    Decision(DecisionCert),
    /// Weak protocol, notary-committee manager: embedded consensus traffic.
    Cons(ConsMsg),
}

impl PMsg {
    /// Human-readable kind tag (used in trace comparisons and experiment
    /// tables).
    pub fn kind(&self) -> &'static str {
        match self {
            PMsg::Promise(p) => match p.kind {
                PromiseKind::Guarantee => "G",
                PromiseKind::Promise => "P",
            },
            PMsg::Money { .. } => "$",
            PMsg::Receipt(_) => "chi",
            PMsg::TmInput(t) => match t.kind {
                TmInputKind::Locked => "locked",
                TmInputKind::AbortRequest => "abort-req",
            },
            PMsg::Accept(_) => "accept",
            PMsg::Decision(d) => match d.verdict {
                Verdict::Commit => "chi-c",
                Verdict::Abort => "chi-a",
            },
            PMsg::Cons(_) => "cons",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Pki, Vec<Signer>, PaymentId) {
        let mut pki = Pki::new(5);
        let signers: Vec<Signer> = pki.register_many(4).into_iter().map(|(_, s)| s).collect();
        let ids: Vec<KeyId> = signers.iter().map(|s| s.id()).collect();
        let payment = PaymentId::derive(1, &ids);
        (pki, signers, payment)
    }

    #[test]
    fn promise_roundtrip() {
        let (pki, s, payment) = setup();
        let p = SignedPromise::issue(
            &s[0],
            PromiseKind::Guarantee,
            payment,
            0,
            SimDuration::from_millis(10),
        );
        assert!(p.verify(&pki, s[0].id()));
        assert!(!p.verify(&pki, s[1].id()));
    }

    #[test]
    fn promise_tamper_detected() {
        let (pki, s, payment) = setup();
        let mut p = SignedPromise::issue(
            &s[0],
            PromiseKind::Promise,
            payment,
            2,
            SimDuration::from_millis(10),
        );
        p.bound = SimDuration::from_millis(99); // inflate the deadline
        assert!(!p.verify(&pki, s[0].id()));
        let mut q = SignedPromise::issue(
            &s[0],
            PromiseKind::Promise,
            payment,
            2,
            SimDuration::from_millis(10),
        );
        q.kind = PromiseKind::Guarantee; // reinterpret P as G
        assert!(!q.verify(&pki, s[0].id()));
    }

    #[test]
    fn tm_input_roundtrip_and_tamper() {
        let (pki, s, payment) = setup();
        let t = TmInput::issue(&s[2], TmInputKind::Locked, payment, 2);
        assert!(t.verify(&pki, s[2].id()));
        assert!(!t.verify(&pki, s[0].id()));
        let mut bad = t;
        bad.kind = TmInputKind::AbortRequest; // flip lock into abort request
        assert!(!bad.verify(&pki, s[2].id()));
        let mut bad2 = t;
        bad2.index = 0;
        assert!(!bad2.verify(&pki, s[2].id()));
    }

    #[test]
    fn message_kinds() {
        let (_, s, payment) = setup();
        let g = PMsg::Promise(SignedPromise::issue(
            &s[0],
            PromiseKind::Guarantee,
            payment,
            0,
            SimDuration::ZERO,
        ));
        assert_eq!(g.kind(), "G");
        let m = PMsg::Money {
            payment,
            asset: Asset::new(ledger::CurrencyId(0), 5),
        };
        assert_eq!(m.kind(), "$");
        let chi = PMsg::Receipt(Receipt::issue(&s[3], payment));
        assert_eq!(chi.kind(), "chi");
        let d = PMsg::Decision(DecisionCert::issue_single(&s[0], payment, Verdict::Abort));
        assert_eq!(d.kind(), "chi-a");
    }
}
