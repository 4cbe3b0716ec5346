//! Certificates of the cross-chain payment problem.
//!
//! Three certificate kinds appear in the paper:
//!
//! * **χ (receipt)** — *"a certificate signed by Bob saying that Alice's
//!   obligation to pay him has been met"* (§3). Forward-carried up the chain
//!   in the time-bounded protocol of Figure 2.
//! * **χc (commit certificate)** and **χa (abort certificate)** — issued by
//!   the *transaction manager* of the weak-liveness protocol (Definition 2).
//!   Property **CC** requires that the two can never both be issued.
//!
//! The transaction manager may be a single trusted party, a smart contract,
//! or a committee of notaries (< 1/3 unreliable) — hence a decision
//! certificate's authority is either one signature or a quorum
//! ([`Authority`]).

use crate::sha256::{Digest, Sha256};
use crate::sig::{KeyId, Pki, Signature, Signer};
use crate::wire::Payload;
use std::hash::{Hash, Hasher};

/// Domain labels (never reuse across payload kinds).
pub const DOM_RECEIPT: &[u8] = b"xchain/cert/receipt";
/// Domain label for decision certificates.
pub const DOM_DECISION: &[u8] = b"xchain/cert/decision";

/// Globally unique identifier of one payment instance: in practice the hash
/// of the setup agreement (participants, values, session nonce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PaymentId(pub Digest);

/// Fed without the length prefix an array's `Hash` writes: an id is always
/// 32 bytes.
impl Hash for PaymentId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl PaymentId {
    /// Derives a payment id from a session seed and participant list: the
    /// SHA-256 of a [`Payload`] (label, seed, count) followed by each
    /// participant's `be32` id, streamed, so any number of participants
    /// hashes without an allocation.
    pub fn derive<'a, I>(seed: u64, participants: I) -> Self
    where
        I: IntoIterator<Item = &'a KeyId>,
        I::IntoIter: ExactSizeIterator,
    {
        let participants = participants.into_iter();
        let mut head = Payload::new(b"xchain/payment-id");
        head.put_u64(seed).put_u64(participants.len() as u64);
        let mut h = Sha256::new();
        h.update(&head);
        for p in participants {
            h.update(&p.0.to_be_bytes());
        }
        PaymentId(h.finalize())
    }
}

/// χ — Bob's signed statement that Alice's obligation to him is met.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Receipt {
    /// The payment instance this belongs to.
    pub payment: PaymentId,
    /// The issuer's signature.
    pub sig: Signature,
}

impl Receipt {
    /// Canonical signing payload for χ over `payment`.
    pub fn payload(payment: &PaymentId) -> Payload {
        let mut w = Payload::new(DOM_RECEIPT);
        w.put_bytes(&payment.0);
        w
    }

    /// Bob issues χ for `payment`.
    pub fn issue(bob: &Signer, payment: PaymentId) -> Self {
        let payload = Self::payload(&payment);
        Receipt {
            payment,
            sig: bob.sign(DOM_RECEIPT, &payload),
        }
    }

    /// Verifies χ against the expected issuer (Bob's key).
    pub fn verify(&self, pki: &Pki, expected_issuer: KeyId) -> bool {
        self.sig.signer == expected_issuer
            && pki.verify(&self.sig, DOM_RECEIPT, &Self::payload(&self.payment))
    }
}

/// The transaction manager's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Verdict {
    /// χc — the payment is committed; escrows must release downstream.
    Commit,
    /// χa — the payment is aborted; escrows must refund upstream.
    Abort,
}

impl Verdict {
    /// The verdict's one signed byte: 1 for χc, 2 for χa. Decision
    /// certificates and the committee's consensus payloads both write it.
    pub fn wire_tag(self) -> u8 {
        match self {
            Verdict::Commit => 1,
            Verdict::Abort => 2,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Commit => write!(f, "commit(χc)"),
            Verdict::Abort => write!(f, "abort(χa)"),
        }
    }
}

/// Who vouches for a decision certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Authority {
    /// A single trusted transaction manager (or the smart-contract key).
    Single(KeyId),
    /// A notary committee: certificate is valid with ≥ `threshold` distinct
    /// member signatures. The paper requires < 1/3 unreliable notaries, so
    /// for `k` notaries the threshold is [`committee_quorum`]`(k, f)` =
    /// `k − f` with `f = ⌊(k−1)/3⌋`.
    Committee {
        /// Committee member keys.
        members: Vec<KeyId>,
        /// Minimum distinct member signatures required.
        threshold: usize,
    },
}

/// The quorum of a committee of `k` members of which at most `f` are
/// Byzantine: `k − f`. Two quorums share at least `k − 2f` members, more
/// than `f` since `k > 3f`, so at least one honest member, who votes for
/// one value only; and the `k − f` honest members make a quorum by
/// themselves. It is `2f + 1` exactly when `k = 3f + 1`. Panics unless
/// `k > 3f`: no quorum size gives a smaller committee agreement.
pub fn committee_quorum(k: usize, f: usize) -> usize {
    assert!(k > 3 * f, "a committee of {k} cannot tolerate f = {f}");
    k - f
}

impl Authority {
    /// The threshold of a committee of `k` notaries tolerating
    /// `f = ⌊(k−1)/3⌋` Byzantine members: [`committee_quorum`]`(k, f)`.
    pub fn committee(members: Vec<KeyId>) -> Self {
        let k = members.len();
        let f = k.saturating_sub(1) / 3;
        Authority::Committee {
            members,
            threshold: committee_quorum(k, f),
        }
    }
}

/// χc / χa — a decision certificate for one payment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionCert {
    /// The payment instance this belongs to.
    pub payment: PaymentId,
    /// Commit or abort.
    pub verdict: Verdict,
    /// Justifying signatures.
    pub sigs: Vec<Signature>,
}

impl DecisionCert {
    /// Canonical signing payload for a (payment, verdict) pair.
    pub fn payload(payment: &PaymentId, verdict: Verdict) -> Payload {
        let mut w = Payload::new(DOM_DECISION);
        w.put_bytes(&payment.0).put_u8(verdict.wire_tag());
        w
    }

    /// A single-authority certificate (trusted TM / smart contract).
    pub fn issue_single(tm: &Signer, payment: PaymentId, verdict: Verdict) -> Self {
        let payload = Self::payload(&payment, verdict);
        DecisionCert {
            payment,
            verdict,
            sigs: vec![tm.sign(DOM_DECISION, &payload)],
        }
    }

    /// Assembles a committee certificate from collected votes. The caller is
    /// responsible for having gathered enough signatures; verification is
    /// what enforces the threshold.
    pub fn assemble(payment: PaymentId, verdict: Verdict, sigs: Vec<Signature>) -> Self {
        DecisionCert {
            payment,
            verdict,
            sigs,
        }
    }

    /// Verifies the certificate against an authority spec.
    pub fn verify(&self, pki: &Pki, authority: &Authority) -> bool {
        Self::verify_sigs(&self.payment, self.verdict, &self.sigs, pki, authority)
    }

    /// Whether `sigs` would make a certificate of `verdict` on `payment`
    /// that [`DecisionCert::verify`] accepts, without assembling one.
    pub fn verify_sigs(
        payment: &PaymentId,
        verdict: Verdict,
        sigs: &[Signature],
        pki: &Pki,
        authority: &Authority,
    ) -> bool {
        let payload = Self::payload(payment, verdict);
        match authority {
            Authority::Single(id) => sigs
                .iter()
                .any(|s| s.signer == *id && pki.verify(s, DOM_DECISION, &payload)),
            Authority::Committee { members, threshold } => {
                pki.verify_quorum(sigs, DOM_DECISION, &payload, members, *threshold)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Pki, Vec<Signer>) {
        let mut pki = Pki::new(42);
        let signers = pki.register_many(6).into_iter().map(|(_, s)| s).collect();
        (pki, signers)
    }

    fn pid(seed: u64) -> PaymentId {
        PaymentId::derive(seed, &[KeyId(0), KeyId(1)])
    }

    #[test]
    fn receipt_roundtrip() {
        let (pki, s) = setup();
        let bob = &s[1];
        let r = Receipt::issue(bob, pid(1));
        assert!(r.verify(&pki, bob.id()));
    }

    #[test]
    fn a_chi_verified_by_six_parties_costs_one_sign() {
        let count = |f: &dyn Fn()| {
            let before = crate::sha256::compressions();
            f();
            crate::sha256::compressions() - before
        };
        let payment = pid(1);
        let (_, twin) = setup();
        let sign = count(&|| {
            Receipt::issue(&twin[1], payment);
        });
        assert_eq!(sign, 3 + 2, "a receipt's frame, plus the key's first use");
        let (pki, s) = setup();
        let bob = &s[1];
        let total = count(&|| {
            let chi = Receipt::issue(bob, payment);
            for _ in 0..6 {
                assert!(chi.verify(&pki, bob.id()));
            }
        });
        assert_eq!(total, sign, "3 escrows and 3 upstream customers verify χ");
    }

    #[test]
    fn receipt_wrong_issuer_rejected() {
        let (pki, s) = setup();
        let r = Receipt::issue(&s[2], pid(1));
        assert!(
            !r.verify(&pki, s[1].id()),
            "χ must be signed by Bob specifically"
        );
    }

    #[test]
    fn receipt_wrong_payment_rejected() {
        let (pki, s) = setup();
        let mut r = Receipt::issue(&s[1], pid(1));
        r.payment = pid(2);
        assert!(!r.verify(&pki, s[1].id()));
    }

    #[test]
    fn payment_ids_distinct() {
        assert_ne!(pid(1), pid(2));
        assert_ne!(
            PaymentId::derive(1, &[KeyId(0)]),
            PaymentId::derive(1, &[KeyId(1)])
        );
    }

    #[test]
    fn single_decision_roundtrip() {
        let (pki, s) = setup();
        let tm = &s[0];
        let c = DecisionCert::issue_single(tm, pid(9), Verdict::Commit);
        assert!(c.verify(&pki, &Authority::Single(tm.id())));
        assert!(!c.verify(&pki, &Authority::Single(s[1].id())));
    }

    #[test]
    fn verdict_is_signed_not_just_payment() {
        let (pki, s) = setup();
        let tm = &s[0];
        let mut c = DecisionCert::issue_single(tm, pid(9), Verdict::Commit);
        c.verdict = Verdict::Abort; // flip verdict, keep signature
        assert!(!c.verify(&pki, &Authority::Single(tm.id())));
    }

    #[test]
    fn committee_threshold_math() {
        // k − f with f = ⌊(k−1)/3⌋: k=4 → 3; k=5 → 4; k=7 → 5; k=1 → 1.
        // A committee of 2 or 3 tolerates no fault, so every member signs.
        for (k, want) in [
            (1usize, 1usize),
            (2, 2),
            (3, 3),
            (4, 3),
            (5, 4),
            (6, 5),
            (7, 5),
            (10, 7),
        ] {
            let members: Vec<KeyId> = (0..k as u32).map(KeyId).collect();
            match Authority::committee(members) {
                Authority::Committee { threshold, .. } => {
                    assert_eq!(threshold, want, "k={k}")
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn committee_cert_needs_quorum() {
        let (pki, s) = setup();
        let members: Vec<KeyId> = s.iter().take(4).map(|x| x.id()).collect();
        let auth = Authority::committee(members); // threshold 3
        let payload = DecisionCert::payload(&pid(3), Verdict::Abort);
        let votes: Vec<Signature> = s
            .iter()
            .take(2)
            .map(|x| x.sign(DOM_DECISION, &payload))
            .collect();
        let c2 = DecisionCert::assemble(pid(3), Verdict::Abort, votes.clone());
        assert!(!c2.verify(&pki, &auth), "2 of 4 is below threshold 3");
        let mut votes3 = votes;
        votes3.push(s[2].sign(DOM_DECISION, &payload));
        let c3 = DecisionCert::assemble(pid(3), Verdict::Abort, votes3);
        assert!(c3.verify(&pki, &auth));
    }

    #[test]
    fn committee_cert_rejects_nonmembers() {
        let (pki, s) = setup();
        let members: Vec<KeyId> = s.iter().take(3).map(|x| x.id()).collect();
        let auth = Authority::Committee {
            members,
            threshold: 2,
        };
        let payload = DecisionCert::payload(&pid(3), Verdict::Commit);
        // One member + two outsiders: below threshold.
        let sigs = vec![
            s[0].sign(DOM_DECISION, &payload),
            s[4].sign(DOM_DECISION, &payload),
            s[5].sign(DOM_DECISION, &payload),
        ];
        let c = DecisionCert::assemble(pid(3), Verdict::Commit, sigs);
        assert!(!c.verify(&pki, &auth));
    }
}
