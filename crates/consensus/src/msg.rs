//! Consensus message alphabet and canonical signing payloads.
//!
//! Every vote is signed; a decision is justified by a quorum of precommit
//! signatures, which doubles as the transferable certificate the
//! transaction manager turns into χc/χa.

use xcrypto::wire::Payload;
use xcrypto::{Signature, Signer, Verdict};

/// Domain label for consensus votes.
pub const DOM_VOTE: &[u8] = b"xchain/consensus/vote";

/// Vote phases (wire tags for signing payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteKind {
    /// First-phase vote: "this value looks acceptable this round".
    Prevote,
    /// Second-phase vote: "I have seen a prevote quorum; decide on one".
    Precommit,
}

impl VoteKind {
    fn tag(self) -> u8 {
        match self {
            VoteKind::Prevote => 1,
            VoteKind::Precommit => 2,
        }
    }
}

/// The canonical bytes a notary signs for a vote. `value = None` is the
/// "nil" vote (no proposal seen in time).
pub fn vote_payload(instance: u64, kind: VoteKind, round: u32, value: Option<Verdict>) -> Payload {
    let mut w = Payload::new(DOM_VOTE);
    w.put_u64(instance).put_u8(kind.tag()).put_u32(round);
    match value {
        Some(v) => {
            w.put_u8(1).put_bytes(&[v.wire_tag()]);
        }
        None => {
            w.put_u8(0);
        }
    }
    w
}

/// Signs a vote.
pub fn sign_vote(
    signer: &Signer,
    instance: u64,
    kind: VoteKind,
    round: u32,
    value: Option<Verdict>,
) -> Signature {
    signer.sign(DOM_VOTE, &vote_payload(instance, kind, round, value))
}

/// The canonical bytes a round leader signs for a proposal. Binds the
/// instance, round, proposed value and (if any) the proof-of-lock round, so
/// a proposal cannot be replayed with a different PoL attached.
pub fn propose_payload(
    instance: u64,
    round: u32,
    value: Verdict,
    pol_round: Option<u32>,
) -> Payload {
    let mut w = Payload::new(DOM_VOTE);
    // 3 is distinct from the VoteKind tags.
    w.put_u64(instance)
        .put_u8(3)
        .put_u32(round)
        .put_bytes(&[value.wire_tag()]);
    match pol_round {
        Some(r) => {
            w.put_u8(1).put_u32(r);
        }
        None => {
            w.put_u8(0);
        }
    }
    w
}

/// Signs a proposal.
pub fn sign_propose(
    signer: &Signer,
    instance: u64,
    round: u32,
    value: Verdict,
    pol_round: Option<u32>,
) -> Signature {
    signer.sign(
        DOM_VOTE,
        &propose_payload(instance, round, value, pol_round),
    )
}

/// A proof-of-lock: `2f+1` prevote signatures for `value` at `round`.
/// Carried by proposals to unlock followers locked at earlier rounds —
/// without it, a Byzantine leader could re-propose freely and break
/// agreement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProofOfLock {
    /// Consensus round number.
    pub round: u32,
    /// The locked value the quorum prevoted.
    pub value: Verdict,
    /// Justifying signatures.
    pub sigs: Vec<Signature>,
}

/// Consensus wire messages for one instance. No `repr(u8)`: it would grow
/// the enum by a word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConsMsg {
    /// Round-`round` leader proposes `value`; `pol` justifies re-proposals.
    Propose {
        /// Consensus round number.
        round: u32,
        /// The proposed value.
        value: Verdict,
        /// Optional proof-of-lock justifying a re-proposal.
        pol: Option<ProofOfLock>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// First-phase vote (`None` = nil).
    Prevote {
        /// Consensus round number.
        round: u32,
        /// The voted value (`None` = nil).
        value: Option<Verdict>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// Second-phase vote; a quorum decides.
    Precommit {
        /// Consensus round number.
        round: u32,
        /// The voted value (`None` = nil).
        value: Option<Verdict>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// Decision broadcast with its justifying precommit quorum (catch-up).
    Decided {
        /// Consensus round number.
        round: u32,
        /// The decided value.
        value: Verdict,
        /// Justifying signatures.
        sigs: Vec<Signature>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcrypto::Pki;

    #[test]
    fn payload_injective_in_all_fields() {
        let commit = Some(Verdict::Commit);
        let base = vote_payload(7, VoteKind::Prevote, 3, commit);
        assert_ne!(base, vote_payload(8, VoteKind::Prevote, 3, commit));
        assert_ne!(base, vote_payload(7, VoteKind::Precommit, 3, commit));
        assert_ne!(base, vote_payload(7, VoteKind::Prevote, 4, commit));
        assert_ne!(
            base,
            vote_payload(7, VoteKind::Prevote, 3, Some(Verdict::Abort))
        );
        assert_ne!(base, vote_payload(7, VoteKind::Prevote, 3, None));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut pki = Pki::new(1);
        let (_, signer) = pki.register();
        let commit = Some(Verdict::Commit);
        let sig = sign_vote(&signer, 1, VoteKind::Precommit, 0, commit);
        let payload = vote_payload(1, VoteKind::Precommit, 0, commit);
        assert!(pki.verify(&sig, DOM_VOTE, &payload));
        // A different round does not verify.
        let other = vote_payload(1, VoteKind::Precommit, 1, commit);
        assert!(!pki.verify(&sig, DOM_VOTE, &other));
    }

    /// The exact bytes a notary signs for a vote, a proposal and a decision
    /// certificate share: the commit/abort byte is 1 / 2 in all three, and
    /// a consensus payload writes it as a one-byte string.
    #[test]
    fn verdict_payloads_are_pinned() {
        use xcrypto::{DecisionCert, PaymentId, Verdict};
        const VOTE: &[u8] = b"\0\0\0\0\0\0\0\x15xchain/consensus/vote";
        const DECISION: &[u8] = b"\0\0\0\0\0\0\0\x14xchain/cert/decision";
        const INSTANCE_7: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 7];
        const ROUND_3: &[u8] = &[0, 0, 0, 3];
        const COMMIT: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 1, 1];
        const ABORT: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 1, 2];
        let prevote = |value: &[u8]| [VOTE, INSTANCE_7, &[1], ROUND_3, value].concat();
        assert_eq!(*vote_payload(7, VoteKind::Prevote, 3, None), *prevote(&[0]));
        assert_eq!(
            *vote_payload(7, VoteKind::Prevote, 3, Some(Verdict::Commit)),
            *prevote(&[[1].as_slice(), COMMIT].concat())
        );
        assert_eq!(
            *vote_payload(7, VoteKind::Prevote, 3, Some(Verdict::Abort)),
            *prevote(&[[1].as_slice(), ABORT].concat())
        );
        let propose = |pol: &[u8]| [VOTE, INSTANCE_7, &[3], ROUND_3, COMMIT, pol].concat();
        assert_eq!(
            *propose_payload(7, 3, Verdict::Commit, None),
            *propose(&[0])
        );
        assert_eq!(
            *propose_payload(7, 3, Verdict::Commit, Some(2)),
            *propose(&[1, 0, 0, 0, 2])
        );
        let payment = PaymentId([0xAB; 32]);
        let decision =
            |tag: u8| [DECISION, &[0, 0, 0, 0, 0, 0, 0, 32], &[0xAB; 32], &[tag]].concat();
        assert_eq!(
            *DecisionCert::payload(&payment, Verdict::Commit),
            *decision(1)
        );
        assert_eq!(
            *DecisionCert::payload(&payment, Verdict::Abort),
            *decision(2)
        );
    }

    #[test]
    fn verdict_encoding_distinct() {
        let proposed = |v: Verdict| propose_payload(0, 0, v, None);
        assert_ne!(proposed(Verdict::Commit), proposed(Verdict::Abort));
    }
}
