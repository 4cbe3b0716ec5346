//! Consensus message alphabet and canonical signing payloads.
//!
//! Every vote is signed; a decision is justified by a quorum of precommit
//! signatures, which doubles as the transferable certificate the
//! transaction manager turns into χc/χa.

use xcrypto::wire::Payload;
use xcrypto::{Signature, Signer};

/// Domain label for consensus votes.
pub const DOM_VOTE: &[u8] = b"xchain/consensus/vote";

/// Values a committee can decide on. Implemented here for the certificate
/// verdict (the transaction manager's use) and for primitive test values.
/// `Hash` feeds a value into the explorer's state fingerprint.
pub trait ConsensusValue: Clone + Eq + std::fmt::Debug + std::hash::Hash + 'static {
    /// Appends the value's canonical byte encoding (must be injective) to
    /// `out` as one length-prefixed byte string.
    fn encode(&self, out: &mut Payload);
}

impl ConsensusValue for u64 {
    fn encode(&self, out: &mut Payload) {
        out.put_bytes(&self.to_be_bytes());
    }
}

impl ConsensusValue for bool {
    fn encode(&self, out: &mut Payload) {
        out.put_bytes(&[u8::from(*self)]);
    }
}

impl ConsensusValue for xcrypto::Verdict {
    fn encode(&self, out: &mut Payload) {
        out.put_bytes(match self {
            xcrypto::Verdict::Commit => &[1],
            xcrypto::Verdict::Abort => &[2],
        });
    }
}

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
pub fn vote_payload<V: ConsensusValue>(
    instance: u64,
    kind: VoteKind,
    round: u32,
    value: Option<&V>,
) -> Payload {
    let mut w = Payload::new(DOM_VOTE);
    w.put_u64(instance).put_u8(kind.tag()).put_u32(round);
    match value {
        Some(v) => v.encode(w.put_u8(1)),
        None => {
            w.put_u8(0);
        }
    }
    w
}

/// Signs a vote.
pub fn sign_vote<V: ConsensusValue>(
    signer: &Signer,
    instance: u64,
    kind: VoteKind,
    round: u32,
    value: Option<&V>,
) -> Signature {
    signer.sign(DOM_VOTE, &vote_payload(instance, kind, round, value))
}

/// The canonical bytes a round leader signs for a proposal. Binds the
/// instance, round, proposed value and (if any) the proof-of-lock round, so
/// a proposal cannot be replayed with a different PoL attached.
pub fn propose_payload<V: ConsensusValue>(
    instance: u64,
    round: u32,
    value: &V,
    pol_round: Option<u32>,
) -> Payload {
    let mut w = Payload::new(DOM_VOTE);
    // 3 is distinct from the VoteKind tags.
    w.put_u64(instance).put_u8(3).put_u32(round);
    value.encode(&mut w);
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
pub fn sign_propose<V: ConsensusValue>(
    signer: &Signer,
    instance: u64,
    round: u32,
    value: &V,
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
pub struct ProofOfLock<V> {
    /// Consensus round number.
    pub round: u32,
    /// The locked value the quorum prevoted.
    pub value: V,
    /// Justifying signatures.
    pub sigs: Vec<Signature>,
}

/// Consensus wire messages for one instance. No `repr(u8)`: it would grow
/// the enum by a word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConsMsg<V> {
    /// Round-`round` leader proposes `value`; `pol` justifies re-proposals.
    Propose {
        /// Consensus round number.
        round: u32,
        /// The proposed value.
        value: V,
        /// Optional proof-of-lock justifying a re-proposal.
        pol: Option<ProofOfLock<V>>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// First-phase vote (`None` = nil).
    Prevote {
        /// Consensus round number.
        round: u32,
        /// The voted value (`None` = nil).
        value: Option<V>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// Second-phase vote; a quorum decides.
    Precommit {
        /// Consensus round number.
        round: u32,
        /// The voted value (`None` = nil).
        value: Option<V>,
        /// The issuer's signature.
        sig: Signature,
    },
    /// Decision broadcast with its justifying precommit quorum (catch-up).
    Decided {
        /// Consensus round number.
        round: u32,
        /// The decided value.
        value: V,
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
        let base = vote_payload(7, VoteKind::Prevote, 3, Some(&42u64));
        assert_ne!(base, vote_payload(8, VoteKind::Prevote, 3, Some(&42u64)));
        assert_ne!(base, vote_payload(7, VoteKind::Precommit, 3, Some(&42u64)));
        assert_ne!(base, vote_payload(7, VoteKind::Prevote, 4, Some(&42u64)));
        assert_ne!(base, vote_payload(7, VoteKind::Prevote, 3, Some(&43u64)));
        assert_ne!(base, vote_payload::<u64>(7, VoteKind::Prevote, 3, None));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut pki = Pki::new(1);
        let (_, signer) = pki.register();
        let sig = sign_vote(&signer, 1, VoteKind::Precommit, 0, Some(&true));
        let payload = vote_payload(1, VoteKind::Precommit, 0, Some(&true));
        assert!(pki.verify(&sig, DOM_VOTE, &payload));
        // A different round does not verify.
        let other = vote_payload(1, VoteKind::Precommit, 1, Some(&true));
        assert!(!pki.verify(&sig, DOM_VOTE, &other));
    }

    #[test]
    fn verdict_encoding_distinct() {
        use xcrypto::Verdict;
        let encoded = |v: Verdict| {
            let mut w = Payload::new(b"");
            v.encode(&mut w);
            w
        };
        assert_ne!(encoded(Verdict::Commit), encoded(Verdict::Abort));
    }
}
