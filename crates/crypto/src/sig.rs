//! Simulated digital signatures for the "Byzantine model with authentication".
//!
//! The paper's proofs rely on exactly one cryptographic property:
//! **unforgeability** — a Byzantine participant cannot fabricate a message
//! that verifies as signed by a compliant participant. Inside a closed
//! simulation we obtain that property *structurally* rather than
//! computationally:
//!
//! * every key's secret lives only inside the [`Pki`] (private fields, no
//!   accessor) and inside the [`Signer`] capability handed to its owner;
//! * a signature is `HMAC-SHA256(secret, be64(|d|) ‖ d ‖ be64(|m|) ‖ m)`
//!   for domain label `d` and message `m` — the length prefixes make every
//!   `(d, m)` pair unambiguous, so `("ab", "c")` and `("a", "bc")` differ;
//! * [`Pki::verify`] recomputes the tag and returns only a boolean.
//!
//! Byzantine process implementations in this workspace receive a `Signer`
//! for *their own* identity and a shared `&Pki` for verification; the type
//! system therefore enforces EUF-CMA within the simulation. This models the
//! authenticated Byzantine setting of the paper faithfully: adversaries may
//! lie, replay, reorder and collude, but not forge.
//!
//! Real deployments would substitute Ed25519/ECDSA; nothing in the protocol
//! logic depends on the scheme beyond `sign`/`verify`.
//!
//! ## Cost
//!
//! The frame is streamed straight into the MAC, and each key keeps its two
//! HMAC midstates ([`HmacKey`]) once derived, so a sign or verify costs
//! `⌈(16 + |d| + |m| + 9) / 64⌉ + 1` SHA-256 compressions: 4 for a signed
//! promise, 3 for a receipt. The midstates are derived lazily, on a key's
//! first sign or verify (2 compressions, separately in the [`Signer`] and
//! in the [`Pki`] entry), never in [`Pki::register`], which costs exactly
//! the one compression that derives the secret. Set-up cost is why:
//! registering the participants' keys is most of what setting up a payment
//! instance costs, and deriving midstates there would triple that price
//! for every key, whether or not it ever signs.

use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::{sha256_concat, Digest};
use std::sync::OnceLock;

/// Identifies a registered key (and thereby a participant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// A signature: the claimed signer plus the authentication tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The claimed signing key.
    pub signer: KeyId,
    /// The authentication tag.
    pub tag: Digest,
}

/// One key's secret and, from its first sign or verify on, its HMAC
/// midstates.
#[derive(Clone)]
struct Key {
    secret: Digest,
    mac: OnceLock<HmacKey>,
}

impl Key {
    fn new(secret: Digest) -> Self {
        Key {
            secret,
            mac: OnceLock::new(),
        }
    }

    /// The tag over (`domain`, `msg`): the length-prefixed frame streamed
    /// into the MAC, never hashed or copied first.
    fn tag(&self, domain: &[u8], msg: &[u8]) -> Digest {
        let mut mac = self.mac.get_or_init(|| HmacKey::new(&self.secret)).begin();
        mac.update(&(domain.len() as u64).to_be_bytes());
        mac.update(domain);
        mac.update(&(msg.len() as u64).to_be_bytes());
        mac.update(msg);
        mac.finalize()
    }
}

/// Signing capability for one identity. Handed to the owning participant
/// only; cloning is allowed (a participant may run several automata) but the
/// secret never leaves the crypto crate.
#[derive(Clone)]
pub struct Signer {
    id: KeyId,
    key: Key,
}

impl std::fmt::Debug for Signer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        f.debug_struct("Signer")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl Signer {
    /// The identity this capability signs for.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Signs `msg` under domain-separation label `domain`.
    ///
    /// Domain separation prevents cross-protocol replay: a tag produced for
    /// `b"xchain/receipt"` never verifies under `b"xchain/promise"`.
    pub fn sign(&self, domain: &[u8], msg: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.key.tag(domain, msg),
        }
    }
}

/// The simulated public-key infrastructure: registry of all key secrets.
///
/// Shared immutably (`&Pki`) among all participants for verification.
pub struct Pki {
    keys: Vec<Key>,
    /// Separates independent simulation universes: per-key secrets derive
    /// from this seed, so runs with different seeds never cross-verify.
    base_seed: u64,
}

impl std::fmt::Debug for Pki {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the key secrets — only the universe seed and how many
        // keys are registered.
        f.debug_struct("Pki")
            .field("base_seed", &self.base_seed)
            .field("keys", &self.keys.len())
            .finish_non_exhaustive()
    }
}

impl Pki {
    /// Creates an empty PKI seeded deterministically; `seed` separates
    /// independent simulation universes so signatures from one run cannot
    /// collide with another's.
    pub fn new(seed: u64) -> Self {
        Pki {
            keys: Vec::with_capacity(16),
            base_seed: seed,
        }
    }

    /// Registers a new identity, returning its id and signing capability.
    pub fn register(&mut self) -> (KeyId, Signer) {
        let id = KeyId(self.keys.len() as u32);
        let secret = sha256_concat(&[
            b"xchain/pki/secret",
            &self.base_seed.to_be_bytes(),
            &id.0.to_be_bytes(),
        ]);
        self.keys.push(Key::new(secret));
        (
            id,
            Signer {
                id,
                key: Key::new(secret),
            },
        )
    }

    /// Registers `n` identities at once.
    pub fn register_many(&mut self, n: usize) -> Vec<(KeyId, Signer)> {
        (0..n).map(|_| self.register()).collect()
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies that `sig` is a valid signature over (`domain`, `msg`) by
    /// `sig.signer`. Unknown signers verify as false.
    pub fn verify(&self, sig: &Signature, domain: &[u8], msg: &[u8]) -> bool {
        match self.keys.get(sig.signer.0 as usize) {
            None => false,
            Some(key) => verify_tag(&key.tag(domain, msg), &sig.tag),
        }
    }

    /// Verifies a quorum of signatures over the same (`domain`, `msg`):
    /// at least `threshold` *distinct* signers, all drawn from `eligible`,
    /// every tag valid. Used for notary-committee certificates.
    pub fn verify_quorum(
        &self,
        sigs: &[Signature],
        domain: &[u8],
        msg: &[u8],
        eligible: &[KeyId],
        threshold: usize,
    ) -> bool {
        let mut seen: Vec<KeyId> = Vec::with_capacity(sigs.len());
        let mut valid = 0usize;
        for sig in sigs {
            if seen.contains(&sig.signer) {
                continue; // duplicates never count twice
            }
            if !eligible.contains(&sig.signer) {
                continue; // outsiders never count
            }
            if self.verify(sig, domain, msg) {
                seen.push(sig.signer);
                valid += 1;
            }
        }
        valid >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Pki, Vec<Signer>) {
        let mut pki = Pki::new(7);
        let pairs = pki.register_many(n);
        let signers = pairs.into_iter().map(|(_, s)| s).collect();
        (pki, signers)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (pki, signers) = setup(2);
        let sig = signers[0].sign(b"dom", b"hello");
        assert!(pki.verify(&sig, b"dom", b"hello"));
    }

    #[test]
    fn wrong_message_rejected() {
        let (pki, signers) = setup(1);
        let sig = signers[0].sign(b"dom", b"hello");
        assert!(!pki.verify(&sig, b"dom", b"hullo"));
    }

    #[test]
    fn wrong_domain_rejected() {
        let (pki, signers) = setup(1);
        let sig = signers[0].sign(b"dom-a", b"hello");
        assert!(!pki.verify(&sig, b"dom-b", b"hello"));
    }

    #[test]
    fn domain_framing_unambiguous() {
        let (pki, signers) = setup(1);
        // ("ab", "c") must not verify as ("a", "bc").
        let sig = signers[0].sign(b"ab", b"c");
        assert!(!pki.verify(&sig, b"a", b"bc"));
    }

    #[test]
    fn impersonation_rejected() {
        let (pki, signers) = setup(2);
        // Signer 1 signs, then claims to be signer 0.
        let mut sig = signers[1].sign(b"dom", b"msg");
        sig.signer = signers[0].id();
        assert!(!pki.verify(&sig, b"dom", b"msg"));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (pki, signers) = setup(1);
        let mut sig = signers[0].sign(b"dom", b"msg");
        sig.signer = KeyId(999);
        assert!(!pki.verify(&sig, b"dom", b"msg"));
    }

    #[test]
    fn distinct_universes_do_not_cross_verify() {
        let mut pki_a = Pki::new(1);
        let mut pki_b = Pki::new(2);
        let (_, sa) = pki_a.register();
        let (_, _sb) = pki_b.register();
        let sig = sa.sign(b"dom", b"msg");
        assert!(pki_a.verify(&sig, b"dom", b"msg"));
        assert!(!pki_b.verify(&sig, b"dom", b"msg"));
    }

    #[test]
    fn quorum_accepts_at_threshold() {
        let (pki, signers) = setup(4);
        let ids: Vec<KeyId> = signers.iter().map(|s| s.id()).collect();
        let sigs: Vec<Signature> = signers.iter().take(3).map(|s| s.sign(b"q", b"m")).collect();
        assert!(pki.verify_quorum(&sigs, b"q", b"m", &ids, 3));
        assert!(!pki.verify_quorum(&sigs, b"q", b"m", &ids, 4));
    }

    #[test]
    fn quorum_ignores_duplicates() {
        let (pki, signers) = setup(3);
        let ids: Vec<KeyId> = signers.iter().map(|s| s.id()).collect();
        let one = signers[0].sign(b"q", b"m");
        let sigs = vec![one, one, one];
        assert!(!pki.verify_quorum(&sigs, b"q", b"m", &ids, 2));
        assert!(pki.verify_quorum(&sigs, b"q", b"m", &ids, 1));
    }

    #[test]
    fn quorum_ignores_outsiders_and_bad_tags() {
        let (pki, signers) = setup(4);
        let eligible: Vec<KeyId> = signers.iter().take(2).map(|s| s.id()).collect();
        let outsider = signers[3].sign(b"q", b"m"); // valid tag, not eligible
        let mut forged = signers[0].sign(b"q", b"m");
        forged.tag[0] ^= 1; // eligible, invalid tag
        let good = signers[1].sign(b"q", b"m");
        assert!(!pki.verify_quorum(&[outsider, forged, good], b"q", b"m", &eligible, 2));
        assert!(pki.verify_quorum(&[outsider, forged, good], b"q", b"m", &eligible, 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let (_, s1) = setup(1);
        let (_, s2) = setup(1);
        assert_eq!(s1[0].sign(b"d", b"m"), s2[0].sign(b"d", b"m"));
    }

    /// `be64(|d|) ‖ d ‖ be64(|m|) ‖ m`.
    fn frame(domain: &[u8], msg: &[u8]) -> Vec<u8> {
        [
            &(domain.len() as u64).to_be_bytes()[..],
            domain,
            &(msg.len() as u64).to_be_bytes(),
            msg,
        ]
        .concat()
    }

    /// Domain and message lengths around the 64-byte block boundaries.
    fn shapes() -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for d in [0usize, 1, 14, 19, 22, 39, 64] {
            for m in [0usize, 1, 30, 31, 39, 67, 87, 96, 150] {
                out.push((vec![b'd'; d], vec![m as u8; m]));
            }
        }
        out
    }

    #[test]
    fn tag_is_the_oneshot_hmac_of_the_frame() {
        let (_, signers) = setup(2);
        for signer in &signers {
            for (d, m) in shapes() {
                let want = crate::hmac::hmac_sha256(&signer.key.secret, &frame(&d, &m));
                assert_eq!(
                    signer.sign(&d, &m).tag,
                    want,
                    "|d| {}, |m| {}",
                    d.len(),
                    m.len()
                );
            }
        }
    }

    #[test]
    fn tags_do_not_depend_on_when_midstates_were_derived() {
        let (pki, signers) = setup(1);
        let cold = signers[0].clone();
        assert!(cold.key.mac.get().is_none());
        let first = signers[0].sign(b"dom", b"msg");
        let warm = signers[0].clone();
        assert!(
            warm.key.mac.get().is_some(),
            "a clone keeps derived midstates"
        );
        assert!(cold.key.mac.get().is_none(), "an earlier clone stays cold");
        for (d, m) in shapes() {
            let tag = signers[0].sign(&d, &m);
            assert_eq!(cold.sign(&d, &m), tag);
            assert_eq!(warm.sign(&d, &m), tag);
        }
        assert_eq!(cold.sign(b"dom", b"msg"), first);

        let mut forged = first;
        forged.tag[0] ^= 1;
        assert!(pki.keys[0].mac.get().is_none());
        assert!(!pki.verify(&forged, b"dom", b"msg"), "cold entry rejects");
        assert!(pki.keys[0].mac.get().is_some());
        assert!(!pki.verify(&forged, b"dom", b"msg"), "warm entry rejects");
        let (cold_pki, _) = setup(1);
        assert!(
            cold_pki.verify(&first, b"dom", b"msg"),
            "cold entry accepts"
        );
        assert!(pki.verify(&first, b"dom", b"msg"), "warm entry accepts");
    }

    /// SHA-256 compressions `f` runs on this thread.
    fn compressions_in<T>(f: impl FnOnce() -> T) -> u64 {
        let before = crate::sha256::compressions();
        f();
        crate::sha256::compressions() - before
    }

    #[test]
    fn warm_sign_and_verify_cost_the_streamed_frame_plus_one() {
        let (pki, signers) = setup(1);
        let signer = &signers[0];
        pki.verify(&signer.sign(b"", b""), b"", b"");
        for (d, m) in shapes() {
            let warm = (16 + d.len() as u64 + m.len() as u64 + 9).div_ceil(64) + 1;
            let sig = signer.sign(&d, &m);
            assert_eq!(compressions_in(|| signer.sign(&d, &m)), warm);
            assert_eq!(compressions_in(|| pki.verify(&sig, &d, &m)), warm);
        }
    }

    #[test]
    fn a_keys_first_use_costs_two_more() {
        let (pki, signers) = setup(1);
        signers[0].sign(b"", b"");
        for (d, m) in shapes() {
            let (cold_pki, cold_signers) = setup(1);
            let warm = compressions_in(|| signers[0].sign(&d, &m));
            let sig = signers[0].sign(&d, &m);
            assert_eq!(compressions_in(|| cold_signers[0].sign(&d, &m)), warm + 2);
            assert_eq!(compressions_in(|| cold_pki.verify(&sig, &d, &m)), warm + 2);
            assert_eq!(compressions_in(|| cold_pki.verify(&sig, &d, &m)), warm);
            pki.verify(&sig, &d, &m);
            assert_eq!(compressions_in(|| pki.verify(&sig, &d, &m)), warm);
        }
    }

    #[test]
    fn register_costs_exactly_one_compression() {
        let mut pki = Pki::new(3);
        for _ in 0..5 {
            assert_eq!(compressions_in(|| pki.register()), 1);
        }
        assert!(
            pki.keys.iter().all(|k| k.mac.get().is_none()),
            "midstates stay lazy"
        );
    }
}
