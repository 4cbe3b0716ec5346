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
//! * [`Pki::verify`] accepts exactly the tag `HMAC-SHA256(secret, frame)`
//!   and returns only a boolean.
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
//! Each identity has one key, shared by its [`Pki`] entry, its [`Signer`]
//! and every clone of that signer. A sign writes the frame and its SHA-256
//! padding into stack blocks and compresses them straight from the key's
//! inner HMAC midstate, then hashes the one outer block built from the
//! inner digest ([`HmacKey::mac`]). It costs
//! `⌈(16 + |d| + |m| + 9) / 64⌉ + 1` SHA-256 compressions, 4 for a signed
//! promise and 3 for a receipt, and allocates nothing: the payloads are
//! stack [`Payload`](crate::wire::Payload)s too. A frame longer than
//! [`FRAME_CAP`] (none the protocols sign) streams through the midstates
//! at the same count. The key also remembers the first two frames of at
//! most [`FRAME_CAP`] bytes it signs, with their tags (a time-bounded
//! escrow signs exactly two), inline in the key. A verify of a remembered
//! frame is a byte compare of the frame and the tag: 0 compressions. Any
//! other verify computes the tag, at a sign's cost. So Bob's χ, verified
//! by every escrow and every upstream customer, is hashed once. Every
//! verdict is the same pure function of (key, frame, tag) as when every
//! verify recomputed: a remembered tag is the tag of its frame, and a frame
//! that differs in any byte is recomputed.
//!
//! The midstates are derived lazily, on the key's first sign or
//! non-remembered verify: 2 compressions, once per identity. Never in
//! [`Pki::register`], which costs exactly the one compression that derives
//! the secret. Set-up cost is why: registering the participants' keys is
//! most of what setting up a payment instance costs, and deriving
//! midstates there would triple that price for every key, whether or not
//! it ever signs.
//!
//! The midstates and the remembered frames are write-once
//! [`OnceLock`]s: the only state `xcrypto` keeps, and no lock is taken to
//! read it.

use crate::hmac::{verify_tag, HmacKey, ONESHOT_MAX};
use crate::sha256::{sha256_concat, Digest};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The longest frame `be64(|d|) ‖ d ‖ be64(|m|) ‖ m` a sign hashes in one
/// shot and a key remembers: the one-shot HMAC's [`ONESHOT_MAX`].
pub const FRAME_CAP: usize = ONESHOT_MAX;

/// Identifies a registered key (and thereby a participant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// A signature: the claimed signer plus the authentication tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The claimed signing key.
    pub signer: KeyId,
    /// The authentication tag.
    pub tag: Digest,
}

/// The tag is fed without the length prefix an array's `Hash` writes: it
/// is always 32 bytes.
impl Hash for Signature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.signer.hash(state);
        state.write(&self.tag);
    }
}

/// One identity's key, shared by its [`Pki`] entry, its [`Signer`] and
/// every clone of that signer: the secret, its HMAC midstates from the
/// key's first sign or verify on, and the first two frames it signed, each
/// with its tag, inline: one allocation per identity, the `Arc`.
struct Key {
    secret: Digest,
    mac: OnceLock<HmacKey>,
    /// Two, because a time-bounded escrow signs exactly `G(d_i)` and
    /// `P(a_i)`. Write-once, so a remembered tag can never change.
    signed: [OnceLock<Signed>; 2],
}

/// A frame this key signed, and its tag.
struct Signed {
    frame: Frame,
    tag: Digest,
}

/// A frame of at most [`FRAME_CAP`] bytes, held inline. Reads as its bytes.
struct Frame {
    bytes: [u8; FRAME_CAP],
    len: usize,
}

impl Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl Key {
    fn new(secret: Digest) -> Self {
        Key {
            secret,
            mac: OnceLock::new(),
            signed: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The tag over (`domain`, `msg`): the one-shot MAC of the
    /// length-prefixed frame, written straight into the MAC's blocks.
    fn tag(&self, domain: &[u8], msg: &[u8]) -> Digest {
        self.mac.get_or_init(|| HmacKey::new(&self.secret)).mac(&[
            &(domain.len() as u64).to_be_bytes(),
            domain,
            &(msg.len() as u64).to_be_bytes(),
            msg,
        ])
    }

    /// Keeps (`domain`, `msg`)'s frame and `tag` in a free slot, if one is
    /// left and the frame fits [`FRAME_CAP`]. Reads no remembered frame.
    fn remember(&self, domain: &[u8], msg: &[u8], tag: Digest) {
        if 16 + domain.len() + msg.len() > FRAME_CAP {
            return;
        }
        if let Some(slot) = self.signed.iter().find(|s| s.get().is_none()) {
            // A racing sign may have filled the slot first: this frame is
            // then simply not remembered.
            let _ = slot.set(Signed {
                frame: frame(domain, msg),
                tag,
            });
        }
    }

    /// The remembered tag of a frame byte-for-byte equal to
    /// `be64(|d|) ‖ d ‖ be64(|m|) ‖ m`, if this key signed one.
    fn recall(&self, domain: &[u8], msg: &[u8]) -> Option<Digest> {
        let (d, m) = (domain.len(), msg.len());
        self.signed.iter().find_map(|slot| {
            let Signed { frame, tag } = slot.get()?;
            (frame.len() == 16 + d + m
                && frame[..8] == (d as u64).to_be_bytes()
                && frame[8..8 + d] == *domain
                && frame[8 + d..16 + d] == (m as u64).to_be_bytes()
                && frame[16 + d..] == *msg)
                .then_some(*tag)
        })
    }
}

/// `be64(|d|) ‖ d ‖ be64(|m|) ‖ m`, inline. Panics past [`FRAME_CAP`].
fn frame(domain: &[u8], msg: &[u8]) -> Frame {
    let mut f = Frame {
        bytes: [0; FRAME_CAP],
        len: 0,
    };
    for part in [
        &(domain.len() as u64).to_be_bytes()[..],
        domain,
        &(msg.len() as u64).to_be_bytes(),
        msg,
    ] {
        f.bytes[f.len..f.len + part.len()].copy_from_slice(part);
        f.len += part.len();
    }
    f
}

/// Signing capability for one identity. Handed to the owning participant
/// only; cloning is allowed (a participant may run several automata) but the
/// secret never leaves the crypto crate. Every clone shares one key with
/// the identity's [`Pki`] entry, so the midstates are derived once per
/// identity, and a frame any of them signs is remembered for all.
#[derive(Clone)]
pub struct Signer {
    id: KeyId,
    key: Arc<Key>,
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
        let tag = self.key.tag(domain, msg);
        self.key.remember(domain, msg, tag);
        Signature {
            signer: self.id,
            tag,
        }
    }
}

/// The simulated public-key infrastructure: registry of all key secrets.
///
/// Shared immutably (`&Pki`) among all participants for verification.
pub struct Pki {
    keys: Vec<Arc<Key>>,
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
        let key = Arc::new(Key::new(secret));
        self.keys.push(Arc::clone(&key));
        (id, Signer { id, key })
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
    /// `sig.signer`. Unknown signers verify as false. The tag `sig` must
    /// carry is the one the signer's key remembers for this frame, if it
    /// signed it, and is computed otherwise: the same tag either way.
    pub fn verify(&self, sig: &Signature, domain: &[u8], msg: &[u8]) -> bool {
        match self.keys.get(sig.signer.0 as usize) {
            None => false,
            Some(key) => {
                let want = key
                    .recall(domain, msg)
                    .unwrap_or_else(|| key.tag(domain, msg));
                verify_tag(&want, &sig.tag)
            }
        }
    }

    /// Verifies a quorum of signatures over the same (`domain`, `msg`):
    /// at least `threshold` members of `eligible` each with at least one
    /// valid signature in `sigs`. `eligible` must hold distinct keys. A
    /// member counts once however many of its signatures verify, an
    /// outsider never. Used for notary-committee certificates.
    pub fn verify_quorum(
        &self,
        sigs: &[Signature],
        domain: &[u8],
        msg: &[u8],
        eligible: &[KeyId],
        threshold: usize,
    ) -> bool {
        let signed = |member: &KeyId| {
            sigs.iter()
                .any(|sig| sig.signer == *member && self.verify(sig, domain, msg))
        };
        eligible.iter().filter(|member| signed(member)).count() >= threshold
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
        // A forgery followed by a valid signature from the same member
        // counts that member once.
        let honest = signers[0].sign(b"q", b"m");
        let sigs = [forged, honest, good];
        assert!(pki.verify_quorum(&sigs, b"q", b"m", &eligible, 2));
        assert!(!pki.verify_quorum(&sigs, b"q", b"m", &eligible, 3));
        assert!(!pki.verify_quorum(&[forged, honest, honest], b"q", b"m", &eligible, 2));
    }

    #[test]
    fn deterministic_across_runs() {
        let (_, s1) = setup(1);
        let (_, s2) = setup(1);
        assert_eq!(s1[0].sign(b"d", b"m"), s2[0].sign(b"d", b"m"));
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
        assert!(Arc::ptr_eq(&cold.key, &pki.keys[0]), "one key per identity");
        assert!(cold.key.mac.get().is_none());
        let first = signers[0].sign(b"dom", b"msg");
        assert!(
            cold.key.mac.get().is_some(),
            "a clone made before first use shares the midstates derived since"
        );
        let (_, fresh) = setup(1);
        for (d, m) in shapes() {
            let tag = signers[0].sign(&d, &m);
            assert_eq!(cold.sign(&d, &m), tag);
            assert_eq!(fresh[0].sign(&d, &m), tag, "derived in another order");
        }

        let mut forged = first;
        forged.tag[0] ^= 1;
        let (cold_pki, _) = setup(1);
        assert!(
            !cold_pki.verify(&forged, b"dom", b"msg"),
            "cold entry rejects"
        );
        assert!(cold_pki.keys[0].mac.get().is_some());
        assert!(
            !cold_pki.verify(&forged, b"dom", b"msg"),
            "warm entry rejects"
        );
        assert!(
            !pki.verify(&forged, b"dom", b"msg"),
            "remembered frame rejects"
        );
        let (cold_pki, _) = setup(1);
        assert!(
            cold_pki.verify(&first, b"dom", b"msg"),
            "cold entry accepts"
        );
        assert!(
            cold_pki.verify(&first, b"dom", b"msg"),
            "warm entry accepts"
        );
        assert!(
            pki.verify(&first, b"dom", b"msg"),
            "remembered frame accepts"
        );
    }

    /// SHA-256 compressions `f` runs on this thread.
    fn compressions_in<T>(f: impl FnOnce() -> T) -> u64 {
        let before = crate::sha256::compressions();
        f();
        crate::sha256::compressions() - before
    }

    /// What a sign costs once the key's midstates are derived.
    fn sign_cost(d: &[u8], m: &[u8]) -> u64 {
        (16 + d.len() as u64 + m.len() as u64 + 9).div_ceil(64) + 1
    }

    #[test]
    fn a_sign_costs_the_streamed_frame_plus_one_and_a_remembered_verify_none() {
        for (d, m) in shapes() {
            let (pki, signers) = setup(2);
            let signer = &signers[0];
            signer.sign(b"warm", b"up");
            let mut sig = None;
            assert_eq!(
                compressions_in(|| sig = Some(signer.sign(&d, &m))),
                sign_cost(&d, &m)
            );
            let sig = sig.unwrap();
            assert_eq!(compressions_in(|| pki.verify(&sig, &d, &m)), 0);
            let mut forged = sig;
            forged.tag[31] ^= 0x80;
            assert_eq!(compressions_in(|| pki.verify(&forged, &d, &m)), 0);
            assert!(!pki.verify(&forged, &d, &m));

            // Both slots are taken: a third frame is signed and verified at
            // a sign's cost, as is a frame the key never signed.
            let m3 = [&m[..], b"3"].concat();
            let third = signer.sign(&d, &m3);
            assert_eq!(compressions_in(|| signer.sign(&d, &m3)), sign_cost(&d, &m3));
            assert_eq!(
                compressions_in(|| assert!(pki.verify(&third, &d, &m3))),
                sign_cost(&d, &m3)
            );
            let unsigned = Signature {
                signer: signers[1].id(),
                tag: sig.tag,
            };
            signers[1].sign(b"warm", b"up");
            assert_eq!(
                compressions_in(|| assert!(!pki.verify(&unsigned, &d, &m))),
                sign_cost(&d, &m)
            );
        }
    }

    #[test]
    fn a_keys_first_use_costs_two_more_once_per_identity() {
        for (d, m) in shapes() {
            let warm = sign_cost(&d, &m);
            let m2 = [&m[..], b"2"].concat();
            let (_, twin) = setup(1);
            let sig2 = twin[0].sign(&d, &m2);

            // First use through a clone made before any use.
            let (pki, signers) = setup(1);
            let clone = signers[0].clone();
            assert_eq!(compressions_in(|| clone.sign(&d, &m)), warm + 2);
            assert_eq!(compressions_in(|| signers[0].sign(&d, &m)), warm);
            assert_eq!(
                compressions_in(|| assert!(pki.verify(&sig2, &d, &m2))),
                sign_cost(&d, &m2),
                "the PKI entry shares the midstates"
            );

            // First use through the PKI entry: a verify it must compute.
            let (pki, signers) = setup(1);
            let sig = twin[0].sign(&d, &m);
            assert_eq!(
                compressions_in(|| assert!(pki.verify(&sig, &d, &m))),
                warm + 2
            );
            assert_eq!(compressions_in(|| assert!(pki.verify(&sig, &d, &m))), warm);
            assert_eq!(compressions_in(|| signers[0].clone().sign(&d, &m)), warm);
            assert_eq!(compressions_in(|| assert!(pki.verify(&sig, &d, &m))), 0);
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
        assert!(
            pki.keys
                .iter()
                .all(|k| k.signed.iter().all(|s| s.get().is_none())),
            "no frame is remembered before a sign"
        );
    }

    /// Verifies of (`d`, `m`) under `sig` that must all be rejected once
    /// `sig` is a genuine signature over it: each is a forgery of a frame
    /// the key may remember. Returns (signature, domain, message) triples.
    fn forgeries(
        sig: Signature,
        others: &[KeyId],
        d: &[u8],
        m: &[u8],
    ) -> Vec<(Signature, Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for byte in 0..32 {
            let mut f = sig;
            f.tag[byte] ^= 1 << (byte % 8);
            out.push((f, d.to_vec(), m.to_vec()));
        }
        for &other in others {
            out.push((
                Signature {
                    signer: other,
                    tag: sig.tag,
                },
                d.to_vec(),
                m.to_vec(),
            ));
        }
        // The same bytes re-split, and re-split so that the bytes at the
        // domain's and the message's positions equal the signed frame's.
        let joined = [d, m].concat();
        let framed = frame(d, m);
        for k in (0..=joined.len()).filter(|&k| k != d.len()) {
            out.push((sig, joined[..k].to_vec(), joined[k..].to_vec()));
            if 16 + k <= framed.len() {
                out.push((sig, framed[8..8 + k].to_vec(), framed[16 + k..].to_vec()));
            }
        }
        for cut in 0..m.len() {
            out.push((sig, d.to_vec(), m[..cut].to_vec()));
        }
        out.push((sig, d.to_vec(), [m, b"\0"].concat()));
        out.push((sig, d.to_vec(), [m, b"x"].concat()));
        out.push((sig, [d, b"x"].concat(), m.to_vec()));
        out.push((sig, b"xchain/other".to_vec(), m.to_vec()));
        if let Some((last, head)) = d.split_last() {
            out.push((sig, [head, &[last ^ 1]].concat(), m.to_vec()));
        }
        out
    }

    #[test]
    fn forgeries_over_a_remembered_frame_are_rejected() {
        let cases: [(&[u8], &[u8]); 3] = [
            (b"ab", b"c"),
            (b"xchain/receipt", &[7; 40]),
            (b"", b"\0\0\0\0\0\0\0\x01c"),
        ];
        for (d, m) in cases {
            let (pki, signers) = setup(3);
            let sig = signers[0].sign(d, m);
            signers[1].sign(d, m); // another key remembers the same frame
            assert_eq!(pki.keys[0].recall(d, m), Some(sig.tag));
            assert!(pki.verify(&sig, d, m));
            let others = [signers[1].id(), signers[2].id(), KeyId(3)];
            for (f, fd, fm) in forgeries(sig, &others, d, m) {
                assert!(
                    !pki.verify(&f, &fd, &fm),
                    "forgery of ({d:?}, {m:?}) accepted: {:?} over ({fd:?}, {fm:?})",
                    f.signer
                );
            }
            assert!(pki.verify(&sig, d, m), "still accepted after the forgeries");
        }
    }

    #[test]
    fn verdicts_equal_the_recomputed_hmac_over_random_steps() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let shapes = shapes();
        let (mut pki, mut signers) = setup(3);
        let mut signed: Vec<(Signature, Vec<u8>, Vec<u8>)> = Vec::new();
        let (mut remembered, mut computed) = (0, 0);
        for step in 0..12_000u64 {
            if step % 60 == 0 {
                // A fresh universe, so new frames take the slots.
                pki = Pki::new(step);
                signers = pki.register_many(3).into_iter().map(|(_, s)| s).collect();
                signed.clear();
            }
            let roll = next() % 8;
            if signed.is_empty() || roll < 3 {
                let signer = &signers[(next() % 3) as usize];
                let (d, mut m) = shapes[(next() % shapes.len() as u64) as usize].clone();
                if let Some(b) = m.first_mut() {
                    *b = next() as u8 % 4;
                }
                signed.push((signer.sign(&d, &m), d, m));
                continue;
            }
            let (sig, d, m) = signed[(next() % signed.len() as u64) as usize].clone();
            let (sig, d, m) = if roll < 5 {
                (sig, d, m)
            } else {
                let others: Vec<KeyId> = (0..4).map(KeyId).filter(|&k| k != sig.signer).collect();
                let mut all = forgeries(sig, &others, &d, &m);
                all.swap_remove((next() % all.len() as u64) as usize)
            };
            let want = pki.keys.get(sig.signer.0 as usize).is_some_and(|key| {
                verify_tag(
                    &crate::hmac::hmac_sha256(&key.secret, &frame(&d, &m)),
                    &sig.tag,
                )
            });
            match pki.keys.get(sig.signer.0 as usize) {
                Some(key) if key.recall(&d, &m).is_some() => remembered += 1,
                _ => computed += 1,
            }
            assert_eq!(pki.verify(&sig, &d, &m), want, "step {step}");
        }
        assert!(
            remembered > 1_000 && computed > 1_000,
            "both paths exercised: {remembered} remembered, {computed} computed"
        );
    }

    #[test]
    fn verdicts_under_a_concurrent_signer_equal_the_single_threaded_ones() {
        use std::sync::Barrier;
        for round in 0..20u64 {
            // The cases' signatures come from a twin universe, so only the
            // signing thread fills this universe's slots.
            let mut twin = Pki::new(round);
            let twins = twin.register_many(3);
            let mut cases = Vec::new();
            for (i, (d, m)) in shapes().into_iter().step_by(7).enumerate() {
                let sig = twins[i % 3].1.sign(&d, &m);
                cases.extend(forgeries(sig, &[KeyId(((i + 1) % 3) as u32)], &d, &m));
                cases.push((sig, d, m));
            }
            let want: Vec<bool> = cases.iter().map(|(s, d, m)| twin.verify(s, d, m)).collect();
            assert!(want.iter().any(|&v| v) && want.iter().any(|&v| !v));

            let mut pki = Pki::new(round);
            let signers: Vec<Signer> = pki.register_many(3).into_iter().map(|(_, s)| s).collect();
            let pki = Arc::new(pki);
            let start = Barrier::new(5);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (pki, cases, want, start) = (Arc::clone(&pki), &cases, &want, &start);
                    scope.spawn(move || {
                        start.wait();
                        for k in 0..cases.len() {
                            let i = (k + t * 97) % cases.len();
                            let (sig, d, m) = &cases[i];
                            assert_eq!(pki.verify(sig, d, m), want[i], "round {round}, case {i}");
                        }
                    });
                }
                start.wait();
                for ((sig, d, m), _) in cases.iter().zip(&want).filter(|(_, &ok)| ok) {
                    signers[sig.signer.0 as usize].sign(d, m);
                }
            });
        }
    }
}
