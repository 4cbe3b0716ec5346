//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on [`crate::sha256`](mod@crate::sha256).
//!
//! Used as the MAC underlying the simulated signature scheme in
//! [`crate::sig`]: within the simulation, a signature by key `k` over message
//! `m` is `HMAC(secret_k, m)`, with the secret held exclusively by the PKI
//! (see `sig.rs` for the unforgeability argument).
//!
//! An [`HmacKey`] is a key with its two keyed chaining states precomputed:
//! SHA-256's state after the one block `key ⊕ ipad`, and after `key ⊕ opad`.
//! Deriving them costs two compressions; every MAC the key computes
//! afterwards skips both, so a key that is used more than once pays them
//! once. [`hmac_sha256`] is the one-shot form and derives them per call.
//!
//! [`HmacKey::mac`] is the one-shot MAC of a message given in parts: a
//! message of at most [`ONESHOT_MAX`] bytes is written and padded in stack
//! blocks and compressed straight from the inner midstate, and the outer
//! pass's one block is built from the inner digest in place. Longer
//! messages stream through [`HmacKey::begin`]. Both paths run the same
//! compressions and give the same tag.

use crate::sha256::{compress_blocks, pad_parts, state_digest, Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Blocks in the stack buffer of [`HmacKey::mac`]'s one-shot path.
const ONESHOT_BLOCKS: usize = 4;

/// The longest message [`HmacKey::mac`] pads and compresses in its stack
/// buffer: four blocks less SHA-256's nine bytes of padding. Every frame
/// the workspace signs is shorter.
pub const ONESHOT_MAX: usize = ONESHOT_BLOCKS * BLOCK_LEN - 9;

/// An HMAC-SHA256 key, held as its inner and outer keyed midstates.
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Derives the midstates of `key` (any length; keys longer than one
    /// block are hashed first, per the RFC): two compressions.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner: Sha256::block_midstate(&k.map(|b| b ^ IPAD)),
            outer: Sha256::block_midstate(&k.map(|b| b ^ OPAD)),
        }
    }

    /// Starts one MAC under this key; the key is reusable.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume_after_block(self.inner),
            outer: self.outer,
        }
    }

    /// The MAC of the concatenation of `parts`, in one shot when it is at
    /// most [`ONESHOT_MAX`] bytes and streamed otherwise. The same tag as
    /// [`HmacKey::begin`] fed the parts, at the same
    /// `⌈(|parts| + 9) / 64⌉ + 1` compressions.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut buf = [0u8; ONESHOT_BLOCKS * BLOCK_LEN];
        let Some(blocks) = pad_parts(&mut buf, parts, BLOCK_LEN as u64) else {
            let mut h = self.begin();
            for p in parts {
                h.update(p);
            }
            return h.finalize();
        };
        let mut inner = self.inner;
        compress_blocks(&mut inner, blocks);
        outer_pass(self.outer, &state_digest(&inner))
    }
}

/// The outer hash from the key's outer midstate: one block, the inner
/// digest padded in place.
fn outer_pass(mut state: [u32; 8], inner: &Digest) -> Digest {
    let mut block = [0u8; BLOCK_LEN];
    let blocks = pad_parts(&mut block, &[inner], BLOCK_LEN as u64)
        .expect("a digest and its padding fit one block");
    compress_blocks(&mut state, blocks);
    state_digest(&state)
}

/// One incremental HMAC-SHA256 computation, started by [`HmacKey::begin`].
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The key's outer midstate, resumed for the outer pass.
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC computation: one compression for the outer pass.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume_after_block(self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[msg])
}

/// Constant-time comparison of two digests.
///
/// Inside a simulation timing attacks are not modelled, but the checker is
/// branch-free anyway so the primitive is honest about its contract.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut acc = 0u8;
    for i in 0..DIGEST_LEN {
        acc |= expected[i] ^ actual[i];
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            to_hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"incremental-key";
        let msg = b"part one / part two / part three";
        let oneshot = hmac_sha256(key, msg);
        let mut h = HmacKey::new(key).begin();
        h.update(b"part one / ");
        h.update(b"part two / ");
        h.update(b"part three");
        assert_eq!(h.finalize(), oneshot);
    }

    /// HMAC straight from RFC 2104's definition, over plain SHA-256.
    fn textbook_hmac(key: &[u8], msg: &[u8]) -> Digest {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let inner = crate::sha256::sha256_concat(&[&k.map(|b| b ^ IPAD), msg]);
        crate::sha256::sha256_concat(&[&k.map(|b| b ^ OPAD), &inner])
    }

    #[test]
    fn reused_key_equals_oneshot_for_every_key_length() {
        for key_len in [0usize, 1, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 % 256) as u8).collect();
            let hk = HmacKey::new(&key);
            for msg_len in [0usize, 1, 23, 55, 56, 64, 119, 120, 200] {
                let msg = vec![msg_len as u8; msg_len];
                let mut h = hk.begin();
                h.update(&msg);
                let tag = h.finalize();
                assert_eq!(tag, hmac_sha256(&key, &msg), "key {key_len}, msg {msg_len}");
                assert_eq!(
                    tag,
                    textbook_hmac(&key, &msg),
                    "key {key_len}, msg {msg_len}"
                );
            }
        }
    }

    const _: () = assert!(ONESHOT_MAX < 300, "the test below crosses the fallback");

    /// Every message length from 0 to 300 bytes: the inner hash's padding
    /// boundaries at 55/56 and 119/120, the one-shot buffer's end at
    /// `ONESHOT_MAX` and the streaming fallback past it. Split into parts
    /// several ways, the one-shot MAC equals the streamed one.
    #[test]
    fn oneshot_mac_equals_the_streamed_mac_at_every_length() {
        let hk = HmacKey::new(b"differential");
        let data: Vec<u8> = (0..300u16).map(|i| (i * 31 % 251) as u8).collect();
        for len in 0..=300 {
            let msg = &data[..len];
            let mut h = hk.begin();
            h.update(msg);
            let want = h.finalize();
            let (a, b) = msg.split_at(len / 3);
            let (b, c) = b.split_at(b.len() / 2);
            assert_eq!(hk.mac(&[msg]), want, "len {len}");
            assert_eq!(hk.mac(&[a, b, c]), want, "len {len}, three parts");
            assert_eq!(hk.mac(&[&[], msg, &[]]), want, "len {len}, empty parts");
        }
    }

    #[test]
    fn reused_key_reproduces_rfc4231_vectors() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in cases {
            let hk = HmacKey::new(key);
            for _ in 0..3 {
                let mut other = hk.begin();
                other.update(b"an unrelated message in between");
                other.finalize();
                let mut h = hk.begin();
                h.update(msg);
                assert_eq!(to_hex(&h.finalize()), want);
            }
        }
    }

    #[test]
    fn key_sensitivity() {
        let a = hmac_sha256(b"key-a", b"msg");
        let b = hmac_sha256(b"key-b", b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn message_sensitivity() {
        let a = hmac_sha256(b"key", b"msg-1");
        let b = hmac_sha256(b"key", b"msg-2");
        assert_ne!(a, b);
    }

    #[test]
    fn verify_tag_matches_and_rejects() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[31] ^= 1;
        assert!(!verify_tag(&t, &bad));
    }

    #[test]
    fn exact_block_length_key() {
        // A 64-byte key exercises the "no hashing, no padding" path.
        let key = [0x42u8; 64];
        let t1 = hmac_sha256(&key, b"x");
        let t2 = hmac_sha256(&key, b"x");
        assert_eq!(t1, t2);
        let t3 = hmac_sha256(&key[..63], b"x");
        assert_ne!(t1, t3);
    }
}
