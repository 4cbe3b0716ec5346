//! SHA-256, implemented from scratch per FIPS 180-4.
//!
//! The paper assumes "the classic Byzantine model with authentication"; all
//! authentication in this workspace bottoms out in this hash function (HMAC
//! tags, certificate digests, HTLC hashlocks). The implementation is
//! self-contained — no external crypto dependencies — and validated against
//! the NIST/FIPS test vectors in the unit tests below.
//!
//! Two kernels compute the compression function, and a dispatcher picks
//! one per block:
//!
//! * **SHA-NI** (`sha256/x86.rs`), on x86-64 CPUs that report `sha`,
//!   `sse2`, `ssse3` and `sse4.1`: the hardware's two-round instruction,
//!   16 × 4 rounds per block. This is the workspace's one `unsafe` module.
//! * **Portable**, everywhere else: plain integer code that keeps the
//!   message schedule in a 16-word ring on the stack (round `i ≥ 16`
//!   writes `W[i]` into the slot of `W[i-16]`, the oldest word it reads)
//!   and runs eight rounds per loop iteration, renaming the working
//!   variables instead of shifting them. It is also the reference the
//!   differential test holds the SHA-NI kernel to.
//!
//! The CPU decides; there is no option. `is_x86_feature_detected!` caches
//! its answer, so the dispatch is a load and a branch. Both kernels compute
//! the same function, so every digest, tag and report is the same on
//! either. The benchmark's `xcrypto.sha256_ns_per_block` (1 KiB-block
//! messages, median of 3 traced runs on a 2-vCPU Intel Xeon at 2.0 GHz):
//! ≈ 275 ns portable, ≈ 67 ns SHA-NI.
//!
//! The streaming [`Sha256`] state never allocates, and [`sha256`] is a
//! one-shot convenience wrapper.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(test)]
thread_local! {
    /// Compressions run on this thread, so unit tests can pin the work of
    /// signing, verifying and key registration exactly.
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Compressions run on the calling thread so far.
#[cfg(test)]
pub(crate) fn compressions() -> u64 {
    COMPRESSIONS.with(std::cell::Cell::get)
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use xcrypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(d[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered while waiting to fill a 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes processed so far (buffered or not).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a partially filled buffer first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input, no copy into `buf`.
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            let block = block
                .try_into()
                .expect("chunks_exact(64) yields 64-byte blocks");
            compress(&mut self.state, block);
        }
        rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last 8 bytes — in a second block when fewer than 9 are left.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf[..56].fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The chaining state after compressing the single 64-byte `block` from
    /// the initial hash value, before any padding: HMAC keys precompute
    /// their `key ⊕ ipad` and `key ⊕ opad` states with this.
    pub(crate) fn block_midstate(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// A hasher resuming from `state` as though exactly one 64-byte block
    /// had been absorbed: the inverse of [`Sha256::block_midstate`].
    pub(crate) fn resume_after_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 64,
        }
    }
}

/// The FIPS 180-4 compression function over one 512-bit block, on the
/// SHA-NI kernel when the CPU has the extensions and on the portable one
/// otherwise. Both compute the same function; only the cost differs.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    COMPRESSIONS.with(|n| n.set(n.get() + 1));
    #[cfg(target_arch = "x86_64")]
    if let Some(sha_ni) = x86::ShaNi::detect() {
        return sha_ni.compress(state, block);
    }
    compress_portable(state, block);
}

/// The portable kernel: the FIPS 180-4 compression function over one
/// 512-bit block in plain integer code.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    // The message schedule as a 16-word ring: `w[i % 16]` holds `W[i]`.
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    // Round `i` with the working variables passed in rotated order: the
    // next round renames them instead of shifting all eight.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
            let i = $i;
            if i >= 16 {
                // `w[i % 16]` holds `W[i-16]`, the oldest word `W[i]` reads.
                let (w15, w2) = (w[(i + 1) & 15], w[(i + 14) & 15]);
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i & 15] = w[i & 15]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i & 15]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        }};
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Renders a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(TABLE[(b >> 4) as usize] as char);
        s.push(TABLE[(b & 0xf) as usize] as char);
    }
    s
}

/// Parses lowercase/uppercase hex into bytes. Returns `None` on bad input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        to_hex(d)
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn concat_matches_manual_concat() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        let s = to_hex(&d);
        assert_eq!(from_hex(&s).unwrap(), d.to_vec());
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None, "odd length rejected");
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries are the
        // classic off-by-one territory for SHA-2 implementations.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xA5u8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Compare against a fresh hasher fed in two unequal chunks.
            let mut h2 = Sha256::new();
            let mid = len / 3;
            h2.update(&data[..mid]);
            h2.update(&data[mid..]);
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }

    #[test]
    fn resuming_a_block_midstate_equals_streaming() {
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7 % 256) as u8).collect();
        let first: &[u8; 64] = data[..64].try_into().unwrap();
        for len in [64usize, 65, 119, 120, 128, 200] {
            let mut h = Sha256::resume_after_block(Sha256::block_midstate(first));
            h.update(&data[64..len]);
            assert_eq!(h.finalize(), sha256(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn compressions_are_counted_per_block() {
        // ⌈(len + 9) / 64⌉ blocks: the message, 0x80 and the 8-byte length.
        for len in [0usize, 55, 56, 64, 119, 120] {
            let before = compressions();
            sha256(&vec![0u8; len]);
            assert_eq!(
                compressions() - before,
                (len as u64 + 9).div_ceil(64),
                "len {len}"
            );
        }
    }

    /// Every `(state, block)` pair the NIST messages compress, in order,
    /// chained on the portable kernel from the initial hash value. The
    /// padding is rebuilt here, so the list does not rest on `finalize`.
    fn nist_compressions() -> Vec<([u32; 8], [u8; 64])> {
        let messages: [&[u8]; 5] = [
            b"",
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            &[b'a'; 1_000_000],
        ];
        let mut pairs = Vec::new();
        for msg in messages {
            let mut padded = msg.to_vec();
            padded.push(0x80);
            padded.resize((msg.len() + 9).div_ceil(64) * 64 - 8, 0);
            padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
            let mut state = H0;
            for block in padded.chunks_exact(64) {
                let block: [u8; 64] = block.try_into().unwrap();
                pairs.push((state, block));
                compress_portable(&mut state, &block);
            }
            let digest: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(
                digest,
                sha256(msg),
                "padding of a {}-byte message",
                msg.len()
            );
        }
        pairs
    }

    /// 10 000 pseudo-random `(state, block)` pairs from a fixed xorshift64
    /// seed, then the all-zero and all-`0xff` blocks from two states.
    fn random_compressions() -> Vec<([u32; 8], [u8; 64])> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pairs: Vec<([u32; 8], [u8; 64])> = (0..10_000)
            .map(|_| {
                let state = [(); 8].map(|_| next() as u32);
                let mut block = [0u8; 64];
                for chunk in block.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&next().to_le_bytes());
                }
                (state, block)
            })
            .collect();
        for state in [H0, [u32::MAX; 8]] {
            pairs.push((state, [0; 64]));
            pairs.push((state, [0xff; 64]));
        }
        pairs
    }

    #[test]
    fn kernels_agree_with_the_portable_kernel() {
        let nist = nist_compressions();
        let random = random_compressions();
        assert_eq!(nist.len(), 1 + 1 + 2 + 2 + 15_626);
        let mut compared = vec!["portable"];
        #[cfg(target_arch = "x86_64")]
        if let Some(sha_ni) = x86::ShaNi::detect() {
            for (i, (state, block)) in nist.iter().chain(&random).enumerate() {
                let (mut want, mut got) = (*state, *state);
                compress_portable(&mut want, block);
                sha_ni.compress(&mut got, block);
                assert_eq!(got, want, "sha-ni kernel, pair {i}");
            }
            compared.push("sha-ni");
        }
        let pairs = nist.len() + random.len();
        if compared.len() == 1 {
            println!("no SHA extensions on this CPU: compared only the portable kernel, on {pairs} pairs");
        } else {
            println!("compared kernels {compared:?} on {pairs} (state, block) pairs");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke-level collision sanity over a few thousand short inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u32 {
            assert!(seen.insert(sha256(&i.to_le_bytes())), "collision at {i}");
        }
    }
}
