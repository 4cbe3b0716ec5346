//! Tiny deterministic digests for artifact stamping and checkpoint
//! integrity — no external hash crates, no allocation beyond the output
//! string.
//!
//! Two codes, two jobs:
//!
//! * [`fnv1a64`] — a 64-bit content digest. Experiment JSONs stamp
//!   `config_digest` with it so a resumed or re-rendered artifact can be
//!   matched to the exact configuration that produced it, and the
//!   campaign checkpoint refuses to resume under a different config.
//!   FNV-1a is not collision-resistant; it fingerprints honest configs,
//!   it does not authenticate hostile ones.
//! * [`crc32`] — CRC-32 (IEEE 802.3 polynomial, the zlib convention) for
//!   checkpoint **corruption** detection: a torn or bit-flipped payload
//!   fails the CRC and the campaign falls back to the previous epoch.

use anta::fingerprint::Fnv64;
use std::hash::Hasher;

/// 64-bit FNV-1a over `bytes` — the explorer's state hasher
/// ([`anta::fingerprint::Fnv64`]) fed one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Renders a 64-bit digest as fixed-width lowercase hex (16 chars).
pub fn hex16(d: u64) -> String {
    format!("{d:016x}")
}

const fn crc32_table() -> [u32; 256] {
    // Reflected polynomial 0xEDB88320 (IEEE 802.3), one byte per entry.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`, zlib-compatible (init `!0`, final xor `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc32_known_vectors() {
        // zlib's classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn hex16_is_fixed_width() {
        assert_eq!(hex16(0xABC), "0000000000000abc");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn single_bit_flip_changes_both_digests() {
        let a = b"campaign checkpoint payload".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
        assert_ne!(crc32(&a), crc32(&b));
    }
}
