//! Canonical byte encoding for signed payloads.
//!
//! Everything that gets signed in this workspace (promises, receipts,
//! manager inputs, decision certificates, deal and consensus votes) is
//! first rendered to bytes in a [`Payload`], and a payment id is hashed
//! from one. The encoding is deliberately tiny and deterministic:
//! fixed-width big-endian integers and length-prefixed byte strings, always
//! opened with a domain label. No serde, no reflection — ambiguity is the
//! enemy of authentication.
//!
//! A payload lives on the stack: a fixed buffer of [`PAYLOAD_CAP`] bytes,
//! never a heap allocation. The longest payload the workspace signs, an
//! escrow promise, is 87 bytes; writing past the buffer panics.

use std::ops::Deref;

/// The bytes a [`Payload`] holds at most.
pub const PAYLOAD_CAP: usize = 96;

/// A canonical encoding, written in place into a stack buffer. Reads as
/// the bytes written so far (`Deref<Target = [u8]>`); the buffer past them
/// stays zero, so the derived equality is the bytes' equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    buf: [u8; PAYLOAD_CAP],
    len: usize,
}

impl Payload {
    /// Starts an encoding under a domain label (e.g. `b"xchain/receipt"`).
    pub fn new(domain: &[u8]) -> Self {
        let mut w = Payload {
            buf: [0; PAYLOAD_CAP],
            len: 0,
        };
        w.put_bytes(domain);
        w
    }

    /// Appends raw bytes. Panics past [`PAYLOAD_CAP`].
    fn put(&mut self, b: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + b.len()].copy_from_slice(b);
        self.len += b.len();
        self
    }

    /// Appends a single byte (enum discriminants, flags).
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v])
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_be_bytes())
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_be_bytes())
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.put_u64(b.len() as u64).put(b)
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Payload::new(b"d");
        a.put_u32(7).put_bytes(b"x").put_u64(9);
        let mut b = Payload::new(b"d");
        b.put_u32(7).put_bytes(b"x").put_u64(9);
        assert_eq!(a, b);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = Payload::new(b"d");
        a.put_bytes(b"ab").put_bytes(b"c");
        let mut b = Payload::new(b"d");
        b.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(a, b);
    }

    #[test]
    fn domain_prefix_disambiguates() {
        assert_ne!(Payload::new(b"alpha"), Payload::new(b"beta"));
    }

    #[test]
    fn integer_widths() {
        let mut w = Payload::new(b"");
        w.put_u8(1).put_u32(2).put_u64(3);
        // 8 (domain len) + 1 + 4 + 8
        assert_eq!(w.len(), 8 + 1 + 4 + 8);
        assert_eq!(&w[8..], [1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3]);
    }

    #[test]
    fn the_buffer_holds_exactly_its_capacity() {
        let mut w = Payload::new(&[7; PAYLOAD_CAP - 8]);
        assert_eq!(w.len(), PAYLOAD_CAP);
        let overflow = std::panic::catch_unwind(move || {
            w.put_u8(0);
        });
        assert!(overflow.is_err(), "a byte past the buffer panics");
    }
}
