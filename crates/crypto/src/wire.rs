//! Canonical byte encoding for signed payloads.
//!
//! Everything that gets signed in this workspace (promises, receipts,
//! decision certificates, consensus votes) is first rendered to bytes by a
//! [`WireWriter`]. The encoding is deliberately tiny and deterministic:
//! fixed-width big-endian integers and length-prefixed byte strings, always
//! opened with a domain label. No serde, no reflection — ambiguity is the
//! enemy of authentication.

/// Deterministic, allocation-frugal encoder.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Starts an encoding under a domain label (e.g. `b"xchain/receipt"`),
    /// with room for the label, its length prefix and a 64-byte body.
    pub fn new(domain: &[u8]) -> Self {
        let mut w = WireWriter {
            buf: Vec::with_capacity(8 + domain.len() + 64),
        };
        w.put_bytes(domain);
        w
    }

    /// Appends a single byte (enum discriminants, flags).
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.put_bytes(s.as_bytes())
    }

    /// Finishes, yielding the canonical bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = WireWriter::new(b"d");
        a.put_u32(7).put_str("x").put_u64(9);
        let mut b = WireWriter::new(b"d");
        b.put_u32(7).put_str("x").put_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = WireWriter::new(b"d");
        a.put_bytes(b"ab").put_bytes(b"c");
        let mut b = WireWriter::new(b"d");
        b.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domain_prefix_disambiguates() {
        let a = WireWriter::new(b"alpha").finish();
        let b = WireWriter::new(b"beta").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn integer_widths() {
        let mut w = WireWriter::new(b"");
        w.put_u8(1).put_u32(2).put_u64(3);
        // 8 (domain len) + 1 + 4 + 8
        assert_eq!(w.as_slice().len(), 8 + 1 + 4 + 8);
    }

    #[test]
    fn a_64_byte_body_never_grows_the_buffer() {
        for domain in [
            &b""[..],
            b"d",
            b"xchain/cert/receipt",
            &[b'x'; 22],
            &[b'y'; 100],
        ] {
            let mut w = WireWriter::new(domain);
            let start = w.buf.capacity();
            w.put_bytes(&[7u8; 32])
                .put_u64(1)
                .put_u64(2)
                .put_u32(3)
                .put_u32(4);
            assert_eq!(w.as_slice().len(), 8 + domain.len() + 64);
            assert_eq!(
                w.finish().capacity(),
                start,
                "domain of {} bytes",
                domain.len()
            );
        }
    }
}
