//! A minimal hash-linked append-only log — the "permissionless blockchain"
//! substrate for the smart-contract transaction manager.
//!
//! §3 of the paper allows the weak-liveness protocol's transaction manager
//! to be *"a smart contract running on a permissionless blockchain shared by
//! every customer"*. We model the chain as an append-only log with
//! SHA-256 hash linking: the contract's inputs (lock notifications, Bob's
//! acceptance, abort requests) and its single decision certificate are
//! published as entries, and any participant can verify the log's integrity
//! and replay the contract's deterministic logic over it. What the
//! substitution preserves: *public verifiability of one totally-ordered
//! decision history* — the only property the paper's argument needs from a
//! blockchain.

use std::hash::{Hash, Hasher};
use xcrypto::sha256::{sha256_concat, Digest};

/// One entry of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// Height (0-based).
    pub index: u64,
    /// Hash of the previous entry (all-zero for the genesis entry).
    pub prev_hash: Digest,
    /// Application payload (canonical wire bytes).
    pub payload: Vec<u8>,
    /// `SHA-256(index ‖ prev_hash ‖ payload)`.
    pub hash: Digest,
}

fn entry_hash(index: u64, prev_hash: &Digest, payload: &[u8]) -> Digest {
    sha256_concat(&[&index.to_be_bytes(), prev_hash, payload])
}

/// An append-only, hash-linked log.
#[derive(Debug, Clone, Default)]
pub struct SimChain {
    entries: Vec<ChainEntry>,
}

/// A chain is hashed through its length and head hash: the head commits
/// to every entry.
impl Hash for SimChain {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        state.write(&self.head().unwrap_or_default());
    }
}

impl SimChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a payload, returning the new entry.
    pub fn append(&mut self, payload: Vec<u8>) -> &ChainEntry {
        let index = self.entries.len() as u64;
        let prev_hash = self.entries.last().map(|e| e.hash).unwrap_or([0u8; 32]);
        let hash = entry_hash(index, &prev_hash, &payload);
        self.entries.push(ChainEntry {
            index,
            prev_hash,
            payload,
            hash,
        });
        self.entries.last().expect("just pushed")
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the chain has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &[ChainEntry] {
        &self.entries
    }

    /// Head hash (hash of the latest entry), if any.
    pub fn head(&self) -> Option<Digest> {
        self.entries.last().map(|e| e.hash)
    }

    /// Verifies hash linking and per-entry hashes over the whole log.
    /// Returns the index of the first corrupt entry on failure.
    pub fn verify_integrity(&self) -> Result<(), u64> {
        let mut prev = [0u8; 32];
        for (i, e) in self.entries.iter().enumerate() {
            let expect = entry_hash(e.index, &e.prev_hash, &e.payload);
            if e.index != i as u64 || e.prev_hash != prev || e.hash != expect {
                return Err(i as u64);
            }
            prev = e.hash;
        }
        Ok(())
    }

    /// First entry whose payload satisfies `pred`.
    pub fn find(&self, mut pred: impl FnMut(&[u8]) -> bool) -> Option<&ChainEntry> {
        self.entries.iter().find(|e| pred(&e.payload))
    }

    /// Test-only corruption hook used by integrity tests.
    #[cfg(test)]
    pub(crate) fn tamper(&mut self, index: usize, new_payload: Vec<u8>) {
        self.entries[index].payload = new_payload;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_links_hashes() {
        let mut c = SimChain::new();
        assert!(c.is_empty());
        let h0 = c.append(b"genesis".to_vec()).hash;
        let e1 = c.append(b"second".to_vec()).clone();
        assert_eq!(c.len(), 2);
        assert_eq!(e1.prev_hash, h0);
        assert_eq!(c.head(), Some(e1.hash));
        c.verify_integrity().unwrap();
    }

    #[test]
    fn tampering_payload_detected() {
        let mut c = SimChain::new();
        c.append(b"a".to_vec());
        c.append(b"b".to_vec());
        c.append(b"c".to_vec());
        c.tamper(1, b"B".to_vec());
        assert_eq!(c.verify_integrity(), Err(1));
    }

    #[test]
    fn find_scans_in_order() {
        let mut c = SimChain::new();
        c.append(vec![1]);
        c.append(vec![2]);
        c.append(vec![2]);
        let found = c.find(|p| p == [2]).unwrap();
        assert_eq!(found.index, 1, "first match wins");
        assert!(c.find(|p| p == [9]).is_none());
    }

    #[test]
    fn deterministic_hashes() {
        let mut a = SimChain::new();
        let mut b = SimChain::new();
        for x in 0..10u8 {
            a.append(vec![x]);
            b.append(vec![x]);
        }
        assert_eq!(a.head(), b.head());
    }

    #[test]
    fn empty_chain_verifies() {
        assert!(SimChain::new().verify_integrity().is_ok());
        assert_eq!(SimChain::new().head(), None);
    }
}
