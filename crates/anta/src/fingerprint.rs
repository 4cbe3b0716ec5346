//! State fingerprinting for the reduced schedule explorer.
//!
//! The exhaustive explorer ([`crate::explore`]) enumerates oracle-choice
//! paths; many paths converge to the same engine state (a message that took
//! the fast bucket and a slow σ draw can land exactly where a slow bucket
//! and a fast draw would have). [`crate::engine::Engine::enable_fingerprints`]
//! folds everything the run's *future* can depend on into a 64-bit FNV-1a
//! digest after every dispatched event, so the explorer can cut a run short
//! the moment it re-enters territory another schedule already covered.
//!
//! What the digest covers — and why each piece is needed — is documented on
//! [`crate::engine::Engine::enable_fingerprints`]; this module provides the
//! hasher, [`Fnv64`], the one-call digest [`fingerprint`], and [`Stamp`],
//! a recorded instant that hashes only its presence. Values feed the hasher
//! through [`std::hash::Hash`]: messages derive it (it is a bound of
//! [`crate::process::Message`]), and each process derives it on the struct
//! that holds its run state (see [`crate::process::Process::fp_digest`]).
//! Nothing is formatted: a digest is a walk over integers and byte arrays.

use crate::time::SimTime;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental 64-bit FNV-1a hasher.
///
/// A fixed [`Hasher`], never `RandomState`: fingerprints are compared
/// across runs, threads and (via violation paths) processes, so the digest
/// must be a fixed function of the bytes fed in. Integers are fed as their
/// little-endian bytes and `usize` as a `u64`, whatever the platform.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of one value: its [`Hash`] fed into a fresh [`Fnv64`].
///
/// Equal values feed equal byte streams; unequal values should feed
/// unequal ones (a collision merges two states — see the collision note on
/// [`crate::engine::Engine::enable_fingerprints`]). The std impls feed a
/// length before a slice or `Vec` and a tag before an enum variant, so
/// concatenations cannot alias.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// A local-clock instant a process records only for post-run checkers (a
/// "when did I pay" snapshot). Its [`Hash`] feeds whether it is set, never
/// the instant: past times are abstracted out of the fingerprint (the
/// time-robust checker contract on
/// [`Engine::enable_fingerprints`](crate::engine::Engine::enable_fingerprints)).
/// An instant the process's future still races against goes through
/// [`crate::process::Process::fp_times`] as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamp(Option<SimTime>);

impl Stamp {
    /// Records `at`.
    pub fn set(&mut self, at: SimTime) {
        self.0 = Some(at);
    }

    /// The recorded instant, if any.
    pub fn get(self) -> Option<SimTime> {
        self.0
    }
}

impl Hash for Stamp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.is_some().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish(), "order matters");
    }

    #[test]
    fn fields_feed_in_order() {
        let mut h = Fnv64::new();
        h.write(&1u64.to_le_bytes());
        h.write(&[1]);
        assert_eq!(fingerprint(&(1u64, true)), h.finish());
        assert_eq!(fingerprint(&7usize), fingerprint(&7u64), "usize is a u64");
        assert_eq!(fingerprint(&[7u8; 3][..]), {
            let mut h = Fnv64::new();
            h.write(&3u64.to_le_bytes());
            h.write(&[7, 7, 7]);
            h.finish()
        });
    }

    #[test]
    fn variable_length_values_do_not_alias() {
        // Without the derived impls' length and tag prefixes these pairs
        // would feed the same bytes.
        assert_ne!(
            fingerprint(&(vec![1u8], vec![2u8, 3])),
            fingerprint(&(vec![1u8, 2], vec![3u8]))
        );
        assert_ne!(
            fingerprint(&(None::<u8>, Some(1u8))),
            fingerprint(&(Some(1u8), None::<u8>))
        );
        assert_ne!(fingerprint(&Some(0u8)), fingerprint(&None::<u8>));
        #[derive(Hash)]
        enum E {
            A(u8),
            B(u8),
        }
        assert_ne!(fingerprint(&E::A(0)), fingerprint(&E::B(0)));
    }

    #[test]
    fn a_stamp_hashes_its_presence_not_its_instant() {
        #[derive(Hash, Default)]
        struct State {
            paid: bool,
            paid_at: Stamp,
        }
        let at = |t: u64| {
            let mut s = State {
                paid: true,
                ..State::default()
            };
            s.paid_at.set(SimTime::from_ticks(t));
            s
        };
        assert_eq!(fingerprint(&at(5)), fingerprint(&at(9)));
        let unset = State {
            paid: true,
            ..State::default()
        };
        assert_ne!(fingerprint(&at(5)), fingerprint(&unset));
        assert_eq!(at(5).paid_at.get(), Some(SimTime::from_ticks(5)));
    }
}
