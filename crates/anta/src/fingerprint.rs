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
//! hasher, [`Fnv64`], and the [`Fingerprint`] trait that feeds a value's
//! fields into it. Messages implement [`Fingerprint`] (it is a bound of
//! [`crate::process::Message`]); processes write
//! [`crate::process::Process::fp_digest`] by destructuring themselves and
//! fingerprinting their mutable fields. Nothing is formatted: a digest is a
//! walk over integers and byte arrays.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental 64-bit FNV-1a hasher.
///
/// Deliberately *not* [`std::hash::Hasher`]: fingerprints are compared
/// across runs, threads and (via violation paths) processes, so the digest
/// must be a fixed function of the bytes fed in — never of `RandomState`
/// seeds or platform defaults.
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

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Feeds one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds one `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds one `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Feeds one `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A value that can feed its fields into an [`Fnv64`].
///
/// Equal values must feed equal byte streams; unequal values should feed
/// unequal ones (a collision merges two states — see the collision note on
/// [`crate::engine::Engine::enable_fingerprints`]). Variable-length values
/// (slices, options) feed a length or tag first, so concatenations cannot
/// alias. Implemented here for integers, `bool`, byte arrays, `Option`,
/// slices, tuples and simulated time; protocol crates implement it for
/// their message types, field by field.
pub trait Fingerprint {
    /// Feeds `self` into `h`.
    fn fingerprint(&self, h: &mut Fnv64);
}

/// The digest of one value: [`Fingerprint::fingerprint`] into a fresh
/// [`Fnv64`].
pub fn fingerprint<T: Fingerprint + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.fingerprint(&mut h);
    h.finish()
}

/// Feeds `items` exactly as a slice of them would be fed (length first) —
/// for sequences whose elements need mapping to fingerprintable fields
/// first, such as foreign types hashed through their public fields.
pub fn fingerprint_seq<T: Fingerprint>(items: impl ExactSizeIterator<Item = T>, h: &mut Fnv64) {
    h.write_usize(items.len());
    for item in items {
        item.fingerprint(h);
    }
}

macro_rules! fingerprint_le_bytes {
    ($($t:ty),*) => {$(
        impl Fingerprint for $t {
            fn fingerprint(&self, h: &mut Fnv64) {
                h.write_bytes(&self.to_le_bytes());
            }
        }
    )*};
}

fingerprint_le_bytes!(u8, u16, u32, u64, i32, i64);

impl Fingerprint for usize {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_usize(*self);
    }
}

impl Fingerprint for bool {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_bool(*self);
    }
}

impl<const N: usize> Fingerprint for [u8; N] {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_bytes(self);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, h: &mut Fnv64) {
        match self {
            None => h.write_bool(false),
            Some(v) => {
                h.write_bool(true);
                v.fingerprint(h);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_usize(self.len());
        for v in self {
            v.fingerprint(h);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self, h: &mut Fnv64) {
        self.as_slice().fingerprint(h);
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fingerprint(&self, h: &mut Fnv64) {
        (**self).fingerprint(h);
    }
}

macro_rules! fingerprint_tuple {
    ($($name:ident),+) => {
        impl<$($name: Fingerprint),+> Fingerprint for ($($name,)+) {
            #[allow(non_snake_case)]
            fn fingerprint(&self, h: &mut Fnv64) {
                let ($($name,)+) = self;
                $($name.fingerprint(h);)+
            }
        }
    };
}

fingerprint_tuple!(A);
fingerprint_tuple!(A, B);
fingerprint_tuple!(A, B, C);
fingerprint_tuple!(A, B, C, D);
fingerprint_tuple!(A, B, C, D, E);
fingerprint_tuple!(A, B, C, D, E, F);

/// Absolute: a stored instant folded this way is a distinction, never a
/// residue. Timeout anchors a process's future still races against go
/// through [`crate::process::Process::fp_times`] instead.
impl Fingerprint for crate::time::SimTime {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_u64(self.ticks());
    }
}

impl Fingerprint for crate::time::SimDuration {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_u64(self.ticks());
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
        h.write_u64(1);
        h.write_bool(true);
        assert_eq!(fingerprint(&(1u64, true)), h.finish());
        assert_eq!(fingerprint(&[7u8; 3]), {
            let mut h = Fnv64::new();
            h.write_bytes(&[7, 7, 7]);
            h.finish()
        });
    }

    #[test]
    fn variable_length_values_do_not_alias() {
        // Without length and tag prefixes these pairs would feed the same
        // bytes.
        assert_ne!(
            fingerprint(&(vec![1u8], vec![2u8, 3])),
            fingerprint(&(vec![1u8, 2], vec![3u8]))
        );
        assert_ne!(
            fingerprint(&(None::<u8>, Some(1u8))),
            fingerprint(&(Some(1u8), None::<u8>))
        );
        assert_ne!(fingerprint(&Some(0u8)), fingerprint(&None::<u8>));
    }
}
