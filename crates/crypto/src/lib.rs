//! # xchain-crypto — simulated authentication for the Byzantine model
//!
//! The paper assumes *"the classic Byzantine model with authentication"*:
//! participants may behave arbitrarily, but cannot forge each other's
//! signatures. This crate provides everything the protocols sign or hash:
//!
//! * [`mod@sha256`] — SHA-256 from scratch (FIPS 180-4, NIST-vector tested);
//! * [`hmac`] — HMAC-SHA256 (RFC 4231-vector tested);
//! * [`wire`] — canonical deterministic byte encoding for signed payloads;
//! * [`sig`] — the simulated PKI: structural unforgeability inside the
//!   simulation (secrets never leave the crate; Byzantine code only ever
//!   holds a [`sig::Signer`] for its *own* identity). Each identity has one
//!   key, which remembers the first two frames it signs, so verifying one
//!   of them is a byte compare, not a re-hash;
//! * [`cert`] — the paper's certificates: χ (Bob's receipt) and χc/χa
//!   (commit/abort decision certificates with single or committee
//!   authority).
//!
//! ## Unsafe code
//!
//! The crate root denies `unsafe_code`, and exactly one private module
//! opts back in: `sha256/x86.rs`, the SHA-256 compression function on the
//! x86-64 SHA extensions. Its intrinsics need a CPU that has them, which
//! only a run-time check can establish, and every signature, HMAC tag and
//! certificate digest runs through that function, so it is where the
//! handlers spend their time. A safe dispatcher runs it when the CPU
//! reports the extensions and the portable kernel otherwise. Every other
//! crate of the workspace forbids `unsafe_code`; `scripts/lint_names.sh`
//! keeps both rules.
//!
//! ## State
//!
//! A tag is a pure function of (key, frame). The only state the crate
//! keeps is in [`sig`]: each key's HMAC midstates and remembered frames,
//! all write-once, so no verdict depends on what was signed or verified
//! before. `scripts/lint_names.sh` keeps interior mutability out of the
//! other modules, but for the test-only compression counter in
//! [`mod@sha256`].
//!
//! ## Example
//!
//! ```
//! use xcrypto::{sig::Pki, cert::{Receipt, PaymentId}};
//!
//! let mut pki = Pki::new(1);
//! let (alice_id, _alice) = pki.register();
//! let (bob_id, bob) = pki.register();
//! let payment = PaymentId::derive(7, &[alice_id, bob_id]);
//! let chi = Receipt::issue(&bob, payment);
//! assert!(chi.verify(&pki, bob_id));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hmac;
pub mod sha256;
pub mod sig;
pub mod wire;

pub use cert::{Authority, DecisionCert, PaymentId, Receipt, Verdict};
pub use sha256::{sha256, Digest};
pub use sig::{KeyId, Pki, Signature, Signer};
