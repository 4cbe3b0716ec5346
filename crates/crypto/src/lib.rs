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
//!   holds a [`sig::Signer`] for its *own* identity);
//! * [`cert`] — the paper's certificates: χ (Bob's receipt) and χc/χa
//!   (commit/abort decision certificates with single or committee
//!   authority).
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hmac;
pub mod sha256;
pub mod sig;
pub mod wire;

pub use cert::{Authority, DecisionCert, PaymentId, Receipt, Verdict};
pub use sha256::{sha256, Digest};
pub use sig::{KeyId, Pki, Signature, Signer};
