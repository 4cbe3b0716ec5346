//! # xchain-interledger — the Thomas–Schwartz baselines \[4\]
//!
//! ## Purpose
//!
//! The paper's Theorem 1 protocol *is* the Interledger **universal**
//! protocol "fine-tuned to work correctly in the presence of clock drift";
//! §1 criticises \[4\] because "the synchronous solutions … do not consider
//! clock drift, and for their partially synchronous solutions no success
//! guarantees are established". This crate provides both baselines so the
//! experiments can reproduce those two criticisms quantitatively.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - the universal protocol's drift-oblivious timeout schedule (`ρ = 0`,
//!   no safety margin) ([`untuned`]). Experiment E5 sweeps drift × chain
//!   length and exhibits the failure region that the paper's fine-tuning
//!   removes;
//! - the atomic protocol's notary: transfers commit or roll back on a
//!   receipt-before-deadline rule ([`atomic`]). It is safe under partial
//!   synchrony but aborts spuriously — "no success guarantees".
//!   [`DeadlineTm`] is Theorem 3's `TrustedTm` for the same setup with a
//!   deadline in its decision rule; it writes down only that difference.
//!
//! **Out of scope:**
//! - the chain participants and the manager: both baselines reuse the
//!   paper's processes unchanged (`payment::timebounded`,
//!   `payment::weak`), so only a schedule or a decision rule differs;
//! - fault mapping and classification: the harness owns both
//!   (`protocol::interledger`);
//! - a notary committee: the deadline rule runs in one trusted process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod untuned;

pub use atomic::DeadlineTm;
pub use untuned::untuned_schedule;
