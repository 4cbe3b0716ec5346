//! # xchain-deals — cross-chain deals (Herlihy, Liskov, Shrira \[3\])
//!
//! ## Purpose
//!
//! §5 of the paper relates cross-chain *payments* to cross-chain *deals*.
//! This crate implements the deal side so the comparison is executable.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - the deal matrix / digraph model, Tarjan well-formedness (strong
//!   connectivity) and the acceptable-payoff predicate ([`matrix`]);
//! - what both HLS commit protocols share ([`deal`]): the messages, the
//!   instance, the vote check, the arc-escrow and party cores, and the
//!   one outcome of a run ([`DealInstance::outcome`]);
//! - the timelock commit protocol — requires synchrony; Safety,
//!   Termination and Strong liveness ([`timelock`]);
//! - the certified-blockchain commit protocol — partial synchrony;
//!   Safety and Termination, no strong liveness ([`certified`]);
//! - assembling either protocol: [`DealInstance::timelock_engine`] and
//!   [`DealInstance::certified_engine`] are the only way in. They decide
//!   the pids, the registration order, the funded arc books, the clocks
//!   and where the votes go. The `deals` harness, experiments E2 and E7
//!   and the tests all build through them. Both take a `party` hook that
//!   turns each compliant party into the process registered at its pid;
//!   a withholding or silent party is another process put in its place
//!   there, not a switch on the compliant one;
//! - §5 itself: payment↔deal encodings and the executable
//!   counterexamples showing neither subsumes the other ([`relation`]).
//!
//! **Out of scope:**
//! - mapping a sampled fault onto a party's behaviour, and classifying a
//!   finished run: the harness owns both (`protocol::deals`);
//! - Byzantine escrows and chains: they are reliable here, and the
//!   harness declares forging and thieving faults unsupported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certified;
pub mod deal;
pub mod matrix;
pub mod relation;
pub mod timelock;

pub use certified::{CertifiedChain, CertifiedEscrow, CertifiedParty};
pub use deal::{DMsg, DealInstance};
pub use matrix::{Arc, DealMatrix, DealOutcome, Party};
pub use relation::{deal_as_payment, payment_as_deal, NotAPayment};
pub use timelock::{TimelockEscrow, TimelockParty};
