//! # xchain-htlc — hashed-timelock contracts and atomic swaps
//!
//! ## Purpose
//!
//! The deployed open-source baseline the paper's introduction situates
//! itself against: HTLC atomic swaps give *safety* (nobody can steal) but
//! no success guarantees — either side can walk away and grief the other
//! into waiting out a timelock with capital frozen, and the payer ends
//! with no transferable receipt. The comparison experiments quantify both
//! defects against the paper's protocols.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - HTLC semantics over the ledger substrate — hashlock, timelock,
//!   claim and reclaim ([`contract`]);
//! - the two-chain swap as engine processes, with the two abandonment
//!   strategies of [`SwapBehaviour`] ([`swap`]);
//! - assembling a swap: [`SwapSetup::assemble`] is the one place
//!   that decides the pids, the registration order, the funded books and
//!   each party's behaviour. The `htlc` harness, experiment E5 and the
//!   tests all assemble through it.
//!
//! **Out of scope:**
//! - multi-hop HTLC routing (payment channels): a swap is two parties on
//!   two chains;
//! - mapping a sampled fault onto a [`SwapBehaviour`], and classifying a
//!   finished run: the harness owns both (`protocol::htlc`);
//! - forging and thieving faults: chains are reliable here, and the
//!   harness declares those faults unsupported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod swap;

pub use contract::{Htlc, HtlcChain, HtlcError, HtlcState};
pub use swap::{ChainProcess, HMsg, SwapBehaviour, SwapInitiator, SwapResponder, SwapSetup};
