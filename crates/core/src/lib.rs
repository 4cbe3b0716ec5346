//! # xchain-core (`payment`) — cross-chain payment with success guarantees
//!
//! ## Purpose
//!
//! The paper's contribution, executable: both payment protocols on the
//! Figure 1 chain, the timeout calculus, the clause checkers and the
//! impossibility witnesses.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - Figure 1: `n` escrows, Alice, the Chloes, Bob, and one [`Chain`]
//!   (topology, value plan, payment id, keys) that both protocols run on
//!   ([`topology`]);
//! - the message alphabet: promises `G(d)`/`P(a)`, `$`, χ, and the weak
//!   protocol's transaction-manager traffic ([`msg`]);
//! - the timeout calculus for `a_i`, `d_i`, ε under clock drift, the
//!   "precise values calculated in \[5\]", reconstructed ([`timing`]);
//! - Theorem 1's protocol: Figure 2 both as executable processes with
//!   ledgers and as declarative automata ([`timebounded`]);
//! - Theorem 3's protocol with a transaction manager: trusted party,
//!   smart contract on a chain, or notary committee over consensus
//!   ([`weak`]);
//! - executable checkers for C, T, ES, CS1–CS3, L and CC over finished
//!   runs ([`properties`]), adversarial participants for fault injection
//!   ([`byzantine`]) and witnesses for Theorem 2 ([`impossibility`]).
//!
//! **Out of scope:**
//! - the engine, networks, clocks and explorer: `anta`;
//! - sampling faults and classifying runs across protocols: the harnesses
//!   (`protocol`); workloads, shared liquidity and routing: `sim`;
//! - the baselines the paper compares against: `htlc`, `interledger`,
//!   `deals`.
//!
//! ## Process assembly
//!
//! Figure 2 gives one automaton per participant, a function of its index
//! `i` and its chain. Both setups, [`ChainSetup`] and [`weak::WeakSetup`],
//! hold one [`Chain`] and add only their protocol's part (the timeout
//! schedule, or the manager and the customers' patience). Every
//! participant is built from its setup and its index —
//! `CustomerProcess::new(&setup, i)`, `EscrowProcess::new(&setup, i,
//! book)`, `WeakCustomer::new(&setup, i)`, `WeakEscrow::new(&setup, i)`,
//! `fig2::spec(&setup, role)` — and copies its pids, keys, value and
//! bounds out of them; nothing else derives them. Both escrows are one
//! escrow core (the guarded lock on `$` from `c_i`, release, refund) plus
//! their protocol's rule. A position is a [`Role`]; `Chain::assemble` is
//! the one loop that registers, per position, the caller's substitute or
//! the setup's `default_process(role)`, and `Chain::audit` the one escrow
//! audit both outcomes carry. [`properties::Compliance::protects`] is the
//! one place that says which escrows customer `c_i`'s clauses rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
mod escrow;
pub mod impossibility;
pub mod msg;
pub mod properties;
pub mod timebounded;
pub mod timing;
pub mod topology;
pub mod weak;

pub use msg::{PMsg, PromiseKind, SignedPromise, TmInput, TmInputKind};
pub use timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
pub use timing::{SyncParams, TimeoutSchedule};
pub use topology::{Chain, ChainTopology, Role, ValuePlan, VenueId, VenueRoute};
