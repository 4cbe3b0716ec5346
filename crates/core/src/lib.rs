//! # xchain-core (`payment`) — cross-chain payment with success guarantees
//!
//! The paper's contribution, executable:
//!
//! * [`topology`] — Figure 1: `n` escrows, Alice, the Chloes, Bob;
//! * [`msg`] — the message alphabet: promises `G(d)`/`P(a)`, `$`, χ, and
//!   the weak protocol's transaction-manager traffic;
//! * [`timing`] — the timeout calculus for `a_i`, `d_i`, ε under clock
//!   drift (the "precise values calculated in \[5\]", reconstructed);
//! * [`timebounded`] — Theorem 1's protocol: Figure 2 both as executable
//!   processes with ledgers and as declarative automata;
//! * [`weak`] — Theorem 3's protocol with a transaction manager (trusted
//!   party / smart contract on a chain / notary committee over consensus);
//! * [`properties`] — executable checkers for C, T, ES, CS1–CS3, L and CC
//!   over finished runs;
//! * [`byzantine`] — adversarial participant strategies for fault
//!   injection;
//! * [`impossibility`] — executable witnesses for Theorem 2.
//!
//! ## Process assembly
//!
//! Figure 2 gives one automaton per participant, a function of its index
//! `i` and its chain. The code builds every participant the same way: from
//! its setup ([`ChainSetup`] or [`weak::WeakSetup`]) and its index — e.g.
//! `CustomerProcess::new(&setup, i)` and `WeakCustomer::new(&setup, i)`,
//! one type each for every customer `c_0…c_n`,
//! `EscrowProcess::new(&setup, i, book)`, `fig2::spec(&setup, role)`
//! or `ForgingChloe::new(&setup, i)`. The
//! constructor copies its neighbours' pids, its keys, its value and its
//! `a_i`/`d_i` bounds out of the setup; nothing else derives them.
//! A position is a [`Role`]: `Role::Customer(i)` or `Role::Escrow(i)`.
//! `default_process(role)` picks the compliant process for a position, and
//! `build_engine_with` lets a caller substitute any of them. Trust follows
//! position too: [`properties::Compliance::protects`] is the one place that
//! says which escrows customer `c_i`'s clauses rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
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
pub use topology::{ChainKeys, ChainTopology, Role, ValuePlan, VenueId, VenueRoute};
