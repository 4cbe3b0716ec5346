//! The time-bounded cross-chain payment protocol (Theorem 1, Figure 2).
//!
//! Two faithful implementations of the same protocol, each participant
//! built from one [`ChainSetup`] and its index:
//!
//! * [`escrow`] / [`customers`] — the executable processes, with real
//!   ledgers, signature checking and promise validation:
//!   `EscrowProcess::new(&setup, i, book)` for each escrow (the escrow
//!   core both protocols share, plus the χ race) and
//!   `CustomerProcess::new(&setup, i)` for every customer `i = 0…n`;
//! * [`fig2`] — the declarative ANTA automata exactly as drawn in
//!   Figure 2, used for diagram regeneration and, in E4, a comparison
//!   with the processes on the send skeleton of one schedule;
//!
//! plus [`scenario`] — engine assembly, clock plans and outcome extraction.
//!
//! ## Speakers
//!
//! Who each compliant process accepts a message kind from; a message from
//! any other pid is ignored.
//!
//! | receiver | message | accepted from |
//! |---|---|---|
//! | `e_i` | `$` (this payment, `v_i`, once) | `c_i` |
//! | `e_i` | χ (Bob's signature, before `u + a_i`) | `c_{i+1}` |
//! | `c_i`, `i < n` | `G(d_i)`, refund `$`, χ (Bob's signature) | `e_i` (`G` signed by it) |
//! | `c_i`, `i > 0` | `P(a_{i-1})`, `$` for χ | `e_{i-1}` (`P` signed by it) |

pub mod customers;
pub mod escrow;
pub mod fig2;
pub mod scenario;

pub use customers::{CustomerOutcome, CustomerProcess};
pub use escrow::{EscrowProcess, EscrowState, ESCROW_MARKS};
pub use scenario::{ChainOutcome, ChainSetup, ClockPlan, CustomerView};
