//! The time-bounded cross-chain payment protocol (Theorem 1, Figure 2).
//!
//! Two faithful implementations of the same protocol:
//!
//! * [`escrow`] / [`customers`] — the executable processes, with real
//!   ledgers, signature checking and promise validation:
//!   `EscrowProcess::new(&setup, i, book)` for each escrow and
//!   `CustomerProcess::new(&setup, i)` for every customer position
//!   `i = 0…n`, Alice and Bob included;
//! * [`fig2`] — the declarative ANTA automata exactly as drawn in
//!   Figure 2, used for diagram regeneration and, in E4, a comparison
//!   with the processes on the send skeleton of one schedule;
//!
//! plus [`scenario`] — engine assembly, clock plans and outcome extraction.
//! Both implementations build each participant from one [`ChainSetup`] and
//! the participant's index.

pub mod customers;
pub mod escrow;
pub mod fig2;
pub mod scenario;

pub use customers::{CustomerOutcome, CustomerProcess};
pub use escrow::{EscrowProcess, EscrowState};
pub use scenario::{ChainOutcome, ChainSetup, ClockPlan, CustomerView};
