//! # xchain-experiments — the harness regenerating every paper artefact
//!
//! The brief announcement contains two figures, three theorems, and two
//! implicit comparison tables (§1's baseline criticisms and §5's property
//! correspondence). Each has an experiment here (DESIGN.md §6 maps them):
//!
//! | id | artefact | module |
//! |----|----------|--------|
//! | E1 | Theorem 1 (time-bounded protocol, synchrony) | [`e1`] |
//! | E2 | Theorem 2 (impossibility, partial synchrony) | [`e2`] |
//! | E3 | Theorem 3 (weak protocol + transaction managers) | [`e3`] |
//! | E4 | Figures 1 & 2 (regeneration + cross-validation) | [`e4`] |
//! | E5 | §1 baselines (drift sweep vs \[4\]; HTLC griefing) | [`e5`] |
//! | E6 | timeout-calculus ablation ("d_i calculated in \[5\]") | [`e6`] |
//! | E7 | §5 relation with cross-chain deals \[3\] | [`e7`] |
//! | P  | engineering performance | [`perf`] |
//! | E8–E11 | Monte-Carlo traffic, protocol comparison, liquidity, routing | `xchain-sim` (binaries `exp8`…`exp11`) |
//!
//! Binaries `exp1`…`exp7`, `expperf` and `expall` print the tables that
//! EXPERIMENTS.md records (E8–E11 live in the `xchain-sim` crate, which
//! builds on this one). Every experiment binary of the workspace parses
//! its command line against a declared flag table and reports its exit
//! criteria through one ledger — both in [`cli`]. Sweeps parallelise over
//! seeds/parameters with crossbeam scoped threads ([`sweep`]; re-exported
//! as [`parallel_map`]/[`grid`] for downstream crates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod digest;
pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod perf;
pub mod stats;
pub mod sweep;
pub mod table;

// The parallel executor is this crate's public concurrency API: downstream
// crates (`xchain-sim`'s Monte-Carlo runner, future sweep harnesses) depend
// on it as a normal dependency rather than re-growing their own thread
// pools or taking a dev-dependency cycle through the umbrella crate.
pub use sweep::{grid, parallel_map, try_parallel_map, ItemPanic};
