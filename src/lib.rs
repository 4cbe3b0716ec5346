//! # crosschain
//!
//! Umbrella crate for the reproduction of *"Feasibility of Cross-Chain Payment
//! with Success Guarantees"* (van Glabbeek, Gramoli, Tholoniat — SPAA 2020).
//!
//! Re-exports every sub-crate of the workspace under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`anta`] — Asynchronous Networks of Timed Automata: deterministic
//!   discrete-event simulation with drifting clocks and adversarial networks.
//! * [`xcrypto`] — simulated authentication: SHA-256, HMAC, signatures,
//!   certificates.
//! * [`ledger`] — escrow/bank substrate with conservation auditing.
//! * [`consensus`] — DLS-style partial-synchrony Byzantine consensus.
//! * [`payment`] — the paper's contribution: time-bounded and weak-liveness
//!   cross-chain payment protocols, property checkers, impossibility witnesses.
//! * [`interledger`] — Thomas–Schwartz universal & atomic baselines.
//! * [`htlc`] — hashed-timelock atomic swap baseline.
//! * [`deals`] — Herlihy–Liskov–Shrira cross-chain deals.
//! * [`protocol`] — the protocol abstraction layer: one
//!   [`protocol::ProtocolHarness`] interface over the time-bounded
//!   protocol and every baseline, with shared outcome vocabulary, shared
//!   workload/fault models, harness-generic schedule exploration, and
//!   the shared-liquidity layer ([`protocol::LiquidityBook`],
//!   [`protocol::AdmissionPolicy`]).
//! * [`telemetry`] — deterministic observability: structured event
//!   sinks (null / ring / JSONL), scoped phase timers, and the
//!   constant-memory quantile sketch.
//! * [`experiments`] — the harness regenerating every paper artefact.
//! * [`sim`] — Monte Carlo traffic simulator: workload generation, fault
//!   injection, success/latency/locked-value metrics at scale, generic
//!   over the protocol harness, with an open-system finite-liquidity
//!   mode ([`sim::run_open`]) where success is a function of
//!   offered load.
pub use anta;
pub use consensus;
pub use deals;
pub use experiments;
pub use htlc;
pub use interledger;
pub use ledger;
pub use payment;
pub use protocol;
pub use sim;
pub use telemetry;
pub use xcrypto;
