//! # xchain-protocol — the protocol abstraction layer
//!
//! The paper's headline claim is *comparative*: time-bounded cross-chain
//! payments guarantee success where HTLC atomic swaps grief and the
//! drift-oblivious Interledger schedule loses money. This crate makes the
//! comparison executable at traffic scale by putting every protocol of the
//! workspace behind one interface:
//!
//! * [`harness::ProtocolHarness`] — builds a deterministic engine for one
//!   [`workload::PaymentSpec`], classifies the finished run into the shared
//!   [`outcome::ProtocolOutcome`] vocabulary (Success / Refund / Stuck /
//!   **Violation**), and reports latency and locked-value profiles;
//! * [`workload`] / [`faults`] — the traffic model (topology families,
//!   arrival processes, value/drift sampling) and the fault-injection plans,
//!   shared by every protocol so the comparison is apples-to-apples: the
//!   same seeded draw decides each instance's faults no matter which
//!   protocol executes it;
//! * five harnesses, one type per protocol:
//!   [`timebounded::TimeBoundedHarness`] (the paper's Theorem 1 protocol),
//!   [`htlc::HtlcHarness`] (two-chain atomic swap),
//!   [`interledger::IlpUntunedHarness`] and
//!   [`interledger::IlpAtomicHarness`] (the untuned universal and the
//!   atomic protocol of Thomas–Schwartz), and [`deals::DealsHarness`] (the
//!   Herlihy–Liskov–Shrira certified commit protocol);
//! * [`explore`] — schedule exploration generic over the harness, so the
//!   E4-style exhaustive checker applies to every protocol;
//! * [`liquidity`] — shared-liquidity accounting: finite per-venue
//!   collateral budgets ([`liquidity::LiquidityBook`]) and the
//!   [`liquidity::AdmissionPolicy`] that rejects or queues payments whose
//!   collateral demand does not fit, making payments *contend* for escrow
//!   capacity instead of running as independent instances.
//!
//! Fault plans degrade gracefully: a harness declares how many Byzantine
//! strategies apply to it, always a prefix of the draw order
//! ([`harness::ByzSupport`]); the knobs past it are zeroed before sampling,
//! so every protocol sees the same draw, and the network-fault layer
//! applies everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deals;
pub mod explore;
pub mod faults;
pub mod harness;
pub mod htlc;
pub mod interledger;
pub mod liquidity;
pub mod network;
pub mod outcome;
pub mod timebounded;
pub mod workload;

/// The label of every built-in harness — each one's
/// [`ProtocolHarness::name`], one per harness type — in the order reports
/// list them. Binaries take a protocol as a one-of-these flag and dispatch
/// on it with [`with_harness!`].
pub const HARNESS_LABELS: [&str; 5] = ["timebounded", "htlc", "ilp-untuned", "ilp-atomic", "deals"];

/// Evaluates `$body` with `$h` bound to the harness labelled `$label`
/// (`"ilp-untuned"` is [`IlpUntunedHarness`], `"ilp-atomic"`
/// [`IlpAtomicHarness`]). The harness trait has associated types, so this
/// cannot be a table of trait objects: the body is instantiated once per
/// harness type, five in all.
///
/// ```
/// use protocol::ProtocolHarness;
/// let name = protocol::with_harness!("htlc", |h| h.name());
/// assert_eq!(name, "htlc");
/// ```
///
/// Panics on a label outside [`HARNESS_LABELS`]; validate user input
/// against that list first (the experiment flag tables do).
#[macro_export]
macro_rules! with_harness {
    ($label:expr, |$h:ident| $body:expr) => {
        match $label {
            "timebounded" => {
                let $h = $crate::TimeBoundedHarness;
                $body
            }
            "htlc" => {
                let $h = $crate::HtlcHarness;
                $body
            }
            "ilp-untuned" => {
                let $h = $crate::IlpUntunedHarness;
                $body
            }
            "ilp-atomic" => {
                let $h = $crate::IlpAtomicHarness;
                $body
            }
            "deals" => {
                let $h = $crate::DealsHarness;
                $body
            }
            other => panic!(
                "harness label {other:?} is not in HARNESS_LABELS: labels reach \
                 with_harness! only from that list or a flag validated against it"
            ),
        }
    };
}

pub use deals::DealsHarness;
pub use explore::explore_harness;
pub use faults::{ByzFault, FaultPlan, InstanceFaults};
pub use harness::{
    run_harness_instance, run_harness_instance_in, sample_instance_faults, ByzSupport, HarnessRun,
    ProtocolHarness,
};
pub use htlc::HtlcHarness;
pub use interledger::{IlpAtomicHarness, IlpUntunedHarness};
pub use liquidity::{AdmissionPolicy, LiquidityBook, LiquidityConfig, VenueEvents, VenueSample};
pub use network::{GraphFamily, Router, RoutingConfig, VenueGraph, MAX_NET_HOPS};
pub use outcome::{LockProfile, ProtocolOutcome};
pub use timebounded::TimeBoundedHarness;
pub use workload::{ArrivalProcess, PaymentSpec, TopologyFamily, WorkloadConfig};
