//! # xchain-sim — Monte Carlo cross-chain traffic simulator
//!
//! ## Purpose
//!
//! E4's exhaustive explorer answers "does *one* payment satisfy the
//! theorem under *every* schedule?". This crate answers the operational
//! question at scale, for **every protocol in the workspace**: what
//! success rate, end-to-end latency and locked-value cost does a protocol
//! deliver under realistic traffic, drift and adversaries? The unit of
//! work is one deterministic run of one payment instance
//! ([`protocol::run_harness_instance`]), whose [`protocol::HarnessRun`]
//! is the only per-payment row: every report and tally folds it with the
//! spec it came from. There are exactly two ways to run a spec list:
//!
//! * [`run_closed`]`(harness, specs, cfg)` → [`SimReport`]: every
//!   instance in isolation, chunked onto [`experiments::parallel_map`]
//!   workers.
//! * [`run_open`]`(harness, specs, cfg, liq, routing)` → ([`OpenReport`],
//!   [`OpenTelemetry`]): one discrete-event simulation against finite
//!   per-venue collateral, sharded by venue, in which over-committed
//!   escrows reject or queue payments ([`InstanceOutcome::Rejected`]) and
//!   success becomes a function of offered load; with `routing: Some(_)`
//!   on a network family ([`TopologyFamily::ScaleFree`] /
//!   [`TopologyFamily::SmallWorld`]) arrivals are routed over the live
//!   book and the report carries [`RoutingStats`].
//!
//! [`SimConfig`], [`LiquidityConfig`] and [`RoutingConfig`] are all the
//! options there are, and every report is **bit-identical across thread
//! counts**.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - chunking instances onto workers, panic isolation (a harness that
//!   panics costs one [`InstanceOutcome::Failed`] row, not the batch),
//!   and the deterministic merge of per-chunk rows ([`runner`]);
//! - the open-system admission gate: its event order, venue sharding,
//!   queueing and the collateral audit (private `des`, behind
//!   [`run_open`]);
//! - per-instance outcome (success / refund / stuck / conservation
//!   **violation**, plus the HTLC-style *griefed* flag), latency, peak
//!   locked value and lock-concurrency profiles, aggregated into
//!   percentile summaries ([`metrics`]);
//! - crash-safe streaming of workloads too large to hold: epochs folded
//!   into one [`CampaignTally`] — the campaign's only tally, checkpointed
//!   and bit-identical across resumes ([`campaign`]);
//! - what the `exp8`–`exp11` binaries share — flag tables, campaign
//!   mode, grid bookkeeping, artifact writing ([`driver`]) — so that each
//!   binary is only its grid and its exit gates.
//!
//! **Out of scope** (re-exported here, owned below):
//! - what a payment is and how one runs: [`ProtocolHarness`] and the
//!   five harnesses;
//! - traffic and faults: [`workload`] (= [`protocol::workload`]) and
//!   [`faults`] (= [`protocol::faults`]) — a caller without a spec list
//!   calls [`workload::generate`] itself;
//! - collateral accounting and pathfinding: [`protocol::liquidity`],
//!   [`protocol::network`];
//! - the quantile [`sketch`] (= [`telemetry::sketch`]) and event sinks:
//!   [`telemetry`];
//! - exhaustive schedule exploration (`anta::explore`,
//!   `protocol::explore`) and wall-clock measurement (`benchmark/`).
//!
//! ## Example
//!
//! ```
//! use sim::prelude::*;
//!
//! let workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 200, 42);
//! let cfg = SimConfig::new(workload);
//! let specs = sim::workload::generate(&cfg.workload);
//!
//! let report = run_closed(&TimeBoundedHarness, &specs, &cfg);
//! let hub = report.family("hub").unwrap();
//! assert!(hub.success.is_perfect());          // no faults ⇒ Theorem 1
//! assert!(report.conserved());                // money conservation
//! assert!(report.peak_in_flight > 1);         // genuinely concurrent
//!
//! // The same specs through a baseline:
//! let htlc = run_closed(&HtlcHarness, &specs, &cfg);
//! assert_eq!(htlc.instances, report.instances);
//!
//! // ... and against 12 000 units of collateral per venue, refused on
//! // the spot when they do not fit:
//! let liq = LiquidityConfig::reject(12_000);
//! let (open, _venues) = run_open(&TimeBoundedHarness, &specs, &cfg, &liq, None);
//! assert_eq!(open.liquidity.admitted + open.liquidity.rejected, 200);
//! assert_eq!(open.liquidity.budget_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod compat;
mod des;
pub mod driver;
pub mod metrics;
pub mod runner;

// The layers below, under the simulator's historical paths.
pub use protocol::{faults, workload};
pub use telemetry::sketch;

pub use campaign::{CampaignConfig, CampaignReport, CampaignRunner, CampaignTally, EpochEvent};
pub use faults::{ByzFault, FaultPlan, InstanceFaults};
pub use metrics::{
    FamilyStats, InstanceOutcome, LiquidityStats, OpenReport, OpenTelemetry, OutcomeCounts,
    PacketStats, RoutingStats, SimReport,
};
pub use runner::{run_closed, run_open, SimConfig};
pub use sketch::MergeableSketch;
pub use workload::{ArrivalProcess, PaymentSpec, TopologyFamily, WorkloadConfig};

// The protocol abstraction layer the runner is generic over, re-exported
// so simulation campaigns can name harnesses without a separate import.
pub use protocol;
pub use protocol::{
    AdmissionPolicy, DealsHarness, GraphFamily, HtlcHarness, IlpAtomicHarness, IlpUntunedHarness,
    LiquidityBook, LiquidityConfig, ProtocolHarness, Router, RoutingConfig, TimeBoundedHarness,
    VenueEvents, VenueGraph,
};

// `benchmark/` only (see `compat.rs`); goes with it in ROADMAP 1(iii).
#[doc(hidden)]
pub use compat::InterledgerHarness;
#[doc(hidden)]
pub use compat::{
    run_instance_with, run_open_specs_routed_with, run_open_specs_routed_with_telemetry,
    run_open_specs_with, run_open_specs_with_telemetry, run_specs_with,
};

/// One-stop imports for simulation campaigns.
pub mod prelude {
    pub use crate::faults::{ByzFault, FaultPlan, InstanceFaults};
    pub use crate::metrics::{
        FamilyStats, InstanceOutcome, LiquidityStats, OpenReport, OpenTelemetry, OutcomeCounts,
        PacketStats, RoutingStats, SimReport,
    };
    pub use crate::runner::{run_closed, run_open, SimConfig};
    pub use crate::workload::{ArrivalProcess, PaymentSpec, TopologyFamily, WorkloadConfig};
    pub use anta::net::NetFaults;
    pub use protocol::{
        AdmissionPolicy, DealsHarness, GraphFamily, HtlcHarness, IlpAtomicHarness,
        IlpUntunedHarness, LiquidityBook, LiquidityConfig, ProtocolHarness, Router, RoutingConfig,
        TimeBoundedHarness, VenueEvents, VenueGraph,
    };
}
