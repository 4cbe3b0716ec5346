//! # xchain-sim — Monte Carlo cross-chain traffic simulator
//!
//! E4's exhaustive explorer answers "does *one* payment satisfy the
//! theorem under *every* schedule?". This crate answers the operational
//! question at scale — and, since the `protocol` abstraction layer,
//! answers it for **every protocol in the workspace**: what success rate,
//! end-to-end latency and locked-value cost does a protocol deliver under
//! realistic traffic, drift and adversaries? The traffic and fault
//! models are the layers below, re-exported under their historical
//! `sim::…` paths; the measurements are this crate's:
//!
//! * [`workload`] (= [`protocol::workload`]) — parameterized topology
//!   families (the paper's linear `n`-escrow path, Boros-style
//!   hub-and-spoke, random routing trees, packetized payments split
//!   across parallel paths), arrival processes (uniform / bursty), and
//!   per-instance `payment::ValuePlan` / `payment::SyncParams` sampling
//!   from a seeded RNG;
//! * [`faults`] (= [`protocol::faults`]) — a [`faults::FaultPlan`]
//!   composing the `payment::byzantine` strategies with clock-drift
//!   sampling and bounded message delay/drop injected at the `anta`
//!   network layer;
//! * [`sketch`] (= [`telemetry::sketch`]) — the constant-memory
//!   mergeable quantile sketch campaigns aggregate into;
//! * [`metrics`] — per-instance outcome (success / refund / stuck /
//!   conservation **violation**, plus the HTLC-style *griefed* flag),
//!   latency, peak locked value and lock-concurrency profiles, aggregated
//!   contention-free across crossbeam workers into percentile summaries.
//!
//! The driver is [`runner::run_with`]: instances are batched onto
//! [`experiments::parallel_map`] workers, every engine runs in
//! counters-only trace mode, and batch workers carry queue high-water
//! marks forward so rebuilt engines skip reallocation. Reports are
//! **bit-identical across thread counts**. [`runner::run`] is the
//! historical time-bounded entry point (a [`TimeBoundedHarness`]
//! campaign), bit-identical to the pre-refactor simulator.
//!
//! Since the shared-liquidity layer ([`protocol::liquidity`]), the
//! simulator also runs **open-system** campaigns:
//! [`runner::run_open_with`] is a discrete-event simulation over a
//! global event queue — arrivals, admission, queueing, lock/release
//! replay and patience expiry are all in-band events executed in
//! `(time, rank, seq)` order against the carried
//! [`protocol::LiquidityBook`] — so over-committed escrows reject or
//! queue payments ([`InstanceOutcome::Rejected`]) and success becomes
//! a function of offered load. The event queue is **sharded by
//! venue**: payments touching disjoint venue sets run on parallel
//! workers and merge deterministically, keeping the [`OpenReport`]
//! (with its admission and collateral audit, [`LiquidityStats`])
//! bit-identical across thread counts.
//!
//! For the **network families** ([`TopologyFamily::ScaleFree`] /
//! [`TopologyFamily::SmallWorld`] — random venue graphs instead of fixed
//! routes), [`runner::run_open_specs_routed_with`] switches admission to
//! **liquidity-aware dynamic routing**: every arrival is routed by a
//! deterministic bounded-hop pathfinder ([`protocol::Router`]) over the
//! live book, splitting across venue-disjoint paths when one path cannot
//! carry the value, with optional periodic rebalancing flows restoring
//! spent liquidity ([`protocol::RoutingConfig`]). Routed reports carry
//! [`metrics::RoutingStats`] and stay bit-identical across threads.
//!
//! Four experiment binaries sit on top, each only its grid and its exit
//! gates — flag tables, campaign mode ([`driver::drive`]), grid
//! bookkeeping and artifact writing ([`driver::Grid`]) are shared in
//! [`driver`]: `exp8` sweeps success-rate × drift × faults across the
//! families for the time-bounded protocol (E8); `exp9` runs the same grid
//! through **all** protocol harnesses and prints the paper-style
//! comparison table (E9); `exp10` sweeps offered load × collateral
//! budget × protocol and prints the utilization/success/goodput frontier
//! (E10); `exp11` sweeps success/goodput vs network size × rebalancing
//! period × protocol with dynamic routing against the static baseline
//! (E11). Every one of them streams a crash-safe [`campaign`] instead
//! with `--campaign N`.
//!
//! ```
//! use sim::prelude::*;
//!
//! let workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 200, 42);
//! let report = sim::run(&SimConfig::new(workload));
//! let hub = report.family("hub").unwrap();
//! assert!(hub.success.is_perfect());          // no faults ⇒ Theorem 1
//! assert!(report.conserved());                // money conservation
//! assert!(report.peak_in_flight > 1);         // genuinely concurrent
//!
//! // The same campaign through a baseline:
//! let htlc = sim::run_with(&HtlcHarness, &SimConfig::new(workload));
//! assert_eq!(htlc.instances, report.instances);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod des;
pub mod driver;
pub mod metrics;
pub mod runner;

// The layers below, under the simulator's historical paths.
pub use protocol::{faults, workload};
pub use telemetry::sketch;

pub use campaign::{
    CampaignConfig, CampaignReport, CampaignRunner, CampaignTally, EpochEvent, EpochSummary,
};
pub use faults::{ByzFault, FaultPlan, InstanceFaults};
pub use metrics::{
    FamilyStats, InstanceOutcome, InstanceResult, LiquidityStats, OpenReport, OpenTelemetry,
    PacketStats, RoutingStats, SimReport, VenueEvents,
};
pub use runner::{
    run, run_instance, run_instance_with, run_open, run_open_specs_routed_with,
    run_open_specs_routed_with_telemetry, run_open_specs_with, run_open_specs_with_telemetry,
    run_open_with, run_open_with_telemetry, run_specs, run_specs_with, run_with, SimConfig,
};
pub use sketch::MergeableSketch;
pub use workload::{ArrivalProcess, PaymentSpec, TopologyFamily, WorkloadConfig};

// The protocol abstraction layer the runner is generic over, re-exported
// so simulation campaigns can name harnesses without a separate import.
pub use protocol;
pub use protocol::{
    AdmissionPolicy, DealsHarness, GraphFamily, HtlcHarness, InterledgerHarness, LiquidityBook,
    LiquidityConfig, ProtocolHarness, Router, RoutingConfig, TimeBoundedHarness, VenueGraph,
};

/// One-stop imports for simulation campaigns.
pub mod prelude {
    pub use crate::faults::{ByzFault, FaultPlan, InstanceFaults};
    pub use crate::metrics::{
        FamilyStats, InstanceOutcome, InstanceResult, LiquidityStats, OpenReport, OpenTelemetry,
        PacketStats, RoutingStats, SimReport, VenueEvents,
    };
    pub use crate::runner::{
        run, run_instance, run_instance_with, run_open, run_open_specs_routed_with,
        run_open_specs_routed_with_telemetry, run_open_specs_with, run_open_specs_with_telemetry,
        run_open_with, run_open_with_telemetry, run_specs, run_specs_with, run_with, SimConfig,
    };
    pub use crate::workload::{ArrivalProcess, PaymentSpec, TopologyFamily, WorkloadConfig};
    pub use anta::net::NetFaults;
    pub use protocol::{
        AdmissionPolicy, DealsHarness, GraphFamily, HtlcHarness, InterledgerHarness, LiquidityBook,
        LiquidityConfig, ProtocolHarness, Router, RoutingConfig, TimeBoundedHarness, VenueGraph,
    };
}
