//! The five batch names `benchmark/` still calls, each one call into
//! [`run_closed`] or [`run_open`], and its old five-argument form of
//! [`protocol::run_harness_instance`], whose engine-queue high-water
//! argument is ignored.
//!
//! This file exists **only** for `benchmark/`, which a change to library
//! code may not edit. Nothing else may name these functions (CI greps
//! for it). ROADMAP item 1(ii) ports `benchmark/src` to the two entry
//! points; 1(iii) then removes this file and its re-export in `lib.rs`.

use crate::faults::FaultPlan;
use crate::metrics::{OpenReport, OpenTelemetry, SimReport};
use crate::runner::{run_closed, run_open, SimConfig};
use crate::workload::PaymentSpec;
use protocol::harness::{run_harness_instance, HarnessRun, ProtocolHarness};
use protocol::liquidity::LiquidityConfig;
use protocol::network::RoutingConfig;

#[doc(hidden)]
pub fn run_instance_with<H: ProtocolHarness>(
    harness: &H,
    spec: &PaymentSpec,
    plan: &FaultPlan,
    lock_profile: bool,
    _queue_high: &mut usize,
) -> HarnessRun {
    run_harness_instance(harness, spec, plan, lock_profile)
}

#[doc(hidden)]
pub fn run_specs_with<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
) -> SimReport {
    run_closed(harness, specs, cfg)
}

#[doc(hidden)]
pub fn run_open_specs_with<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
) -> OpenReport {
    run_open(harness, specs, cfg, liq, None).0
}

#[doc(hidden)]
pub fn run_open_specs_with_telemetry<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
) -> (OpenReport, OpenTelemetry) {
    run_open(harness, specs, cfg, liq, None)
}

#[doc(hidden)]
pub fn run_open_specs_routed_with<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: &RoutingConfig,
) -> OpenReport {
    run_open(harness, specs, cfg, liq, Some(routing)).0
}

#[doc(hidden)]
pub fn run_open_specs_routed_with_telemetry<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: &RoutingConfig,
) -> (OpenReport, OpenTelemetry) {
    run_open(harness, specs, cfg, liq, Some(routing))
}
