//! [`HtlcHarness`] — the two-chain HTLC atomic swap behind the unified
//! harness interface.
//!
//! A payment spec is executed as the classic swap: Alice locks her asset
//! on chain A under `H = SHA-256(s)` with timelock `2T`, Bob counter-locks
//! on chain B with timelock `T`, Alice claims on B (revealing `s`), Bob
//! replays `s` on A. The harness exposes exactly the defects the paper's
//! introduction attributes to deployed HTLC swaps:
//!
//! * **griefing** — either side can walk away and strand the other's
//!   capital for a full timelock window ([`ProtocolHarness::griefed`]
//!   reports these);
//! * **asymmetric settlement** — under message loss, one leg can claim
//!   while the other reclaims, leaving a compliant party strictly worse
//!   off; the harness classifies that as a
//!   [`ProtocolOutcome::Violation`].
//!
//! Byzantine degradation: crash-style faults map onto the two native
//! abandonment strategies (an initiator who locks but never claims, a
//! responder who never counter-locks); forging and thieving have no HTLC
//! counterpart and are declared unsupported.

use crate::faults::{ByzFault, InstanceFaults};
use crate::harness::{ready_engine, ByzSupport, ProtocolHarness};
use crate::outcome::{LockProfile, ProtocolOutcome};
use crate::workload::{PaymentSpec, TopologyFamily, WorkloadConfig};
use anta::clock::DriftClock;
use anta::engine::Engine;
use anta::net::NetFaults;
use anta::oracle::Oracle;
use anta::time::{SimDuration, SimTime};
use anta::trace::{TraceKind, TraceMode};
use htlc::contract::HtlcState;
use htlc::swap::{
    ChainProcess, HMsg, SwapBehaviour, SwapSetup, MARK_CLAIMED, MARK_OPENED, MARK_RECLAIMED,
};
pub use htlc::swap::{ALICE_PID, BOB_PID, CHAIN_A_PID, CHAIN_B_PID};

/// Maps a sampled chain fault onto the nearest swap behaviour.
fn swap_behaviour(byz: ByzFault) -> SwapBehaviour {
    match byz {
        ByzFault::None => SwapBehaviour::Honest,
        ByzFault::CrashCustomer(0) => SwapBehaviour::AliceAbandons,
        ByzFault::CrashCustomer(_) | ByzFault::LateBob | ByzFault::ForgingChloe(_) => {
            SwapBehaviour::BobGriefs
        }
        // Chains are reliable in the HTLC model; an escrow fault
        // degrades to abandonment by the nearer party.
        ByzFault::CrashEscrow(i) => {
            if i % 2 == 0 {
                SwapBehaviour::AliceAbandons
            } else {
                SwapBehaviour::BobGriefs
            }
        }
        ByzFault::ThievingEscrow(_) => SwapBehaviour::AliceAbandons,
    }
}

/// Per-instance swap context.
pub struct SwapInstance {
    /// The interpreted fault.
    pub behaviour: SwapBehaviour,
    /// Network faults for this instance.
    pub net: NetFaults,
    /// The swap itself: offers, secret and timelocks.
    pub setup: SwapSetup,
    /// Engine horizon.
    pub horizon: SimTime,
}

/// The HTLC atomic swap as a [`ProtocolHarness`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HtlcHarness;

impl ProtocolHarness for HtlcHarness {
    type Msg = HMsg;
    type Instance = SwapInstance;

    fn name(&self) -> &'static str {
        "htlc"
    }

    fn supports(&self, workload: &WorkloadConfig) -> bool {
        // A packetized payment needs parallel multi-path routing; a
        // two-party swap cannot model it faithfully.
        !matches!(workload.family, TopologyFamily::Packetized { .. })
    }

    fn byz_support(&self) -> ByzSupport {
        // Crash and late Bob.
        ByzSupport::first(2)
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> SwapInstance {
        // T covers many sequential worst-case hops; the swap itself needs
        // about six messages end to end.
        let t = spec.params.hop().saturating_mul(16);
        SwapInstance {
            behaviour: swap_behaviour(faults.byz),
            net: faults.net,
            setup: SwapSetup {
                offer_a: spec.plan.amounts[0],
                offer_b: spec.plan.amounts[spec.plan.hops() - 1],
                secret: spec.seed.to_le_bytes().to_vec(),
                timelock_a: SimTime::ZERO + t.saturating_mul(2),
                timelock_b: SimTime::ZERO + t,
            },
            horizon: SimTime::ZERO + t.saturating_mul(12) + SimDuration::from_secs(10),
        }
    }

    fn assemble(
        &self,
        eng: &mut Engine<HMsg>,
        inst: &SwapInstance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) {
        // One drifting clock shared by parties and chains, sampled from
        // the instance seed: absolute time uncertainty within the drift
        // envelope. (The stock swap processes never retry a rejected
        // reclaim, so chains and parties disagreeing on *relative* time
        // would manufacture stuck contracts that say nothing about the
        // protocol — HTLC's defect under this model is griefing, not
        // drift.)
        let clock = DriftClock::seeded(spec.seed, 0, spec.params.rho_ppm, spec.params.hop());
        ready_engine(eng, spec, false, inst.net, inst.horizon, oracle, trace_mode);
        inst.setup.assemble(eng, clock, inst.behaviour);
    }

    fn classify(
        &self,
        eng: &Engine<HMsg>,
        _inst: &SwapInstance,
        _spec: &PaymentSpec,
        _quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        // `SwapSetup` registers both chains at these pids, and no swap
        // behaviour substitutes a chain.
        let a = eng
            .process_as::<ChainProcess>(CHAIN_A_PID)
            .expect("SwapSetup registers chain A, never substituted")
            .chain();
        let b = eng
            .process_as::<ChainProcess>(CHAIN_B_PID)
            .expect("SwapSetup registers chain B, never substituted")
            .chain();
        // Money conservation first: the chains' books must balance.
        if a.ledger().check_conservation().is_err() || b.ledger().check_conservation().is_err() {
            return ProtocolOutcome::Violation;
        }
        let sa = a.contract(0).map(|c| c.state);
        let sb = b.contract(0).map(|c| c.state);
        match (sa, sb) {
            // Both legs claimed: the swap completed.
            (Some(HtlcState::Claimed), Some(HtlcState::Claimed)) => ProtocolOutcome::Success,
            // One leg claimed while the other unwound: somebody holds both
            // assets and a compliant party lost out.
            (Some(HtlcState::Claimed), Some(HtlcState::Reclaimed))
            | (Some(HtlcState::Reclaimed), Some(HtlcState::Claimed)) => ProtocolOutcome::Violation,
            // Capital still locked when the run ended.
            (Some(HtlcState::Open), _) | (_, Some(HtlcState::Open)) => ProtocolOutcome::Stuck,
            _ if truncated => ProtocolOutcome::Stuck,
            // Both reclaimed, or the swap never (fully) engaged.
            _ => ProtocolOutcome::Refund,
        }
    }

    fn griefed(&self, eng: &Engine<HMsg>, _inst: &SwapInstance, outcome: ProtocolOutcome) -> bool {
        // Any non-success after capital was locked means a party sat
        // through (at least) a full timelock window to recover it — the
        // HTLC griefing cost.
        outcome != ProtocolOutcome::Success && eng.trace().marks(MARK_OPENED).next().is_some()
    }

    fn latency(
        &self,
        eng: &Engine<HMsg>,
        _inst: &SwapInstance,
        _spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        let end = eng.trace().end_time();
        let at = match outcome {
            ProtocolOutcome::Success => eng
                .trace()
                .halt_time(ALICE_PID)
                .into_iter()
                .chain(eng.trace().halt_time(BOB_PID))
                .max()
                .unwrap_or(end),
            _ => end,
        };
        at.saturating_since(SimTime::ZERO)
    }

    fn lock_events(
        &self,
        eng: &Engine<HMsg>,
        inst: &SwapInstance,
        _spec: &PaymentSpec,
    ) -> LockProfile {
        let mut profile = LockProfile::new();
        for e in &eng.trace().events {
            if let TraceKind::Mark { pid, label, .. } = e.kind {
                // Chain A is the swap's first hop, chain B its second.
                let (hop, amount) = match pid {
                    CHAIN_A_PID => (0, inst.setup.offer_a.amount as i64),
                    CHAIN_B_PID => (1, inst.setup.offer_b.amount as i64),
                    _ => continue,
                };
                let delta = match label {
                    MARK_OPENED => amount,
                    MARK_CLAIMED | MARK_RECLAIMED => -amount,
                    _ => continue,
                };
                profile.push(e.real, hop, delta);
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::harness::run_harness_instance;
    use crate::workload::{self, WorkloadConfig};

    fn specs(n: usize, payments: usize, seed: u64) -> Vec<PaymentSpec> {
        workload::generate(&WorkloadConfig::new(
            TopologyFamily::Linear { n },
            payments,
            seed,
        ))
    }

    #[test]
    fn faultless_swaps_succeed() {
        for spec in &specs(3, 12, 5) {
            let r = run_harness_instance(&HtlcHarness, spec, &FaultPlan::NONE, false);
            assert_eq!(r.outcome, ProtocolOutcome::Success, "spec {}", spec.id);
            assert!(!r.griefed);
            assert!(r.peak_locked >= spec.plan.amounts[0].amount);
        }
    }

    #[test]
    fn griefing_responder_shows_as_griefed_refund() {
        let plan = FaultPlan {
            late_bob_permille: 1000,
            ..FaultPlan::NONE
        };
        let mut griefed = 0usize;
        for spec in &specs(2, 16, 7) {
            let r = run_harness_instance(&HtlcHarness, spec, &plan, false);
            assert_ne!(
                r.outcome,
                ProtocolOutcome::Success,
                "griefed swap cannot complete"
            );
            assert_ne!(
                r.outcome,
                ProtocolOutcome::Violation,
                "griefing is not theft"
            );
            if r.griefed {
                griefed += 1;
            }
        }
        assert!(griefed > 0, "griefing must be visible in the metrics");
    }

    #[test]
    fn abandoning_initiator_unwinds_both_legs() {
        let plan = FaultPlan {
            // Crash faults pick a uniformly random victim; filter to the
            // Alice interpretation via the mapped fault.
            crash_permille: 1000,
            ..FaultPlan::NONE
        };
        let mut seen_abandon = false;
        for spec in &specs(2, 32, 11) {
            let r = run_harness_instance(&HtlcHarness, spec, &plan, false);
            assert_ne!(r.outcome, ProtocolOutcome::Success);
            if swap_behaviour(r.faults.byz) == SwapBehaviour::AliceAbandons {
                seen_abandon = true;
            }
        }
        assert!(seen_abandon, "the crash mix must hit Alice sometimes");
    }

    #[test]
    fn packetized_workloads_are_unsupported() {
        let w = WorkloadConfig::new(TopologyFamily::Packetized { paths: 4, hops: 2 }, 8, 1);
        assert!(!HtlcHarness.supports(&w));
        assert!(HtlcHarness.supports(&WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 8, 1)));
    }
}
