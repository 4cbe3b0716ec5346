//! [`TimeBoundedHarness`] — the paper's Theorem 1 protocol behind the
//! unified harness interface. `ChainSetup` assembles the chain; the
//! harness adds the network, the clocks and the Byzantine substitutions,
//! and classifies the finished run.

use crate::faults::InstanceFaults;
use crate::harness::{
    payee_halt_latency, plan_lock_events, ready_engine, ByzSupport, ProtocolHarness,
};
use crate::outcome::{LockProfile, ProtocolOutcome};
use crate::workload::PaymentSpec;
use anta::engine::Engine;
use anta::oracle::Oracle;
use anta::time::SimDuration;
use anta::trace::TraceMode;
use payment::msg::PMsg;
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome, ESCROW_MARKS};

/// Per-instance context: the assembled chain plus the fault assignment.
pub struct ChainInstance {
    /// The Figure 1 chain this instance runs.
    pub setup: ChainSetup,
    /// The faults injected into it.
    pub faults: InstanceFaults,
}

/// The time-bounded protocol (Theorem 1) as a [`ProtocolHarness`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeBoundedHarness;

impl ProtocolHarness for TimeBoundedHarness {
    type Msg = PMsg;
    type Instance = ChainInstance;

    fn name(&self) -> &'static str {
        "timebounded"
    }

    fn byz_support(&self) -> ByzSupport {
        ByzSupport::ALL
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> ChainInstance {
        ChainInstance {
            setup: ChainSetup::new(spec.n, spec.plan.clone(), spec.params, spec.seed),
            faults: *faults,
        }
    }

    fn assemble(
        &self,
        eng: &mut Engine<PMsg>,
        inst: &ChainInstance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) {
        assemble_chain(eng, inst, spec, false, oracle, trace_mode)
    }

    fn classify(
        &self,
        eng: &Engine<PMsg>,
        inst: &ChainInstance,
        _spec: &PaymentSpec,
        quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        let outcome = ChainOutcome::extract(eng, &inst.setup, quiescent);
        classify_chain(&outcome, truncated)
    }

    fn latency(
        &self,
        eng: &Engine<PMsg>,
        inst: &ChainInstance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        payee_halt_latency(eng, inst.setup.chain.topo.customer_pid(spec.n), outcome)
    }

    fn lock_events(
        &self,
        eng: &Engine<PMsg>,
        _inst: &ChainInstance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        plan_lock_events(eng, &spec.plan.amounts, &ESCROW_MARKS)
    }
}

/// Readies `eng` for a Figure 2 chain ([`ready_engine`] until the setup's
/// horizon) and adds its processes, substituted per role as the fault draw
/// says. The time-bounded harness runs it on quantised delays and clocks
/// sampled from the seed; the untuned Interledger harness runs it
/// `worst_case`, under the adversary the synchrony model permits: every
/// message takes the full δ and clocks sit at the extremes of the drift
/// envelope.
pub(crate) fn assemble_chain(
    eng: &mut Engine<PMsg>,
    inst: &ChainInstance,
    spec: &PaymentSpec,
    worst_case: bool,
    oracle: Box<dyn Oracle>,
    trace_mode: TraceMode,
) {
    let (setup, net, byz) = (&inst.setup, inst.faults.net, inst.faults.byz);
    let horizon = setup.horizon();
    ready_engine(eng, spec, worst_case, net, horizon, oracle, trace_mode);
    let clocks = if worst_case {
        ClockPlan::Extremes
    } else {
        ClockPlan::Sampled { seed: spec.seed }
    };
    setup.assemble(eng, clocks, |role| byz.substitute(setup, role));
}

/// Outcome classification; see [`ProtocolOutcome`] for the semantics.
pub(crate) fn classify_chain(outcome: &ChainOutcome, truncated: bool) -> ProtocolOutcome {
    // Money conservation first: an unbalanced auditable book, or known
    // net positions that do not sum to zero, is a violation no matter
    // how the run ended.
    if outcome.conservation.contains(&Some(false)) {
        return ProtocolOutcome::Violation;
    }
    if outcome.net_positions.iter().all(Option::is_some) {
        let sum: i64 = outcome.net_positions.iter().flatten().sum();
        if sum != 0 {
            return ProtocolOutcome::Violation;
        }
    }
    if outcome.bob_paid() {
        return ProtocolOutcome::Success;
    }
    let pending = outcome
        .customers
        .iter()
        .flatten()
        .any(|v| v.outcome == CustomerOutcome::Pending);
    if truncated || pending {
        return ProtocolOutcome::Stuck;
    }
    ProtocolOutcome::Refund
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::harness::run_harness_instance;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};

    #[test]
    fn faultless_instances_succeed_with_zero_griefing() {
        let specs = workload::generate(&WorkloadConfig::new(TopologyFamily::Linear { n: 3 }, 8, 2));
        for spec in &specs {
            let r = run_harness_instance(&TimeBoundedHarness, spec, &FaultPlan::NONE, true);
            assert_eq!(r.outcome, ProtocolOutcome::Success);
            assert!(!r.griefed, "time-bounded never griefs");
            assert!(r.peak_locked >= spec.plan.amounts[0].amount);
            assert!(!r.lock_profile.is_empty());
            assert!(r.latency > SimDuration::ZERO);
        }
    }
}
