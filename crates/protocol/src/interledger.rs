//! The Thomas–Schwartz baselines behind the unified harness interface, one
//! harness each:
//!
//! * [`IlpUntunedHarness`] — the universal protocol with its
//!   drift-oblivious timeout schedule ([`interledger::untuned_schedule`]):
//!   the same Figure 2 automata as the time-bounded harness, but deadlines
//!   derived with `ρ = 0` and no safety margin. Success guarantees are
//!   worst-case claims, so this harness runs under the *adversary the
//!   synchrony model permits*: every message takes the full δ and clocks
//!   sit at the extremes of the drift envelope — conditions under which
//!   Theorem 1's schedule still succeeds (the unit tests pin that down) but
//!   the untuned one fires `now ≥ u + a_i` while χ is legitimately in
//!   flight. The classifier reports the resulting strandings (a compliant
//!   party out of pocket, or Bob's transferable receipt gone without
//!   payment) as [`ProtocolOutcome::Violation`] — the "loses money" defect
//!   §1 attributes to \[4\].
//! * [`IlpAtomicHarness`] — the notary-deadline protocol over the
//!   weak-liveness participants: safe under partial synchrony but with
//!   **no success guarantees**; slow evidence makes an honest run abort
//!   ([`ProtocolOutcome::Refund`]).

use crate::faults::{ByzFault, InstanceFaults};
use crate::harness::{
    layered_net, payee_halt_latency, plan_lock_events, ByzSupport, ProtocolHarness, DELAY_BUCKETS,
};
use crate::outcome::{LockProfile, ProtocolOutcome};
use crate::timebounded::{build_chain_engine, classify_chain, ChainInstance, TimeBoundedHarness};
use crate::workload::PaymentSpec;
use anta::engine::Engine;
use anta::net::SyncNet;
use anta::oracle::Oracle;
use anta::process::Process;
use anta::time::{SimDuration, SimTime};
use anta::trace::TraceMode;
use interledger::atomic::DeadlineTm;
use interledger::untuned_schedule;
use payment::byzantine::CrashAfter;
use payment::msg::PMsg;
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::topology::Role;
use payment::weak::{TmKind, WeakSetup, ESCROW_MARKS};

/// The untuned universal protocol (the E5 baseline) as a
/// [`ProtocolHarness`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpUntunedHarness;

impl ProtocolHarness for IlpUntunedHarness {
    type Msg = PMsg;
    type Instance = ChainInstance;

    fn name(&self) -> &'static str {
        "ilp-untuned"
    }

    fn byz_support(&self) -> ByzSupport {
        // Same automata and substitutions as the time-bounded chain.
        ByzSupport::ALL
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> ChainInstance {
        ChainInstance {
            setup: ChainSetup::new(spec.n, spec.plan.clone(), spec.params, spec.seed)
                .with_schedule(untuned_schedule(spec.n, &spec.params)),
            faults: *faults,
        }
    }

    /// The time-bounded chain under the adversary the synchrony model
    /// permits — worst-case message delay (every message takes the full δ)
    /// and clocks at the extremes of the drift envelope. Theorem 1's
    /// schedule tolerates exactly this adversary; the untuned schedule is
    /// tight only on perfect clocks, so this is where its failure region
    /// lives.
    fn build_engine(
        &self,
        inst: &ChainInstance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) -> Engine<PMsg> {
        build_chain_engine(
            inst,
            SyncNet::worst_case(spec.params.delta),
            ClockPlan::Extremes,
            oracle,
            trace_mode,
        )
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
        classify_untuned(&outcome, &inst.faults, truncated)
    }

    fn latency(
        &self,
        eng: &Engine<PMsg>,
        inst: &ChainInstance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        TimeBoundedHarness.latency(eng, inst, spec, outcome)
    }

    fn lock_events(
        &self,
        eng: &Engine<PMsg>,
        inst: &ChainInstance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        TimeBoundedHarness.lock_events(eng, inst, spec)
    }
}

/// Per-instance context of [`IlpAtomicHarness`].
pub struct AtomicInstance {
    /// The weak-protocol chain.
    pub setup: WeakSetup,
    /// The faults injected into it.
    pub faults: InstanceFaults,
    /// The notary's local-clock receipt deadline.
    pub deadline: SimDuration,
}

/// The atomic (notary-deadline) protocol as a [`ProtocolHarness`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpAtomicHarness;

impl ProtocolHarness for IlpAtomicHarness {
    type Msg = PMsg;
    type Instance = AtomicInstance;

    fn name(&self) -> &'static str {
        "ilp-atomic"
    }

    fn byz_support(&self) -> ByzSupport {
        // The weak participants have crash semantics; the other strategies
        // target deadline machinery the atomic mode replaces with the
        // notary.
        ByzSupport::first(1)
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> AtomicInstance {
        AtomicInstance {
            setup: WeakSetup::new(spec.n, spec.plan.clone(), TmKind::Trusted, spec.seed),
            faults: *faults,
            // Generous for the synchronous evidence path (~O(n) sequential
            // hops), tight enough that held-back messages abort the run —
            // the atomic-mode trade.
            deadline: spec.params.hop().saturating_mul(4 * spec.n as u64 + 12),
        }
    }

    /// Weak participants, a [`DeadlineTm`] notary in place of the patient
    /// manager, crash substitutions where the fault draw says so.
    fn build_engine(
        &self,
        inst: &AtomicInstance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) -> Engine<PMsg> {
        let setup = &inst.setup;
        let net = SyncNet::new(spec.params.delta, DELAY_BUCKETS);
        let net = layered_net(Box::new(net), inst.faults.net);
        let mut cfg = setup.engine_config();
        cfg.trace_mode = trace_mode;
        cfg.max_real_time =
            SimTime::ZERO + inst.deadline.saturating_mul(8) + SimDuration::from_secs(10);

        let crash_role = match inst.faults.byz {
            ByzFault::CrashCustomer(_) | ByzFault::CrashEscrow(_) => {
                inst.faults.byz.role(setup.chain.n())
            }
            _ => None,
        };
        let crash_at = SimDuration::from_ticks(inst.deadline.ticks() / 4);

        setup.build_engine_cfg(
            net,
            oracle,
            cfg,
            |role| {
                (crash_role == Some(role)).then(|| {
                    Box::new(CrashAfter::new(setup.default_process(role), crash_at))
                        as Box<dyn Process<PMsg>>
                })
            },
            |i| {
                (i == 0).then(|| {
                    Box::new(DeadlineTm::new(setup, inst.deadline)) as Box<dyn Process<PMsg>>
                })
            },
        )
    }

    fn classify(
        &self,
        eng: &Engine<PMsg>,
        inst: &AtomicInstance,
        _spec: &PaymentSpec,
        _quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        classify_atomic(eng, inst, truncated)
    }

    fn latency(
        &self,
        eng: &Engine<PMsg>,
        inst: &AtomicInstance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        payee_halt_latency(eng, inst.setup.chain.topo.customer_pid(spec.n), outcome)
    }

    fn lock_events(
        &self,
        eng: &Engine<PMsg>,
        _inst: &AtomicInstance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        plan_lock_events(eng, &spec.plan.amounts, &ESCROW_MARKS)
    }
}

/// Chain classification with the stranding rule the untuned schedule needs:
/// beyond the shared conservation checks, a run in which a *compliant*
/// participant ends with negative net value, or a compliant Bob parted
/// with his transferable receipt χ without being paid, is a violation —
/// the money the drift-oblivious deadlines lose.
fn classify_untuned(
    outcome: &ChainOutcome,
    faults: &InstanceFaults,
    truncated: bool,
) -> ProtocolOutcome {
    let base = classify_chain(outcome, truncated);
    if base == ProtocolOutcome::Success || base == ProtocolOutcome::Violation {
        return base;
    }
    // The substituted participant (if a customer) may legitimately end
    // negative; everyone else is compliant and must not.
    let excluded = match faults.byz.role(outcome.n) {
        Some(Role::Customer(i)) => Some(i),
        _ => None,
    };
    let stranded = outcome
        .net_positions
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != excluded)
        .any(|(_, p)| matches!(p, Some(v) if *v < 0));
    // χ-without-payment: the schedule refunded while Bob's receipt was
    // legitimately in flight — unless this instance injects *any*
    // network fault (drops lose χ outright, extra delays push it past
    // the δ bound the schedule was derived for), in which case the run
    // scores like the time-bounded protocol would.
    let chi_lost = outcome.bob_issued_chi == Some(true) && faults.net.is_none();
    if stranded || chi_lost {
        return ProtocolOutcome::Violation;
    }
    base
}

/// Classification for the atomic protocol. Ordering matters: conservation
/// and certificate consistency first, then *stuck* (locked capital that
/// never settled — e.g. a dropped decision), then the verdict.
fn classify_atomic(eng: &Engine<PMsg>, inst: &AtomicInstance, truncated: bool) -> ProtocolOutcome {
    let outcome = payment::weak::WeakOutcome::extract(eng, &inst.setup);
    if outcome.conservation.contains(&Some(false)) {
        return ProtocolOutcome::Violation;
    }
    if !outcome.cc_ok {
        return ProtocolOutcome::Violation;
    }
    // Stuck before the zero-sum audit: capital still locked in an escrow
    // (e.g. a dropped decision message) is in limbo, not lost — the net
    // positions cannot balance until it settles.
    let count = |label| eng.trace().marks(label).count();
    let locked = count(ESCROW_MARKS.locked);
    let settled = count(ESCROW_MARKS.released) + count(ESCROW_MARKS.refunded);
    if locked > settled {
        return ProtocolOutcome::Stuck;
    }
    if outcome.net_positions.iter().all(Option::is_some) {
        let sum: i64 = outcome.net_positions.iter().flatten().sum();
        if sum != 0 {
            return ProtocolOutcome::Violation;
        }
    }
    // Everything settled: a paid Bob is a success even if stray delayed
    // messages kept the engine busy to its horizon — the same
    // settled-before-truncated ordering as the chain classifiers.
    if outcome.bob_paid {
        return ProtocolOutcome::Success;
    }
    if truncated {
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
    use anta::net::NetFaults;

    fn cfg(n: usize, payments: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig::new(TopologyFamily::Linear { n }, payments, seed)
    }

    #[test]
    fn untuned_succeeds_without_drift() {
        let mut w = cfg(3, 10, 3);
        w.max_rho_ppm = (0, 0);
        for spec in &workload::generate(&w) {
            let r = run_harness_instance(&IlpUntunedHarness, spec, &FaultPlan::NONE, false);
            assert_eq!(r.outcome, ProtocolOutcome::Success, "spec {}", spec.id);
        }
    }

    #[test]
    fn untuned_violates_under_heavy_drift() {
        let mut w = cfg(4, 48, 4);
        w.max_rho_ppm = (100_000, 200_000);
        let mut violations = 0usize;
        let mut successes = 0usize;
        for spec in &workload::generate(&w) {
            let r = run_harness_instance(&IlpUntunedHarness, spec, &FaultPlan::NONE, false);
            match r.outcome {
                ProtocolOutcome::Violation => violations += 1,
                ProtocolOutcome::Success => successes += 1,
                _ => {}
            }
        }
        assert!(
            violations > 0,
            "drift must make the untuned schedule lose money \
             ({successes} successes, {violations} violations)"
        );
    }

    #[test]
    fn tuned_schedule_survives_the_same_drift() {
        use crate::timebounded::TimeBoundedHarness;
        let mut w = cfg(4, 24, 4);
        w.max_rho_ppm = (100_000, 200_000);
        for spec in &workload::generate(&w) {
            let r = run_harness_instance(&TimeBoundedHarness, spec, &FaultPlan::NONE, false);
            assert_eq!(
                r.outcome,
                ProtocolOutcome::Success,
                "the fine-tuned schedule is exactly the fix (spec {})",
                spec.id
            );
        }
    }

    #[test]
    fn atomic_commits_when_faultless_and_stays_safe_under_net_faults() {
        for spec in &workload::generate(&cfg(2, 8, 9)) {
            let r = run_harness_instance(&IlpAtomicHarness, spec, &FaultPlan::NONE, false);
            assert_eq!(r.outcome, ProtocolOutcome::Success, "spec {}", spec.id);
        }
        let plan = FaultPlan {
            net: NetFaults {
                drop_permille: 60,
                delay_permille: 250,
                extra_delay: anta::time::SimDuration::from_millis(8),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let mut aborted = 0usize;
        for spec in &workload::generate(&cfg(3, 48, 10)) {
            let r = run_harness_instance(&IlpAtomicHarness, spec, &plan, false);
            assert_ne!(
                r.outcome,
                ProtocolOutcome::Violation,
                "atomic mode is safe (spec {})",
                spec.id
            );
            if r.outcome == ProtocolOutcome::Refund {
                aborted += 1;
            }
        }
        assert!(aborted > 0, "no success guarantees: slow evidence aborts");
    }
}
