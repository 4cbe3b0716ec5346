//! [`DealsHarness`] — the Herlihy–Liskov–Shrira certified commit protocol
//! behind the unified harness interface.
//!
//! A payment spec becomes a linear *deal*: parties `0..=n` around the `n`
//! escrowed arcs `i → i+1` carrying the value plan's amounts, with a
//! certified blockchain (CBC) totally ordering the parties' votes. No
//! clocks sit in the decision path, so safety and termination survive
//! partial synchrony; what is lost is strong liveness — an impatient or
//! withholding party pushes an honest run into a safe all-abort
//! ([`ProtocolOutcome::Refund`]). Every party runs with a bounded patience
//! here, so faulted runs abort instead of hanging forever; a run only
//! counts [`ProtocolOutcome::Stuck`] when capital stays locked past the
//! horizon (e.g. a dropped CBC decision).
//!
//! Byzantine degradation: crashes map to a withholding party, a late payee
//! to an impatient one; forging and thieving have no counterpart against
//! a CBC that verifies signatures, and are declared unsupported.

use crate::faults::{ByzFault, InstanceFaults};
use crate::harness::{plan_lock_events, ready_engine, ByzSupport, ProtocolHarness};
use crate::outcome::{LockProfile, ProtocolOutcome};
use crate::workload::PaymentSpec;
use anta::clock::DriftClock;
use anta::engine::Engine;
use anta::net::NetFaults;
use anta::oracle::Oracle;
use anta::process::{InertProcess, Process};
use anta::time::{SimDuration, SimTime};
use anta::trace::TraceMode;
use deals::deal::ESCROW_MARKS;
use deals::{CertifiedEscrow, DealInstance, DealMatrix, Party};
use xcrypto::Signer;

/// Per-instance deal context.
pub struct DealCtx {
    /// The generated instance (keys, pids, arcs).
    pub inst: DealInstance,
    /// Per-party signers, in party order.
    pub signers: Vec<Signer>,
    /// Network faults for this instance.
    pub net: NetFaults,
    /// Default per-party patience before voting abort.
    pub patience: SimDuration,
    /// Party that withholds entirely (never deposits nor votes), if any.
    pub withholds: Option<Party>,
    /// Party that aborts early (tiny patience), if any.
    pub impatient: Option<Party>,
    /// Engine horizon.
    pub horizon: SimTime,
}

/// The certified deal protocol as a [`ProtocolHarness`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DealsHarness;

impl ProtocolHarness for DealsHarness {
    type Msg = deals::DMsg;
    type Instance = DealCtx;

    fn name(&self) -> &'static str {
        "deals"
    }

    fn byz_support(&self) -> ByzSupport {
        // Crash and late Bob.
        ByzSupport::first(2)
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> DealCtx {
        let parties = spec.n + 1;
        let mut deal = DealMatrix::new(parties);
        for (k, asset) in spec.plan.amounts.iter().enumerate() {
            deal.add(k, k + 1, *asset);
        }
        let (inst, signers) = DealInstance::generate(deal, spec.seed);
        let (withholds, impatient) = match faults.byz {
            ByzFault::None => (None, None),
            ByzFault::CrashCustomer(i) => (Some(i % parties), None),
            // Escrows are reliable under the CBC model; degrade an escrow
            // crash to its depositor withholding.
            ByzFault::CrashEscrow(i) => (Some(i % parties), None),
            ByzFault::LateBob => (None, Some(parties - 1)),
            // Restricted away; interpret defensively if handed in anyway.
            ByzFault::ForgingChloe(i) => (Some(i % parties), None),
            ByzFault::ThievingEscrow(i) => (Some(i % parties), None),
        };
        let patience = spec.params.hop().saturating_mul(4 * spec.n as u64 + 16);
        DealCtx {
            inst,
            signers,
            net: faults.net,
            patience,
            withholds,
            impatient,
            horizon: SimTime::ZERO + patience.saturating_mul(8) + SimDuration::from_secs(10),
        }
    }

    fn assemble(
        &self,
        eng: &mut Engine<Self::Msg>,
        ctx: &DealCtx,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) {
        // Parties keep drifting local clocks (patience is a local policy);
        // escrows and the CBC settle on messages, not clocks.
        let party_clock =
            |p: Party| DriftClock::seeded(spec.seed, p, spec.params.rho_ppm, spec.params.hop());
        ready_engine(eng, spec, false, ctx.net, ctx.horizon, oracle, trace_mode);
        ctx.inst.certified_assemble(
            eng,
            &ctx.signers,
            party_clock,
            |p, mut party| -> Box<dyn Process<Self::Msg>> {
                if ctx.withholds == Some(p) {
                    // A crashed party neither deposits nor votes — without
                    // its commit vote the CBC can only ever certify ABORT.
                    // `CertifiedParty` has no withholding switch: a party
                    // that withholds is this other process in its place.
                    return Box::new(InertProcess);
                }
                party.patience = Some(if ctx.impatient == Some(p) {
                    spec.params.hop()
                } else {
                    ctx.patience
                });
                Box::new(party)
            },
        );
    }

    fn classify(
        &self,
        eng: &Engine<Self::Msg>,
        ctx: &DealCtx,
        _spec: &PaymentSpec,
        _quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        let arcs = ctx.inst.deal.arcs().len();
        let mut any_released = false;
        let mut any_returned = false;
        let mut locked_unsettled = false;
        for k in 0..arcs {
            let escrow = eng
                .process_as::<CertifiedEscrow>(ctx.inst.escrow_pid(k))
                .expect("escrows are never substituted");
            // Money conservation first.
            if escrow.ledger().check_conservation().is_err() {
                return ProtocolOutcome::Violation;
            }
            match (escrow.escrowed(), escrow.settled()) {
                (_, Some(true)) => any_released = true,
                (true, Some(false)) => any_returned = true,
                (true, None) => locked_unsettled = true,
                (false, _) => {}
            }
        }
        // Two different settlements among escrowed arcs means two CBC
        // verdicts were acted on — atomicity broken.
        if any_released && any_returned {
            return ProtocolOutcome::Violation;
        }
        // Stuck only when capital actually stays locked (the module-doc
        // contract): a fully-settled commit scores Success even if stray
        // timers kept the engine busy to its horizon — the same
        // settled-before-truncated ordering as the chain classifiers.
        if locked_unsettled {
            return ProtocolOutcome::Stuck;
        }
        if any_released {
            // Single verdict ⇒ all escrowed arcs released.
            return ProtocolOutcome::Success;
        }
        if truncated {
            return ProtocolOutcome::Stuck;
        }
        ProtocolOutcome::Refund
    }

    fn latency(
        &self,
        eng: &Engine<Self::Msg>,
        _ctx: &DealCtx,
        _spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        let end = eng.trace().end_time();
        let at = match outcome {
            ProtocolOutcome::Success => eng
                .trace()
                .marks(ESCROW_MARKS.released)
                .map(|(_, real, _, _)| real)
                .max()
                .unwrap_or(end),
            _ => end,
        };
        at.saturating_since(SimTime::ZERO)
    }

    fn lock_events(
        &self,
        eng: &Engine<Self::Msg>,
        _ctx: &DealCtx,
        spec: &PaymentSpec,
    ) -> LockProfile {
        // `instance` adds one arc per plan hop, so arc k escrows hop k's
        // value and the arc index is the hop index.
        plan_lock_events(eng, &spec.plan.amounts, &ESCROW_MARKS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::harness::run_harness_instance;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};

    fn specs(n: usize, payments: usize, seed: u64) -> Vec<PaymentSpec> {
        workload::generate(&WorkloadConfig::new(
            TopologyFamily::Linear { n },
            payments,
            seed,
        ))
    }

    #[test]
    fn faultless_deals_fully_commit() {
        for spec in &specs(3, 10, 21) {
            let r = run_harness_instance(&DealsHarness, spec, &FaultPlan::NONE, true);
            assert_eq!(r.outcome, ProtocolOutcome::Success, "spec {}", spec.id);
            assert!(!r.griefed, "deal aborts are patience-bounded");
            let total: u64 = spec.plan.amounts.iter().map(|a| a.amount).sum();
            assert_eq!(r.peak_locked, total, "all arcs locked simultaneously");
        }
    }

    #[test]
    fn withholding_party_forces_safe_abort() {
        let plan = FaultPlan {
            crash_permille: 1000,
            ..FaultPlan::NONE
        };
        let mut refunds = 0usize;
        for spec in &specs(2, 24, 22) {
            let r = run_harness_instance(&DealsHarness, spec, &plan, false);
            assert_ne!(
                r.outcome,
                ProtocolOutcome::Success,
                "a crashed party blocks commit"
            );
            assert_ne!(r.outcome, ProtocolOutcome::Violation, "aborts stay atomic");
            if r.outcome == ProtocolOutcome::Refund {
                refunds += 1;
            }
        }
        assert!(refunds > 0, "patience turns withholding into safe aborts");
    }

    /// The compliant party `inner`, told at its start that the arcs in
    /// `told` are escrowed (as if their escrows had said so), and funding
    /// nothing unless `funds`.
    struct Told {
        inner: deals::CertifiedParty,
        told: Vec<(anta::process::Pid, usize)>,
        funds: bool,
    }

    impl Process<deals::DMsg> for Told {
        fn on_start(&mut self, ctx: &mut anta::process::Ctx<deals::DMsg>) {
            if self.funds {
                self.inner.on_start(ctx);
            }
            for &(escrow, arc) in &self.told {
                self.inner
                    .on_message(escrow, deals::DMsg::Escrowed { arc }, ctx);
            }
        }
        fn on_message(
            &mut self,
            from: anta::process::Pid,
            msg: deals::DMsg,
            ctx: &mut anta::process::Ctx<deals::DMsg>,
        ) {
            self.inner.on_message(from, msg, ctx);
        }
        fn on_timer(
            &mut self,
            id: anta::process::TimerId,
            ctx: &mut anta::process::Ctx<deals::DMsg>,
        ) {
            self.inner.on_timer(id, ctx);
        }
        fn fp_digest(&self) -> u64 {
            self.inner.fp_digest()
        }
    }

    /// Runs `spec`'s deal with every party built by `party` (given the
    /// instance and the compliant, infinitely patient party) and
    /// classifies the run.
    fn classify_with(
        spec: &PaymentSpec,
        mut party: impl FnMut(
            &DealInstance,
            Party,
            deals::CertifiedParty,
        ) -> Box<dyn Process<deals::DMsg>>,
    ) -> ProtocolOutcome {
        let ctx = DealsHarness.instance(spec, &crate::faults::InstanceFaults::NONE);
        let mut eng = Engine::new(
            Box::new(anta::net::SyncNet::worst_case(spec.params.delta)),
            Box::new(anta::oracle::RandomOracle::seeded(1)),
            anta::engine::EngineConfig::default(),
        );
        ctx.inst.certified_assemble(
            &mut eng,
            &ctx.signers,
            |_| DriftClock::perfect(),
            |p, compliant| party(&ctx.inst, p, compliant),
        );
        let report = eng.run_until(ctx.horizon);
        DealsHarness.classify(&eng, &ctx, spec, report.quiescent, report.truncated)
    }

    /// An arc that never locked moved nothing: whether its escrow never
    /// settled or settled with nothing to return, it is neither locked
    /// capital nor a return.
    #[test]
    fn classify_ignores_arcs_that_never_locked() {
        // A silent depositor and a silent chain: party 0 never deposits,
        // party 1 waits forever, so nothing locks and the CBC never
        // decides. Nothing is stranded: a refund, not a stuck run.
        let spec = &specs(1, 1, 24)[0];
        let outcome = classify_with(spec, |_, p, compliant| {
            if p == 0 {
                Box::new(InertProcess)
            } else {
                Box::new(compliant)
            }
        });
        assert_eq!(outcome, ProtocolOutcome::Refund);

        // Party 0 never deposits, yet every party is told arc 0 is
        // escrowed, so all vote commit. Arc 1 is released; arc 0's escrow
        // halts on the commit with nothing to return. One verdict, acted
        // on once: a success, not a mixed (violating) settlement.
        let spec = &specs(2, 1, 24)[0];
        let outcome = classify_with(spec, |inst, p, compliant| {
            Box::new(Told {
                inner: compliant,
                told: vec![(inst.escrow_pid(0), 0)],
                funds: p != 0,
            })
        });
        assert_eq!(outcome, ProtocolOutcome::Success);
    }

    #[test]
    fn impatient_payee_aborts_cleanly() {
        let plan = FaultPlan {
            late_bob_permille: 1000,
            ..FaultPlan::NONE
        };
        for spec in &specs(2, 8, 23) {
            let r = run_harness_instance(&DealsHarness, spec, &plan, false);
            assert!(
                matches!(
                    r.outcome,
                    ProtocolOutcome::Refund | ProtocolOutcome::Success
                ),
                "an impatient party either races the commit or aborts safely: {:?}",
                r.outcome
            );
        }
    }
}
