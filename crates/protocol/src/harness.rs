//! The [`ProtocolHarness`] trait: one interface from a generated
//! [`PaymentSpec`] to a deterministic engine run, an outcome in the shared
//! [`ProtocolOutcome`] vocabulary, and latency / locked-value metrics.
//!
//! The contract every adapter obeys:
//!
//! * **Determinism** — `build_engine` must be a pure function of
//!   `(instance, spec, oracle behaviour)`: same spec, same oracle choices,
//!   same run. This is what makes Monte-Carlo reports bit-identical across
//!   thread counts and lets the explorer enumerate schedules.
//! * **Shared fault draw** — the harness does not sample faults; the
//!   driver draws one [`InstanceFaults`] from the instance's own seed,
//!   after zeroing the Byzantine knobs past the harness's [`ByzSupport`]
//!   prefix, and the harness interprets the assignment in its own terms.
//!   A prefix keeps every earlier strategy's span of the draw in place, so
//!   every protocol sees the same fault for an instance whenever it
//!   supports that fault. Network faults apply to every protocol unchanged.
//! * **Violation soundness** — `classify` must check money conservation
//!   before anything else; a run in which an auditable book is out of
//!   balance or a compliant party lost value is a
//!   [`ProtocolOutcome::Violation`] no matter how it terminated.

use crate::faults::{ByzFault, FaultPlan, InstanceFaults};
use crate::outcome::{LockProfile, ProtocolOutcome};
use crate::workload::{PaymentSpec, WorkloadConfig};
use anta::engine::Engine;
use anta::net::{FaultyNet, NetFaults, NetModel};
use anta::oracle::{Oracle, RandomOracle};
use anta::process::{Message, Pid};
use anta::time::{SimDuration, SimTime};
use anta::trace::{TraceKind, TraceMode};
use ledger::{Asset, Marks};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Domain-separation salt for the per-instance fault draw (the raw seed
/// already drives keys, oracle and clocks).
pub const FAULT_SALT: u64 = 0xFA17_1A57_C0FF_EE00;

/// Which Byzantine strategies of [`FaultPlan`] a protocol can interpret:
/// always the first `k` of [`FaultPlan::sample`]'s draw order (crash,
/// late_bob, forging_chloe, thieving_escrow). Unsupported knobs are zeroed
/// before the per-instance draw, so a harness never sees a fault it has no
/// semantics for — the graceful degradation the cross-protocol sweeps rely
/// on. Only a prefix can be expressed because `sample` maps one uniform
/// draw through prefix-sum thresholds in that order: zeroing a suffix
/// leaves every earlier span where it was, so every protocol sees the same
/// seeded draw for each instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzSupport {
    len: usize,
}

impl ByzSupport {
    /// Every strategy applies.
    pub const ALL: ByzSupport = ByzSupport::first(4);

    /// No Byzantine strategy applies (network faults only).
    pub const NONE: ByzSupport = ByzSupport::first(0);

    /// The first `k` strategies of the draw order; panics if `k > 4`.
    pub const fn first(k: usize) -> ByzSupport {
        assert!(k <= 4, "FaultPlan has four Byzantine strategies");
        ByzSupport { len: k }
    }

    /// How many strategies, from the front of the draw order, apply.
    pub fn prefix_len(&self) -> usize {
        self.len
    }

    /// Zeroes the unsupported Byzantine knobs of `plan`, keeping the
    /// network-fault layer untouched.
    pub fn restrict(&self, plan: &FaultPlan) -> FaultPlan {
        let keep = |pos: usize, permille: u32| if pos < self.len { permille } else { 0 };
        FaultPlan {
            crash_permille: keep(0, plan.crash_permille),
            late_bob_permille: keep(1, plan.late_bob_permille),
            forging_chloe_permille: keep(2, plan.forging_chloe_permille),
            thieving_escrow_permille: keep(3, plan.thieving_escrow_permille),
            net: plan.net,
        }
    }
}

/// One protocol behind the unified simulator / explorer interface.
pub trait ProtocolHarness: Sync {
    /// The protocol's wire-message type.
    type Msg: Message;
    /// Per-instance context built once per spec (keys, schedules, fault
    /// interpretation) and shared by every engine rebuild of that spec.
    type Instance;

    /// Short stable protocol label used in reports and JSON.
    fn name(&self) -> &'static str;

    /// Whether this harness can faithfully execute the given workload.
    /// Drivers must skip unsupported workloads rather than force them.
    fn supports(&self, workload: &WorkloadConfig) -> bool {
        let _ = workload;
        true
    }

    /// The Byzantine strategies this protocol has semantics for.
    fn byz_support(&self) -> ByzSupport;

    /// Builds the per-instance context for one spec and its sampled fault
    /// assignment.
    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> Self::Instance;

    /// Builds a ready-to-run engine. Must be deterministic given the
    /// oracle; all run-to-run variation flows through `oracle`.
    fn build_engine(
        &self,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) -> Engine<Self::Msg>;

    /// Classifies a finished run. `quiescent` / `truncated` come from the
    /// engine's [`anta::engine::RunReport`].
    fn classify(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome;

    /// True when the run griefed a compliant party: capital sat locked for
    /// a full timelock window because the counterparty walked away — the
    /// HTLC defect the paper's protocol is designed out of. Protocols
    /// whose refunds are deadline-bounded by construction report `false`.
    fn griefed(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        outcome: ProtocolOutcome,
    ) -> bool {
        let _ = (eng, inst, outcome);
        false
    }

    /// End-to-end latency of the run: payee settlement time on success,
    /// otherwise the time everything settled (the run's last event).
    fn latency(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        let _ = (inst, spec, outcome);
        eng.trace().end_time().saturating_since(SimTime::ZERO)
    }

    /// Extracts the locked-value event series from the run's escrow marks.
    fn lock_events(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
    ) -> LockProfile;
}

/// One payment's row: everything the run measured, and the only
/// per-payment record the simulator keeps. Every report and tally folds
/// these rows together with the spec each came from, which supplies the
/// family, packet and route. A new per-payment measurement is one field
/// here, its line in [`HarnessRun::join`], and the reports that read it.
#[derive(Debug, Clone)]
pub struct HarnessRun {
    /// Outcome class.
    pub outcome: ProtocolOutcome,
    /// Whether the run griefed a compliant party (see
    /// [`ProtocolHarness::griefed`]).
    pub griefed: bool,
    /// The faults that were injected (post-restriction draw).
    pub faults: InstanceFaults,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Peak value simultaneously locked across the instance's escrows.
    pub peak_locked: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Arrival-shifted `(time, hop, delta)` lock/unlock events (empty
    /// unless collected).
    pub lock_profile: Vec<(SimTime, u32, i64)>,
}

impl HarnessRun {
    /// The row of a payment that never ran (refused at an admission gate,
    /// or its harness panicked): only its outcome, faults and the time it
    /// cost.
    pub fn never_ran(
        outcome: ProtocolOutcome,
        faults: InstanceFaults,
        latency: SimDuration,
    ) -> HarnessRun {
        HarnessRun {
            outcome,
            griefed: false,
            faults,
            latency,
            peak_locked: 0,
            events: 0,
            lock_profile: Vec::new(),
        }
    }

    /// Joins `leg`, another path of the same split payment, into this row:
    /// the [`ProtocolOutcome::worst`] outcome, the slower latency, summed
    /// peaks and events, griefing ORed, and `leg`'s lock events appended
    /// with their hops offset by `hops`, the legs already joined.
    pub fn join(&mut self, leg: HarnessRun, hops: u32) {
        self.outcome = self.outcome.worst(leg.outcome);
        self.griefed |= leg.griefed;
        self.latency = self.latency.max(leg.latency);
        self.peak_locked += leg.peak_locked;
        self.events += leg.events;
        let shifted = leg.lock_profile.into_iter();
        self.lock_profile
            .extend(shifted.map(|(t, hop, dv)| (t, hop + hops, dv)));
    }
}

/// Layers an instance's network faults over a base network model — the
/// shared construction every adapter's `build_engine` uses: a fault-free
/// instance keeps the bare base model, anything else is wrapped in
/// [`FaultyNet`].
pub fn layered_net<M: 'static>(
    base: Box<dyn NetModel<M>>,
    faults: NetFaults,
) -> Box<dyn NetModel<M>> {
    if faults.is_none() {
        base
    } else {
        Box::new(FaultyNet::new(base, faults))
    }
}

/// End-to-end latency of a plan-indexed chain: the payee's halt time on
/// success (the run's last event if the payee never halted), otherwise the
/// run's last event.
pub(crate) fn payee_halt_latency<M: Message>(
    eng: &Engine<M>,
    payee: Pid,
    outcome: ProtocolOutcome,
) -> SimDuration {
    let end = eng.trace().end_time();
    let at = match outcome {
        ProtocolOutcome::Success => eng.trace().halt_time(payee).unwrap_or(end),
        _ => end,
    };
    at.saturating_since(SimTime::ZERO)
}

/// How many values a message delay takes in `[0, δ]` on the synchronous
/// network under every harness that runs on one (all but ilp-untuned,
/// whose network is the worst case).
pub(crate) const DELAY_BUCKETS: usize = 16;

/// Reconstructs a plan-indexed instance's locked-value time series from its
/// escrows' lifecycle `marks` (retained in counters-only traces): a mark's
/// value is the hop index, `locked` adds and `released` or `refunded`
/// removes `amounts[hop]`.
pub(crate) fn plan_lock_events<M: Message>(
    eng: &Engine<M>,
    amounts: &[Asset],
    marks: &Marks,
) -> LockProfile {
    let mut profile = LockProfile::new();
    for e in &eng.trace().events {
        if let TraceKind::Mark { label, value, .. } = e.kind {
            let sign = if label == marks.locked {
                1
            } else if label == marks.released || label == marks.refunded {
                -1
            } else {
                continue;
            };
            let amount = amounts[value as usize].amount as i64;
            profile.push(e.real, value as u32, sign * amount);
        }
    }
    profile
}

/// Draws the fault assignment for one instance from its own seed after
/// restricting `plan` to the harness's supported strategies — the exact
/// draw [`run_harness_instance`] uses, exposed so tests and explorers can
/// reproduce a specific instance's faults.
pub fn sample_instance_faults<H: ProtocolHarness>(
    harness: &H,
    spec: &PaymentSpec,
    plan: &FaultPlan,
) -> InstanceFaults {
    let restricted = harness.byz_support().restrict(plan);
    let mut fault_rng = StdRng::seed_from_u64(spec.seed ^ FAULT_SALT);
    restricted.sample(spec.n, &mut fault_rng)
}

/// Runs one payment instance end to end through `harness` and extracts its
/// metrics. The fault assignment is drawn from the instance's own seed
/// after restricting `plan` to the harness's supported strategies, so the
/// draw — and therefore the whole run — is a pure function of
/// `(harness, spec, plan)`.
pub fn run_harness_instance<H: ProtocolHarness>(
    harness: &H,
    spec: &PaymentSpec,
    plan: &FaultPlan,
    collect_lock_profile: bool,
) -> HarnessRun {
    let faults = sample_instance_faults(harness, spec, plan);
    debug_assert!(
        faults.byz == ByzFault::None || applies(harness.byz_support(), faults.byz),
        "restricted plan drew an unsupported fault: {:?}",
        faults.byz
    );

    let inst = harness.instance(spec, &faults);
    let mut eng = harness.build_engine(
        &inst,
        spec,
        Box::new(RandomOracle::seeded(spec.seed)),
        TraceMode::CountersOnly,
    );
    let report = eng.run();

    let outcome = harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);
    let griefed = harness.griefed(&eng, &inst, outcome);
    let latency = harness.latency(&eng, &inst, spec, outcome);
    let profile = harness.lock_events(&eng, &inst, spec);
    let peak_locked = profile.peak();
    let lock_profile = if collect_lock_profile {
        profile.shifted(spec.arrival)
    } else {
        Vec::new()
    };

    HarnessRun {
        outcome,
        griefed,
        faults,
        latency,
        peak_locked,
        events: report.events,
        lock_profile,
    }
}

/// Whether `byz` can come out of a plan restricted to `s`: its strategy's
/// position in the draw order is below `s.prefix_len()`. Forging
/// downgrades to a crash on 1-escrow chains, which is earlier in the
/// order, so a forging harness covers that crash too.
fn applies(s: ByzSupport, byz: ByzFault) -> bool {
    let pos = match byz {
        ByzFault::None => return true,
        ByzFault::CrashCustomer(_) | ByzFault::CrashEscrow(_) => 0,
        ByzFault::LateBob => 1,
        ByzFault::ForgingChloe(_) => 2,
        ByzFault::ThievingEscrow(_) => 3,
    };
    pos < s.prefix_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::net::NetFaults;

    #[test]
    fn restrict_zeroes_only_unsupported_knobs() {
        let plan = FaultPlan {
            crash_permille: 100,
            late_bob_permille: 200,
            forging_chloe_permille: 300,
            thieving_escrow_permille: 400,
            net: NetFaults {
                drop_permille: 5,
                ..NetFaults::NONE
            },
        };
        let knobs = |p: &FaultPlan| {
            [
                p.crash_permille,
                p.late_bob_permille,
                p.forging_chloe_permille,
                p.thieving_escrow_permille,
            ]
        };
        for k in 0..=4 {
            let r = ByzSupport::first(k).restrict(&plan);
            for (pos, (kept, full)) in knobs(&r).into_iter().zip(knobs(&plan)).enumerate() {
                let want = if pos < k { full } else { 0 };
                assert_eq!(kept, want, "prefix {k}, knob {pos}");
            }
            assert_eq!(r.net, plan.net, "network faults always apply");
        }
        assert_eq!(ByzSupport::ALL.restrict(&plan), plan);
        assert!(ByzSupport::NONE.restrict(&plan).byz_is_none());
    }

    #[test]
    fn builtin_harnesses_support_pinned_prefixes() {
        assert_eq!(crate::TimeBoundedHarness.byz_support().prefix_len(), 4);
        assert_eq!(crate::IlpUntunedHarness.byz_support().prefix_len(), 4);
        assert_eq!(crate::HtlcHarness.byz_support().prefix_len(), 2);
        assert_eq!(crate::DealsHarness.byz_support().prefix_len(), 2);
        assert_eq!(crate::IlpAtomicHarness.byz_support().prefix_len(), 1);
    }
}
