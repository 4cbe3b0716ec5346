//! One engine reused for a batch of payments runs each payment exactly as a
//! new engine would. The runner keeps one engine per chunk of specs and the
//! open-system DES one per shard, each harness resetting it through
//! `ProtocolHarness::assemble`, so a reset that left anything of the
//! previous run behind would move rows. Here every harness runs the
//! benchmark's `closed_mix` payments twice, once on one reused engine and
//! once on a new engine per payment, and the two must agree on every row
//! and on everything the engine exposes after each run. A wrapper harness
//! turns state fingerprinting on for some payments (a reset must turn it
//! off again) and panics in `classify` for others (the engine must stay
//! reusable after a caught panic).

use crosschain::anta::engine::Engine;
use crosschain::anta::net::NetFaults;
use crosschain::anta::oracle::Oracle;
use crosschain::anta::time::SimDuration;
use crosschain::anta::trace::TraceMode;
use crosschain::protocol::{
    run_harness_instance_in, with_harness, ByzSupport, LockProfile, ProtocolHarness,
    ProtocolOutcome, HARNESS_LABELS,
};
use crosschain::sim::prelude::*;
use crosschain::sim::workload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's `closed_mix` fault mix: 5 % crash, 2.5 % each late Bob,
/// forging Chloe and thieving escrow, 1 % message drop, 10 % extra delay.
fn mixed_faults() -> FaultPlan {
    FaultPlan {
        crash_permille: 50,
        late_bob_permille: 25,
        forging_chloe_permille: 25,
        thieving_escrow_permille: 25,
        net: NetFaults {
            drop_permille: 10,
            delay_permille: 100,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
    }
}

/// Payments whose run is fingerprinted.
fn fingerprinted(spec: &PaymentSpec) -> bool {
    spec.id % 5 == 1
}

/// Payments whose classification panics, after the run.
fn poisoned(spec: &PaymentSpec) -> bool {
    spec.id % 16 == 3
}

/// `H`, except on [`fingerprinted`] and [`poisoned`] payments.
struct Flaky<H>(H);

impl<H: ProtocolHarness> ProtocolHarness for Flaky<H> {
    type Msg = H::Msg;
    type Instance = H::Instance;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn byz_support(&self) -> ByzSupport {
        self.0.byz_support()
    }

    fn instance(&self, spec: &PaymentSpec, faults: &InstanceFaults) -> Self::Instance {
        self.0.instance(spec, faults)
    }

    fn assemble(
        &self,
        eng: &mut Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        oracle: Box<dyn Oracle>,
        trace_mode: TraceMode,
    ) {
        self.0.assemble(eng, inst, spec, oracle, trace_mode);
        if fingerprinted(spec) {
            eng.enable_fingerprints();
        }
    }

    fn classify(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        quiescent: bool,
        truncated: bool,
    ) -> ProtocolOutcome {
        assert!(!poisoned(spec), "poisoned payment {}", spec.id);
        self.0.classify(eng, inst, spec, quiescent, truncated)
    }

    fn griefed(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        outcome: ProtocolOutcome,
    ) -> bool {
        self.0.griefed(eng, inst, outcome)
    }

    fn latency(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
        outcome: ProtocolOutcome,
    ) -> SimDuration {
        self.0.latency(eng, inst, spec, outcome)
    }

    fn lock_events(
        &self,
        eng: &Engine<Self::Msg>,
        inst: &Self::Instance,
        spec: &PaymentSpec,
    ) -> LockProfile {
        self.0.lock_events(eng, inst, spec)
    }
}

/// One payment on `eng`, panic-isolated: its row (`None` if it panicked)
/// and what the engine exposes afterwards — its trace with every counter
/// and the observable digest, its state fingerprint and its process
/// count.
fn observe<H: ProtocolHarness>(
    h: &H,
    eng: &mut Engine<H::Msg>,
    spec: &PaymentSpec,
    plan: &FaultPlan,
) -> (Option<String>, String) {
    let row = catch_unwind(AssertUnwindSafe(|| {
        format!("{:?}", run_harness_instance_in(h, eng, spec, plan, true))
    }));
    let fp = eng.state_fingerprint();
    let seen = format!("{:?} fp {fp:?} procs {}", eng.trace(), eng.len());
    (row.ok(), seen)
}

#[test]
fn a_reused_engine_runs_every_payment_as_a_new_one_does() {
    let specs = workload::generate(&WorkloadConfig::new(
        TopologyFamily::Linear { n: 3 },
        96,
        42,
    ));
    let plan = mixed_faults();
    // The poisoned payments' panics are expected: keep them off stderr.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if !msg.is_some_and(|m| m.starts_with("poisoned payment")) {
            report(info);
        }
    }));
    let checked = HARNESS_LABELS.map(|label| {
        with_harness!(label, |h| {
            let h = Flaky(h);
            let mut reused = Engine::default();
            let mut after_panic = 0;
            for (i, spec) in specs.iter().enumerate() {
                let fresh = observe(&h, &mut Engine::default(), spec, &plan);
                let again = observe(&h, &mut reused, spec, &plan);
                assert_eq!(again, fresh, "{label}: payment {}", spec.id);
                after_panic += usize::from(i > 0 && poisoned(&specs[i - 1]));
            }
            let panics = specs.iter().filter(|s| poisoned(s)).count();
            (label, panics, after_panic)
        })
    });
    for (label, panics, after_panic) in checked {
        assert_eq!((panics, after_panic), (6, 6), "{label}");
    }
}
