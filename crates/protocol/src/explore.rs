//! Exhaustive schedule exploration generic over the harness.
//!
//! [`anta::explore`] enumerates every oracle-choice path of a
//! deterministic engine; this module points it at a [`ProtocolHarness`],
//! so the E4-style "for every schedule" check applies to *any* protocol of
//! the workspace: the checker fails a schedule exactly when the harness
//! classifies its run as a [`ProtocolOutcome::Violation`].

use crate::faults::InstanceFaults;
use crate::harness::ProtocolHarness;
use crate::outcome::ProtocolOutcome;
use crate::workload::PaymentSpec;
use anta::engine::{Engine, RunReport};
use anta::explore::{
    explore_differential, explore_parallel, DifferentialReport, ExploreConfig, ExploreReport,
};
use anta::oracle::Oracle;
use anta::trace::TraceMode;
use telemetry::TelemetrySink;

/// The build/check closure pair both entry points hand to the explorer:
/// the engine is rebuilt per schedule from the instance context, in
/// counters-only trace mode (classification reads marks, halts and final
/// process state only), and a schedule fails exactly when the harness
/// classifies its run as a [`ProtocolOutcome::Violation`].
#[allow(clippy::type_complexity)]
fn harness_closures<'a, H>(
    harness: &'a H,
    inst: &'a H::Instance,
    spec: &'a PaymentSpec,
) -> (
    impl Fn(Box<dyn Oracle>) -> Engine<H::Msg> + Sync + 'a,
    impl Fn(&Engine<H::Msg>, &RunReport) -> Result<(), String> + Sync + 'a,
)
where
    H: ProtocolHarness,
    H::Instance: Sync,
{
    (
        move |oracle| harness.build_engine(inst, spec, oracle, TraceMode::CountersOnly),
        move |eng, report| match harness.classify(
            eng,
            inst,
            spec,
            report.quiescent,
            report.truncated,
        ) {
            ProtocolOutcome::Violation => Err(format!(
                "{}: conservation/safety violation on this schedule",
                harness.name()
            )),
            _ => Ok(()),
        },
    )
}

/// Explores every schedule of one payment instance under `harness`,
/// reporting a violation for each schedule whose run the harness
/// classifies as [`ProtocolOutcome::Violation`].
///
/// `cfg.threads` workers share one work queue; in full mode the report is
/// bit-identical to the serial explorer whenever the tree is exhausted.
pub fn explore_harness<H>(
    harness: &H,
    spec: &PaymentSpec,
    faults: &InstanceFaults,
    cfg: ExploreConfig,
) -> ExploreReport
where
    H: ProtocolHarness,
    H::Instance: Sync,
{
    let inst = harness.instance(spec, faults);
    let (build, check) = harness_closures(harness, &inst, spec);
    explore_parallel(build, check, cfg)
}

/// [`explore_harness`] in differential mode: full enumeration and reduced
/// (DPOR-style) exploration of the same instance, with the equivalence
/// verdict (see [`anta::explore::explore_differential`]). `cfg.mode` is
/// overridden per pass; telemetry from both passes lands in `sink`.
pub fn explore_harness_differential<H>(
    harness: &H,
    spec: &PaymentSpec,
    faults: &InstanceFaults,
    cfg: ExploreConfig,
    sink: &mut dyn TelemetrySink,
) -> DifferentialReport
where
    H: ProtocolHarness,
    H::Instance: Sync,
{
    let inst = harness.instance(spec, faults);
    let (build, check) = harness_closures(harness, &inst, spec);
    explore_differential(build, check, cfg, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::htlc::HtlcHarness;
    use crate::interledger::IlpUntunedHarness;
    use crate::timebounded::TimeBoundedHarness;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};

    fn one_spec(seed: u64) -> PaymentSpec {
        let mut w = WorkloadConfig::new(TopologyFamily::Linear { n: 1 }, 1, seed);
        // Pin drift so the schedule tree stays small and exhaustible.
        w.max_rho_ppm = (0, 0);
        workload::generate(&w).remove(0)
    }

    #[test]
    fn timebounded_is_violation_free_on_every_schedule() {
        let spec = one_spec(3);
        let report = explore_harness(
            &TimeBoundedHarness,
            &spec,
            &InstanceFaults::NONE,
            ExploreConfig {
                max_runs: 5_000,
                threads: 2,
                ..Default::default()
            },
        );
        assert!(report.runs > 1, "a 1-hop chain still has schedule choice");
        assert!(report.all_ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn htlc_explorer_runs_and_finds_no_theft_without_faults() {
        let spec = one_spec(4);
        let report = explore_harness(
            &HtlcHarness,
            &spec,
            &InstanceFaults::NONE,
            ExploreConfig {
                max_runs: 2_000,
                threads: 1,
                ..Default::default()
            },
        );
        assert!(report.runs >= 1);
        assert!(report.all_ok(), "{:?}", report.violations.first());
    }

    #[test]
    fn untuned_interledger_differential_full_vs_reduced_agrees() {
        // The one harness whose n = 1 tree full enumeration exhausts inside
        // a unit-test budget (1 024 schedules), so the comparison is real:
        // the reduced side must reach the same verdict from a fraction of
        // the runs. (That a budget-limited full reference is never a
        // mismatch is pinned by the anta explorer tests.)
        let spec = one_spec(3);
        for threads in [1usize, 2] {
            let diff = explore_harness_differential(
                &IlpUntunedHarness,
                &spec,
                &InstanceFaults::NONE,
                ExploreConfig {
                    max_runs: 60_000,
                    ..ExploreConfig::with_threads(threads)
                },
                &mut telemetry::NullSink,
            );
            assert!(diff.full.exhausted, "full ran {} schedules", diff.full.runs);
            assert!(diff.agree(), "{:?}", diff.mismatch);
            assert!(diff.reduced.dedup_hits > 0, "cuts were taken");
            let ratio = diff.reduced.reduction_ratio().expect("full exhausted");
            assert!(ratio < 1.0, "representatives, not schedules: {ratio}");
            if threads == 1 {
                // Exact work at one worker: a state digest that dropped a
                // behaviour-bearing field would merge more (fewer runs or
                // more cuts), one that folded an absolute time fewer.
                let r = &diff.reduced;
                assert_eq!((r.runs, r.dedup_hits), (1, 87), "reduced work moved");
            }
        }
    }

    #[test]
    fn faulted_plans_explore_deterministically() {
        let spec = one_spec(5);
        let plan = FaultPlan {
            crash_permille: 1000,
            ..FaultPlan::NONE
        };
        let faults = crate::harness::sample_instance_faults(&TimeBoundedHarness, &spec, &plan);
        let cfg = ExploreConfig {
            max_runs: 1_000,
            threads: 1,
            ..Default::default()
        };
        let a = explore_harness(&TimeBoundedHarness, &spec, &faults, cfg);
        let b = explore_harness(&TimeBoundedHarness, &spec, &faults, cfg);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.exhausted, b.exhausted);
        assert_eq!(a.violations.len(), b.violations.len());
    }
}
