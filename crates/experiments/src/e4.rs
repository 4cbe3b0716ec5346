//! **E4 — Figures 1 and 2**: regeneration and cross-validation.
//!
//! * renders Figure 1 (the chain topology) as ASCII and DOT for any `n`;
//! * renders every Figure 2 automaton as DOT;
//! * cross-checks the declarative Figure 2 automata against the executable
//!   protocol: both are built from one [`ChainSetup`] ([`e4_setup`]) by
//!   one assembly, and under identical deterministic schedules the two
//!   produce the same message-kind sequence;
//! * exhaustively explores all schedules of a small instance (n = 1,
//!   two delay buckets per message) and checks the safety clauses on every
//!   single one.

use crate::table::{check, Table};
use anta::automaton::AutomatonProcess;
use anta::engine::{Engine, EngineConfig, RunReport};
use anta::explore::{
    explore_differential, explore_parallel_with, DifferentialReport, ExploreConfig, ExploreReport,
};
use anta::net::SyncNet;
use anta::oracle::{FixedOracle, Oracle};
use anta::process::Process;
use anta::trace::{TraceKind, TraceMode};
use payment::msg::PMsg;
use payment::timebounded::fig2::{self, all_specs};
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, ValuePlan};
use std::sync::Arc;
use telemetry::{NullSink, TelemetrySink};

/// The one E4 instance of `n` escrows: 100 per hop, baseline synchrony,
/// keys from seed `0xE4`. The figures, the cross-check and the
/// exploration all build from it.
pub fn e4_setup(n: usize) -> ChainSetup {
    ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 0xE4)
}

/// A trace's `(from, to, kind)` send sequence — the protocol's observable
/// communication skeleton.
pub type Skeleton = Vec<(usize, usize, &'static str)>;

/// The sequence of `(from, to, kind)` sends in a trace — the protocol's
/// observable communication skeleton.
fn message_skeleton(eng: &Engine<PMsg>) -> Skeleton {
    eng.trace()
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::Sent { from, to, msg } => Some((*from, *to, msg.kind())),
            _ => None,
        })
        .collect()
}

/// Cross-check: the executable and the declarative protocol, both built
/// from [`e4_setup`]`(n)` by one assembly — same engine configuration,
/// network and clocks — under the identical worst-case deterministic
/// schedule. Returns both skeletons.
pub fn cross_check(n: usize) -> (Skeleton, Skeleton) {
    let setup = e4_setup(n);
    let skeleton = |declarative: bool| {
        let mut eng = setup.build_engine_with(
            Box::new(SyncNet::worst_case(setup.params.delta)),
            Box::new(FixedOracle::maximal()),
            ClockPlan::Perfect,
            |role| {
                declarative.then(|| {
                    Box::new(AutomatonProcess::new(Arc::new(fig2::spec(&setup, role))))
                        as Box<dyn Process<PMsg>>
                })
            },
        );
        eng.run();
        message_skeleton(&eng)
    };
    (skeleton(false), skeleton(true))
}

/// Explores every schedule of an `n`-escrow instance — 2-bucket delays for
/// every message, `sigma_buckets` σ buckets for every sending handler —
/// under `cfg`, checking the ES/CS safety clauses on each complete
/// schedule. The one entry point behind the presets below; telemetry
/// (`dpor_worker` per worker, then a `dpor` summary) lands in `sink`.
///
/// Engines run with [`TraceMode::CountersOnly`]: the Definition 1 checkers
/// read only halts, marks and final process/ledger states, so the trace
/// never clones a message — this does not change the schedule tree.
pub fn explore_instance_with(
    n: usize,
    sigma_buckets: usize,
    cfg: ExploreConfig,
    sink: &mut dyn TelemetrySink,
) -> ExploreReport {
    let (build, chk) = instance_closures(n, sigma_buckets);
    explore_parallel_with(build, chk, cfg, sink)
}

/// Full enumeration of the instance on `threads` workers (0 ⇒ all cores);
/// the report is bit-identical across thread counts whenever the tree is
/// exhausted within `max_runs`. `sigma_buckets = 1` pins every computation
/// delay to σ_max, shrinking the tree to delay choices only — that is what
/// makes the n = 2 instance exhaustible (the 4-bucket tree at n = 2 exceeds
/// 10⁷ schedules).
pub fn explore_instance_opts(
    n: usize,
    threads: usize,
    max_runs: usize,
    sigma_buckets: usize,
) -> ExploreReport {
    let cfg = ExploreConfig {
        max_runs,
        ..ExploreConfig::with_threads(threads)
    };
    explore_instance_with(n, sigma_buckets, cfg, &mut NullSink)
}

/// Reduced (DPOR-style) exploration of the same instance: state-hash
/// deduplication plus dead-branch elision. Same exhaustion verdict and
/// distinct violation set as [`explore_instance_opts`] (checked by
/// [`explore_instance_differential`] and CI), at a fraction of the executed
/// runs — this is what makes n = 3 at σ ≥ 2 buckets and n = 4 at σ = 1
/// exhaustible.
pub fn explore_instance_dpor(
    n: usize,
    threads: usize,
    max_runs: usize,
    sigma_buckets: usize,
) -> ExploreReport {
    let cfg = ExploreConfig {
        max_runs,
        ..ExploreConfig::reduced(threads)
    };
    explore_instance_with(n, sigma_buckets, cfg, &mut NullSink)
}

/// Runs full and reduced exploration of the instance back to back and
/// compares verdicts — the differential correctness gate for the reduction
/// (see [`anta::explore::explore_differential`]). Telemetry from both
/// passes lands in `sink`.
pub fn explore_instance_differential(
    n: usize,
    threads: usize,
    max_runs: usize,
    sigma_buckets: usize,
    sink: &mut dyn TelemetrySink,
) -> DifferentialReport {
    let (build, chk) = instance_closures(n, sigma_buckets);
    explore_differential(
        build,
        chk,
        ExploreConfig {
            max_runs,
            ..ExploreConfig::with_threads(threads)
        },
        sink,
    )
}

/// The build/check closure pair shared by all E4 exploration entry points:
/// [`e4_setup`]`(n)` over a 2-bucket synchronous network with the given σ
/// quantisation, checked against the Definition 1 safety clauses plus
/// strong liveness (Bob paid on every synchronous schedule).
#[allow(clippy::type_complexity)]
fn instance_closures(
    n: usize,
    sigma_buckets: usize,
) -> (
    impl Fn(Box<dyn Oracle>) -> Engine<PMsg> + Sync,
    impl Fn(&Engine<PMsg>, &RunReport) -> Result<(), String> + Sync,
) {
    let setup = Arc::new(e4_setup(n));
    let build_setup = setup.clone();
    let check_setup = setup;
    (
        move |oracle: Box<dyn Oracle>| {
            let cfg = EngineConfig {
                trace_mode: TraceMode::CountersOnly,
                sigma_buckets,
                ..build_setup.engine_config()
            };
            build_setup.build_engine_cfg(
                Box::new(SyncNet {
                    delta_min: anta::time::SimDuration::ZERO,
                    delta_max: SyncParams::baseline().delta,
                    buckets: 2,
                }),
                oracle,
                ClockPlan::Perfect,
                cfg,
                |_| None,
            )
        },
        move |eng: &Engine<PMsg>, report: &RunReport| {
            let o = ChainOutcome::extract(eng, &check_setup, report.quiescent);
            let v = payment::properties::check_definition1(
                &o,
                &check_setup,
                &payment::properties::Compliance::all_compliant(),
            );
            if !v.all_ok() {
                return Err(format!("{:?}", v.violations()));
            }
            if !o.bob_paid() {
                return Err("strong liveness failed on a synchronous schedule".into());
            }
            Ok(())
        },
    )
}

/// The E4 report.
pub struct E4Report {
    /// Figure 1 rendered as ASCII.
    pub figure1_ascii: String,
    /// Figure 1 rendered as Graphviz DOT.
    pub figure1_dot: String,
    /// (automaton name, DOT source) per participant.
    pub figure2_dots: Vec<(String, String)>,
    /// Executable and declarative skeletons coincide.
    pub skeletons_match: bool,
    /// Number of sends in the executable skeleton.
    pub exec_skeleton_len: usize,
    /// Complete schedules executed.
    pub explored_runs: usize,
    /// The whole schedule tree was covered.
    pub exploration_exhausted: bool,
    /// Schedules violating Definition 1 safety.
    pub exploration_violations: usize,
}

/// Runs E4 for a chain of `n` escrows (figures) and the fixed small
/// instance (exploration).
pub fn run(n: usize) -> E4Report {
    let setup = e4_setup(n);
    let figure2_dots: Vec<(String, String)> = all_specs(&setup)
        .into_iter()
        .map(|s| (s.name.clone(), s.to_dot()))
        .collect();
    let (exec_skel, decl_skel) = cross_check(n);
    // n = 1 at 4 σ buckets, on all cores: bit-identical to the serial
    // exploration, just faster.
    let exploration = explore_instance_opts(1, 0, 100_000, 4);
    E4Report {
        figure1_ascii: setup.chain.topo.render_figure1(),
        figure1_dot: setup.chain.topo.to_dot(),
        figure2_dots,
        skeletons_match: exec_skel == decl_skel,
        exec_skeleton_len: exec_skel.len(),
        explored_runs: exploration.runs,
        exploration_exhausted: exploration.exhausted,
        exploration_violations: exploration.violations.len(),
    }
}

impl E4Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E4 — Figures 1 & 2 regeneration and cross-validation",
            &["check", "result"],
        );
        t.push(&[
            "Figure 2 automata rendered (DOT)".to_string(),
            self.figure2_dots.len().to_string(),
        ]);
        t.push(&[
            "executable ≡ declarative message skeleton".to_string(),
            format!(
                "{} ({} sends)",
                check(self.skeletons_match),
                self.exec_skeleton_len
            ),
        ]);
        t.push(&[
            "exhaustive schedules explored (n = 1)".to_string(),
            format!(
                "{}{}",
                self.explored_runs,
                if self.exploration_exhausted {
                    " (complete)"
                } else {
                    " (budget hit)"
                }
            ),
        ]);
        t.push(&[
            "schedules violating Def. 1 safety".to_string(),
            self.exploration_violations.to_string(),
        ]);
        format!(
            "{}\nFigure 1 (n as configured):\n{}\n",
            t.render(),
            self.figure1_ascii
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skeletons_match_for_small_chains() {
        for n in 1..=5 {
            let (exec, decl) = cross_check(n);
            assert_eq!(exec, decl, "n = {n}");
            // Expected message count for a successful run:
            // n×G + n×$ + n×P + (2n)×(χ or $) … exact count checked by
            // equality; sanity: non-empty and first message is a G.
            assert_eq!(exec[0].2, "G");
        }
    }

    #[test]
    fn exploration_is_exhaustive_and_clean() {
        let r = explore_instance_opts(1, 1, 100_000, 4);
        assert!(r.exhausted, "ran {} schedules", r.runs);
        assert!(r.all_ok(), "violations: {:?}", r.violations.first());
        assert!(r.runs > 16, "nontrivial schedule space, got {}", r.runs);
    }

    #[test]
    fn parallel_exploration_is_bit_identical_to_serial() {
        let serial = explore_instance_opts(1, 1, 100_000, 4);
        assert!(serial.exhausted);
        for threads in [2usize, 4] {
            let par = explore_instance_opts(1, threads, 100_000, 4);
            assert_eq!(par.runs, serial.runs, "threads = {threads}");
            assert_eq!(par.exhausted, serial.exhausted);
            assert_eq!(par.violations.len(), serial.violations.len());
        }
    }

    #[test]
    fn report_renders() {
        let r = run(3);
        assert!(r.skeletons_match);
        assert_eq!(r.exploration_violations, 0);
        let s = r.render();
        assert!(s.contains("c0 --- e0"));
    }
}
