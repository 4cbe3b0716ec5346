//! `explore_e4` — exhaustive verification, what `exp4` does: reduced-mode
//! exploration of every schedule of small time-bounded chains, checked
//! against Definition 1 and strong liveness. `anta::explore`, state
//! fingerprints and engine rebuild/replay do all the work; `sim`, the DES
//! and the router are bypassed entirely.
//!
//! `experiments::e4` pins its instance to one key seed behind a private
//! function, so the instances here are rebuilt from the same public pieces
//! (`ChainSetup`, a 2-bucket `SyncNet`, `check_definition1`) with the key
//! seed and the amount drawn from `--seed`.

use super::{debug_digest, derive_seeds, Pass, Sizes, Workload};
use crate::json::Json;
use crate::layers::REPEATS;
use crate::ledger::Ledger;
use crate::span::Tracer;
use anta::engine::{Engine, EngineConfig, RunReport};
use anta::explore::{explore_parallel, ExploreConfig, ExploreReport};
use anta::net::SyncNet;
use anta::oracle::Oracle;
use anta::time::SimDuration;
use anta::trace::TraceMode;
use payment::msg::PMsg;
use payment::properties::{check_definition1, Compliance};
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, ValuePlan};

/// Executed-run budget per instance; the instances here exhaust far below.
const MAX_RUNS: usize = 2_000_000;
/// σ pinned to σ_max: the tree is delay choices only.
const SIGMA_BUCKETS: usize = 1;
/// Schedules of the full (unreduced) n = 2, σ = 1 tree.
const FULL_N2_RUNS: usize = 4_096;

pub struct ExploreE4 {
    n: usize,
    setups: Vec<ChainSetup>,
}

impl ExploreE4 {
    pub fn generate(seed: u64, sizes: &Sizes) -> Self {
        let setups = derive_seeds(seed ^ 0xE4, sizes.explore_instances)
            .into_iter()
            .map(|z| {
                ChainSetup::new(
                    sizes.explore_n,
                    ValuePlan::uniform(sizes.explore_n, 50 + z % 950),
                    SyncParams::baseline(),
                    z,
                )
            })
            .collect();
        ExploreE4 {
            n: sizes.explore_n,
            setups,
        }
    }

    fn explore(&self, setup: &ChainSetup, threads: usize) -> ExploreReport {
        let build = |oracle: Box<dyn Oracle>| -> Engine<PMsg> {
            let cfg = EngineConfig {
                trace_mode: TraceMode::CountersOnly,
                sigma_buckets: SIGMA_BUCKETS,
                ..setup.engine_config()
            };
            setup.build_engine_cfg(
                Box::new(SyncNet {
                    delta_min: SimDuration::ZERO,
                    delta_max: SyncParams::baseline().delta,
                    buckets: 2,
                }),
                oracle,
                ClockPlan::Perfect,
                cfg,
                |_| None,
            )
        };
        let check = |eng: &Engine<PMsg>, report: &RunReport| -> Result<(), String> {
            let o = ChainOutcome::extract(eng, setup, report.quiescent);
            let v = check_definition1(&o, setup, &Compliance::all_compliant());
            if !v.all_ok() {
                return Err(format!("{:?}", v.violations()));
            }
            if !o.bob_paid() {
                return Err("strong liveness failed on a synchronous schedule".into());
            }
            Ok(())
        };
        explore_parallel(
            build,
            check,
            ExploreConfig {
                max_runs: MAX_RUNS,
                ..ExploreConfig::reduced(threads)
            },
        )
    }

    /// One instance's report as a chunk.
    fn summarise(r: &ExploreReport) -> Pass {
        let mut errors = Vec::new();
        if !r.exhausted {
            errors.push(format!("not exhausted within {MAX_RUNS} runs"));
        }
        if !r.all_ok() {
            errors.push(format!("{} violating schedules", r.violations.len()));
        }
        Pass {
            // Which worker reaches a converging state first decides who
            // runs it and who is cut, so run and cut counts are exact at
            // one thread only; the verdict is what every thread count must
            // agree on.
            digest: debug_digest(&(r.exhausted, r.distinct_violation_messages())),
            attempted: (r.runs + r.dedup_hits) as u64,
            failed: r.violations.len() as u64 + u64::from(!r.exhausted),
            counts: vec![
                ("runs".to_owned(), r.runs as u64),
                ("dedup_hits".to_owned(), r.dedup_hits as u64),
                ("dead_branch_prunes".to_owned(), r.dead_branch_prunes),
                ("resplits".to_owned(), r.resplits as u64),
            ],
            errors,
        }
    }
}

impl Workload for ExploreE4 {
    fn sizes(&self) -> Json {
        Json::obj([
            ("instances", Json::Int(self.setups.len() as u64)),
            ("escrows_per_chain", Json::Int(self.n as u64)),
            ("sigma_buckets", Json::Int(SIGMA_BUCKETS as u64)),
            ("delay_buckets", Json::Int(2)),
            ("mode", Json::str("reduced")),
            ("max_runs", Json::Int(MAX_RUNS as u64)),
        ])
    }

    fn chunks(&self) -> usize {
        self.setups.len()
    }

    fn run_chunk(&self, i: usize, threads: usize) -> Pass {
        Self::summarise(&self.explore(&self.setups[i], threads))
    }

    fn side_checks(&self, _t1: &Pass) -> Vec<String> {
        let full = experiments::e4::explore_instance_opts(2, 1, 200_000, SIGMA_BUCKETS);
        let reduced = experiments::e4::explore_instance_dpor(2, 1, 200_000, SIGMA_BUCKETS);
        let mut errors = Vec::new();
        if full.runs != FULL_N2_RUNS || !full.exhausted {
            errors.push(format!(
                "full-mode n=2 ran {} schedules (exhausted: {}), expected exactly {FULL_N2_RUNS}",
                full.runs, full.exhausted
            ));
        }
        if (full.exhausted, full.distinct_violation_messages())
            != (reduced.exhausted, reduced.distinct_violation_messages())
        {
            errors.push("full and reduced exploration of n=2 disagree on the verdict".to_owned());
        }
        errors
    }

    fn traced(&self, _tn: usize, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let mut wall_s = 0.0;
        let mut pass = Pass::default();
        for setup in &self.setups {
            let (report, best) =
                tracer.best_of(REPEATS, "explore.reduced", |_| self.explore(setup, 1));
            wall_s += best;
            pass.absorb(Self::summarise(&report));
        }
        for (name, value) in &pass.counts {
            ledger.put(format!("explore.{name}"), *value as f64);
        }
        ledger.put(
            "explore.us_per_attempt",
            wall_s * 1e6 / pass.attempted.max(1) as f64,
        );

        let (full, best) = tracer.best_of(REPEATS, "explore.full_n2", |_| {
            experiments::e4::explore_instance_opts(2, 1, 200_000, SIGMA_BUCKETS)
        });
        ledger.put("explore.full_n2_schedules_per_s", full.runs as f64 / best);
        wall_s
    }
}
