//! `closed_mix` — closed-system Monte Carlo, what `exp9` does: the same
//! linear specs through all five protocol harnesses under the legacy
//! `bench` binary's mixed fault plan. Harness, engine and `xcrypto` do all
//! the work; the DES and the router are bypassed.

use super::{debug_digest, Pass, Sizes, Workload};
use crate::json::Json;
use crate::layers::{self, REPEATS};
use crate::ledger::{Ledger, PHASES, PROTOCOLS};
use crate::span::Tracer;
use anta::oracle::RandomOracle;
use anta::time::SimDuration;
use anta::trace::TraceMode;
use protocol::harness::{sample_instance_faults, ProtocolHarness};
use std::time::Instant;

pub struct ClosedMix {
    workload: sim::WorkloadConfig,
    specs: Vec<sim::PaymentSpec>,
    sizes: Sizes,
}

/// 5% crash, 2.5% each late-Bob / forging-Chloe / thieving-escrow, 1%
/// message drop, 10% extra delay.
fn mixed_faults() -> sim::FaultPlan {
    sim::FaultPlan {
        crash_permille: 50,
        late_bob_permille: 25,
        forging_chloe_permille: 25,
        thieving_escrow_permille: 25,
        net: anta::net::NetFaults {
            drop_permille: 10,
            delay_permille: 100,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
    }
}

/// Evaluates `$body` with `$h` bound to harness number `$index` of
/// `PROTOCOLS`; the harness types differ, so this cannot be a table.
macro_rules! with_harness {
    ($index:expr, |$h:ident| $body:expr) => {
        match $index {
            0 => {
                let $h = &sim::TimeBoundedHarness;
                $body
            }
            1 => {
                let $h = &sim::HtlcHarness;
                $body
            }
            2 => {
                let $h = &sim::DealsHarness;
                $body
            }
            3 => {
                let $h = &sim::InterledgerHarness::atomic();
                $body
            }
            4 => {
                let $h = &sim::InterledgerHarness::untuned();
                $body
            }
            other => unreachable!("harness index {other} of {}", PROTOCOLS.len()),
        }
    };
}

impl ClosedMix {
    pub fn generate(seed: u64, sizes: &Sizes) -> Self {
        let workload = sim::WorkloadConfig::new(
            sim::TopologyFamily::Linear { n: 3 },
            sizes.closed_slices * sizes.closed_slice_specs,
            seed,
        );
        ClosedMix {
            specs: sim::workload::generate(&workload),
            workload,
            sizes: *sizes,
        }
    }

    fn config(&self, threads: usize) -> sim::SimConfig {
        sim::SimConfig {
            faults: mixed_faults(),
            threads,
            lock_profile: false,
            ..sim::SimConfig::new(self.workload)
        }
    }

    fn slices(&self) -> std::slice::Chunks<'_, sim::PaymentSpec> {
        self.specs.chunks(self.sizes.closed_slice_specs)
    }
}

/// One slice's report from one harness as a chunk.
fn summarise(label: &str, specs: usize, r: &sim::SimReport) -> Pass {
    let mut errors = Vec::new();
    let mut failed = r.failed as u64;
    if r.failed != 0 {
        errors.push(format!(
            "{label}: {} instances failed (panicked twice)",
            r.failed
        ));
    }
    if label == PROTOCOLS[0] {
        if r.violations != 0 || r.griefed != 0 {
            errors.push(format!(
                "{label}: {} violations, {} griefed (the theorem says 0 / 0)",
                r.violations, r.griefed
            ));
        }
        failed += (r.violations + r.griefed) as u64;
    }
    // The baselines' defects are simulated results, printed not judged.
    let success = r.families.iter().map(|f| f.success.hits as u64).sum();
    Pass {
        digest: debug_digest(r),
        attempted: specs as u64,
        failed,
        counts: vec![
            (format!("{label}.success"), success),
            (format!("{label}.violations"), r.violations as u64),
            (format!("{label}.griefed"), r.griefed as u64),
        ],
        errors,
    }
}

impl Workload for ClosedMix {
    fn sizes(&self) -> Json {
        Json::obj([
            ("family", Json::str("Linear { n: 3 }")),
            ("specs", Json::Int(self.specs.len() as u64)),
            (
                "specs_per_slice",
                Json::Int(self.sizes.closed_slice_specs as u64),
            ),
            ("harnesses", Json::Int(PROTOCOLS.len() as u64)),
            (
                "faults",
                Json::str(
                    "5% crash, 2.5% late-Bob, 2.5% forging-Chloe, 2.5% thieving-escrow, \
                     1% drop, 10% extra delay",
                ),
            ),
        ])
    }

    /// Harness-major: all slices through the first harness, then the next.
    fn chunks(&self) -> usize {
        PROTOCOLS.len() * self.sizes.closed_slices
    }

    fn run_chunk(&self, i: usize, threads: usize) -> Pass {
        let (harness, slice) = (i / self.sizes.closed_slices, i % self.sizes.closed_slices);
        let specs = self
            .slices()
            .nth(slice)
            .expect("slice index below closed_slices");
        let cfg = self.config(threads);
        let report = with_harness!(harness, |h| sim::run_specs_with(h, specs, &cfg));
        summarise(PROTOCOLS[harness], specs.len(), &report)
    }

    fn side_checks(&self, _t1: &Pass) -> Vec<String> {
        Vec::new()
    }

    fn traced(&self, _tn: usize, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let cfg = self.config(1);
        let payments = self.specs.len() as f64;
        let mut traced_wall = 0.0;
        for (index, label) in PROTOCOLS.into_iter().enumerate() {
            // Slice by slice, as the untraced pass goes: the runner's
            // whole-call cost, then the same specs once more with every
            // phase of every payment in a span. Each `REPEATS` times, the
            // quickest reading of each slice (and of each phase) counted.
            let mut runner_s = 0.0;
            let mut phase_ns = [0u64; PHASES.len()];
            let mut events = 0u64;
            tracer.span(label, None, |tracer| {
                for specs in self.slices() {
                    let (_, best) = tracer.best_of(REPEATS, "runner.run_specs", |_| {
                        with_harness!(index, |h| {
                            std::hint::black_box(sim::run_specs_with(h, specs, &cfg));
                        })
                    });
                    runner_s += best;

                    let mut slice_ns = [u64::MAX; PHASES.len()];
                    let mut slice_wall = f64::INFINITY;
                    for repeat in 0..REPEATS {
                        // Only the first repeat's spans are kept for the
                        // trace file; it has one line per span.
                        let mut scratch = Tracer::new();
                        let t = if repeat == 0 {
                            &mut *tracer
                        } else {
                            &mut scratch
                        };
                        let t0 = Instant::now();
                        let (ns, slice_events) =
                            with_harness!(index, |h| trace_slice(h, specs, &cfg.faults, t));
                        slice_wall = slice_wall.min(t0.elapsed().as_secs_f64());
                        for (best, ns) in slice_ns.iter_mut().zip(ns) {
                            *best = (*best).min(ns);
                        }
                        if repeat == 0 {
                            events += slice_events;
                        }
                    }
                    traced_wall += slice_wall;
                    for (total, ns) in phase_ns.iter_mut().zip(slice_ns) {
                        *total += ns;
                    }
                }
            });

            let runner_us = runner_s * 1e6 / payments;
            let mut phases_us = 0.0;
            for (phase, ns) in PHASES.iter().zip(phase_ns) {
                let us = ns as f64 / 1e3 / payments;
                ledger.put(format!("harness.{label}.{phase}_us"), us);
                phases_us += us;
            }
            ledger.put(
                format!("harness.{label}.events_per_payment"),
                events as f64 / payments,
            );
            ledger.put(format!("runner.{label}.us_per_payment_t1"), runner_us);
            ledger.put(
                format!("runner.{label}.overhead_us_per_payment"),
                runner_us - phases_us,
            );
        }

        ledger.put(
            "workload.generate_us_per_spec.linear",
            layers::generate_us_per_spec(&self.workload, tracer),
        );
        layers::xcrypto(&self.sizes, tracer, ledger);
        layers::engine(&self.sizes, tracer, ledger);
        layers::telemetry_sinks(&self.sizes, tracer, ledger);
        traced_wall
    }
}

/// `run_harness_instance` re-done from outside over one slice, one span per
/// phase. Returns each phase's self time in nanoseconds, summed over the
/// slice, and the events the engines dispatched.
fn trace_slice<H: ProtocolHarness>(
    harness: &H,
    specs: &[sim::PaymentSpec],
    plan: &sim::FaultPlan,
    tracer: &mut Tracer,
) -> ([u64; PHASES.len()], u64) {
    let first = tracer.spans().len();
    let mut queue_high = 0usize;
    let mut events = 0u64;
    for spec in specs {
        let id = Some(spec.id);
        tracer.span("payment", id, |t| {
            let faults = t.span(PHASES[0], id, |_| {
                sample_instance_faults(harness, spec, plan)
            });
            let inst = t.span(PHASES[1], id, |_| harness.instance(spec, &faults));
            let mut eng = t.span(PHASES[2], id, |_| {
                let mut eng = harness.build_engine(
                    &inst,
                    spec,
                    Box::new(RandomOracle::seeded(spec.seed)),
                    TraceMode::CountersOnly,
                );
                eng.reserve_capacity(queue_high, 0);
                eng
            });
            let report = t.span(PHASES[3], id, |_| eng.run());
            queue_high = queue_high.max(eng.queue_high_water());
            events += report.events;
            t.span(PHASES[4], id, |_| {
                let outcome =
                    harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);
                let griefed = harness.griefed(&eng, &inst, outcome);
                let latency = harness.latency(&eng, &inst, spec, outcome);
                let peak = harness.lock_events(&eng, &inst, spec).peak();
                std::hint::black_box((outcome, griefed, latency, peak));
                // Tearing the engine down is part of a payment's cost.
                drop(eng);
                drop(inst);
            });
        });
    }
    let totals = tracer.totals_from(first);
    (
        PHASES.map(|phase| totals.get(phase).map_or(0, |t| t.self_ns)),
        events,
    )
}
