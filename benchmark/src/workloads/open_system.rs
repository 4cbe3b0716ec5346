//! What the two open-system workloads share: a list of independent
//! campaigns (each a workload config with a seed of its own and the specs
//! generated from it), run through the DES statically or routed, and the
//! `des.<w>.*` ledger entries.

use super::{debug_digest, derive_seeds, Pass};
use crate::layers::REPEATS;
use crate::ledger::Ledger;
use crate::span::Tracer;

pub struct Campaign {
    pub workload: sim::WorkloadConfig,
    pub specs: Vec<sim::PaymentSpec>,
}

pub struct OpenSystem {
    pub campaigns: Vec<Campaign>,
    pub liquidity: sim::LiquidityConfig,
    /// `Some` routes every arrival over the live book; `None` keeps the
    /// specs' generation-time paths.
    pub routing: Option<sim::RoutingConfig>,
}

/// What the traced run of an open-system workload measured.
pub struct TracedOpen {
    /// Host seconds of each campaign's quickest DES call, summed.
    pub wall_s: f64,
    pub admitted: u64,
    pub routing: sim::RoutingStats,
}

impl OpenSystem {
    pub fn generate(
        seed: u64,
        campaigns: usize,
        liquidity: sim::LiquidityConfig,
        routing: Option<sim::RoutingConfig>,
        workload: impl Fn(u64) -> sim::WorkloadConfig,
    ) -> Self {
        let campaigns = derive_seeds(seed, campaigns)
            .into_iter()
            .map(|seed| {
                let workload = workload(seed);
                Campaign {
                    specs: sim::workload::generate(&workload),
                    workload,
                }
            })
            .collect();
        OpenSystem {
            campaigns,
            liquidity,
            routing,
        }
    }

    pub fn payments(&self) -> usize {
        self.campaigns.iter().map(|c| c.specs.len()).sum()
    }

    fn config(c: &Campaign, threads: usize) -> sim::SimConfig {
        sim::SimConfig {
            threads,
            ..sim::SimConfig::new(c.workload)
        }
    }

    /// Campaign `i` through the DES, routed when `routing` is given.
    pub fn run(
        &self,
        i: usize,
        threads: usize,
        routing: Option<&sim::RoutingConfig>,
    ) -> sim::OpenReport {
        let c = &self.campaigns[i];
        let cfg = Self::config(c, threads);
        match routing {
            Some(r) => sim::run_open_specs_routed_with(
                &sim::TimeBoundedHarness,
                &c.specs,
                &cfg,
                &self.liquidity,
                r,
            ),
            None => {
                sim::run_open_specs_with(&sim::TimeBoundedHarness, &c.specs, &cfg, &self.liquidity)
            }
        }
    }

    pub fn run_chunk(&self, i: usize, threads: usize) -> Pass {
        let report = self.run(i, threads, self.routing.as_ref());
        let mut pass = summarise(&report);
        if self.routing.is_some() && report.routing.is_none() {
            pass.errors
                .push("routed run carries no RoutingStats".to_owned());
        }
        pass
    }

    /// Every campaign `REPEATS` times more on one thread, each DES call
    /// under a span and with the telemetry sidecar, the quickest call of a
    /// campaign counted; then a sample of the specs run one by one to price
    /// a payment outside the DES. Puts `des.<name>.*`.
    pub fn traced(
        &self,
        name: &str,
        cost_sample: usize,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> TracedOpen {
        let mut wall_s = 0.0;
        let mut total = Pass::default();
        let mut venue = sim::VenueEvents::default();
        let mut routing = sim::RoutingStats::default();
        for c in &self.campaigns {
            let cfg = Self::config(c, 1);
            let ((report, telemetry), best) = match &self.routing {
                Some(r) => tracer.best_of(REPEATS, "des.run_open_routed", |_| {
                    sim::run_open_specs_routed_with_telemetry(
                        &sim::TimeBoundedHarness,
                        &c.specs,
                        &cfg,
                        &self.liquidity,
                        r,
                    )
                }),
                None => tracer.best_of(REPEATS, "des.run_open", |_| {
                    sim::run_open_specs_with_telemetry(
                        &sim::TimeBoundedHarness,
                        &c.specs,
                        &cfg,
                        &self.liquidity,
                    )
                }),
            };
            wall_s += best;
            total.absorb(summarise(&report));
            for (_, ev) in &telemetry.venue_events {
                venue.absorb(ev);
            }
            if let Some(r) = &report.routing {
                routing.absorb(r);
            }
        }
        let admitted = total.count("admitted");
        for (label, value) in [
            ("admitted", admitted),
            ("rejected", total.count("rejected")),
            ("queued", total.count("queued")),
            ("expired", venue.expired),
            ("locks", venue.locks),
            ("releases", venue.releases),
            ("shards", total.count("shards")),
        ] {
            ledger.put(format!("des.{name}.{label}"), value as f64);
        }

        let payment_us = self.price_payments(cost_sample, tracer);
        let self_us = wall_s * 1e6 - admitted as f64 * payment_us;
        ledger.put(
            format!("des.{name}.self_us_per_offered"),
            self_us / total.count("offered").max(1) as f64,
        );
        TracedOpen {
            wall_s,
            admitted,
            routing,
        }
    }

    /// The time-bounded harness's cost per payment outside the DES: up to
    /// `sample` evenly spaced specs run one by one with lock profiling on
    /// (the DES replays lock events), each under a `payment` span.
    fn price_payments(&self, sample: usize, tracer: &mut Tracer) -> f64 {
        let step = self.payments().div_ceil(sample.max(1)).max(1);
        let (priced, best) = tracer.best_of(REPEATS, "harness.price_payments", |t| {
            let mut queue_high = 0usize;
            let mut priced = 0u64;
            for spec in self.campaigns.iter().flat_map(|c| &c.specs).step_by(step) {
                t.span("payment", Some(spec.id), |_| {
                    std::hint::black_box(sim::run_instance_with(
                        &sim::TimeBoundedHarness,
                        spec,
                        &sim::FaultPlan::NONE,
                        true,
                        &mut queue_high,
                    ));
                });
                priced += 1;
            }
            priced
        });
        best * 1e6 / priced.max(1) as f64
    }
}

/// One campaign's report as a chunk: the open-system invariants checked,
/// the exact counts extracted.
pub fn summarise(report: &sim::OpenReport) -> Pass {
    let l = &report.liquidity;
    let s = &report.sim;
    let mut errors = Vec::new();
    if l.offered != l.admitted + l.rejected {
        errors.push(format!(
            "offered {} != admitted {} + rejected {}",
            l.offered, l.admitted, l.rejected
        ));
    }
    if l.budget_violations != 0 {
        errors.push(format!("{} budget violations", l.budget_violations));
    }
    if !l.drained {
        errors.push("venues did not drain".to_owned());
    }
    let mut counts = vec![
        ("offered", l.offered as u64),
        ("admitted", l.admitted as u64),
        ("rejected", l.rejected as u64),
        ("queued", l.queued as u64),
        ("shards", l.shards as u64),
        ("violations", s.violations as u64),
    ];
    if let Some(r) = &report.routing {
        counts.extend([
            ("pathfind_calls", r.pathfind_calls),
            ("routed", r.routed),
            ("rerouted", r.rerouted),
            ("split", r.split),
            ("no_path", r.no_path),
            ("rebalances", r.rebalances),
        ]);
    }
    Pass {
        digest: debug_digest(report),
        attempted: l.offered as u64,
        failed: (s.failed + s.violations + l.budget_violations) as u64 + u64::from(!l.drained),
        counts: counts.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        errors,
    }
}
