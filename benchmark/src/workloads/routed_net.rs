//! `routed_net` — routed DES, what `exp11` does: payments between random
//! endpoints of 1 024-venue scale-free networks, routed at admission over
//! the live book, with multi-path splits and periodic rebalancing. The
//! router and the gate's re-polls do nearly all the work; it drives the
//! DES's gate, heap and book code differently from `open_hub`
//! (consume-on-success, rebalance events, re-routing).

use super::open_system::{summarise, OpenSystem};
use super::{bursty, Pass, Sizes, Workload};
use crate::json::Json;
use crate::layers::{self, REPEATS};
use crate::ledger::Ledger;
use crate::span::Tracer;
use anta::time::SimDuration;

pub struct RoutedNet {
    system: OpenSystem,
    sizes: Sizes,
}

impl RoutedNet {
    pub fn generate(seed: u64, sizes: &Sizes) -> Self {
        let system = OpenSystem::generate(
            seed,
            sizes.routed_campaigns,
            sim::LiquidityConfig::queue(2_500, SimDuration::from_millis(25)),
            Some(sim::RoutingConfig::with_rebalance(
                SimDuration::from_millis(10),
            )),
            |seed| {
                let mut workload = sim::WorkloadConfig::new(
                    sim::TopologyFamily::ScaleFree {
                        venues: 1_024,
                        attach: 2,
                    },
                    sizes.routed_campaign_payments,
                    seed,
                );
                workload.amount = (100, 2_000);
                workload.max_commission = 0;
                workload.arrivals = bursty();
                workload
            },
        );
        RoutedNet {
            system,
            sizes: *sizes,
        }
    }

    /// Every campaign over its specs' generation-time shortest paths.
    fn static_pass(&self) -> Pass {
        let mut pass = Pass::default();
        for i in 0..self.system.campaigns.len() {
            pass.absorb(summarise(&self.system.run(i, 1, None)));
        }
        pass
    }
}

impl Workload for RoutedNet {
    fn sizes(&self) -> Json {
        Json::obj([
            ("family", Json::str("ScaleFree { venues: 1024, attach: 2 }")),
            ("campaigns", Json::Int(self.system.campaigns.len() as u64)),
            ("payments", Json::Int(self.system.payments() as u64)),
            ("amount", Json::str("100..=2000, no commission")),
            ("arrivals", Json::str("bursty, 32 per 20 ms")),
            ("liquidity", Json::str("queue(2_500, 25 ms)")),
            ("routing", Json::str("with_rebalance(10 ms)")),
            ("harness", Json::str("timebounded")),
        ])
    }

    fn chunks(&self) -> usize {
        self.system.campaigns.len()
    }

    fn run_chunk(&self, i: usize, threads: usize) -> Pass {
        self.system.run_chunk(i, threads)
    }

    fn side_checks(&self, t1: &Pass) -> Vec<String> {
        let fixed = self.static_pass();
        let mut errors = fixed.errors.clone();
        if t1.count("admitted") < fixed.count("admitted") {
            errors.push(format!(
                "routing admitted {} payments, fewer than static routing's {}",
                t1.count("admitted"),
                fixed.count("admitted")
            ));
        }
        errors
    }

    fn traced(&self, _tn: usize, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let traced = self
            .system
            .traced("routed_net", self.sizes.cost_sample, tracer, ledger);
        let (_, static_wall_s) =
            tracer.best_of(REPEATS, "des.run_open_static", |_| self.static_pass());
        ledger.put("des.routed_over_static", traced.wall_s / static_wall_s);

        let r = traced.routing;
        for (name, value) in [
            ("pathfind_calls", r.pathfind_calls),
            ("routed", r.routed),
            ("rerouted", r.rerouted),
            ("split", r.split),
            ("no_path", r.no_path),
            ("rebalances", r.rebalances),
        ] {
            ledger.put(format!("router.{name}"), value as f64);
        }
        ledger.put(
            "router.admitted_per_pathfind_call",
            traced.admitted as f64 / r.pathfind_calls.max(1) as f64,
        );

        let first = &self.system.campaigns[0].workload;
        ledger.put(
            "workload.generate_us_per_spec.scalefree",
            layers::generate_us_per_spec(first, tracer),
        );
        layers::network(first.seed, &self.sizes, tracer, ledger);
        traced.wall_s
    }
}
