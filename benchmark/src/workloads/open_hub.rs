//! `open_hub` — open-system static DES, what `exp10` does: bursty payments
//! over an 8-spoke hub against finite per-venue collateral with a queueing
//! gate. Most offered payments are refused, so admission, queueing, expiry
//! and book operations weigh most and protocol runs least; the hub is one
//! liquidity shard, so worker threads have nothing to split.

use super::open_system::OpenSystem;
use super::{bursty, Pass, Sizes, Workload};
use crate::json::Json;
use crate::layers;
use crate::ledger::Ledger;
use crate::span::Tracer;
use anta::time::SimDuration;

pub struct OpenHub {
    system: OpenSystem,
    sizes: Sizes,
}

impl OpenHub {
    pub fn generate(seed: u64, sizes: &Sizes) -> Self {
        let system = OpenSystem::generate(
            seed,
            sizes.open_campaigns,
            sim::LiquidityConfig::queue(30_000, SimDuration::from_millis(25)),
            None,
            |seed| {
                let mut workload = sim::WorkloadConfig::new(
                    sim::TopologyFamily::HubAndSpoke { spokes: 8 },
                    sizes.open_campaign_payments,
                    seed,
                );
                workload.arrivals = bursty();
                workload
            },
        );
        OpenHub {
            system,
            sizes: *sizes,
        }
    }
}

impl Workload for OpenHub {
    fn sizes(&self) -> Json {
        Json::obj([
            ("family", Json::str("HubAndSpoke { spokes: 8 }")),
            ("campaigns", Json::Int(self.system.campaigns.len() as u64)),
            ("payments", Json::Int(self.system.payments() as u64)),
            ("arrivals", Json::str("bursty, 32 per 20 ms")),
            ("liquidity", Json::str("queue(30_000, 25 ms)")),
            ("harness", Json::str("timebounded")),
        ])
    }

    fn chunks(&self) -> usize {
        self.system.campaigns.len()
    }

    fn run_chunk(&self, i: usize, threads: usize) -> Pass {
        self.system.run_chunk(i, threads)
    }

    fn side_checks(&self, _t1: &Pass) -> Vec<String> {
        Vec::new()
    }

    fn traced(&self, tn: usize, tracer: &mut Tracer, ledger: &mut Ledger) -> f64 {
        let traced = self
            .system
            .traced("open_hub", self.sizes.cost_sample, tracer, ledger);

        let first = &self.system.campaigns[0].workload;
        ledger.put(
            "workload.generate_us_per_spec.hub",
            layers::generate_us_per_spec(first, tracer),
        );
        layers::liquidity(&self.sizes, tracer, ledger);
        layers::shard_speedup(first.seed, tn, &self.sizes, tracer, ledger);
        layers::campaign(*first, self.system.liquidity, &self.sizes, tracer, ledger);
        traced.wall_s
    }
}
