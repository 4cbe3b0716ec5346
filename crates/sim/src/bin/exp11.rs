//! `exp11` — **E11: liquidity-aware routing over random venue networks**.
//!
//! E10 priced finite collateral on a fixed hub; every payment's path was
//! pinned at generation time, so a drained venue meant rejection even
//! when capacity sat one hop away. E11 runs the open system over large
//! random venue networks (scale-free and small-world) and lets the
//! admission gate *choose* the path: the pathfinder
//! ([`protocol::network::Router`]) searches the live collateral book for
//! the cheapest feasible route within the hop cap, splits a payment over
//! venue-disjoint paths when no single path fits, and periodic
//! rebalancing flows restore drained venues mid-campaign. The sweep
//! measures success and goodput against the **static-route baseline**
//! (the same specs, shortest-path pinned) across network size ×
//! rebalancing period × protocol.
//!
//! Faults and drift are off, as in E10: the axis under study is where
//! liquidity sits, so `success = admitted` and any gap between routed and
//! static success is pure routing economics.
//!
//! Hard exit criteria:
//!
//! * **safety at every size** — the time-bounded protocol reports zero
//!   violations and zero griefed parties in every cell, the audited
//!   locked value never exceeds any venue's budget, and every venue
//!   drains to zero;
//! * **routing beats static routes** — per network size (time-bounded
//!   cells at the tightest rebalancing period, summed over both
//!   families), the dynamic system admits at least as many payments as
//!   the static baseline, and strictly more in aggregate. Routed mode
//!   is the *harsher* liquidity model — successful payments consume
//!   venue budget until a rebalancing flow restores it, while the
//!   static baseline's book recycles in full on release — so the
//!   routing + rebalancing system must clear the static bar despite
//!   modelling drain the baseline ignores;
//! * **rebalancing bites** — every nonzero-period cell executes at least
//!   one rebalancing flow and restores liquidity.
//!
//! Flags are declared in [`sim::driver::EXP11`] (README "Experiment
//! flags"); CI writes the artifact with `--json
//! bench-out/EXP11_network.json`.
//!
//! The telemetry stream's header declares `requires =
//! "venues,route,rebalance"` ([`telemetry::sink::open`]):
//! `telemetry_check` then gates on the routing event series without a new
//! flag. Full per-venue series are emitted for the smallest network only
//! (4k-venue cells would dominate the artifact); every cell emits its
//! `route`/`rebalance` counters.
//!
//! **Campaign mode** (`--campaign N`): stream `N` payments through the
//! routed open system over a scale-free network (`--venues`) with
//! rebalancing every `--rebalance-ms`, in crash-safe epochs via
//! [`sim::driver::drive`] (see README "Campaigns & recovery").

use anta::time::SimDuration;
use experiments::cli::{self, Gates};
use experiments::table::Table;
use protocol::{with_harness, HARNESS_LABELS};
use sim::campaign::CampaignConfig;
use sim::driver::{self, Grid};
use sim::prelude::*;

/// The event series every E11 telemetry stream promises in its header.
const REQUIRES: &str = "venues,route,rebalance";

/// The tight-budget routed workload over one network family: bursty
/// arrivals, uniform plans (the router's feasibility math is per-hop
/// value), drift-free clocks so admission is the whole story.
fn network_workload(family: TopologyFamily, payments: usize, seed: u64) -> WorkloadConfig {
    let mut w = WorkloadConfig::new(family, payments, seed);
    w.amount = (100, 2_000);
    w.max_commission = 0;
    w.max_rho_ppm = (0, 0);
    w.arrivals = ArrivalProcess::Bursty {
        burst: 16,
        gap: SimDuration::from_millis(30),
    };
    w
}

fn routing_every(period_ms: u64) -> RoutingConfig {
    match period_ms {
        0 => RoutingConfig::new(),
        ms => RoutingConfig::with_rebalance(SimDuration::from_millis(ms)),
    }
}

fn successes(r: &OpenReport) -> usize {
    r.sim.families.iter().map(|f| f.success.hits).sum()
}

fn run(args: &cli::Parsed) -> std::io::Result<i32> {
    let budget = args.u64("--budget");
    if args.u64("--campaign") > 0 {
        // A streamed routed campaign over one scale-free network with
        // periodic rebalancing and a 20 ms queueing gate.
        let family = TopologyFamily::ScaleFree {
            venues: args.usize("--venues"),
            attach: 2,
        };
        let workload = network_workload(family, 0, args.u64("--seed"));
        let queue = LiquidityConfig::queue(budget, SimDuration::from_millis(20));
        let cfg = CampaignConfig {
            liquidity: Some(queue),
            routing: Some(routing_every(args.u64("--rebalance-ms"))),
            ..driver::campaign_config(args, workload)
        };
        let audit = driver::audit_collateral;
        return driver::drive(TimeBoundedHarness, cfg, args, "exp11", REQUIRES, audit);
    }

    let quick = args.flag("--quick");
    let mut grid = Grid::open("exp11", args, (250, 1_500), REQUIRES)?;
    let sizes: &[usize] = if quick {
        &[256, 1_024]
    } else {
        &[256, 1_024, 4_096]
    };
    let periods_ms: &[u64] = if quick { &[0, 10] } else { &[0, 50, 10] };
    let protocols = &HARNESS_LABELS[..if quick { 2 } else { HARNESS_LABELS.len() }];
    // Tight per-venue budget relative to the (100, 2000) amount range:
    // a drained hub venue blocks static routes outright, so the router's
    // ability to divert is exactly what the sweep prices.
    let liq = LiquidityConfig::reject(budget);

    let mut table = Table::new(
        "E11 — liquidity-aware routing over random venue networks: size × rebalancing \
         period × protocol (tight budgets, faultless, drift-free; static-route baseline \
         in parentheses)",
        &[
            "protocol",
            "family",
            "venues",
            "rebal",
            "payments",
            "admitted",
            "rejected",
            "success (static)",
            "rerouted",
            "split",
            "no-path",
            "rebalances",
            "restored",
            "goodput val/s",
            "colviol",
        ],
    );
    let mut cell_id = 0u64;
    let mut tb_violations = 0usize;
    let mut tb_griefed = 0usize;
    let mut tb_colviol = 0usize;
    let mut tb_undrained = 0usize;
    let mut rebal_dead_cells = 0usize;
    // Per-size routed-vs-static tallies on the time-bounded cells at the
    // tightest rebalancing period: the full dynamic system against the
    // static baseline. (Rebalancing-off routed cells fight a consuming
    // book the static baseline never models, so they are reported but
    // not gated.)
    let gate_period = *periods_ms.last().expect("at least one period");
    let mut size_routed: Vec<usize> = vec![0; sizes.len()];
    let mut size_static: Vec<usize> = vec![0; sizes.len()];
    let mut total_instances = 0usize;

    for (si, &size) in sizes.iter().enumerate() {
        let families = [
            TopologyFamily::ScaleFree {
                venues: size,
                attach: 2,
            },
            TopologyFamily::SmallWorld {
                nodes: size / 2,
                rewire_permille: 100,
            },
        ];
        for family in families {
            let workload = network_workload(family, grid.per_cell, grid.seed);
            let specs = sim::workload::generate(&workload);
            let cfg = SimConfig {
                threads: grid.threads,
                ..SimConfig::new(workload)
            };
            for &protocol in protocols {
                // The static baseline runs the same specs over their
                // generation-time shortest paths — one run per
                // (size, family, protocol), shared by every period.
                let (static_report, _) =
                    with_harness!(protocol, |h| sim::run_open(&h, &specs, &cfg, &liq, None));
                let static_success = successes(&static_report);
                total_instances += static_report.sim.instances;

                for &period_ms in periods_ms {
                    let routing = routing_every(period_ms);
                    let (open, ot) = with_harness!(protocol, |h| {
                        sim::run_open(&h, &specs, &cfg, &liq, Some(&routing))
                    });
                    let l = &open.liquidity;
                    let rs = open.routing.expect("routed runs report routing stats");
                    let success = successes(&open);
                    total_instances += open.sim.instances;

                    cell_id += 1;
                    grid.record(
                        cell_id,
                        telemetry::Event::new("cell")
                            .with_str("protocol", protocol)
                            .with_str("family", workload.family.label())
                            .with_u64("venues", size as u64)
                            .with_u64("rebalance_ms", period_ms)
                            .with_u64("offered", l.offered as u64)
                            .with_u64("admitted", l.admitted as u64)
                            .with_u64("rejected", l.rejected as u64)
                            .with_u64("success", success as u64)
                            .with_u64("static_success", static_success as u64)
                            .with_u64("routed", rs.routed)
                            .with_u64("rerouted", rs.rerouted)
                            .with_u64("split", rs.split)
                            .with_u64("no_path", rs.no_path)
                            .with_u64("pathfind_calls", rs.pathfind_calls)
                            .with_u64("rebalances", rs.rebalances)
                            .with_u64("restored_value", rs.restored_value)
                            .with_u64("violations", open.sim.violations as u64)
                            .with_u64("griefed", open.sim.griefed as u64)
                            .with_u64("budget_violations", l.budget_violations as u64)
                            .with_bool("drained", l.drained)
                            .with_f64("goodput_per_sec", l.goodput_per_sec()),
                        None,
                    );
                    // The full per-venue series only for the smallest
                    // network — a 4k-venue series per cell would dominate
                    // the artifact; routing counters are cheap and global,
                    // so every cell emits those.
                    if size == sizes[0] {
                        ot.emit(&[("cell", cell_id)], grid.sink());
                    } else {
                        ot.emit_routing(&[("cell", cell_id)], grid.sink());
                    }

                    if protocol == "timebounded" {
                        tb_violations += open.sim.violations;
                        tb_griefed += open.sim.griefed;
                        tb_colviol += l.budget_violations;
                        tb_undrained += usize::from(!l.drained);
                        if period_ms == gate_period {
                            size_routed[si] += success;
                            size_static[si] += static_success;
                        }
                    }
                    if period_ms > 0 && (rs.rebalances == 0 || rs.restored_value == 0) {
                        rebal_dead_cells += 1;
                        eprintln!(
                            "REBALANCING DEAD: {protocol}/{}/{} venues at {period_ms} ms: \
                             {} flows, {} restored",
                            workload.family.label(),
                            size,
                            rs.rebalances,
                            rs.restored_value
                        );
                    }

                    table.push(&[
                        protocol.to_owned(),
                        workload.family.label().to_owned(),
                        size.to_string(),
                        if period_ms == 0 {
                            "off".to_owned()
                        } else {
                            format!("{period_ms}ms")
                        },
                        l.offered.to_string(),
                        l.admitted.to_string(),
                        l.rejected.to_string(),
                        format!("{success} ({static_success})"),
                        rs.rerouted.to_string(),
                        rs.split.to_string(),
                        rs.no_path.to_string(),
                        rs.rebalances.to_string(),
                        rs.restored_value.to_string(),
                        format!("{:.0}", l.goodput_per_sec()),
                        l.budget_violations.to_string(),
                    ]);
                }
            }
        }
    }

    grid.report(&table, total_instances, "");
    let mut gates = Gates::new();
    gates.require(
        "time-bounded safety at every network size (0 violations, 0 griefed, \
         collateral conserved)",
        tb_violations == 0 && tb_griefed == 0 && tb_colviol == 0 && tb_undrained == 0,
        &format!(
            "{tb_violations} violations, {tb_griefed} griefed, {tb_colviol} colviol, \
             {tb_undrained} undrained"
        ),
    );
    for (si, &size) in sizes.iter().enumerate() {
        gates.require(
            &format!("dynamic routing + rebalancing >= static routes at {size} venues"),
            size_routed[si] >= size_static[si],
            &format!("{} vs {}", size_routed[si], size_static[si]),
        );
    }
    let agg_routed: usize = size_routed.iter().sum();
    let agg_static: usize = size_static.iter().sum();
    gates.require(
        "dynamic routing + rebalancing strictly beats static routes in aggregate",
        agg_routed > agg_static,
        &format!("{agg_routed} vs {agg_static}"),
    );
    gates.require(
        "rebalancing flows fire and restore liquidity in every periodic cell",
        rebal_dead_cells == 0,
        &format!("{rebal_dead_cells} dead cells"),
    );
    println!(
        "Claims: admission-time pathfinding converts stranded liquidity into admitted \
         payments; rebalancing compounds the gain; the guaranteed protocol keeps its \
         zero-violation, zero-griefing guarantees on every network size."
    );
    grid.write_artifact(&[("budget", budget)])?;
    Ok(gates.finish("E11"))
}

fn main() {
    cli::run_main("exp11", driver::EXP11, run)
}
