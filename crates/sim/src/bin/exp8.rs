//! `exp8` — **E8: Monte Carlo traffic simulation**.
//!
//! Sweeps topology family × drift envelope × fault mix, simulating
//! (by default) >100k payment instances, and prints the operational
//! table the paper's theorems only bound asymptotically: success rate,
//! end-to-end latency percentiles, peak locked value, packet completion,
//! and payments/sec. The money-conservation assertion is checked on every
//! instance; any violation fails the process.
//!
//! Flags are declared in [`sim::driver::EXP8`] (README "Experiment
//! flags"). `--json` writes the per-cell summary as a machine-readable
//! artifact (the nightly CI uploads it).
//!
//! **Campaign mode** (`--campaign N`): instead of the grid, stream `N`
//! payments of one `--family` through the crash-safe
//! [`sim::campaign::CampaignRunner`] via [`sim::driver::drive`] (see
//! README "Campaigns & recovery").

use experiments::cli::{self, Gates};
use sim::driver::{self, Grid, TRAFFIC_FAMILIES};
use sim::prelude::*;
use std::time::Instant;

fn dash<T: ToString>(v: Option<T>) -> String {
    v.map_or("-".to_owned(), |v| v.to_string())
}

fn run(args: &cli::Parsed) -> std::io::Result<i32> {
    if args.u64("--campaign") > 0 {
        let family = driver::traffic_family(args.str("--family"));
        let workload = WorkloadConfig::new(family, 0, args.u64("--seed"));
        let cfg = driver::campaign_config(args, workload);
        return driver::drive(
            TimeBoundedHarness,
            cfg,
            args,
            "exp8",
            "",
            |report, gates| {
                gates.require(
                    "money conserved in every instance",
                    report.tally.violations == 0,
                    "",
                );
            },
        );
    }

    let mut grid = Grid::open("exp8", args, (200, 4_400), "")?;
    let mut table = experiments::table::Table::new(
        "E8 — Monte Carlo traffic simulation (time-bounded protocol)",
        &[
            "family",
            "rho<=(ppm)",
            "faults",
            "payments",
            "success",
            "refund",
            "stuck",
            "viol",
            "latency p50/p99/max (ms)",
            "locked p99",
            "glob lock@peak",
            "inflight",
            "spoke max",
            "packets ok/part/all",
            "pay/s",
        ],
    );
    let mut total_instances = 0usize;
    let mut total_violations = 0usize;
    let mut cell = 0u64;
    for family in TRAFFIC_FAMILIES {
        for rho in [0u64, 100_000] {
            for (flabel, faults) in protocol::faults::ladder() {
                cell += 1;
                let mut workload = WorkloadConfig::new(
                    family,
                    grid.per_cell,
                    grid.seed.wrapping_mul(0x9E37_79B9).wrapping_add(cell),
                );
                workload.max_rho_ppm = (0, rho);
                let cfg = SimConfig {
                    faults,
                    threads: grid.threads,
                    ..SimConfig::new(workload)
                };
                let t0 = Instant::now();
                let specs = sim::workload::generate(&cfg.workload);
                let report = sim::run_closed(&TimeBoundedHarness, &specs, &cfg);
                let wall = t0.elapsed().as_secs_f64();
                total_instances += report.instances;
                total_violations += report.violations;
                let f = report.families.first().expect("one family per cell");
                grid.record(
                    cell,
                    telemetry::Event::new("cell")
                        .with_str("family", f.family)
                        .with_u64("rho_ppm", rho)
                        .with_str("faults", flabel)
                        .with_u64("payments", f.instances as u64)
                        .with_u64("success", f.success.hits as u64)
                        .with_u64("refunds", f.refunds as u64)
                        .with_u64("stuck", f.stuck as u64)
                        .with_u64("violations", f.violations as u64),
                    Some((wall, report.instances)),
                );
                table.push(&[
                    f.family.to_owned(),
                    rho.to_string(),
                    flabel.to_owned(),
                    f.instances.to_string(),
                    f.success.render(),
                    f.refunds.to_string(),
                    f.stuck.to_string(),
                    f.violations.to_string(),
                    sim::metrics::render_latency_ms(&f.latency),
                    dash(f.peak_locked.as_ref().map(|s| s.p99)),
                    dash(report.peak_locked_global),
                    report.peak_in_flight.to_string(),
                    dash(f.spoke_load.as_ref().map(|s| s.max)),
                    dash(
                        f.packets
                            .map(|p| format!("{}/{}/{}", p.complete, p.partial, p.total)),
                    ),
                    format!("{:.0}", report.instances as f64 / wall.max(1e-9)),
                ]);
            }
        }
    }

    grid.report(&table, total_instances, "");
    let mut gates = Gates::new();
    gates.require(
        "money conserved in every instance",
        total_violations == 0,
        "",
    );
    println!(
        "Claims: no-fault cells succeed 100%; faults cost liveness, never \
         conservation; drift within the envelope costs nothing."
    );
    grid.write_artifact(&[("violations_total", total_violations as u64)])?;
    Ok(gates.finish("E8"))
}

fn main() {
    cli::run_main("exp8", driver::EXP8, run)
}
