//! `exp9` — **E9: cross-protocol Monte Carlo comparison**.
//!
//! Runs the *same* workload grid (topology family × drift envelope ×
//! fault mix, same seeds, same per-instance fault draws) through every
//! protocol harness of the workspace and prints the paper-style
//! comparison table: success rate, griefed/stuck rate, conservation
//! violations, latency percentiles and locked-value cost per protocol.
//! The paper's comparative claims become hard exit criteria:
//!
//! * the **time-bounded** protocol must show **zero** griefing and
//!   **zero** violations everywhere;
//! * **untuned Interledger** must show violations (it loses money) in
//!   the faulty region of the grid — if it doesn't, the baseline has
//!   stopped demonstrating the defect the comparison exists to measure.
//!
//! The untuned baseline runs under the adversary its synchrony model
//! permits (worst-case δ delays, extreme in-envelope drift) — success
//! guarantees are worst-case claims, and Theorem 1's schedule tolerates
//! exactly that adversary.
//!
//! Flags are declared in [`sim::driver::EXP9`] (README "Experiment
//! flags"). `--json` writes the per-cell comparison summary as a
//! machine-readable artifact (the nightly CI uploads it).
//!
//! **Campaign mode** (`--campaign N --protocol P`): stream `N` payments
//! of one `--family` through one protocol harness via
//! [`sim::driver::drive`] (see README "Campaigns & recovery"). The
//! checkpoint digest is keyed by the harness name, so each protocol's
//! campaign is its own resume lineage.

use experiments::cli::{self, CliError, Gates};
use experiments::table::Table;
use protocol::{with_harness, HARNESS_LABELS};
use sim::driver::{self, Grid, TRAFFIC_FAMILIES};
use sim::prelude::*;
use std::time::Instant;

/// Accumulated per-protocol tallies for the exit criteria.
#[derive(Default, Clone, Copy)]
struct ProtocolTally {
    violations: usize,
    griefed: usize,
    /// Violations restricted to faulty cells (drift > 0 or fault mix on).
    faulty_cell_violations: usize,
}

fn campaign<H: ProtocolHarness>(harness: H, args: &cli::Parsed) -> std::io::Result<i32> {
    let family = driver::traffic_family(args.str("--family"));
    let workload = WorkloadConfig::new(family, 0, args.u64("--seed"));
    if !harness.supports(&workload) {
        let refusal = CliError(format!(
            "{} does not support the {} family; pick another --protocol/--family",
            harness.name(),
            args.str("--family")
        ));
        cli::exit_usage("exp9", driver::EXP9, &refusal);
    }
    let cfg = driver::campaign_config(args, workload);
    driver::drive(harness, cfg, args, "exp9", "", |_, _| {})
}

fn run(args: &cli::Parsed) -> std::io::Result<i32> {
    if args.u64("--campaign") > 0 {
        return with_harness!(args.str("--protocol"), |h| campaign(h, args));
    }

    let mut grid = Grid::open("exp9", args, (120, 1_000), "")?;
    let mut table = Table::new(
        "E9 — cross-protocol Monte Carlo comparison (same workload, same fault draws)",
        &[
            "protocol",
            "family",
            "rho<=(ppm)",
            "faults",
            "payments",
            "success",
            "griefed",
            "refund",
            "stuck",
            "viol",
            "latency p50/p99 (ms)",
            "locked p99",
            "pay/s",
        ],
    );
    let mut tallies = [ProtocolTally::default(); HARNESS_LABELS.len()];
    let mut total_instances = 0usize;
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
                    lock_profile: false,
                    ..SimConfig::new(workload)
                };
                let faulty_cell = rho > 0 || !faults.is_none();
                // Generated once per cell, outside the timed region: every
                // protocol sees the identical spec list and the pay/s
                // column measures the parallel runner only.
                let specs = sim::workload::generate(&cfg.workload);

                for (name, tally) in HARNESS_LABELS.into_iter().zip(&mut tallies) {
                    let t0 = Instant::now();
                    let Some(report) = with_harness!(name, |h| h
                        .supports(&cfg.workload)
                        .then(|| sim::run_closed(&h, &specs, &cfg)))
                    else {
                        continue;
                    };
                    let wall = t0.elapsed().as_secs_f64();
                    let f = report.families.first().expect("one family per cell");
                    grid.record(
                        cell,
                        telemetry::Event::new("cell")
                            .with_str("protocol", name)
                            .with_str("family", f.family)
                            .with_u64("rho_ppm", rho)
                            .with_str("faults", flabel)
                            .with_u64("payments", f.instances as u64)
                            .with_u64("success", f.success.hits as u64)
                            .with_u64("griefed", f.griefed as u64)
                            .with_u64("violations", f.violations as u64),
                        Some((wall, report.instances)),
                    );
                    tally.violations += report.violations;
                    tally.griefed += report.griefed;
                    if faulty_cell {
                        tally.faulty_cell_violations += report.violations;
                    }
                    total_instances += report.instances;
                    let ms = |ticks: u64| ticks as f64 / 1_000.0;
                    table.push(&[
                        name.to_owned(),
                        f.family.to_owned(),
                        rho.to_string(),
                        flabel.to_owned(),
                        f.instances.to_string(),
                        f.success.render(),
                        f.griefed.to_string(),
                        f.refunds.to_string(),
                        f.stuck.to_string(),
                        f.violations.to_string(),
                        f.latency.as_ref().map_or("-".to_owned(), |s| {
                            format!("{:.1}/{:.1}", ms(s.p50), ms(s.p99))
                        }),
                        f.peak_locked
                            .as_ref()
                            .map_or("-".to_owned(), |s| s.p99.to_string()),
                        format!("{:.0}", report.instances as f64 / wall.max(1e-9)),
                    ]);
                }
            }
        }
    }

    grid.report(
        &table,
        total_instances,
        "; htlc skips packetized cells (supports() gate)",
    );
    // Every printed criterion is an exit criterion: the comparison is
    // meaningless if the guaranteed protocol breaks, if a baseline stops
    // demonstrating its documented defect, or if a safe baseline breaks
    // conservation. (`tallies` is in `HARNESS_LABELS` order.)
    let [tb, htlc, untuned, atomic, deals] = tallies;
    let mut gates = Gates::new();
    println!(
        "time-bounded: zero griefing: {} | zero violations: {}",
        gates.check(tb.griefed == 0),
        gates.check(tb.violations == 0)
    );
    gates.require(
        "HTLC griefs under faults",
        htlc.griefed > 0,
        &format!("{} griefed instances", htlc.griefed),
    );
    gates.require(
        "untuned Interledger loses money in faulty cells",
        untuned.faulty_cell_violations > 0,
        &format!("{} violations", untuned.faulty_cell_violations),
    );
    println!(
        "atomic Interledger & deals stay safe (no violations): {} / {}",
        gates.check(atomic.violations == 0),
        gates.check(deals.violations == 0)
    );
    println!(
        "Claims: the time-bounded protocol alone combines guaranteed success \
         with bounded refunds; HTLC griefs, untuned Interledger loses money, \
         atomic Interledger and certified deals abort honest runs."
    );
    grid.write_artifact(&[])?;
    Ok(gates.finish("E9"))
}

fn main() {
    cli::run_main("exp9", driver::EXP9, run)
}
