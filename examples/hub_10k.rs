//! Heavy traffic through a hub: 10,000 payments, bursty arrivals, faults.
//!
//! Drives a Boros-style hub-and-spoke workload through the Monte-Carlo
//! simulator: 10k payment instances route spoke → hub → spoke in bursts
//! of 250, under sampled clock drift, a Byzantine fault mix and a lossy
//! network. Prints the operational numbers the theorems only bound:
//! success rate, latency percentiles, and the hub's peak lock pressure —
//! the capital the hub operator must keep escrowed to serve the burst.
//!
//! ```sh
//! cargo run --release --example hub_10k
//! ```

use crosschain::anta::net::NetFaults;
use crosschain::anta::time::SimDuration;
use crosschain::sim::prelude::*;

fn main() {
    let mut workload =
        WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 12 }, 10_000, 0xB0);
    workload.arrivals = ArrivalProcess::Bursty {
        burst: 250,
        gap: SimDuration::from_millis(40),
    };
    let faults = FaultPlan {
        crash_permille: 40,
        late_bob_permille: 20,
        forging_chloe_permille: 20,
        thieving_escrow_permille: 20,
        net: NetFaults {
            drop_permille: 10,
            delay_permille: 100,
            extra_delay: SimDuration::from_millis(3),
            delay_buckets: 4,
        },
    };
    let cfg = SimConfig {
        faults,
        ..SimConfig::new(workload)
    };

    let t0 = std::time::Instant::now();
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    let report = run_closed(&TimeBoundedHarness, &specs, &cfg);
    let wall = t0.elapsed();

    let hub = report.family("hub").expect("hub workload");
    println!("hub-and-spoke, 12 spokes, bursts of 250 payments every 40 ms\n");
    println!(
        "  payments:        {} in {:.2} s ({:.0}/s)",
        report.instances,
        wall.as_secs_f64(),
        report.instances as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!("  success:         {}", hub.success.render());
    println!(
        "  refund/stuck:    {}/{} (faulted instances: {})",
        hub.refunds, hub.stuck, hub.byzantine
    );
    let lat = hub.latency.as_ref().expect("some payments succeed");
    println!(
        "  latency ms:      p50 {:.1}  p99 {:.1}  max {:.1}",
        lat.p50 as f64 / 1_000.0,
        lat.p99 as f64 / 1_000.0,
        lat.max as f64 / 1_000.0
    );
    println!(
        "  lock pressure:   {} peak hub-wide ({} per payment p99), {} payments in flight at peak",
        report.peak_locked_global.expect("profiling on"),
        hub.peak_locked.as_ref().unwrap().p99,
        report.peak_in_flight
    );
    let spokes = hub.spoke_load.as_ref().expect("hub routes recorded");
    println!(
        "  spoke load:      min {} / mean {:.0} / max {} payments per gateway ({} gateways used)",
        spokes.min, spokes.mean, spokes.max, spokes.n
    );
    println!(
        "  conservation:    {} violations in {} instances",
        report.violations, report.instances
    );

    assert!(
        report.conserved(),
        "money must never be created or destroyed"
    );
    assert!(
        hub.success.value().unwrap_or(0.0) > 0.5,
        "the light fault mix must not break most traffic"
    );
}
