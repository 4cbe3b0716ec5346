//! Quickstart: one cross-chain payment with success guarantees.
//!
//! Builds the Figure 1 chain (Alice → e0 → Chloe1 → e1 → Bob), derives the
//! drift-safe timeout schedule of Theorem 1, runs the Figure 2 protocol on
//! the simulator, and checks every Definition 1 property.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::payment::properties::{check_definition1, Compliance};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::{SyncParams, ValuePlan};

fn main() {
    // Two escrows, three customers; Alice pays 1000, each connector keeps
    // a commission of 5.
    let n = 2;
    let params = SyncParams::baseline(); // δ = 10 ms, σ = 1 ms, ρ = 100 ppm
    let setup = ChainSetup::new(n, ValuePlan::with_commission(n, 1_000, 5), params, 42);

    println!("{}", setup.chain.topo.render_figure1());
    println!("Derived timeout schedule (Theorem 1 calculus):");
    for i in 0..n {
        println!(
            "  e{i}: a_{i} = {}, d_{i} = {}",
            setup.schedule.a[i], setup.schedule.d[i]
        );
    }
    println!(
        "  Alice's a-priori termination bound: {}\n",
        setup.schedule.alice_bound
    );

    // Random message delays within δ, random clock drift within ρ.
    let mut engine = setup.build_engine(
        Box::new(SyncNet::new(params.delta, 16)),
        Box::new(RandomOracle::seeded(7)),
        ClockPlan::Sampled { seed: 7 },
    );
    let report = engine.run();
    let outcome = ChainOutcome::extract(&engine, &setup, report.quiescent);

    println!(
        "Run finished at simulated time {} after {} events.",
        report.end_time, report.events
    );
    println!("  Bob paid:        {}", outcome.bob_paid());
    println!(
        "  Alice's outcome: {:?}",
        outcome.customers[0].unwrap().outcome
    );
    println!(
        "  Net positions (Alice, Chloe1, Bob): {:?}",
        outcome
            .net_positions
            .iter()
            .map(|p| p.unwrap())
            .collect::<Vec<_>>()
    );

    // Message-sequence chart of the whole run: one column per process, in
    // pid order (customers c_0..=c_n, then escrows).
    let names = ["c0 (Alice)", "c1 (Chloe1)", "cn (Bob)", "e0", "e1"];
    println!("\nMessage sequence chart:");
    print!(
        "{}",
        engine.trace().render_msc(&names, |m| m.kind().to_string())
    );

    let verdicts = check_definition1(&outcome, &setup, &Compliance::all_compliant());
    println!("\nDefinition 1 verdicts:");
    println!("  ES  (escrow security):   {:?}", verdicts.es);
    println!("  CS1 (Alice):             {:?}", verdicts.cs1);
    println!("  CS2 (Bob):               {:?}", verdicts.cs2);
    println!("  CS3 (connectors):        {:?}", verdicts.cs3);
    println!("  T   (termination):       {:?}", verdicts.t);
    println!("  L   (strong liveness):   {:?}", verdicts.l);
    assert!(verdicts.all_ok(), "Theorem 1 must hold on this run");
    println!("\nAll properties hold — Bob was paid with success guarantees.");
}
