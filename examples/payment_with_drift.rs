//! Clock drift: why the paper fine-tunes the Interledger universal
//! protocol.
//!
//! Runs the same 4-hop payment twice under adversarially drifting clocks
//! (escrows fast, customers slow, ±15%): once with the drift-oblivious
//! Interledger timeout schedule (which fails — a deadline fires while χ
//! is still in flight) and once with the paper's drift-inflated schedule
//! (which succeeds, per Theorem 1).
//!
//! ```sh
//! cargo run --example payment_with_drift
//! ```

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::interledger::untuned_schedule;
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan, CustomerOutcome};
use crosschain::payment::{SyncParams, ValuePlan};

fn run(label: &str, setup: &ChainSetup) -> ChainOutcome {
    let mut engine = setup.build_engine(
        Box::new(SyncNet::worst_case(setup.params.delta)),
        Box::new(RandomOracle::seeded(11)),
        ClockPlan::Extremes, // adversarial drift within the envelope
    );
    let report = engine.run();
    let outcome = ChainOutcome::extract(&engine, setup, report.quiescent);
    println!("[{label}]");
    println!("  a_0 … a_{}: {:?}", setup.chain.n() - 1, setup.schedule.a);
    println!("  Bob paid: {}", outcome.bob_paid());
    for (i, c) in outcome.customers.iter().enumerate() {
        println!("  c{i}: {:?}", c.unwrap().outcome);
    }
    println!();
    outcome
}

fn main() {
    let n = 4;
    let params = SyncParams {
        rho_ppm: 150_000,
        ..SyncParams::baseline()
    }; // 15% drift
    println!(
        "4-hop payment, worst-case delays, adversarial clocks (ρ = {} ppm)\n",
        params.rho_ppm
    );

    // 1. The paper's protocol: schedule inflated for drift.
    let tuned = ChainSetup::new(n, ValuePlan::uniform(n, 100), params, 3);
    let tuned_outcome = run("fine-tuned (Theorem 1)", &tuned);
    assert!(
        tuned_outcome.bob_paid(),
        "the tuned schedule must survive drift"
    );

    // 2. The Interledger universal baseline: same automata, naive timeouts.
    let untuned = ChainSetup::new(n, ValuePlan::uniform(n, 100), params, 3)
        .with_schedule(untuned_schedule(n, &params));
    let untuned_outcome = run("untuned Interledger universal [4]", &untuned);
    assert!(
        !untuned_outcome.bob_paid(),
        "the naive schedule must fail under this drift"
    );

    // Who got hurt in the untuned run?
    let stranded: Vec<usize> = untuned_outcome
        .customers
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.map(|v| v.outcome), Some(CustomerOutcome::Pending)))
        .map(|(i, _)| i)
        .collect();
    println!(
        "Untuned run left customers {stranded:?} unresolved — exactly the failure mode \
         §1 attributes to drift-oblivious synchronous protocols."
    );
}
