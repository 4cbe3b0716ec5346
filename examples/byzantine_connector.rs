//! Byzantine fault injection: a connector tries to steal.
//!
//! Chloe1 skips paying her own money downstream and instead sends a
//! *forged* certificate χ (signed with her key, not Bob's) to her
//! upstream escrow, hoping to collect Alice's funds. Authentication
//! defeats her: the escrow rejects the signature, times out, and refunds
//! Alice. Every compliant participant keeps every Definition 1 guarantee.
//!
//! ```sh
//! cargo run --example byzantine_connector
//! ```

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::payment::byzantine::ForgingChloe;
use crosschain::payment::properties::{check_definition1, Compliance};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::{Role, SyncParams, ValuePlan};

fn main() {
    let n = 3;
    let setup = ChainSetup::new(n, ValuePlan::uniform(n, 500), SyncParams::baseline(), 8);
    println!("{}", setup.chain.topo.render_figure1());
    println!("Chloe1 is Byzantine: she will forge χ instead of paying.\n");

    let mut engine = setup.build_engine_with(
        Box::new(SyncNet::new(setup.params.delta, 16)),
        Box::new(RandomOracle::seeded(2)),
        ClockPlan::Sampled { seed: 2 },
        |role| {
            (role == Role::Customer(1)).then(|| Box::new(ForgingChloe::new(&setup, 1)) as Box<_>)
        },
    );
    let report = engine.run();
    let forgeries = engine.trace().marks("forged_chi_sent").count();
    let rejections = engine.trace().marks("escrow_bad_chi").count();
    let outcome = ChainOutcome::extract(&engine, &setup, report.quiescent);

    println!("Forged certificates sent:    {forgeries}");
    println!("Rejected by escrow e0:       {rejections}");
    println!(
        "Alice's outcome:             {:?}",
        outcome.customers[0].unwrap().outcome
    );
    println!("Net positions (known):       {:?}", outcome.net_positions);

    let compliance = Compliance::with_byzantine(vec![Role::Customer(1)]);
    let verdicts = check_definition1(&outcome, &setup, &compliance);
    assert!(verdicts.all_ok(), "{:?}", verdicts.violations());
    assert_eq!(
        outcome.net_positions[1],
        Some(0),
        "the thief gained nothing"
    );
    println!(
        "\nEvery compliant participant kept every guarantee; the forgery bought nothing. \
         (\"…no matter how malicious the other participants turn out to be.\")"
    );
}
