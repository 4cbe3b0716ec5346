//! E7 — relation with cross-chain deals.
use experiments::cli::{self, Gates};

fn main() {
    cli::parse_or_exit("exp7", cli::NO_FLAGS);
    let r = experiments::e7::run();
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.claims_hold());
    std::process::exit(gates.finish("E7"));
}
