//! E5 — baseline comparison (drift sweep + HTLC griefing).
use experiments::cli::{self, Gates};

fn main() {
    let seeds = cli::parse_or_exit("exp5", cli::SEEDS).opt_u64("SEEDS");
    let r = experiments::e5::run(seeds.unwrap_or(10), 0);
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.claims_hold());
    std::process::exit(gates.finish("E5"));
}
