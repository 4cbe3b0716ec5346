//! E3 — Theorem 3 weak-protocol sweep.
use experiments::cli::{self, Gates};

fn main() {
    let seeds = cli::parse_or_exit("exp3", cli::SEEDS).opt_u64("SEEDS");
    let r = experiments::e3::run(seeds.unwrap_or(20), 0);
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.theorem_holds());
    std::process::exit(gates.finish("E3"));
}
