//! E1 — Theorem 1 validation sweep.
use experiments::cli::{self, Gates};

fn main() {
    let seeds = cli::parse_or_exit("exp1", cli::SEEDS).opt_u64("SEEDS");
    let r = experiments::e1::run(seeds.unwrap_or(50), 0);
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.theorem_holds());
    std::process::exit(gates.finish("E1"));
}
