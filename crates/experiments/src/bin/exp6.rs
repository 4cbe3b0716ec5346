//! E6 — timeout-calculus ablation.
use experiments::cli::{self, Gates};

fn main() {
    let seeds = cli::parse_or_exit("exp6", cli::SEEDS).opt_u64("SEEDS");
    let r = experiments::e6::run(seeds.unwrap_or(10), 0);
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.calculus_sound() && r.calculus_tight());
    std::process::exit(gates.finish("E6"));
}
