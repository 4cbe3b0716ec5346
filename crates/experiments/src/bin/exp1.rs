//! E1 — Theorem 1 validation sweep.
use experiments::cli;

fn main() {
    let seeds = cli::parse_or_exit("exp1", cli::SEEDS).opt_u64("SEEDS");
    print!("{}", experiments::e1::run(seeds.unwrap_or(50), 0).render());
}
