//! E3 — Theorem 3 weak-protocol sweep.
use experiments::cli;

fn main() {
    let seeds = cli::parse_or_exit("exp3", cli::SEEDS).opt_u64("SEEDS");
    print!("{}", experiments::e3::run(seeds.unwrap_or(20), 0).render());
}
