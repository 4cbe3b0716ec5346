//! E6 — timeout-calculus ablation.
use experiments::cli;

fn main() {
    let seeds = cli::parse_or_exit("exp6", cli::SEEDS).opt_u64("SEEDS");
    print!("{}", experiments::e6::run(seeds.unwrap_or(10), 0).render());
}
