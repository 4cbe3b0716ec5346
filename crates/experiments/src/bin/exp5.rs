//! E5 — baseline comparison (drift sweep + HTLC griefing).
use experiments::cli;

fn main() {
    let seeds = cli::parse_or_exit("exp5", cli::SEEDS).opt_u64("SEEDS");
    print!("{}", experiments::e5::run(seeds.unwrap_or(10), 0).render());
}
