//! E7 — relation with cross-chain deals.
fn main() {
    experiments::cli::parse_or_exit("exp7", experiments::cli::NO_FLAGS);
    print!("{}", experiments::e7::run().render());
}
