//! E2 — Theorem 2 impossibility witnesses.
fn main() {
    experiments::cli::parse_or_exit("exp2", experiments::cli::NO_FLAGS);
    print!("{}", experiments::e2::run().render());
}
