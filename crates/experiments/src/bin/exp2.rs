//! E2 — Theorem 2 impossibility witnesses.
use experiments::cli::{self, Gates};

fn main() {
    cli::parse_or_exit("exp2", cli::NO_FLAGS);
    let r = experiments::e2::run();
    print!("{}", r.render());
    let mut gates = Gates::new();
    gates.check(r.rows.iter().all(|row| row.witnessed));
    gates.check(r.pair.run_a_refund_correct);
    gates.check(r.pair.run_b_cs2_violated);
    std::process::exit(gates.finish("E2"));
}
