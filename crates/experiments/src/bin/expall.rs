//! Runs every experiment at a moderate seed budget (EXPERIMENTS.md data);
//! exits 1 if any experiment's gates fail.
use experiments::cli::{self, Gates};
use experiments::{e1, e2, e3, e4, e5, e6, e7};

fn main() {
    let seeds = cli::parse_or_exit("expall", cli::SEEDS)
        .opt_u64("SEEDS")
        .unwrap_or(20);
    let mut gates = Gates::new();
    let r1 = e1::run(seeds, 0);
    println!("{}", r1.render());
    gates.check(r1.theorem_holds());
    let r2 = e2::run();
    println!("{}", r2.render());
    gates.check(r2.rows.iter().all(|row| row.witnessed));
    gates.check(r2.indistinguishability_ok);
    let r3 = e3::run(seeds, 0);
    println!("{}", r3.render());
    gates.check(r3.theorem_holds());
    let r4 = e4::run(3);
    println!("{}", r4.render());
    gates.check(r4.skeletons_match);
    gates.check(r4.exploration_exhausted && r4.exploration_violations == 0);
    let r5 = e5::run(seeds.min(10), 0);
    println!("{}", r5.render());
    gates.check(r5.claims_hold());
    let r6 = e6::run(seeds.min(10), 0);
    println!("{}", r6.render());
    gates.check(r6.calculus_sound() && r6.calculus_tight());
    let r7 = e7::run();
    println!("{}", r7.render());
    gates.check(r7.claims_hold());
    println!("{}", experiments::perf::run().render());
    std::process::exit(gates.finish("expall"));
}
