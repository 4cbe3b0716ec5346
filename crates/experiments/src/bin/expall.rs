//! Runs every experiment at a moderate seed budget (EXPERIMENTS.md data).
use experiments::cli;

fn main() {
    let seeds = cli::parse_or_exit("expall", cli::SEEDS)
        .opt_u64("SEEDS")
        .unwrap_or(20);
    println!("{}", experiments::e1::run(seeds, 0).render());
    println!("{}", experiments::e2::run().render());
    println!("{}", experiments::e3::run(seeds, 0).render());
    println!("{}", experiments::e4::run(3).render());
    println!("{}", experiments::e5::run(seeds.min(10), 0).render());
    println!("{}", experiments::e6::run(seeds.min(10), 0).render());
    println!("{}", experiments::e7::run().render());
    println!("{}", experiments::perf::run().render());
}
