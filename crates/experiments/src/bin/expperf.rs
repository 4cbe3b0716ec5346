//! P — performance measurements.
fn main() {
    experiments::cli::parse_or_exit("expperf", experiments::cli::NO_FLAGS);
    print!("{}", experiments::perf::run().render());
}
