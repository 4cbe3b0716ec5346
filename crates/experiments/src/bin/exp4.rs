//! E4 — Figures 1 & 2 regeneration, plus exhaustive/reduced exploration.
//!
//! With no flags: the classic E4 report (figures, cross-check, small
//! exploration); `--dot` also dumps the Graphviz sources. `--explore N`
//! explores the n = N chain instance with the reduced (DPOR-style)
//! explorer — or with `--full` enumeration, or with both under
//! `--differential` — and prints the exploration summary. The flags are
//! declared in [`experiments::cli::EXP4`]; a skeleton mismatch, an
//! unexhausted exploration, a verdict mismatch or a violating schedule
//! exits 1, a refused command line exits 2.

use anta::explore::ExploreConfig;
use experiments::cli::{self, Gates};
use experiments::e4;

fn print_report(label: &str, r: &anta::explore::ExploreReport, wall_s: f64) {
    let attempted = r.runs + r.dedup_hits;
    println!("[{label}] executed runs      : {}", r.runs);
    println!("[{label}] dedup cuts         : {}", r.dedup_hits);
    println!("[{label}] dead-branch prunes : {}", r.dead_branch_prunes);
    println!("[{label}] re-splits          : {}", r.resplits);
    println!("[{label}] exhausted          : {}", r.exhausted);
    println!("[{label}] violations         : {}", r.violations.len());
    if let Some(ratio) = r.reduction_ratio() {
        println!("[{label}] reduction ratio    : {ratio:.6} (executed/full)");
    }
    println!(
        "[{label}] prune rate         : {:.4} ({} of {} attempts cut)",
        r.prune_rate(),
        r.dedup_hits,
        attempted
    );
    if wall_s > 0.0 {
        println!(
            "[{label}] wall               : {wall_s:.2}s ({:.0} schedules/s)",
            attempted as f64 / wall_s
        );
    }
}

fn main() {
    let args = cli::parse_or_exit("exp4", cli::EXP4);
    let Some(n) = args.opt_u64("--explore").map(|n| n as usize) else {
        let r = e4::run(3);
        print!("{}", r.render());
        if args.flag("--dot") {
            println!("{}", r.figure1_dot);
            for (name, dot) in &r.figure2_dots {
                println!("// {name}\n{dot}");
            }
        }
        let mut gates = Gates::new();
        gates.check(r.skeletons_match);
        gates.check(r.exploration_exhausted && r.exploration_violations == 0);
        std::process::exit(gates.finish("E4"));
    };
    let (sigma, threads) = (args.usize("--sigma"), args.usize("--threads"));
    let mut max_runs = args.usize("--max-runs");
    if args.flag("--quick") {
        max_runs = max_runs.min(200_000);
    }

    let mut sink = match telemetry::sink::open(args.str("--telemetry"), "") {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("exp4: --telemetry: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "E4 exploration: n = {n}, sigma_buckets = {sigma}, threads = {threads}, \
         max_runs = {max_runs}"
    );
    let mut gates = Gates::new();
    let started = std::time::Instant::now();
    if args.flag("--differential") {
        let diff = e4::explore_instance_differential(n, threads, max_runs, sigma, sink.as_mut());
        print_report("full", &diff.full, 0.0);
        print_report("reduced", &diff.reduced, 0.0);
        println!("differential wall: {:.2}s", started.elapsed().as_secs_f64());
        match &diff.mismatch {
            None => println!("differential: AGREE"),
            Some(m) => println!("differential: MISMATCH — {m}"),
        }
        gates.check(diff.mismatch.is_none());
        gates.check(diff.full.all_ok());
    } else {
        let full = args.flag("--full");
        let cfg = ExploreConfig {
            max_runs,
            ..if full {
                ExploreConfig::with_threads(threads)
            } else {
                ExploreConfig::reduced(threads)
            }
        };
        let r = e4::explore_instance_with(n, sigma, cfg, sink.as_mut());
        let wall = started.elapsed().as_secs_f64();
        print_report(if full { "full" } else { "reduced" }, &r, wall);
        gates.require("choice tree covered within --max-runs", r.exhausted, "");
        gates.check(r.all_ok());
    }
    if let Err(e) = sink.flush() {
        eprintln!("exp4: telemetry flush failed: {e}");
    }
    std::process::exit(gates.finish("E4"));
}
