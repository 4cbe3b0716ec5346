//! The repo benchmark. See `benchmark/README.md` for what is measured and
//! why; this file is the command line, the run protocol and the reports.
//!
//! * `benchmark run --workload W` — one workload in this process: set-up
//!   (timed), one warm-up pass, then interleaved `(t1, tn)` pairs of passes
//!   over the workload's fixed work, every chunk of a pass timed on its
//!   own; or, with `--trace 1`, the traced run that fills the per-layer
//!   ledger.
//! * `benchmark all` — every workload, each in a process of its own (peak
//!   RSS is per process), one after another.
//! * `benchmark aa` — `all --traced` twice, compared against the bounds.

mod json;
mod layers;
mod ledger;
mod probe;
mod span;
mod stats;
mod workloads;

use json::Json;
use ledger::{layer_metrics, Ledger, END_TO_END, PHASES, PROTOCOLS};
use probe::HostSpeed;
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Pass, Sizes, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 42;
/// The measuring budget when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`. Three pairs of half-second passes are too few to
/// filter a disturbance; `--quick` runs just those.
const DEFAULT_SECONDS: f64 = 25.0;
/// `R`: interleaved `(t1, tn)` pairs per run. The budget can only add to it.
const MIN_PAIRS: usize = 3;
/// Set-up is timed in bursts: one before the warm-up and one after every
/// pair of passes. A burst repeats set-up at least this often and for at
/// least this long, so that a microsecond-scale set-up still has a steady
/// median; `setup_s` is the median of the calmest burst.
const SETUP_REPEATS: usize = 5;
const SETUP_BURST_SECONDS: f64 = 0.1;
const SETUP_MAX_REPEATS: usize = 2_000;

const USAGE: &str = "usage: benchmark [run|all|aa] [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced] [--quick]\n       workloads: closed_mix, \
                     open_hub, routed_net, explore_e4";

/// Where result files, raw spans and scratch files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The file one `run` leaves its result document in.
fn result_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "traced.json" } else { "json" };
    out_dir().join(format!("{workload}.{kind}"))
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    /// `--seconds`, when given.
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
}

impl Args {
    /// The measuring budget of an untraced run; `None` means exactly
    /// `MIN_PAIRS` pairs.
    fn budget(&self) -> Option<f64> {
        self.seconds.or((!self.quick).then_some(DEFAULT_SECONDS))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    if !["run", "all", "aa"].contains(&args.command.as_str()) {
        return Err(format!("unknown command {:?}", args.command));
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.command == "run" && args.workload.is_none() {
        return Err("run needs --workload".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("benchmark: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let ok = match args.command.as_str() {
        "run" => run_one(&args),
        "all" => run_set(&args).is_some_and(|set| set.ok),
        _ => run_aa(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- one run

/// Worker threads for the `tn` passes: every core, at most four.
fn tn() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &Path)]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Everything a reader needs to judge whether two results are comparable.
fn context(args: &Args, budget: Option<f64>, sizes: Json, pairs: usize) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root");
    // Without the ceiling git would look for a repository above the
    // checkout when the checkout itself is not one.
    let ceiling = repo.parent().unwrap_or(repo);
    let commit = command_line(
        "git",
        &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"],
        &[("GIT_CEILING_DIRECTORIES", ceiling)],
    );
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("tn", Json::Int(tn() as u64)),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], &[]).unwrap_or("unknown".into())),
        ),
        ("git_commit", Json::str(commit.unwrap_or("unknown".into()))),
        ("seed", Json::Int(args.seed)),
        ("pairs", Json::Int(pairs as u64)),
        ("min_pairs", Json::Int(MIN_PAIRS as u64)),
        ("seconds_budget", budget.map_or(Json::Null, Json::Num)),
        ("sizes", sizes),
    ])
}

/// `VmHWM` of this process in MiB, to the KiB (`sim::campaign::peak_rss_mb`
/// reads the same line but rounds down to whole MiB, a fifth of the
/// smallest workload's footprint).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One end-to-end metric: the gated `value`, the samples behind it and —
/// for a timed metric — the host seconds the value was derived from.
fn samples(unit: &str, value: f64, host_s: Option<f64>, values: &[f64]) -> Json {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::obj([
        ("unit", Json::str(unit)),
        ("value", Json::Num(value)),
        ("host_s", host_s.map_or(Json::Null, Json::Num)),
        ("median", Json::Num(median(values))),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        ("n", Json::Int(values.len() as u64)),
        (
            "iqr_over_median",
            stats::relative_spread(values).map_or(Json::Null, Json::Num),
        ),
        ("samples", Json::nums(values)),
    ])
}

/// One pass: every chunk in order, each timed on its own, the host-speed
/// probe sampled before the first and after every one.
fn run_pass(workload: &dyn Workload, threads: usize, host: &mut HostSpeed) -> (Pass, Vec<f64>) {
    let mut pass = Pass::default();
    let mut walls = Vec::with_capacity(workload.chunks());
    host.sample();
    for i in 0..workload.chunks() {
        let (chunk, wall) = timed(|| workload.run_chunk(i, threads));
        pass.absorb(chunk);
        walls.push(wall);
        host.sample();
    }
    (pass, walls)
}

/// The passes made at one thread count, with the wall time of every chunk
/// of every pass.
#[derive(Default)]
struct Passes {
    passes: Vec<Pass>,
    chunk_walls: Vec<Vec<f64>>,
}

impl Passes {
    fn push(&mut self, (pass, walls): (Pass, Vec<f64>)) {
        self.passes.push(pass);
        self.chunk_walls.push(walls);
    }

    /// Each chunk's best time across the passes.
    fn chunk_bests(&self) -> Vec<f64> {
        (0..self.chunk_walls[0].len())
            .map(|i| {
                self.chunk_walls
                    .iter()
                    .map(|p| p[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The wall-time metric: the sum, over the chunks of a pass, of each
    /// chunk's best time across passes — what the fixed work costs when no
    /// chunk is disturbed. On the reference box a 25 ms call takes anything
    /// from 22 to 50 ms from one second to the next as neighbours come and
    /// go; interference only ever adds time, so per-chunk minima filter it
    /// where a median of whole passes swings by a fifth between identical
    /// runs.
    fn undisturbed(&self) -> f64 {
        self.chunk_bests().iter().sum()
    }

    /// The metric's JSON: `undisturbed` at calm speed as the gated value,
    /// whole-pass totals in host seconds as the samples behind it.
    fn wall_samples(&self, slowdown: f64) -> Json {
        let totals: Vec<f64> = self.chunk_walls.iter().map(|p| p.iter().sum()).collect();
        calm_seconds(self.undisturbed(), slowdown, &totals)
    }
}

/// A timed end-to-end metric: `host_s` and the samples behind it are host
/// seconds as measured; the gated `value` is `host_s` over the run's
/// `slowdown`, seconds at the reference box's calm speed.
fn calm_seconds(host_s: f64, slowdown: f64, values: &[f64]) -> Json {
    samples("s", host_s / slowdown, Some(host_s), values)
}

struct Measured {
    t1: Passes,
    tn: Passes,
    /// The host-speed probe, sampled around every chunk of every pass.
    host: HostSpeed,
}

/// One untimed warm-up pass, then interleaved `(t1, tn)` pairs of passes:
/// `MIN_PAIRS` of them, and as many more as end within `seconds`.
/// `after_pair` runs between pairs (the untraced run times set-up there).
fn measure(
    slot: &mut Option<Box<dyn Workload>>,
    tn: usize,
    seconds: Option<f64>,
    mut after_pair: impl FnMut(&mut Option<Box<dyn Workload>>),
) -> Measured {
    const BUILT: &str = "set-up leaves the inputs it built in the slot";
    let mut m = Measured {
        t1: Passes::default(),
        tn: Passes::default(),
        host: HostSpeed::new(),
    };
    std::hint::black_box(run_pass(slot.as_deref().expect(BUILT), 1, &mut m.host));
    let measuring = Instant::now();
    loop {
        let pair = Instant::now();
        m.t1.push(run_pass(slot.as_deref().expect(BUILT), 1, &mut m.host));
        m.tn.push(run_pass(slot.as_deref().expect(BUILT), tn, &mut m.host));
        after_pair(slot);
        let another_fits = seconds.is_some_and(|budget| {
            measuring.elapsed().as_secs_f64() + pair.elapsed().as_secs_f64() <= budget
        });
        if m.t1.passes.len() >= MIN_PAIRS && !another_fits {
            return m;
        }
    }
}

/// One burst of set-up: the inputs generated from the seed again and again,
/// each generation timed. The last set built replaces `slot` (they are all
/// the same); the set before it is dropped first, so that peak RSS holds
/// one set only.
fn setup_burst(
    name: &str,
    args: &Args,
    sizes: &Sizes,
    slot: &mut Option<Box<dyn Workload>>,
) -> Vec<f64> {
    let mut walls = Vec::new();
    let started = Instant::now();
    loop {
        drop(slot.take());
        let (built, wall) = timed(|| workloads::build(name, args.seed, sizes));
        *slot = built;
        walls.push(wall);
        let long_enough = args.quick || started.elapsed().as_secs_f64() >= SETUP_BURST_SECONDS;
        if (walls.len() >= SETUP_REPEATS && long_enough) || walls.len() >= SETUP_MAX_REPEATS {
            return walls;
        }
    }
}

/// The digest and every pass-internal error must agree across all passes;
/// the exact counts must agree across the one-thread passes.
fn check_passes(t1: &[Pass], tn: &[Pass]) -> Vec<String> {
    let first = &t1[0];
    let mut errors = Vec::new();
    for (label, passes) in [("t1", t1), ("tn", tn)] {
        for (i, p) in passes.iter().enumerate() {
            if p.digest != first.digest {
                errors.push(format!(
                    "{label} pass {i}: report digest {:016x} differs from t1 pass 0's {:016x}",
                    p.digest, first.digest
                ));
            }
            errors.extend(p.errors.iter().map(|e| format!("{label} pass {i}: {e}")));
        }
    }
    for (i, p) in t1.iter().enumerate() {
        if p.counts != first.counts {
            errors.push(format!("t1 pass {i}: exact counts differ from t1 pass 0's"));
        }
    }
    errors
}

fn run_one(args: &Args) -> bool {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let doc = if args.traced {
        run_traced(name, args, &sizes)
    } else {
        run_untraced(name, args, &sizes)
    };
    let path = result_path(name, args.traced);
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return false;
    }
    print_run(&doc);
    println!("wrote {}", path.display());
    // The last line of standard output: the result in the driver's shape.
    println!("{}", contract_line(&doc).compact());
    doc.flag("correct")
}

/// The untraced run: the four end-to-end metrics.
fn run_untraced(name: &str, args: &Args, sizes: &Sizes) -> Json {
    let tn = tn();

    let mut slot = None;
    let mut bursts = vec![setup_burst(name, args, sizes, &mut slot)];
    let m = measure(&mut slot, tn, args.budget(), |slot| {
        bursts.push(setup_burst(name, args, sizes, slot));
    });
    let workload = slot.expect("parse_args admits known workloads only");
    let rss = peak_rss_mib();

    let first = &m.t1.passes[0];
    let mut errors = check_passes(&m.t1.passes, &m.tn.passes);
    errors.extend(workload.side_checks(first));
    if rss.is_none() {
        errors.push("peak RSS is not readable (no VmHWM in /proc/self/status)".to_owned());
    }

    let slowdown = m.host.slowdown();
    let (wall_t1, wall_tn) = (m.t1.undisturbed() / slowdown, m.tn.undisturbed() / slowdown);
    // The median of several set-ups, taken where the host was calmest.
    let burst_medians: Vec<f64> = bursts.iter().map(|b| median(b)).collect();
    let setup_s = burst_medians.iter().copied().fold(f64::INFINITY, f64::min);
    Json::obj([
        ("workload", Json::str(name)),
        ("quick", Json::Bool(args.quick)),
        ("traced", Json::Bool(false)),
        (
            "context",
            context(args, args.budget(), workload.sizes(), m.t1.passes.len()),
        ),
        ("chunks_per_pass", Json::Int(workload.chunks() as u64)),
        (
            "host",
            Json::obj([
                ("probe_samples", Json::Int(m.host.samples().len() as u64)),
                ("probe_level_s", Json::Num(m.host.level())),
                ("probe_calm_s", Json::Num(probe::CALM_SECONDS)),
                ("slowdown", Json::Num(slowdown)),
            ]),
        ),
        (
            "setup_repeats",
            Json::Int(bursts.iter().map(Vec::len).sum::<usize>() as u64),
        ),
        ("correct", Json::Bool(errors.is_empty())),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        ("ops_attempted", Json::Int(first.attempted)),
        ("ops_failed", Json::Int(first.failed)),
        (
            "digest",
            Json::Str(experiments::digest::hex16(first.digest)),
        ),
        (
            "counts",
            Json::obj(first.counts.iter().map(|(n, v)| (n.clone(), Json::Int(*v)))),
        ),
        (
            "end_to_end",
            Json::obj([
                ("wall_s_t1", m.t1.wall_samples(slowdown)),
                ("wall_s_tn", m.tn.wall_samples(slowdown)),
                (
                    "peak_rss_mb",
                    samples("MiB", rss.unwrap_or(0.0), None, &[rss.unwrap_or(0.0)]),
                ),
                ("setup_s", calm_seconds(setup_s, slowdown, &burst_medians)),
            ]),
        ),
        ("chunk_best_s_t1", Json::nums(&m.t1.chunk_bests())),
        ("chunk_best_s_tn", Json::nums(&m.tn.chunk_bests())),
        (
            // For people; not gated. On explore_e4 a better reduction
            // lowers the op count, so only wall time compares there.
            "derived",
            Json::obj([
                ("ops_per_s_t1", Json::Num(first.attempted as f64 / wall_t1)),
                ("ops_per_s_tn", Json::Num(first.attempted as f64 / wall_tn)),
                ("speedup_tn", Json::Num(wall_t1 / wall_tn)),
            ]),
        ),
    ])
}

/// The traced run: spans around every call into a layer, the ledger
/// entries homed on this workload, raw spans to `<W>.trace.jsonl`.
fn run_traced(name: &str, args: &Args, sizes: &Sizes) -> Json {
    let tn = tn();
    let mut slot = workloads::build(name, args.seed, sizes);
    // The untraced reference, measured as the untraced run measures it.
    let m = measure(&mut slot, tn, None, |_| ());
    let workload = slot.expect("parse_args admits known workloads only");
    let (wall_s_t1, wall_s_tn) = (m.t1.undisturbed(), m.tn.undisturbed());

    let mut tracer = span::Tracer::new();
    let mut ledger = Ledger::default();
    let traced_wall = workload.traced(tn, &mut tracer, &mut ledger);
    ledger.put(format!("sweep.speedup_tn.{name}"), wall_s_t1 / wall_s_tn);
    ledger.put(
        format!("trace.overhead_ratio.{name}"),
        traced_wall / wall_s_t1,
    );

    let mut errors = check_passes(&m.t1.passes, &m.tn.passes);
    errors.extend(ledger.mismatches(name));
    let trace_path = out_dir().join(format!("{name}.trace.jsonl"));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        errors.push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let defs = layer_metrics();
    let mut layers = Vec::new();
    for d in defs.iter().filter(|d| d.home == name) {
        let Some(value) = ledger.get(&d.name) else {
            continue;
        };
        if d.unit == "bool" && value != 1.0 {
            errors.push(format!("{} is false", d.name));
        }
        layers.push(Json::obj([
            ("name", Json::str(d.name.clone())),
            ("value", Json::Num(value)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better)),
            ("exact", Json::Bool(d.exact)),
        ]));
    }

    Json::obj([
        ("workload", Json::str(name)),
        ("quick", Json::Bool(args.quick)),
        ("traced", Json::Bool(true)),
        (
            "context",
            context(args, None, workload.sizes(), m.t1.passes.len()),
        ),
        ("correct", Json::Bool(errors.is_empty())),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        ("ops_attempted", Json::Int(m.t1.passes[0].attempted)),
        ("ops_failed", Json::Int(m.t1.passes[0].failed)),
        ("untraced_wall_s_t1", Json::Num(wall_s_t1)),
        ("untraced_wall_s_tn", Json::Num(wall_s_tn)),
        ("traced_wall_s", Json::Num(traced_wall)),
        ("spans", Json::Int(tracer.spans().len() as u64)),
        ("accounting", accounting(name, &ledger)),
        ("layers", Json::Arr(layers)),
    ])
}

/// Does the ledger account for the time it claims to? Timing-derived, so
/// reported beside the numbers, never turned into an exit code.
fn accounting(name: &str, ledger: &Ledger) -> Json {
    let mut checks = Vec::new();
    let mut check = |what: String, ok: bool| {
        checks.push(Json::obj([
            ("check", Json::Str(what)),
            ("holds", Json::Bool(ok)),
        ]));
    };
    if name == "closed_mix" {
        for p in PROTOCOLS {
            let phases: f64 = PHASES
                .iter()
                .filter_map(|ph| ledger.get(&format!("harness.{p}.{ph}_us")))
                .sum();
            if let Some(runner) = ledger.get(&format!("runner.{p}.us_per_payment_t1")) {
                check(
                    format!(
                        "{p}: five phases sum to {phases:.2} us, within 10% of the runner's \
                         {runner:.2} us per payment"
                    ),
                    (phases - runner).abs() <= 0.10 * runner,
                );
            }
        }
    }
    if let Some(self_us) = ledger.get(&format!("des.{name}.self_us_per_offered")) {
        check(
            format!("DES self time {self_us:.3} us per offered payment is not negative"),
            self_us >= 0.0,
        );
    }
    Json::Arr(checks)
}

/// `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
/// of an untraced run, or every per-layer metric of a traced one. A traced
/// run measures the metrics homed on its workload; the others read 0 here
/// and are measured by their own workload's traced run.
fn contract_line(doc: &Json) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = if doc.flag("traced") {
        let measured = doc.get("layers").and_then(Json::as_arr).unwrap_or(&[]);
        layer_metrics()
            .into_iter()
            .map(|d| {
                let value = measured
                    .iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                (d.name, metric(value, d.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, _)| {
                let value = doc
                    .path(&["end_to_end", name, "value"])
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                (name.to_string(), metric(value, unit))
            })
            .collect()
    };
    Json::obj([
        (
            "correct",
            doc.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            doc.get("ops_attempted").cloned().unwrap_or(Json::Int(0)),
        ),
        (
            "failed",
            doc.get("ops_failed").cloned().unwrap_or(Json::Int(0)),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// A value for a line of the human-readable report.
fn show(value: Option<&Json>) -> String {
    match value {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.compact(),
        None => "?".to_owned(),
    }
}

fn print_run(doc: &Json) {
    let text = |keys: &[&str]| show(doc.path(keys));
    let traced = doc.flag("traced");
    println!(
        "== {} ({}{}) seed={} nproc={} tn={} pairs={}",
        text(&["workload"]),
        if traced { "traced" } else { "untraced" },
        if doc.flag("quick") {
            ", QUICK: smoke sizes, not a baseline"
        } else {
            ""
        },
        text(&["context", "seed"]),
        text(&["context", "nproc"]),
        text(&["context", "tn"]),
        text(&["context", "pairs"]),
    );
    println!("   sizes: {}", text(&["context", "sizes"]));
    println!(
        "   ops_attempted={} ops_failed={}",
        text(&["ops_attempted"]),
        text(&["ops_failed"])
    );
    if traced {
        println!(
            "   untraced t1 {} s, tn {} s; traced {} s; {} spans",
            text(&["untraced_wall_s_t1"]),
            text(&["untraced_wall_s_tn"]),
            text(&["traced_wall_s"]),
            text(&["spans"])
        );
        for m in doc.get("layers").and_then(Json::as_arr).unwrap_or(&[]) {
            let get = |k: &str| show(m.get(k));
            println!(
                "   {:<44} {:>16} {}",
                get("name"),
                get("value"),
                get("unit")
            );
        }
        for c in doc.get("accounting").and_then(Json::as_arr).unwrap_or(&[]) {
            let holds = c.flag("holds");
            println!(
                "   accounting {}: {}",
                if holds { "holds" } else { "DOES NOT HOLD" },
                c.get("check").and_then(Json::as_str).unwrap_or("?")
            );
        }
    } else {
        println!(
            "   digest={} counts={}",
            text(&["digest"]),
            text(&["counts"])
        );
        println!(
            "   host: {} probes at {} s each, {} s when calm: slowdown {}",
            text(&["host", "probe_samples"]),
            text(&["host", "probe_level_s"]),
            text(&["host", "probe_calm_s"]),
            text(&["host", "slowdown"]),
        );
        for (name, unit, _) in END_TO_END {
            println!(
                "   {:<12} {:>14} {:<4} (host {}; samples: median {}, min {}, max {}, n={})",
                name,
                text(&["end_to_end", name, "value"]),
                unit,
                doc.path(&["end_to_end", name, "host_s"])
                    .and_then(Json::as_f64)
                    .map_or("as measured".to_owned(), |s| format!("{s} s")),
                text(&["end_to_end", name, "median"]),
                text(&["end_to_end", name, "min"]),
                text(&["end_to_end", name, "max"]),
                text(&["end_to_end", name, "n"]),
            );
        }
        println!(
            "   derived (not gated): {} ops/s at t1, {} ops/s at tn, speedup {}",
            text(&["derived", "ops_per_s_t1"]),
            text(&["derived", "ops_per_s_tn"]),
            text(&["derived", "speedup_tn"])
        );
    }
    for e in doc.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("   CORRECTNESS FAILURE: {}", e.as_str().unwrap_or("?"));
    }
}

// ------------------------------------------------------- all and aa modes

/// The result documents of one pass over every workload.
struct Set {
    untraced: Vec<Json>,
    traced: Vec<Json>,
    ok: bool,
}

/// Runs `benchmark run` for one workload in a child process and reads the
/// result file it leaves. `None` when the child could not be run or left
/// no readable result.
fn run_child(args: &Args, name: &str, traced: bool) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &args.seed.to_string()]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    let path = result_path(name, traced);
    let _ = std::fs::remove_file(&path);
    let status = cmd.status().ok()?;
    let doc = Json::parse(&std::fs::read_to_string(&path).ok()?).ok()?;
    (status.success() == doc.flag("correct")).then_some(doc)
}

fn run_set(args: &Args) -> Option<Set> {
    let mut set = Set {
        untraced: Vec::new(),
        traced: Vec::new(),
        ok: true,
    };
    for (name, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let Some(doc) = run_child(args, name, traced) else {
                eprintln!("benchmark: the {name} run left no usable result");
                return None;
            };
            set.ok &= doc.flag("correct");
            if traced {
                set.traced.push(doc);
            } else {
                set.untraced.push(doc);
            }
        }
    }
    write_doc(
        "results.json",
        &Json::obj([
            ("quick", Json::Bool(args.quick)),
            ("runs", Json::Arr(set.untraced.clone())),
        ]),
    );
    if args.traced {
        write_doc("layers.json", &layers_doc(args, &set.traced));
    }
    print_summary(&set);
    Some(set)
}

fn write_doc(file: &str, doc: &Json) {
    let path = out_dir().join(file);
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

/// The ledger: every per-layer metric from the four traced runs in table
/// order, with the workload that measured it.
fn layers_doc(args: &Args, traced: &[Json]) -> Json {
    let mut entries = Vec::new();
    for d in layer_metrics() {
        let found = traced
            .iter()
            .filter(|doc| doc.get("workload").and_then(Json::as_str) == Some(d.home))
            .flat_map(|doc| doc.get("layers").and_then(Json::as_arr).unwrap_or(&[]))
            .find(|m| m.get("name").and_then(Json::as_str) == Some(&d.name));
        if let Some(Json::Obj(fields)) = found {
            let mut fields = fields.clone();
            fields.push(("measured_by".to_owned(), Json::str(d.home)));
            entries.push(Json::Obj(fields));
        }
    }
    Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Int(args.seed)),
        (
            "context",
            traced
                .first()
                .and_then(|d| d.get("context"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "accounting",
            Json::Arr(
                traced
                    .iter()
                    .flat_map(|d| d.get("accounting").and_then(Json::as_arr).unwrap_or(&[]))
                    .cloned()
                    .collect(),
            ),
        ),
        ("layers", Json::Arr(entries)),
    ])
}

fn e2e_value(doc: &Json, metric: &str) -> f64 {
    doc.path(&["end_to_end", metric, "value"])
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn print_summary(set: &Set) {
    println!(
        "\n{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  correct",
        "workload", "wall_s_t1", "wall_s_tn", "peak_rss_mb", "setup_s", "attempted", "failed"
    );
    for doc in &set.untraced {
        let int = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>12.1} {:>12.6} {:>12} {:>8}  {}",
            doc.get("workload").and_then(Json::as_str).unwrap_or("?"),
            e2e_value(doc, "wall_s_t1"),
            e2e_value(doc, "wall_s_tn"),
            e2e_value(doc, "peak_rss_mb"),
            e2e_value(doc, "setup_s"),
            int("ops_attempted"),
            int("ops_failed"),
            doc.flag("correct"),
        );
    }
    println!(
        "units: wall_s_* and setup_s in s at the reference box's calm speed (host seconds over \
         the run's probe slowdown), peak_rss_mb in MiB; wall_s_* sum each chunk's best time over \
         the run's passes, setup_s is the median of its repeats"
    );
}

/// Exact simulated statistics of a set: the untraced runs' counts and the
/// traced runs' exact ledger entries.
fn exact_counts(set: &Set) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for doc in &set.untraced {
        let w = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        if let Some(Json::Obj(counts)) = doc.get("counts") {
            out.extend(counts.iter().map(|(n, v)| (format!("{w}: {n}"), v.clone())));
        }
        out.push((
            format!("{w}: digest"),
            doc.get("digest").cloned().unwrap_or(Json::Null),
        ));
    }
    for doc in &set.traced {
        for m in doc.get("layers").and_then(Json::as_arr).unwrap_or(&[]) {
            if m.flag("exact") {
                let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
                out.push((
                    name.to_owned(),
                    m.get("value").cloned().unwrap_or(Json::Null),
                ));
            }
        }
    }
    out
}

/// A/A: the whole set twice, back to back. Every end-to-end metric of the
/// second set must be within its bound of the first, in both directions,
/// and every exact count identical.
fn run_aa(args: &Args) -> bool {
    let args = Args {
        traced: true,
        ..args.clone()
    };
    let (Some(a), Some(b)) = (run_set(&args), run_set(&args)) else {
        return false;
    };
    let mut all_pass = a.ok && b.ok;
    let mut rows = Vec::new();
    println!(
        "\n{:<12} {:<12} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for (da, db) in a.untraced.iter().zip(&b.untraced) {
        let w = da.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (metric, unit, bound) in END_TO_END {
            let (ma, mb) = (e2e_value(da, metric), e2e_value(db, metric));
            let pass = bound.holds(ma, mb) && bound.holds(mb, ma);
            // Smoke sizes are too short to say anything about noise.
            let verdict = match (args.quick, pass) {
                (true, _) => "quick",
                (false, true) => "PASS",
                (false, false) => "FAIL",
            };
            all_pass &= args.quick || pass;
            println!(
                "{w:<12} {metric:<12} {ma:>12.5} {mb:>12.5} {:>+8.2}% {:>6.0}%  {verdict}",
                (mb - ma) / ma * 100.0,
                bound.relative * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(w)),
                ("metric", Json::str(metric)),
                ("unit", Json::str(unit)),
                ("value_a", Json::Num(ma)),
                ("value_b", Json::Num(mb)),
                ("relative_difference", Json::Num((mb - ma) / ma)),
                ("bound", Json::Num(bound.relative)),
                ("absolute_floor", Json::Num(bound.absolute_floor)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let (ca, cb) = (exact_counts(&a), exact_counts(&b));
    let differing: Vec<Json> = ca
        .iter()
        .zip(&cb)
        .filter(|(x, y)| x != y)
        .map(|((name, va), (_, vb))| {
            Json::obj([
                ("name", Json::str(name.clone())),
                ("a", va.clone()),
                ("b", vb.clone()),
            ])
        })
        .collect();
    let counts_same = ca.len() == cb.len() && differing.is_empty();
    all_pass &= counts_same;
    println!(
        "exact counts: {} compared, {}",
        ca.len(),
        if counts_same {
            "identical — PASS"
        } else {
            "DIFFERENT — FAIL"
        }
    );
    write_doc(
        "aa.json",
        &Json::obj([
            ("quick", Json::Bool(args.quick)),
            ("seed", Json::Int(args.seed)),
            ("all_pass", Json::Bool(all_pass)),
            ("end_to_end", Json::Arr(rows)),
            ("exact_counts_compared", Json::Int(ca.len() as u64)),
            ("exact_counts_differing", Json::Arr(differing)),
            ("set_a", Json::Arr(a.untraced)),
            ("set_b", Json::Arr(b.untraced)),
        ]),
    );
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_driver_command_line_selects_run() {
        let a = parse_args(&argv("--workload open_hub --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("open_hub"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.quick),
            (7, Some(20.0), true, false)
        );
        let a = parse_args(&argv("all --quick")).unwrap();
        assert_eq!(
            (a.command.as_str(), a.seed, a.quick),
            ("all", DEFAULT_SEED, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "run",
            "--workload nope",
            "--workload open_hub --seed x",
            "--workload open_hub --seconds 0",
            "--workload open_hub --trace 2",
            "frobnicate",
            "all --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let untraced = Json::obj([
            ("traced", Json::Bool(false)),
            ("correct", Json::Bool(true)),
            ("ops_attempted", Json::Int(10)),
            ("ops_failed", Json::Int(0)),
            (
                "end_to_end",
                Json::obj(
                    END_TO_END
                        .iter()
                        .map(|(n, u, _)| (*n, samples(u, 2.5, None, &[1.5, 2.5, 3.5]))),
                ),
            ),
        ]);
        let Json::Obj(fields) = contract_line(&untraced) else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value"), Some(&Json::Num(2.5)));

        let traced = Json::obj([
            ("traced", Json::Bool(true)),
            ("correct", Json::Bool(true)),
            ("ops_attempted", Json::Int(10)),
            ("ops_failed", Json::Int(0)),
            (
                "layers",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("explore.runs")),
                    ("value", Json::Num(96.0)),
                ])]),
            ),
        ]);
        let line = contract_line(&traced);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), layer_metrics().len());
        assert_eq!(
            line.path(&["metrics", "explore.runs", "value"]),
            Some(&Json::Num(96.0))
        );
        assert_eq!(
            line.path(&["metrics", "xcrypto.sign_ns_per_op", "value"]),
            Some(&Json::Num(0.0))
        );
    }
}
