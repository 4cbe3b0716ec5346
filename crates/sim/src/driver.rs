//! The experiment driver `exp8`–`exp11` share, so each binary is only
//! its grid and its gates.
//!
//! * the binaries' **flag tables** ([`EXP8`]…[`EXP11`], built from the
//!   groups in [`experiments::cli`]) — library data, so the tier-1 tests
//!   can throw hostile command lines at every one of them;
//! * [`drive`] — the whole lifecycle of campaign mode: resume or start,
//!   run to the end with progress and telemetry, render the report, write
//!   the artifact, audit, gate, and yield the exit code;
//! * [`Grid`] — the bookkeeping of grid mode: the telemetry stream, the
//!   cells (each built **once** as a [`telemetry::Event`] and rendered
//!   into both the stream and the artifact), the summary line and the
//!   artifact.
//!
//! I/O failures come back as `Err` for `main` to render once.

use crate::campaign::{peak_rss_mb, CampaignConfig, CampaignReport, CampaignRunner};
use crate::workload::{TopologyFamily, WorkloadConfig};
use experiments::cli::{self, common, Flag, FlagTable, Gates, Kind, Parsed};
use experiments::digest::{fnv1a64, hex16};
use experiments::table::Table;
use protocol::harness::ProtocolHarness;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;
use telemetry::{Event, JsonObject, TelemetrySink};

/// `--family` labels of the traffic experiments, index-aligned with
/// [`TRAFFIC_FAMILIES`].
pub const FAMILY_LABELS: [&str; 4] = ["linear", "hub", "tree", "packet"];

/// The four topology families E8 and E9 sweep (and their campaigns pick
/// from by [`FAMILY_LABELS`]).
pub const TRAFFIC_FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::Linear { n: 4 },
    TopologyFamily::HubAndSpoke { spokes: 16 },
    TopologyFamily::RandomTree { nodes: 48 },
    TopologyFamily::Packetized { paths: 4, hops: 2 },
];

/// The traffic family a validated `--family` label names.
pub fn traffic_family(label: &str) -> TopologyFamily {
    let i = FAMILY_LABELS
        .iter()
        .position(|l| *l == label)
        .expect("--family is a one-of flag over FAMILY_LABELS, validated by cli::parse");
    TRAFFIC_FAMILIES[i]
}

const FAMILY: Flag = Flag::new(
    "--family",
    Kind::OneOf(&FAMILY_LABELS),
    "campaign mode: topology family",
);
const COMMON_E8: [Flag; 7] = common(0xE8);
const COMMON_E9: [Flag; 7] = common(0xE9);
const COMMON_E10: [Flag; 7] = common(0xE10);
const COMMON_E11: [Flag; 7] = common(0xE11);

/// `exp8`'s flags.
pub const EXP8: &FlagTable = &[&COMMON_E8, cli::CAMPAIGN, cli::RSS_GATE, &[FAMILY]];

/// `exp9`'s flags.
#[rustfmt::skip]
pub const EXP9: &FlagTable = &[&COMMON_E9, cli::CAMPAIGN, &[
    FAMILY,
    Flag::new("--protocol", Kind::OneOf(&protocol::HARNESS_LABELS), "campaign mode: protocol harness"),
]];

/// `exp10`'s flags.
#[rustfmt::skip]
pub const EXP10: &FlagTable = &[&COMMON_E10, cli::CAMPAIGN, cli::RSS_GATE, &[
    Flag::new("--budget", Kind::int(Some(30_000), 0), "campaign mode: collateral per venue (0 = unbounded)"),
]];

/// `exp11`'s flags.
#[rustfmt::skip]
pub const EXP11: &FlagTable = &[&COMMON_E11, cli::CAMPAIGN, cli::RSS_GATE, &[
    Flag::new("--budget", Kind::int(Some(2_500), 0), "collateral per venue"),
    Flag::new("--venues", Kind::size(Some(4_096), 0), "campaign mode: scale-free network size"),
    Flag::new("--rebalance-ms", Kind::int(Some(10), 0), "campaign mode: rebalancing period in ms (0 = off)"),
]];

fn context(what: &str) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Writes a `--json` artifact (parent directories created as needed) and
/// prints its path.
pub fn write_artifact(path: &str, document: &JsonObject) -> io::Result<()> {
    let write = || {
        if let Some(dir) = Path::new(path).parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, document.render())
    };
    write().map_err(context(&format!("cannot write --json {path}")))?;
    println!("{path}");
    Ok(())
}

fn telemetry_sink(args: &Parsed, requires: &str) -> io::Result<Box<dyn TelemetrySink>> {
    telemetry::sink::open(args.str("--telemetry"), requires).map_err(context("--telemetry"))
}

/// The closed-world campaign the flags describe over `workload`:
/// `--campaign` payments in `--epoch`-sized epochs on `--threads`
/// workers. Binaries add `liquidity` / `routing` by struct update.
pub fn campaign_config(args: &Parsed, workload: WorkloadConfig) -> CampaignConfig {
    CampaignConfig {
        threads: args.usize("--threads"),
        ..CampaignConfig::new(workload, args.u64("--campaign"), args.usize("--epoch"))
    }
}

/// Campaign mode, start to exit code: resumes from `--resume` (or
/// starts fresh), streams every remaining epoch (until
/// `--stop-after-epoch`) with a progress line on stderr and telemetry
/// into `--telemetry` (header promise `requires`), prints the report and
/// this process's wall / rate / peak RSS, writes the `--json` artifact,
/// lets `audit` add the binary's own gates, and applies the gates every
/// campaign shares (no panic-isolated instance; `--max-rss-mb` where the
/// binary's table declares it). `args` is a command line parsed against
/// one of this module's tables.
///
/// `harness` must support `cfg.workload` ([`CampaignRunner::new`] panics
/// otherwise); binaries that let the user pick either check first.
pub fn drive<H: ProtocolHarness>(
    harness: H,
    cfg: CampaignConfig,
    args: &Parsed,
    experiment: &str,
    requires: &str,
    audit: impl FnOnce(&CampaignReport, &mut Gates),
) -> io::Result<i32> {
    let checkpoint = Some(Path::new(args.str("--resume"))).filter(|p| !p.as_os_str().is_empty());
    let mut runner = match checkpoint {
        Some(path) => CampaignRunner::resume_or_new(harness, cfg, path)
            .map_err(context("cannot resume campaign"))?,
        None => CampaignRunner::new(harness, cfg),
    };
    let rows_before = runner.tally().instances;
    if runner.next_epoch() > 0 {
        eprintln!(
            "resumed from checkpoint at epoch {}/{}",
            runner.next_epoch(),
            cfg.epochs()
        );
    }
    let mut sink = telemetry_sink(args, requires)?;
    let started = Instant::now();
    let mut last_rss = None;
    runner
        .run_to_end_with_telemetry(
            checkpoint,
            args.opt_u64("--stop-after-epoch"),
            sink.as_mut(),
            args.u64("--telemetry-interval"),
            |e| {
                last_rss = e.peak_rss_mb;
                eprintln!("{}", e.progress_line());
            },
        )
        .map_err(context("checkpoint or telemetry write failed"))?;
    let wall = started.elapsed().as_secs_f64();
    let report = runner.report();
    print!("{}", report.render());
    let rss = last_rss.or_else(peak_rss_mb);
    println!(
        "wall: {wall:.2} s ({:.0} pay/s)  peak RSS: {}",
        (report.tally.instances - rows_before) as f64 / wall.max(1e-9),
        rss.map_or("n/a".to_owned(), |m| format!("{m} MiB"))
    );
    if !args.str("--json").is_empty() {
        let document = report
            .to_json(experiment)
            .with("peak_rss_mb", rss)
            .with("phase_ms", runner.profile().to_json_object());
        write_artifact(args.str("--json"), &document)?;
    }
    let mut gates = Gates::new();
    audit(&report, &mut gates);
    gates.require(
        "every instance ran to a verdict (none panic-isolated)",
        report.tally.failed == 0,
        &format!("{} failed", report.tally.failed),
    );
    // `exp9`'s table has no RSS gate.
    let limit = args
        .has("--max-rss-mb")
        .then(|| args.opt_u64("--max-rss-mb"));
    if let (Some(limit), Some(peak)) = (limit.flatten(), rss) {
        let within = peak <= limit;
        gates.check(within);
        println!(
            "RSS gate: peak {peak} MiB {} limit {limit} MiB",
            if within { "within" } else { "EXCEEDS" }
        );
    }
    Ok(gates.finish(experiment))
}

/// The [`drive`] audit of open-system campaigns (`exp10`, `exp11`): the
/// carried collateral audit must be clean across every epoch, and no
/// instance may have broken money conservation.
pub fn audit_collateral(report: &CampaignReport, gates: &mut Gates) {
    let audit = report
        .tally
        .liquidity
        .as_ref()
        .expect("open campaign carries a liquidity tally");
    gates.require(
        "collateral conserved across all epochs (locked <= budget, venues drain)",
        audit.budget_violations == 0 && audit.drained_all,
        "",
    );
    gates.require(
        "money conserved in every instance",
        report.tally.violations == 0,
        "",
    );
}

/// Grid mode's bookkeeping: one per run of a binary's sweep.
pub struct Grid {
    experiment: &'static str,
    quick: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--threads`.
    pub threads: usize,
    /// Payments per grid cell: `--payments`, else the mode's default.
    pub per_cell: usize,
    json: String,
    sink: Box<dyn TelemetrySink>,
    cells: Vec<JsonObject>,
    started: Instant,
}

impl Grid {
    /// Opens the grid run of `experiment` from its parsed flags; the
    /// `quick` / `full` defaults apply when `--payments` is 0, and
    /// `requires` is the `--telemetry` stream's header promise.
    pub fn open(
        experiment: &'static str,
        args: &Parsed,
        (quick, full): (usize, usize),
        requires: &str,
    ) -> io::Result<Grid> {
        let is_quick = args.flag("--quick");
        Ok(Grid {
            experiment,
            quick: is_quick,
            seed: args.u64("--seed"),
            threads: args.usize("--threads"),
            per_cell: match args.usize("--payments") {
                0 if is_quick => quick,
                0 => full,
                n => n,
            },
            json: args.str("--json").to_owned(),
            sink: telemetry_sink(args, requires)?,
            cells: Vec::new(),
            started: Instant::now(),
        })
    }

    /// The telemetry stream, for per-venue series beside the cell events.
    pub fn sink(&mut self) -> &mut dyn TelemetrySink {
        self.sink.as_mut()
    }

    /// Records one measured cell. `cell` carries the deterministic fields
    /// in artifact order and becomes the artifact's `cells[]` entry as
    /// is; the stream gets the same event plus the grid cell id and the
    /// host-time readings (`wall_s` over `payments` simulated).
    pub fn record(&mut self, id: u64, cell: Event, timing: Option<(f64, usize)>) {
        self.cells.push(JsonObject::from_event(&cell));
        let mut event = cell.with_u64("cell", id);
        if let Some((wall_s, payments)) = timing {
            event = event
                .with_f64("wall_s", wall_s)
                .with_f64("payments_per_sec", payments as f64 / wall_s.max(1e-9));
        }
        self.sink.emit(&event);
    }

    /// Closes the stream and prints the table and the `instances: …`
    /// summary line (`note` is appended to it).
    pub fn report(&mut self, table: &Table, instances: usize, note: &str) {
        if let Err(e) = self.sink.flush() {
            eprintln!("telemetry flush failed: {e}");
        }
        println!("{}", table.render());
        println!(
            "instances: {instances} in {:.2} s ({} threads requested, {} cores){note}",
            self.started.elapsed().as_secs_f64(),
            self.threads,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    /// Writes the `--json` artifact, if asked for: the shared header,
    /// the binary's `extra` top-level fields, then the recorded cells.
    pub fn write_artifact(self, extra: &[(&str, u64)]) -> io::Result<()> {
        if self.json.is_empty() {
            return Ok(());
        }
        let identity = format!(
            "{} seed={} per_cell={}",
            self.experiment, self.seed, self.per_cell
        );
        let mut document = JsonObject::new()
            .with("schema_version", 1u64)
            .with("experiment", self.experiment)
            .with(
                "config_digest",
                hex16(fnv1a64(identity.as_bytes())).as_str(),
            )
            .with("quick", self.quick)
            .with("seed", self.seed)
            .with("payments_per_cell", self.per_cell as u64);
        for &(name, value) in extra {
            document = document.with(name, value);
        }
        write_artifact(&self.json, &document.with("cells", self.cells))
    }
}
