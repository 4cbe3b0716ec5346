//! The shared experiment driver: the flag tables every binary declares
//! (hostile command lines are errors, never panics), the exit-criteria
//! ledger, the campaign driver (CI's two kill+resume smokes, in-process,
//! pinned to the digests the per-binary drivers produced before they were
//! unified) and the JSON artifact writer.

use crosschain::anta::time::SimDuration;
use crosschain::experiments::cli::{self, FlagTable, Gates, Kind};
use crosschain::protocol::{with_harness, ProtocolHarness, HARNESS_LABELS};
use crosschain::sim::campaign::CampaignConfig;
use crosschain::sim::driver;
use crosschain::sim::prelude::*;
use crosschain::telemetry::{Event, JsonObject};

/// Every experiment binary and the table it parses its arguments with.
const BINARIES: [(&str, &FlagTable); 11] = [
    ("exp1", cli::SEEDS),
    ("exp2", cli::NO_FLAGS),
    ("exp3", cli::SEEDS),
    ("exp4", cli::EXP4),
    ("exp5", cli::SEEDS),
    ("exp6", cli::SEEDS),
    ("exp7", cli::NO_FLAGS),
    ("exp8", driver::EXP8),
    ("exp9", driver::EXP9),
    ("exp10", driver::EXP10),
    ("exp11", driver::EXP11),
];

fn parse(table: &FlagTable, args: &[&str]) -> Result<cli::Parsed, cli::CliError> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    cli::parse(table, &args)
}

#[test]
fn hostile_command_lines_are_errors_for_every_flag_of_every_binary() {
    const OVERFLOW: &str = "18446744073709551616";
    for (program, table) in BINARIES {
        let refused = |args: &[&str]| {
            let err = parse(table, args)
                .expect_err(&format!("{program} accepted hostile command line {args:?}"));
            assert!(!err.0.is_empty() && !err.0.contains('\n'), "{err:?}");
        };
        assert!(parse(table, &[]).is_ok(), "{program} refuses no arguments");
        refused(&["--no-such-flag"]);
        refused(&["--checkpoint", "x"]);
        refused(&["--out", "x"]);
        let usage = cli::usage(program, table);
        for flag in table.iter().flat_map(|group| group.iter()) {
            let name = flag.name;
            assert!(usage.contains(name), "{program} usage omits {name}");
            if !name.starts_with("--") {
                // The optional positional argument.
                assert!(parse(table, &["3"]).is_ok());
                for bad in ["x", "-1", "1.5", OVERFLOW] {
                    refused(&[bad]);
                }
                refused(&["3", "4"]);
                continue;
            }
            match flag.kind {
                Kind::Bool => {
                    assert!(parse(table, &[name]).unwrap().flag(name));
                    refused(&[name, name]);
                }
                Kind::Int { min, .. } => {
                    let ok = min.max(1).to_string();
                    let parsed = parse(table, &[name, &ok]).unwrap();
                    assert_eq!(parsed.opt_u64(name), Some(min.max(1)));
                    refused(&[name]);
                    refused(&[name, "--quick"]);
                    for bad in ["x", "", "-1", "1.5", "0x10", OVERFLOW] {
                        refused(&[name, bad]);
                    }
                    if min > 0 {
                        refused(&[name, &(min - 1).to_string()]);
                    }
                    refused(&[name, &ok, name, &ok]);
                }
                Kind::Str => {
                    assert_eq!(parse(table, &[name, "a/b"]).unwrap().str(name), "a/b");
                    refused(&[name]);
                    refused(&[name, "--quick"]);
                    refused(&[name, "a", name, "b"]);
                }
                Kind::OneOf(labels) => {
                    assert_eq!(parse(table, &[]).unwrap().str(name), labels[0]);
                    for label in labels {
                        assert_eq!(parse(table, &[name, label]).unwrap().str(name), *label);
                    }
                    refused(&[name]);
                    refused(&[name, "no-such-label"]);
                    refused(&[name, labels[0], name, labels[0]]);
                }
            }
        }
        refused(&["stray"]);
    }
    // The four command lines that panicked (exit 101) before the table.
    assert!(parse(driver::EXP8, &["--threads", "x"]).is_err());
    assert!(parse(driver::EXP10, &["--seed"]).is_err());
    assert!(parse(cli::EXP4, &["--bogus"]).is_err());
    assert!(parse(driver::EXP8, &["--campaign", "10", "--epoch", "0"]).is_err());
}

#[test]
fn readme_flag_table_is_the_generated_one() {
    let readme = include_str!("../README.md");
    let table = cli::markdown_table(&BINARIES);
    assert!(
        readme.contains(&table),
        "README \"Experiment flags\" drifted from the flag tables; it should read:\n{table}"
    );
}

#[test]
fn harness_labels_name_the_harnesses() {
    for label in HARNESS_LABELS {
        assert_eq!(with_harness!(label, |h| h.name()), label);
    }
}

#[test]
fn a_failed_gate_prints_no_and_forces_exit_code_one() {
    let mut gates = Gates::new();
    gates.require("holds", true, "");
    assert_eq!(gates.check(true), "yes");
    assert_eq!(gates.finish("T"), 0);

    let mut gates = Gates::new();
    assert_eq!(gates.check(false), "NO");
    gates.require("a later pass does not clear it", true, "detail");
    assert_eq!(gates.finish("T"), 1);

    let mut gates = Gates::new();
    gates.require("fails", false, "3 violations");
    assert_eq!(gates.finish("T"), 1);
}

/// A scratch directory unique to one test, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xchain-driver-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_string_field(artifact: &str, key: &str) -> String {
    let text = std::fs::read_to_string(artifact).expect("artifact written");
    let needle = format!("\"{key}\": \"");
    let start = text.find(&needle).expect("key present") + needle.len();
    text[start..start + text[start..].find('"').expect("closing quote")].to_owned()
}

/// One CI kill+resume smoke through `driver::drive`, command line and
/// all: one-shot at one thread count; stopped after epoch 1 and resumed
/// at another; both artifacts pinned to the parent commit's digests.
fn smoke(
    tag: &str,
    table: &FlagTable,
    scale: &[&str],
    config: &dyn Fn(&cli::Parsed) -> CampaignConfig,
    requires: &str,
    expect: (&str, &str),
) {
    let scratch = Scratch::new(tag);
    let drive = |rest: &[&str]| {
        let args = parse(table, &[scale, rest].concat()).expect("a valid command line");
        let code = driver::drive(
            TimeBoundedHarness,
            config(&args),
            &args,
            tag,
            requires,
            |_, _| {},
        );
        assert_eq!(code.expect("no I/O failure"), 0);
    };
    let (oneshot, resumed) = (scratch.path("oneshot.json"), scratch.path("resumed.json"));
    let (ckpt1, ckpt2) = (scratch.path("oneshot.ckpt"), scratch.path("smoke.ckpt"));
    drive(&["--threads", "1", "--resume", &ckpt1, "--json", &oneshot]);
    drive(&[
        "--threads",
        "2",
        "--resume",
        &ckpt2,
        "--stop-after-epoch",
        "1",
    ]);
    drive(&["--threads", "1", "--resume", &ckpt2, "--json", &resumed]);
    for artifact in [oneshot, resumed] {
        assert_eq!(json_string_field(&artifact, "config_digest"), expect.0);
        assert_eq!(json_string_field(&artifact, "report_digest"), expect.1);
    }
}

#[test]
fn campaign_driver_resumes_the_exp8_smoke_to_the_pinned_digest() {
    let config = |args: &cli::Parsed| {
        let family = driver::traffic_family(args.str("--family"));
        driver::campaign_config(args, WorkloadConfig::new(family, 0, args.u64("--seed")))
    };
    smoke(
        "exp8",
        driver::EXP8,
        &[
            "--campaign",
            "20000",
            "--epoch",
            "5000",
            "--family",
            "packet",
        ],
        &config,
        "",
        ("1ab7c4663284edf6", "b95f4f332b063e09"),
    );
}

#[test]
fn campaign_driver_resumes_the_exp11_smoke_to_the_pinned_digest() {
    let config = |args: &cli::Parsed| {
        let family = TopologyFamily::ScaleFree {
            venues: args.usize("--venues"),
            attach: 2,
        };
        let mut workload = WorkloadConfig::new(family, 0, args.u64("--seed"));
        workload.amount = (100, 2_000);
        workload.max_commission = 0;
        workload.max_rho_ppm = (0, 0);
        workload.arrivals = ArrivalProcess::Bursty {
            burst: 16,
            gap: SimDuration::from_millis(30),
        };
        let patience = SimDuration::from_millis(20);
        let period = SimDuration::from_millis(args.u64("--rebalance-ms"));
        CampaignConfig {
            liquidity: Some(LiquidityConfig::queue(args.u64("--budget"), patience)),
            routing: Some(RoutingConfig::with_rebalance(period)),
            ..driver::campaign_config(args, workload)
        }
    };
    smoke(
        "exp11",
        driver::EXP11,
        &["--campaign", "4000", "--epoch", "1000", "--venues", "512"],
        &config,
        "venues,route,rebalance",
        ("4170b1836296584b", "1ba92bb748825e2f"),
    );
}

#[test]
fn artifact_writer_escapes_strings_and_renders_absent_values_as_null() {
    let hostile = "q\" b\\ nl\n tab\t bell\u{7} π≤∞";
    let cell = Event::new("cell")
        .with_str("label", hostile)
        .with_opt_u64("budget", None)
        .with_opt_u64("bounded", Some(7));
    // The stream omits the absent budget instead of carrying a sentinel…
    let line = cell.to_json();
    assert!(!line.contains("budget") && line.contains("\"bounded\":7"));
    assert_eq!(
        Event::parse(&line).unwrap().str_field("label"),
        Some(hostile)
    );
    // …the artifact spells it `null`, and escapes exactly like the stream.
    let document = JsonObject::new()
        .with(hostile, hostile)
        .with("sketch", None::<JsonObject>)
        .with("peak_rss_mb", None::<u64>)
        .with("cells", vec![JsonObject::from_event(&cell)])
        .render();
    let escaped = "\"q\\\" b\\\\ nl\\n tab\\t bell\\u0007 π≤∞\"";
    assert_eq!(
        document,
        format!(
            "{{\n  {escaped}: {escaped},\n  \"sketch\": null,\n  \"peak_rss_mb\": null,\n  \
             \"cells\": [\n    {{\"label\": {escaped}, \"budget\": null, \"bounded\": 7}}\n  ]\n}}\n"
        )
    );
    assert!(document.chars().all(|c| c == '\n' || !c.is_control()));
}
