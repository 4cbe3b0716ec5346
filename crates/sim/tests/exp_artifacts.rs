//! `exp8`–`exp11` as processes: their `--json` artifacts against goldens
//! captured from the per-binary writers they replaced, and their exit
//! codes (0 pass / 1 failed gate / 2 refused command line).
//!
//! `tests/golden/expN[.seed7].json` is the output of
//! `expN --quick --threads 1 --payments P [--seed 7] --json …` at the
//! commit before the shared driver (P below; small enough for a debug
//! build). Everything must match byte for byte except `goodput_per_sec`,
//! which the old writers rounded to one decimal and the shared writer
//! carries in full.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXPERIMENTS: [(&str, &str, &str); 4] = [
    ("exp8", env!("CARGO_BIN_EXE_exp8"), "40"),
    ("exp9", env!("CARGO_BIN_EXE_exp9"), "20"),
    ("exp10", env!("CARGO_BIN_EXE_exp10"), "20"),
    ("exp11", env!("CARGO_BIN_EXE_exp11"), "40"),
];

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("experiment binary runs")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("exited, not signalled")
}

fn scratch(file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xchain-exp-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir.join(file)
}

/// Splits an artifact into its text with every `goodput_per_sec` value
/// blanked, and those values.
fn split_goodput(artifact: &str) -> (String, Vec<f64>) {
    const KEY: &str = "\"goodput_per_sec\": ";
    let mut skeleton = String::new();
    let mut values = Vec::new();
    let mut rest = artifact;
    while let Some(at) = rest.find(KEY) {
        let (before, after) = rest.split_at(at + KEY.len());
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
            .expect("a number ends before the closing brace");
        skeleton.push_str(before);
        values.push(after[..end].parse().expect("goodput is a number"));
        rest = &after[end..];
    }
    skeleton.push_str(rest);
    (skeleton, values)
}

#[test]
fn grid_artifacts_match_the_goldens_at_any_thread_count() {
    for (name, binary, payments) in EXPERIMENTS {
        for seed in [None, Some("7")] {
            let mut outputs = Vec::new();
            for threads in ["1", "2"] {
                let path = scratch(&format!("{name}.{seed:?}.t{threads}.json"));
                let path = path.to_str().expect("utf-8 temp path");
                let mut args = vec!["--quick", "--threads", threads, "--payments", payments];
                if let Some(seed) = seed {
                    args.extend(["--seed", seed]);
                }
                args.extend(["--json", path]);
                let output = run(binary, &args);
                assert_eq!(exit_code(&output), 0, "{name} {args:?}: gates pass");
                outputs.push(std::fs::read_to_string(path).expect("artifact written"));
                let _ = std::fs::remove_file(path);
            }
            assert_eq!(
                outputs[0], outputs[1],
                "{name}: --threads changed the bytes"
            );

            let golden = match seed {
                None => format!("tests/golden/{name}.json"),
                Some(seed) => format!("tests/golden/{name}.seed{seed}.json"),
            };
            let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(golden);
            let golden = std::fs::read_to_string(golden).expect("golden present");
            let (want_text, want_goodput) = split_goodput(&golden);
            let (got_text, got_goodput) = split_goodput(&outputs[0]);
            assert_eq!(
                got_text, want_text,
                "{name} seed {seed:?}: keys/order/values"
            );
            assert_eq!(got_goodput.len(), want_goodput.len());
            for (got, want) in got_goodput.iter().zip(&want_goodput) {
                assert!(
                    (got - want).abs() <= 0.05,
                    "{name}: goodput {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn a_failing_gate_exits_one_and_a_refused_command_line_exits_two() {
    // Sweeps too small for their criteria to hold: HTLC never griefs,
    // nothing is rejected, routing cannot beat static routes.
    let failing: [(usize, &[&str]); 3] = [
        (1, &["--quick", "--payments", "1", "--seed", "10"]),
        (2, &["--quick", "--payments", "2"]),
        (3, &["--quick", "--payments", "5"]),
    ];
    for (i, args) in failing {
        let (name, binary, _) = EXPERIMENTS[i];
        let output = run(binary, args);
        assert_eq!(exit_code(&output), 1, "{name} {args:?}");
        assert!(String::from_utf8_lossy(&output.stdout).contains(": NO"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("exit criteria FAILED"), "{stderr}");
    }
    // exp8's grid gate is money conservation, which holds; its campaign
    // mode has a gate that can be made to fail where RSS is measurable.
    if sim::campaign::peak_rss_mb().is_some() {
        let output = run(
            EXPERIMENTS[0].1,
            &["--campaign", "100", "--epoch", "50", "--max-rss-mb", "0"],
        );
        assert_eq!(exit_code(&output), 1, "exp8 RSS gate");
        assert!(String::from_utf8_lossy(&output.stdout).contains("EXCEEDS limit 0 MiB"));
    }

    for (name, binary, _) in EXPERIMENTS {
        for args in [
            &["--no-such-flag"][..],
            &["--threads", "x"],
            &["--out", "d"],
            &["--checkpoint", "c"],
        ] {
            let output = run(binary, args);
            assert_eq!(exit_code(&output), 2, "{name} {args:?}");
            assert!(output.stdout.is_empty(), "{name} ran despite {args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let (reason, usage) = stderr.split_once('\n').expect("reason, then usage");
            assert!(reason.starts_with(&format!("{name}: ")), "{reason}");
            assert!(usage.starts_with(&format!("usage: {name} ")), "{usage}");
        }
    }
}
