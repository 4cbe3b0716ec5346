//! Drives the `telemetry_check` binary end to end over streams written
//! through [`telemetry::sink::open`], the function behind every
//! `--telemetry FILE` flag: exit 0 and a summary line on a valid stream,
//! 1 on an invalid or unreadable one, 2 on a refused command line.

use std::process::{Command, Output};

use telemetry::Event;

/// A path inside cargo's per-target scratch directory.
fn scratch(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

/// Writes `events` under a header promising `requires` and returns the
/// file's path.
fn write_stream(name: &str, requires: &str, events: &[Event]) -> String {
    let path = scratch(name);
    let mut sink = telemetry::sink::open(&path, requires).expect("scratch file opens");
    for e in events {
        sink.emit(e);
    }
    sink.flush().expect("scratch file flushes");
    path
}

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .args(args)
        .output()
        .expect("telemetry_check runs")
}

fn epoch(id: u64) -> Event {
    Event::new("epoch").with_u64("epoch", id)
}

fn venue(id: u64) -> Event {
    Event::new("venue").with_u64("venue", id)
}

#[test]
fn valid_streams_exit_zero_with_one_summary_line_each() {
    let open = write_stream(
        "valid_open.jsonl",
        "venues",
        &[epoch(0), venue(0), venue(1), epoch(1)],
    );
    let closed = write_stream("valid_closed.jsonl", "", &[epoch(0)]);
    let out = check(&[&open, &closed]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with(&format!("{open}: OK")), "{stdout}");
    assert!(lines[0].contains("2 epochs"), "{stdout}");
    assert!(lines[0].contains("2 venue points"), "{stdout}");
    assert!(lines[1].starts_with(&format!("{closed}: OK")), "{stdout}");
}

#[test]
fn invalid_streams_and_missing_files_exit_one() {
    let backwards = write_stream("backwards.jsonl", "", &[epoch(1), epoch(0)]);
    let out = check(&[&backwards]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("INVALID"), "{stderr}");
    assert!(stderr.contains("strictly increasing"), "{stderr}");

    let out = check(&[&scratch("never_written.jsonl")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("cannot read"));
}

/// The venue requirement is the header's, not a flag's: the same events
/// pass without the promise and fail with it.
#[test]
fn a_header_promise_of_venues_that_is_not_honoured_exits_one() {
    let events = [epoch(0), epoch(1)];
    let unpromised = write_stream("no_promise.jsonl", "", &events);
    assert_eq!(check(&[&unpromised]).status.code(), Some(0));

    let promised = write_stream("broken_promise.jsonl", "venues", &events);
    let out = check(&[&promised]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no per-venue series"), "{stderr}");
}

#[test]
fn refused_command_lines_exit_two_with_usage() {
    let valid = write_stream("valid_for_flags.jsonl", "", &[epoch(0)]);
    for args in [&["--bogus", valid.as_str()][..], &[][..]] {
        let out = check(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("usage: telemetry_check FILE..."),
            "{stderr}"
        );
    }
}
