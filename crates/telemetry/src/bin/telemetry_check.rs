//! `telemetry_check` — validator for the `--telemetry` JSONL artifacts
//! the experiment binaries write.
//!
//! Reads each file argument, runs [`validate`] over it, and exits
//! non-zero on the first structurally broken stream: a missing or
//! version-skewed header, an unparsable line, progress ids (`epoch` /
//! `cell`) that run backwards, or an event series the header promised
//! (`requires=venues,route,rebalance`) that never shows up. CI points it
//! at the streams `exp10`, `exp11` and `exp4 --explore` write, so a
//! schema drift between the emitters and the consumers fails the build
//! instead of silently producing unreadable artifacts. The checks are
//! deliberately structural — they assert the *shape* every downstream
//! consumer relies on, not the measured values, so the gate never flakes
//! on timing noise.
//!
//! Usage: `telemetry_check FILE...` — exit **0** every stream valid,
//! **1** a stream is invalid or unreadable, **2** the command line was
//! refused.

use std::fmt;

/// What a valid stream contained, for the one-line CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TelemetrySummary {
    /// Events after the header line.
    events: usize,
    /// Campaign `epoch` progress events.
    epochs: usize,
    /// Grid `cell` progress events.
    cells: usize,
    /// Per-venue series points (`venue` + `venue_des` events).
    venue_points: usize,
    /// Reduced-explorer progress events (`dpor` + `dpor_worker`).
    dpor_events: usize,
    /// Pathfinder counter events (`route`).
    route_events: usize,
    /// Rebalancing counter events (`rebalance`).
    rebalance_events: usize,
}

impl fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events ({} epochs, {} cells, {} venue points, {} dpor, {} route, {} rebalance)",
            self.events,
            self.epochs,
            self.cells,
            self.venue_points,
            self.dpor_events,
            self.route_events,
            self.rebalance_events
        )
    }
}

/// Validates one telemetry JSONL stream.
///
/// Always checked: the header parses with the supported schema version
/// (delegated to [`telemetry::parse_jsonl_with_header`]), every line
/// parses, at least one `epoch`, `cell`, `dpor` or `dpor_worker`
/// progress event exists, `epoch` ids are strictly increasing, `cell`
/// ids are non-decreasing (cross-protocol sweeps emit one event per
/// protocol within the same cell), every `dpor`/`dpor_worker` event
/// carries a `runs` count (the reduced-explorer streams from `exp4
/// --telemetry`), every venue event carries a venue id, every `route`
/// event a `routed` count and every `rebalance` event a `count`.
///
/// Which event *series* the stream must contain is **data-driven from
/// the header**: a `requires` string field (comma-separated tokens, e.g.
/// `"venues,route,rebalance"`) declares what the producer promises, and
/// validation fails when a promised series is absent — so new producers
/// (like `exp11`'s routing events) gate themselves without growing this
/// binary a flag. Recognized tokens: `venues` (per-venue series),
/// `route`, `rebalance`.
fn validate(text: &str) -> Result<TelemetrySummary, String> {
    let (header, events) = telemetry::parse_jsonl_with_header(text)?;
    let mut need_venues = false;
    let mut need_route = false;
    let mut need_rebalance = false;
    if let Some(requires) = header.str_field("requires") {
        for token in requires.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token {
                "venues" => need_venues = true,
                "route" => need_route = true,
                "rebalance" => need_rebalance = true,
                other => {
                    return Err(format!(
                        "header requires unknown event series {other:?} \
                         (this build knows venues, route, rebalance)"
                    ))
                }
            }
        }
    }
    let mut summary = TelemetrySummary {
        events: events.len(),
        ..TelemetrySummary::default()
    };
    let mut last_epoch: Option<u64> = None;
    let mut last_cell: Option<u64> = None;
    for (i, e) in events.iter().enumerate() {
        // Lines are 1-based and the header is line 1.
        let line = i + 2;
        match e.kind() {
            "epoch" => {
                let id = e
                    .u64_field("epoch")
                    .ok_or(format!("line {line}: epoch event without epoch id"))?;
                if let Some(prev) = last_epoch {
                    if id <= prev {
                        return Err(format!(
                            "line {line}: epoch id {id} not strictly increasing (after {prev})"
                        ));
                    }
                }
                last_epoch = Some(id);
                summary.epochs += 1;
            }
            "cell" => {
                let id = e
                    .u64_field("cell")
                    .ok_or(format!("line {line}: cell event without cell id"))?;
                if let Some(prev) = last_cell {
                    if id < prev {
                        return Err(format!(
                            "line {line}: cell id {id} ran backwards (after {prev})"
                        ));
                    }
                }
                last_cell = Some(id);
                summary.cells += 1;
            }
            "venue" | "venue_des" => {
                e.u64_field("venue")
                    .ok_or_else(|| format!("line {line}: {} event without venue id", e.kind()))?;
                summary.venue_points += 1;
            }
            "dpor" | "dpor_worker" => {
                e.u64_field("runs")
                    .ok_or_else(|| format!("line {line}: {} event without runs count", e.kind()))?;
                summary.dpor_events += 1;
            }
            "route" => {
                e.u64_field("routed")
                    .ok_or(format!("line {line}: route event without routed count"))?;
                summary.route_events += 1;
            }
            "rebalance" => {
                e.u64_field("count")
                    .ok_or(format!("line {line}: rebalance event without count"))?;
                summary.rebalance_events += 1;
            }
            _ => {}
        }
    }
    if summary.epochs == 0 && summary.cells == 0 && summary.dpor_events == 0 {
        return Err("no epoch, cell or dpor progress events in stream".to_owned());
    }
    if need_venues && summary.venue_points == 0 {
        return Err("no per-venue series in stream (expected venue/venue_des events)".to_owned());
    }
    if need_route && summary.route_events == 0 {
        return Err("header requires route events but the stream has none".to_owned());
    }
    if need_rebalance && summary.rebalance_events == 0 {
        return Err("header requires rebalance events but the stream has none".to_owned());
    }
    Ok(summary)
}

const USAGE: &str = "usage: telemetry_check FILE...";

fn main() {
    let mut files: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        if a.starts_with("--") {
            eprintln!("unknown argument: {a}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        files.push(a);
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("{file}: cannot read: {e}");
            std::process::exit(1);
        });
        match validate(&text) {
            Ok(summary) => println!("{file}: OK — {summary}"),
            Err(e) => {
                eprintln!("{file}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Event;

    /// A stream whose header promises the series in `requires` (none
    /// when empty).
    fn stream_requiring(requires: &str, events: &[Event]) -> String {
        let mut header = Event::header();
        if !requires.is_empty() {
            header = header.with_str("requires", requires);
        }
        let mut text = header.to_json();
        text.push('\n');
        for e in events {
            text.push_str(&e.to_json());
            text.push('\n');
        }
        text
    }

    fn stream(events: &[Event]) -> String {
        stream_requiring("", events)
    }

    fn epoch(id: u64) -> Event {
        Event::new("epoch").with_u64("epoch", id)
    }

    fn cell(id: u64) -> Event {
        Event::new("cell").with_u64("cell", id)
    }

    fn venue(id: u64) -> Event {
        Event::new("venue")
            .with_u64("venue", id)
            .with_i64("locked", 0)
    }

    #[test]
    fn accepts_well_formed_open_stream() {
        let text = stream_requiring("venues", &[cell(1), venue(0), venue(1), cell(2), venue(0)]);
        let s = validate(&text).unwrap();
        assert_eq!(s.cells, 2);
        assert_eq!(s.venue_points, 3);
    }

    #[test]
    fn accepts_equal_cell_ids_but_not_backwards() {
        let ok = stream(&[cell(1), cell(1), cell(2)]);
        assert!(validate(&ok).is_ok());
        let bad = stream(&[cell(2), cell(1)]);
        assert!(validate(&bad).unwrap_err().contains("backwards"));
    }

    #[test]
    fn rejects_non_increasing_epochs() {
        let bad = stream(&[epoch(0), epoch(0)]);
        assert!(validate(&bad).unwrap_err().contains("strictly increasing"));
    }

    #[test]
    fn rejects_missing_venue_series_when_required() {
        let events = [epoch(0), epoch(1)];
        assert!(validate(&stream(&events)).is_ok());
        let promised = stream_requiring("venues", &events);
        assert!(validate(&promised).unwrap_err().contains("venue"));
    }

    #[test]
    fn accepts_dpor_streams_as_progress() {
        let worker = Event::new("dpor_worker")
            .with_u64("index", 0)
            .with_u64("runs", 42);
        let summary = Event::new("dpor")
            .with_u64("threads", 1)
            .with_u64("runs", 42)
            .with_u64("dedup_hits", 7);
        let text = stream(&[worker, summary]);
        let s = validate(&text).unwrap();
        assert_eq!(s.dpor_events, 2);

        let bad = stream(&[Event::new("dpor").with_u64("threads", 1)]);
        assert!(validate(&bad).unwrap_err().contains("runs"));
    }

    /// The header's `requires` field drives which series must be
    /// present: the same events pass or fail depending only on what the
    /// producer promised.
    #[test]
    fn header_requires_tokens_drive_series_requirements() {
        let route = Event::new("route")
            .with_u64("cell", 1)
            .with_u64("routed", 9);
        let rebalance = Event::new("rebalance")
            .with_u64("cell", 1)
            .with_u64("count", 3);
        let ok = stream_requiring(
            "venues,route,rebalance",
            &[cell(1), venue(0), route.clone(), rebalance.clone()],
        );
        let s = validate(&ok).unwrap();
        assert_eq!((s.route_events, s.rebalance_events), (1, 1));

        // A promised series that never shows up fails.
        let missing_route = stream_requiring("venues,route", &[cell(1), venue(0)]);
        assert!(validate(&missing_route).unwrap_err().contains("route"));
        let missing_venues = stream_requiring("venues", &[cell(1)]);
        assert!(validate(&missing_venues).unwrap_err().contains("venue"));
        // Unknown tokens are a producer bug, not a silent pass.
        let unknown = stream_requiring("quux", &[cell(1)]);
        assert!(validate(&unknown).unwrap_err().contains("quux"));
    }

    /// Route and rebalance events must carry their counter field even
    /// when the header demands nothing.
    #[test]
    fn route_and_rebalance_events_need_their_counters() {
        let bad_route = stream(&[cell(1), Event::new("route").with_u64("cell", 1)]);
        assert!(validate(&bad_route).unwrap_err().contains("routed"));
        let bad_rebalance = stream(&[cell(1), Event::new("rebalance").with_u64("cell", 1)]);
        assert!(validate(&bad_rebalance).unwrap_err().contains("count"));
    }

    #[test]
    fn rejects_missing_progress_and_bad_header() {
        let empty = stream_requiring("venues", &[venue(0)]);
        assert!(validate(&empty).unwrap_err().contains("progress"));
        assert!(validate("").is_err());
        assert!(validate("{\"kind\":\"cell\",\"cell\":1}\n").is_err());
    }
}
