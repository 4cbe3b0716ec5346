//! Telemetry must observe without perturbing: every campaign report
//! digest is bit-identical whether telemetry is off (the plain
//! `run_to_end` adapter), draining to a `NullSink`, or writing a real
//! JSONL file — at 1 and 4 worker threads, for closed campaigns,
//! open-system campaigns, and campaigns killed and resumed mid-run.
//! Plus: the JSONL stream round-trips through the parser exactly, hostile
//! bytes in a stream are an error and never a panic, and the structured
//! events carry the progress/venue series downstream consumers rely on.

use crosschain::anta::time::SimDuration;
use crosschain::sim::campaign::{CampaignConfig, CampaignRunner};
use crosschain::sim::prelude::*;
use crosschain::telemetry::{parse_jsonl, Event, JsonlSink, NullSink, RingSink};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A scratch path unique to this test; removed on drop so parallel test
/// binaries never collide.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str, ext: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "xchain-telemetry-test-{}-{tag}.{ext}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        // `checkpoint_to` stages in `<path>.tmp`.
        let mut tmp = self.0.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::remove_file(tmp).ok();
    }
}

/// A closed (unbounded-liquidity) campaign with a fault mix, so the
/// tally exercises every outcome counter.
fn closed_cfg(threads: usize) -> CampaignConfig {
    let mut workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 0, 0x7E1E);
    workload.max_rho_ppm = (0, 50_000);
    CampaignConfig {
        threads,
        faults: FaultPlan {
            crash_permille: 80,
            late_bob_permille: 40,
            ..FaultPlan::NONE
        },
        ..CampaignConfig::new(workload, 1_600, 400)
    }
}

/// An open-system campaign whose collateral budget genuinely bites.
fn open_cfg(threads: usize) -> CampaignConfig {
    let mut workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 0, 0x7E1E);
    workload.max_rho_ppm = (0, 0);
    CampaignConfig {
        threads,
        liquidity: Some(LiquidityConfig::queue(15_000, SimDuration::from_millis(20))),
        ..CampaignConfig::new(workload, 1_200, 400)
    }
}

/// Runs `make()`'s campaign three ways — telemetry off, NullSink, JSONL
/// file — and asserts all three report digests are bit-identical.
fn assert_sinks_do_not_perturb(make: &dyn Fn() -> CampaignConfig, tag: &str) -> String {
    let mut off = CampaignRunner::new(TimeBoundedHarness, make());
    off.run_to_end(None, None, |_| {}).unwrap();
    let expect = off.report();

    let mut null = CampaignRunner::new(TimeBoundedHarness, make());
    null.run_to_end_with_telemetry(None, None, &mut NullSink, |_| {})
        .unwrap();
    assert_eq!(null.report().digest, expect.digest, "{tag}: NullSink");
    assert_eq!(null.report().tally, expect.tally);

    let file = Scratch::new(tag, "jsonl");
    let mut sink = JsonlSink::create(&file.0).unwrap();
    let mut jsonl = CampaignRunner::new(TimeBoundedHarness, make());
    jsonl
        .run_to_end_with_telemetry(None, None, &mut sink, |_| {})
        .unwrap();
    assert_eq!(sink.io_errors(), 0);
    drop(sink);
    assert_eq!(jsonl.report().digest, expect.digest, "{tag}: JsonlSink");

    // The stream the JSONL leg wrote is parseable and carries the
    // monotone epoch series.
    let text = std::fs::read_to_string(&file.0).unwrap();
    let events = parse_jsonl(&text).unwrap();
    let epochs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind() == "epoch")
        .map(|e| e.u64_field("epoch").unwrap())
        .collect();
    assert_eq!(epochs, (0..make().epochs()).collect::<Vec<_>>());
    expect.digest.clone()
}

#[test]
fn closed_campaign_digest_identical_across_sinks_and_threads() {
    let d1 = assert_sinks_do_not_perturb(&|| closed_cfg(1), "closed-t1");
    let d4 = assert_sinks_do_not_perturb(&|| closed_cfg(4), "closed-t4");
    assert_eq!(d1, d4, "digest must not depend on thread count either");
}

#[test]
fn open_campaign_digest_identical_across_sinks_and_threads() {
    let d1 = assert_sinks_do_not_perturb(&|| open_cfg(1), "open-t1");
    let d4 = assert_sinks_do_not_perturb(&|| open_cfg(4), "open-t4");
    assert_eq!(d1, d4);
}

/// A campaign checkpointed, killed, and resumed **with a sink attached
/// on both legs** still matches the uninstrumented one-shot digest.
#[test]
fn resumed_campaign_with_telemetry_is_bit_identical() {
    for threads in [1usize, 4] {
        let mut oneshot = CampaignRunner::new(TimeBoundedHarness, closed_cfg(threads));
        oneshot.run_to_end(None, None, |_| {}).unwrap();
        let expect = oneshot.report();

        let ckpt = Scratch::new(&format!("resume-t{threads}"), "ckpt");
        let mut ring = RingSink::new(64);
        let mut first = CampaignRunner::new(TimeBoundedHarness, closed_cfg(threads));
        first
            .run_to_end_with_telemetry(Some(&ckpt.0), Some(1), &mut ring, |_| {})
            .unwrap();
        drop(first); // the "kill": only the checkpoint survives

        let mut resumed =
            CampaignRunner::resume(TimeBoundedHarness, closed_cfg(threads), &ckpt.0).unwrap();
        resumed
            .run_to_end_with_telemetry(Some(&ckpt.0), None, &mut ring, |_| {})
            .unwrap();
        assert_eq!(resumed.report().digest, expect.digest, "threads {threads}");
        assert_eq!(resumed.report().tally, expect.tally);
        // Both legs emitted progress into the shared ring.
        assert!(ring.events().any(|e| e.kind() == "epoch"));
    }
}

/// Open-system campaigns emit the per-venue utilization series on epoch
/// boundaries, scoped by epoch id, and the epoch events carry the
/// cumulative outcome counters the progress line renders.
#[test]
fn open_campaign_emits_venue_series_and_epoch_counters() {
    let file = Scratch::new("venues", "jsonl");
    let mut sink = JsonlSink::create(&file.0).unwrap();
    let mut runner = CampaignRunner::new(TimeBoundedHarness, open_cfg(2));
    runner
        .run_to_end_with_telemetry(None, None, &mut sink, |_| {})
        .unwrap();
    drop(sink);
    let report = runner.report();

    let text = std::fs::read_to_string(&file.0).unwrap();
    let events = parse_jsonl(&text).unwrap();
    let venues: Vec<&Event> = events.iter().filter(|e| e.kind() == "venue").collect();
    assert!(!venues.is_empty(), "open campaign must sample its book");
    assert!(venues.iter().all(|e| e.u64_field("venue").is_some()
        && e.u64_field("epoch").is_some()
        && e.bool_field("drained").is_some()));
    assert!(events.iter().any(|e| e.kind() == "venue_des"));

    let last_epoch = events
        .iter()
        .rfind(|e| e.kind() == "epoch")
        .expect("epoch events");
    assert_eq!(
        last_epoch.u64_field("success"),
        Some(report.tally.outcomes.success),
        "cumulative counters in the final epoch event match the report"
    );
    assert_eq!(
        last_epoch.u64_field("total_rows"),
        Some(report.tally.instances)
    );
}

/// The JSONL schema round-trips exactly: parse → serialize → parse
/// yields the same events, for every event kind a campaign emits.
#[test]
fn jsonl_schema_round_trips_exactly() {
    let file = Scratch::new("roundtrip", "jsonl");
    let mut sink = JsonlSink::create(&file.0).unwrap();
    let mut runner = CampaignRunner::new(TimeBoundedHarness, open_cfg(1));
    runner
        .run_to_end_with_telemetry(None, None, &mut sink, |_| {})
        .unwrap();
    drop(sink);

    let text = std::fs::read_to_string(&file.0).unwrap();
    let events = parse_jsonl(&text).unwrap();
    assert!(events.len() > 4);
    let mut rewritten = Event::header().to_json();
    rewritten.push('\n');
    for e in &events {
        rewritten.push_str(&e.to_json());
        rewritten.push('\n');
    }
    assert_eq!(rewritten, text, "serialize(parse(stream)) == stream");
    assert_eq!(parse_jsonl(&rewritten).unwrap(), events);
}

/// The bytes of a real open-system campaign stream: `epoch`, `venue`,
/// `venue_des` and `phase_profile` events — integers, floats, booleans
/// and strings.
fn campaign_stream() -> Vec<u8> {
    let file = Scratch::new("mutation-source", "jsonl");
    let mut sink = JsonlSink::create(&file.0).unwrap();
    let mut runner = CampaignRunner::new(TimeBoundedHarness, open_cfg(1));
    runner
        .run_to_end_with_telemetry(None, None, &mut sink, |_| {})
        .unwrap();
    drop(sink);
    std::fs::read(&file.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Hostile bytes in a telemetry stream produce an error, never a panic
    /// or a hang. Up to three byte-level mutations (flip, insert, delete,
    /// truncate) of a valid campaign stream, read back as lossy UTF-8:
    /// `parse_jsonl` returns, and every line the parser accepts re-encodes
    /// to a line that parses back to the same event.
    #[test]
    fn prop_mutated_jsonl_never_panics_and_round_trips(
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u8>()), 1..4),
    ) {
        static VALID: OnceLock<Vec<u8>> = OnceLock::new();
        let mut bytes = VALID.get_or_init(campaign_stream).clone();
        for (kind, at, byte) in edits {
            if bytes.is_empty() {
                break;
            }
            let at = (at % bytes.len() as u64) as usize;
            // Mostly ASCII, so most edits stay valid UTF-8 and reach the
            // number, string and structure paths of the parser.
            let byte = if byte >= 224 { byte } else { byte & 0x7f };
            match kind {
                0 => bytes[at] ^= byte | 1,
                1 => bytes.insert(at, byte),
                2 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_jsonl(&text);
        // Line by line, so one refused line does not hide the edited lines
        // that still parse.
        for e in text.lines().filter_map(|l| Event::parse(l).ok()) {
            let line = e.to_json();
            prop_assert_eq!(Event::parse(&line), Ok(e.clone()), "{}", line);
        }
    }
}

/// The DES's per-venue counters, summed over venues, with the number of
/// venues that saw any activity and a digest of the rows: for the routed
/// campaign of `tests/routing.rs`'s
/// `routed_campaign_work_counters_are_pinned_exactly` and for one bounded
/// hub campaign of the benchmark's `open_hub` shape. No report digest
/// covers the `OpenTelemetry` sidecar, so this is the one exact pin of
/// what the `venue_des` series counts.
#[test]
fn venue_des_counters_are_pinned_exactly() {
    let bursty = ArrivalProcess::Bursty {
        burst: 32,
        gap: SimDuration::from_millis(20),
    };
    let family = TopologyFamily::ScaleFree {
        venues: 1_024,
        attach: 2,
    };
    let mut routed = WorkloadConfig::new(family, 400, 42);
    routed.amount = (100, 2_000);
    routed.max_commission = 0;
    routed.arrivals = bursty;
    let mut hub = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 1_024, 42);
    hub.arrivals = bursty;
    let rebalance = RoutingConfig::with_rebalance(SimDuration::from_millis(10));
    let cases = [(routed, 2_500, Some(&rebalance)), (hub, 30_000, None)];
    let pinned = cases.map(|(workload, budget, routing)| {
        let cfg = SimConfig {
            threads: 1,
            ..SimConfig::new(workload)
        };
        let specs = crosschain::sim::workload::generate(&workload);
        let liq = LiquidityConfig::queue(budget, SimDuration::from_millis(25));
        let (_, telemetry) = run_open(&TimeBoundedHarness, &specs, &cfg, &liq, routing);
        let mut sum = VenueEvents::default();
        for (_, ev) in &telemetry.venue_events {
            sum.absorb(ev);
        }
        let rows = format!("{:?}", telemetry.venue_events);
        (
            [
                sum.admitted,
                sum.rejected,
                sum.queued,
                sum.expired,
                sum.locks,
                sum.releases,
            ],
            telemetry.venue_events.len(),
            crosschain::experiments::digest::fnv1a64(rows.as_bytes()),
        )
    });
    assert_eq!(
        pinned,
        [
            (
                [1_723, 42, 1_022, 42, 1_723, 1_723],
                851,
                0x473f_f455_8ef1_d280
            ),
            ([810, 1_238, 798, 1_238, 810, 810], 8, 0xfc70_39a0_a073_9ab9),
        ]
    );
}
