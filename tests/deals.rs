//! The two HLS deal protocols, pinned by what they do.
//!
//! * Whole runs: each case runs the timelock or the certified protocol on
//!   the two-party swap or the 3-cycle, over a synchronous or a partially
//!   synchronous network, with everyone compliant or party 0 or 1 silent,
//!   under `TraceMode::Full`, σ > 0 and (certified) drifting party clocks
//!   with bounded patience. The FNV-1a of the trace's `Debug` text, the
//!   `DealOutcome` and the `RunReport` is pinned per case.
//! * Every schedule: `explore_differential` at one thread over the swap,
//!   with exact full and reduced counts, and a timelock too short for
//!   deposit, announce and vote, whose safety failure the search finds.
//!
//! The outcome is read from the escrows' `arc_released` marks, so the
//! pins hold however the escrows are written.

use crosschain::anta::clock::DriftClock;
use crosschain::anta::engine::{Engine, EngineConfig};
use crosschain::anta::explore::{explore_differential, DifferentialReport, ExploreConfig};
use crosschain::anta::net::{NetModel, PartialSyncNet, SyncNet};
use crosschain::anta::oracle::{Oracle, RandomOracle};
use crosschain::anta::process::{InertProcess, Process};
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::anta::trace::TraceMode;
use crosschain::deals::{DMsg, DealInstance, DealMatrix, DealOutcome, Party};
use crosschain::experiments::digest::fnv1a64;
use crosschain::ledger::{Asset, CurrencyId};
use crosschain::telemetry::NullSink;
use std::collections::BTreeSet;

fn swap() -> DealMatrix {
    let mut d = DealMatrix::new(2);
    d.add(0, 1, Asset::new(CurrencyId(0), 5));
    d.add(1, 0, Asset::new(CurrencyId(1), 7));
    d
}

fn three_cycle() -> DealMatrix {
    let mut d = DealMatrix::new(3);
    d.add(0, 1, Asset::new(CurrencyId(0), 1));
    d.add(1, 2, Asset::new(CurrencyId(1), 2));
    d.add(2, 0, Asset::new(CurrencyId(2), 3));
    d
}

/// Arc k executed iff its escrow marked `arc_released` with value k.
fn outcome(eng: &Engine<DMsg>, deal: &DealMatrix) -> DealOutcome {
    let released: BTreeSet<i64> = eng
        .trace()
        .marks("arc_released")
        .map(|(_, _, _, v)| v)
        .collect();
    DealOutcome {
        executed: (0..deal.arcs().len())
            .map(|k| released.contains(&(k as i64)))
            .collect(),
    }
}

/// A protocol with its one timing parameter, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Protocol {
    /// Each escrow's timelock.
    Timelock(u64),
    /// Each compliant party's patience.
    Certified(u64),
}

const TIMELOCK: Protocol = Protocol::Timelock(20);
const CERTIFIED: Protocol = Protocol::Certified(12);

/// Who the parties are: a `silent` party is an `InertProcess`; certified
/// parties run on clocks seeded from `drift` when it is given, perfect
/// ones otherwise.
#[derive(Debug, Clone, Copy)]
struct Parties {
    silent: Option<Party>,
    drift: Option<u64>,
}

/// Builds `protocol` on a fresh instance of `deal` with keys from `seed`.
fn build(
    protocol: Protocol,
    deal: DealMatrix,
    seed: u64,
    net: Box<dyn NetModel<DMsg>>,
    oracle: Box<dyn Oracle>,
    cfg: EngineConfig,
    parties: Parties,
) -> Engine<DMsg> {
    let Parties { silent, drift } = parties;
    let (inst, signers) = DealInstance::generate(deal, seed);
    let signers = &signers;
    match protocol {
        Protocol::Timelock(ms) => inst.timelock_engine(
            signers,
            SimDuration::from_millis(ms),
            net,
            oracle,
            cfg,
            |p, party| -> Box<dyn Process<DMsg>> {
                if silent == Some(p) {
                    return Box::new(InertProcess);
                }
                Box::new(party)
            },
        ),
        Protocol::Certified(ms) => inst.certified_engine(
            signers,
            net,
            oracle,
            cfg,
            |p| match drift {
                Some(seed) => DriftClock::seeded(seed, p, 20_000, SimDuration::from_millis(1)),
                None => DriftClock::perfect(),
            },
            |p, mut party| -> Box<dyn Process<DMsg>> {
                if silent == Some(p) {
                    return Box::new(InertProcess);
                }
                party.patience = Some(SimDuration::from_millis(ms));
                Box::new(party)
            },
        ),
    }
}

/// Runs one whole case and digests its trace, outcome and report.
fn digest(protocol: Protocol, three: bool, psync: bool, seed: u64, silent: Option<Party>) -> u64 {
    let deal = if three { three_cycle() } else { swap() };
    let net: Box<dyn NetModel<DMsg>> = if psync {
        Box::new(PartialSyncNet::randomized(
            SimTime::from_millis(30),
            SimDuration::from_millis(2),
            4,
        ))
    } else {
        Box::new(SyncNet::new(SimDuration::from_millis(2), 4))
    };
    let cfg = EngineConfig {
        max_real_time: SimTime::from_secs(10),
        sigma_max: SimDuration::from_millis(1),
        sigma_buckets: 4,
        trace_mode: TraceMode::Full,
        ..EngineConfig::default()
    };
    let oracle = Box::new(RandomOracle::seeded(seed));
    let mut eng = build(
        protocol,
        deal.clone(),
        seed,
        net,
        oracle,
        cfg,
        Parties {
            silent,
            drift: Some(seed),
        },
    );
    let report = eng.run();
    let o = outcome(&eng, &deal);
    fnv1a64(format!("{:?}\n{o:?}\n{report:?}", eng.trace()).as_bytes())
}

/// `(protocol, deal, network, seed, silent party, digest)`.
const PINS: &[(&str, &str, &str, u64, &str, u64)] = &[
    ("timelock", "swap", "sync", 1, "none", 0x20b9368f9d2a3118),
    ("timelock", "swap", "sync", 1, "p0", 0x8edd89754b556f2e),
    ("timelock", "swap", "sync", 1, "p1", 0x4be8a7579ad58ed8),
    ("timelock", "swap", "sync", 2, "none", 0x798ad40025dff613),
    ("timelock", "swap", "sync", 2, "p0", 0xfe61cb0507bb570b),
    ("timelock", "swap", "sync", 2, "p1", 0x3e3597c013d6d43f),
    ("timelock", "swap", "sync", 3, "none", 0x16d41dd77fa5e1f5),
    ("timelock", "swap", "sync", 3, "p0", 0xa411da60dcdc6bcb),
    ("timelock", "swap", "sync", 3, "p1", 0x621e749ee5b15edf),
    ("timelock", "swap", "sync", 4, "none", 0x26879059dfce01e9),
    ("timelock", "swap", "sync", 4, "p0", 0x193eeaeccfd3b25a),
    ("timelock", "swap", "sync", 4, "p1", 0xff5873fc696b4954),
    ("timelock", "swap", "psync", 1, "none", 0x136f545235002153),
    ("timelock", "swap", "psync", 1, "p0", 0x98a524d257ed50f7),
    ("timelock", "swap", "psync", 1, "p1", 0x47f44cc69f638e8b),
    ("timelock", "swap", "psync", 2, "none", 0x51f65837fcf45fd1),
    ("timelock", "swap", "psync", 2, "p0", 0x611de1d84d5ac3a7),
    ("timelock", "swap", "psync", 2, "p1", 0x70a8b0740c091963),
    ("timelock", "swap", "psync", 3, "none", 0xcaebc45ea26c40b6),
    ("timelock", "swap", "psync", 3, "p0", 0x234cc3dd7787bd05),
    ("timelock", "swap", "psync", 3, "p1", 0x426cac3c423a3851),
    ("timelock", "swap", "psync", 4, "none", 0x52c1016e363b1294),
    ("timelock", "swap", "psync", 4, "p0", 0x88b8d5ac6c4fa334),
    ("timelock", "swap", "psync", 4, "p1", 0xab01cec3c2d6f84e),
    ("timelock", "3-cycle", "sync", 1, "none", 0x84837c251d1de10d),
    ("timelock", "3-cycle", "sync", 1, "p0", 0x284f8d282a25f946),
    ("timelock", "3-cycle", "sync", 1, "p1", 0xb57acadd7fdbd954),
    ("timelock", "3-cycle", "sync", 2, "none", 0x0e00a4e43b1ef58d),
    ("timelock", "3-cycle", "sync", 2, "p0", 0x5c280265b8ff654e),
    ("timelock", "3-cycle", "sync", 2, "p1", 0xf3baafd4653fd0e8),
    ("timelock", "3-cycle", "sync", 3, "none", 0xc7efe2e31eb0ba2b),
    ("timelock", "3-cycle", "sync", 3, "p0", 0xeba659b2849c611a),
    ("timelock", "3-cycle", "sync", 3, "p1", 0x80a255a2b5ba6e64),
    ("timelock", "3-cycle", "sync", 4, "none", 0x2104ebc955600bb7),
    ("timelock", "3-cycle", "sync", 4, "p0", 0xe749a087ed71b3fe),
    ("timelock", "3-cycle", "sync", 4, "p1", 0xf8f25162af436104),
    (
        "timelock",
        "3-cycle",
        "psync",
        1,
        "none",
        0x06f5843514c37cd7,
    ),
    ("timelock", "3-cycle", "psync", 1, "p0", 0x296642a68cdf7025),
    ("timelock", "3-cycle", "psync", 1, "p1", 0x141d5e1c3bedd6c9),
    (
        "timelock",
        "3-cycle",
        "psync",
        2,
        "none",
        0xf5ffee4d7231702d,
    ),
    ("timelock", "3-cycle", "psync", 2, "p0", 0x3bcba58412e00d11),
    ("timelock", "3-cycle", "psync", 2, "p1", 0xfb116615dfbe8aaf),
    (
        "timelock",
        "3-cycle",
        "psync",
        3,
        "none",
        0xfc48186f0467e234,
    ),
    ("timelock", "3-cycle", "psync", 3, "p0", 0xf11dcc6833a3bd21),
    ("timelock", "3-cycle", "psync", 3, "p1", 0xdb8bdd2262172d3b),
    (
        "timelock",
        "3-cycle",
        "psync",
        4,
        "none",
        0x7dda1d198f9b6bb3,
    ),
    ("timelock", "3-cycle", "psync", 4, "p0", 0xa0515b5242f3bcbc),
    ("timelock", "3-cycle", "psync", 4, "p1", 0xb34517dc1c019a8a),
    ("certified", "swap", "sync", 1, "none", 0xbfe65fdee94f8efb),
    ("certified", "swap", "sync", 1, "p0", 0x7be806d27ec4862a),
    ("certified", "swap", "sync", 1, "p1", 0xed7e0c1e9ba465f1),
    ("certified", "swap", "sync", 2, "none", 0x988ed20ede83b22e),
    ("certified", "swap", "sync", 2, "p0", 0x603a23544255309b),
    ("certified", "swap", "sync", 2, "p1", 0xefa8f02b6c246fe6),
    ("certified", "swap", "sync", 3, "none", 0x768f5f1f3bc60d27),
    ("certified", "swap", "sync", 3, "p0", 0x075ae793cbdc7ad7),
    ("certified", "swap", "sync", 3, "p1", 0x47a0b939c5fdd4c8),
    ("certified", "swap", "sync", 4, "none", 0x33fbb48fbe0d92d5),
    ("certified", "swap", "sync", 4, "p0", 0x75c585046f6f39c8),
    ("certified", "swap", "sync", 4, "p1", 0x15b16c1c8396c98e),
    ("certified", "swap", "psync", 1, "none", 0x30f082a08e4d3fe5),
    ("certified", "swap", "psync", 1, "p0", 0x9029aa5850d7505f),
    ("certified", "swap", "psync", 1, "p1", 0x1762bd84ef2d0964),
    ("certified", "swap", "psync", 2, "none", 0x85fefd4f40a8be12),
    ("certified", "swap", "psync", 2, "p0", 0x37f5866117b98a44),
    ("certified", "swap", "psync", 2, "p1", 0xd343efeba884d90d),
    ("certified", "swap", "psync", 3, "none", 0xe81098579aca6bfb),
    ("certified", "swap", "psync", 3, "p0", 0xe9fe2ef331040370),
    ("certified", "swap", "psync", 3, "p1", 0xaf9b41b5d51cf4b6),
    ("certified", "swap", "psync", 4, "none", 0x499cb5661c6b1e03),
    ("certified", "swap", "psync", 4, "p0", 0x633da2e4ef87d5a2),
    ("certified", "swap", "psync", 4, "p1", 0x1589b6d3cdd71148),
    (
        "certified",
        "3-cycle",
        "sync",
        1,
        "none",
        0xc382952f2f9c8940,
    ),
    ("certified", "3-cycle", "sync", 1, "p0", 0x2336098c52f18318),
    ("certified", "3-cycle", "sync", 1, "p1", 0x32e3a6c33e493e0b),
    (
        "certified",
        "3-cycle",
        "sync",
        2,
        "none",
        0xdb0a439540f5bf93,
    ),
    ("certified", "3-cycle", "sync", 2, "p0", 0xae5af2181f1a0378),
    ("certified", "3-cycle", "sync", 2, "p1", 0x7051c1dccfdc97ca),
    (
        "certified",
        "3-cycle",
        "sync",
        3,
        "none",
        0x96ad3a5ad11ebe5f,
    ),
    ("certified", "3-cycle", "sync", 3, "p0", 0x333393cfb6251af6),
    ("certified", "3-cycle", "sync", 3, "p1", 0xe61b685e5d82f704),
    (
        "certified",
        "3-cycle",
        "sync",
        4,
        "none",
        0x1047151499c83891,
    ),
    ("certified", "3-cycle", "sync", 4, "p0", 0x9417380a9995be99),
    ("certified", "3-cycle", "sync", 4, "p1", 0x17cb43f346453175),
    (
        "certified",
        "3-cycle",
        "psync",
        1,
        "none",
        0xe0016a6a2a186322,
    ),
    ("certified", "3-cycle", "psync", 1, "p0", 0xa5b387e5e9381a58),
    ("certified", "3-cycle", "psync", 1, "p1", 0xa272869edf33242f),
    (
        "certified",
        "3-cycle",
        "psync",
        2,
        "none",
        0xca5c577bde919243,
    ),
    ("certified", "3-cycle", "psync", 2, "p0", 0x49a6a486d7915bba),
    ("certified", "3-cycle", "psync", 2, "p1", 0x9a94c3365c726d30),
    (
        "certified",
        "3-cycle",
        "psync",
        3,
        "none",
        0xd1aab92bf6420999,
    ),
    ("certified", "3-cycle", "psync", 3, "p0", 0xbc6f2a9e99daf85c),
    ("certified", "3-cycle", "psync", 3, "p1", 0x8cacf1d2aea083b5),
    (
        "certified",
        "3-cycle",
        "psync",
        4,
        "none",
        0xe646eda061f0102e,
    ),
    ("certified", "3-cycle", "psync", 4, "p0", 0x379ca1b7ec99b622),
    ("certified", "3-cycle", "psync", 4, "p1", 0xaba47a41e2329d21),
];

#[test]
fn deal_traces_match_their_pins() {
    let mut got = Vec::new();
    for (pname, protocol) in [("timelock", TIMELOCK), ("certified", CERTIFIED)] {
        for (dname, three) in [("swap", false), ("3-cycle", true)] {
            for (nname, psync) in [("sync", false), ("psync", true)] {
                for seed in 1..=4u64 {
                    for (sname, silent) in [("none", None), ("p0", Some(0)), ("p1", Some(1))] {
                        let d = digest(protocol, three, psync, seed, silent);
                        got.push((pname, dname, nname, seed, sname, d));
                    }
                }
            }
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(p, d, n, s, q, h)| format!("    ({p:?}, {d:?}, {n:?}, {s}, {q:?}, 0x{h:016x}),"))
        .collect();
    assert_eq!(got, PINS, "actual pins:\n{}", rendered.join("\n"));
}

/// Explores every schedule of the swap: message delays in 0–4 ms over two
/// buckets, σ of 1 ms in `sigma_buckets`, keys from seed 5. The checker
/// fails a run unless the outcome is safe for every compliant party, and
/// names the outcome when it fails.
fn explore_swap(
    protocol: Protocol,
    silent: Option<Party>,
    sigma_buckets: usize,
) -> DifferentialReport {
    let compliant: Vec<Party> = (0..2).filter(|&p| silent != Some(p)).collect();
    explore_differential(
        |oracle: Box<dyn Oracle>| {
            let net = Box::new(SyncNet {
                delta_min: SimDuration::ZERO,
                delta_max: SimDuration::from_millis(4),
                buckets: 2,
            });
            let cfg = EngineConfig {
                sigma_max: SimDuration::from_millis(1),
                sigma_buckets,
                trace_mode: TraceMode::CountersOnly,
                ..EngineConfig::default()
            };
            let parties = Parties {
                silent,
                drift: None,
            };
            build(protocol, swap(), 5, net, oracle, cfg, parties)
        },
        |eng, _run| {
            let deal = swap();
            let o = outcome(eng, &deal);
            if o.safe_for(&deal, &compliant) {
                Ok(())
            } else {
                Err(format!("{:?}", o.executed))
            }
        },
        ExploreConfig::with_threads(1),
        &mut NullSink,
    )
}

/// `(full runs, reduced runs, cuts, dead-branch prunes)`.
fn counts(r: &DifferentialReport) -> (usize, usize, usize, u64) {
    (
        r.full.runs,
        r.reduced.runs,
        r.reduced.dedup_hits,
        r.reduced.dead_branch_prunes,
    )
}

#[test]
fn every_schedule_of_the_swap_is_safe_with_pinned_counts() {
    for (protocol, silent, want) in [
        (TIMELOCK, None, (1_024, 23, 329, 0)),
        (CERTIFIED, None, (15_412, 350, 789, 568)),
        (TIMELOCK, Some(1), (8, 1, 7, 0)),
        (CERTIFIED, Some(1), (256, 5, 36, 0)),
    ] {
        let r = explore_swap(protocol, silent, 1);
        let case = format!("{protocol:?}, silent {silent:?}");
        assert!(r.full.exhausted && r.reduced.exhausted, "{case}");
        assert!(r.agree(), "{case}: {:?}", r.mismatch);
        assert!(r.full.all_ok(), "{case}: {:?}", r.full.violations.first());
        assert_eq!(counts(&r), want, "{case}");
    }
}

#[test]
fn search_finds_the_safety_failure_of_a_too_short_timelock() {
    // 9 ms is less than deposit, announce and vote can take (up to three
    // 4 ms hops plus σ), so an escrow can time out while the other
    // releases: one compliant party pays and is not paid.
    let r = explore_swap(Protocol::Timelock(9), None, 2);
    assert!(r.full.exhausted && r.reduced.exhausted);
    assert!(r.agree(), "{:?}", r.mismatch);
    assert_eq!((r.full.runs, r.full.violations.len()), (65_536, 30_520));
    let split: BTreeSet<&str> = ["[false, true]", "[true, false]"].into();
    assert_eq!(r.full.distinct_violation_messages(), split);
    assert_eq!(r.reduced.distinct_violation_messages(), split);
    assert_eq!(counts(&r), (65_536, 171, 11_307, 472));
}
