//! Every participant's behaviour, pinned by its full trace. Each case runs
//! one seeded time-bounded chain under `TraceMode::Full` and digests the
//! trace's `Debug` rendering together with the run's `ChainOutcome`: a
//! change to what any participant sends, marks or decides, or when, or to
//! what the outcome extractor reads back, moves a digest. The cases cover
//! n = 1, 2 and 4, the three clock plans, and no fault as well as each
//! Byzantine substitution the fault plans draw.

use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::trace::TraceMode;
use crosschain::experiments::digest::fnv1a64;
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::protocol::ByzFault;

/// The substitutions of one `n`-escrow chain, by name: a crash at c_0, at
/// a connector, at c_n and at an escrow, then the three strategies.
/// A one-escrow chain has no connector.
fn faults(n: usize) -> Vec<(&'static str, ByzFault)> {
    let mut out = vec![
        ("none", ByzFault::None),
        ("crash c0", ByzFault::CrashCustomer(0)),
        ("crash c1", ByzFault::CrashCustomer(1)),
        ("crash cn", ByzFault::CrashCustomer(n)),
        ("crash e0", ByzFault::CrashEscrow(0)),
        ("late bob", ByzFault::LateBob),
        ("forging c1", ByzFault::ForgingChloe(1)),
        ("thieving en-1", ByzFault::ThievingEscrow(n - 1)),
    ];
    if n == 1 {
        out.retain(|(name, _)| !name.ends_with("c1"));
    }
    out
}

fn clock_plans() -> [(&'static str, ClockPlan); 3] {
    [
        ("perfect", ClockPlan::Perfect),
        ("sampled", ClockPlan::Sampled { seed: 3 }),
        ("extremes", ClockPlan::Extremes),
    ]
}

/// Runs one case and digests its trace and outcome.
fn digest(n: usize, clocks: ClockPlan, byz: ByzFault) -> u64 {
    let params = SyncParams::baseline();
    let setup = ChainSetup::new(
        n,
        ValuePlan::with_commission(n, 1_000, 7),
        params,
        0xD0 + n as u64,
    );
    let mut cfg = setup.engine_config();
    cfg.trace_mode = TraceMode::Full;
    let mut eng = setup.build_engine_cfg(
        Box::new(SyncNet::new(params.delta, 16)),
        Box::new(RandomOracle::seeded(n as u64)),
        clocks,
        cfg,
        |role| byz.substitute(&setup, role),
    );
    let report = eng.run();
    let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
    fnv1a64(format!("{:?}\n{outcome:?}", eng.trace()).as_bytes())
}

/// `(n, clock plan, fault, digest)`, recorded while Alice, the connectors
/// and Bob were still three separate process types; `CustomerProcess`
/// reproduces every one.
const PINS: &[(usize, &str, &str, u64)] = &[
    (1, "perfect", "none", 0xafa9536120961471),
    (1, "perfect", "crash c0", 0x62e063b9e717e64e),
    (1, "perfect", "crash cn", 0x921f1e03823be2ef),
    (1, "perfect", "crash e0", 0xb59eb3200cdad333),
    (1, "perfect", "late bob", 0x0c4a8eae4cfd4776),
    (1, "perfect", "thieving en-1", 0x2025e3fad4c26912),
    (1, "sampled", "none", 0xc3d7f9f43a2c183f),
    (1, "sampled", "crash c0", 0x1e21b0779cd013d6),
    (1, "sampled", "crash cn", 0x67c2363e23942a10),
    (1, "sampled", "crash e0", 0x88cffa72d54cc9a3),
    (1, "sampled", "late bob", 0x1a21f29edd226539),
    (1, "sampled", "thieving en-1", 0x5abf1fcac2cc2c53),
    (1, "extremes", "none", 0x506607d579aad21d),
    (1, "extremes", "crash c0", 0x2d12dcc53df63c02),
    (1, "extremes", "crash cn", 0x4a0288474b6c129c),
    (1, "extremes", "crash e0", 0x5816eb725a97666f),
    (1, "extremes", "late bob", 0x371e3c22629006d0),
    (1, "extremes", "thieving en-1", 0x670bb9f99966661b),
    (2, "perfect", "none", 0xe1e291fcad04003e),
    (2, "perfect", "crash c0", 0xacdbaaac73dd36b6),
    (2, "perfect", "crash c1", 0x11351feed79eb7f1),
    (2, "perfect", "crash cn", 0xaf1784b33600c2e3),
    (2, "perfect", "crash e0", 0x1df8588adee1678a),
    (2, "perfect", "late bob", 0x297d79845b7caa4b),
    (2, "perfect", "forging c1", 0xe415119ec560dc26),
    (2, "perfect", "thieving en-1", 0x7260308e4b59c0cf),
    (2, "sampled", "none", 0xb46ca5b8f5c2d311),
    (2, "sampled", "crash c0", 0x776cc94fe4672f7d),
    (2, "sampled", "crash c1", 0x3e1b95ddbad4e3b5),
    (2, "sampled", "crash cn", 0xa4993b804c9ea5ba),
    (2, "sampled", "crash e0", 0x11af6a47998f9acd),
    (2, "sampled", "late bob", 0xbdcfac47deefe9e7),
    (2, "sampled", "forging c1", 0x6a4061aa8f420963),
    (2, "sampled", "thieving en-1", 0x4cf893b4ef5415d8),
    (2, "extremes", "none", 0x66ec714206c59724),
    (2, "extremes", "crash c0", 0xb46b3a2b7171a759),
    (2, "extremes", "crash c1", 0x55d5e548ad84896f),
    (2, "extremes", "crash cn", 0xd2c941dcc4783650),
    (2, "extremes", "crash e0", 0xffea9f0ca636ff0a),
    (2, "extremes", "late bob", 0x7cffa9870c4b053f),
    (2, "extremes", "forging c1", 0xc4732da175eae97f),
    (2, "extremes", "thieving en-1", 0x8071efc859069fbb),
    (4, "perfect", "none", 0xce9526611de58a09),
    (4, "perfect", "crash c0", 0x0e85c82d6bd85d5b),
    (4, "perfect", "crash c1", 0x2bac87f979948c24),
    (4, "perfect", "crash cn", 0xce4aa5b85ea17c49),
    (4, "perfect", "crash e0", 0x1d31b5fbdf6b1c75),
    (4, "perfect", "late bob", 0xef1ad5e10c71ecc7),
    (4, "perfect", "forging c1", 0x0020e0766c028ddc),
    (4, "perfect", "thieving en-1", 0x9991f9ba8681f319),
    (4, "sampled", "none", 0x020e05a04ee152e1),
    (4, "sampled", "crash c0", 0x5d5d1a02259149db),
    (4, "sampled", "crash c1", 0x20b195d9cf94117b),
    (4, "sampled", "crash cn", 0xec2df15f559c0183),
    (4, "sampled", "crash e0", 0x166d612589a3a8fe),
    (4, "sampled", "late bob", 0xe95df9dd5acf9d91),
    (4, "sampled", "forging c1", 0xdf7be98d7829fe36),
    (4, "sampled", "thieving en-1", 0xbce443c99ce6ddd3),
    (4, "extremes", "none", 0x21e54a7b0440cae1),
    (4, "extremes", "crash c0", 0x391d7ab247d7d548),
    (4, "extremes", "crash c1", 0xbad06b69eb892ee7),
    (4, "extremes", "crash cn", 0xd45e7b73d8b74156),
    (4, "extremes", "crash e0", 0xab43ce200a286cf0),
    (4, "extremes", "late bob", 0x245bb0787f3ef9c0),
    (4, "extremes", "forging c1", 0xbb6b3ceaca6f7b45),
    (4, "extremes", "thieving en-1", 0x39b41a4e1a9d0fb8),
];

#[test]
fn time_bounded_traces_match_their_pins() {
    let mut got = Vec::new();
    for n in [1, 2, 4] {
        for (clock_name, clocks) in clock_plans() {
            for (fault_name, byz) in faults(n) {
                got.push((n, clock_name, fault_name, digest(n, clocks, byz)));
            }
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, c, f, d)| format!("    ({n}, {c:?}, {f:?}, 0x{d:016x}),"))
        .collect();
    assert_eq!(got, PINS, "actual pins:\n{}", rendered.join("\n"));
}
