//! Liquidity-aware dynamic routing over random venue networks: the
//! routed open-system engine must stay **bit-identical across thread
//! counts** on both network families, the pathfinder's chosen routes
//! must be feasible at the admission instant and within the hop cap,
//! and rebalancing flows must actually restore spent liquidity.
//!
//! Engine runs are comparatively slow in debug builds, so the proptest
//! case counts are modest; the properties are exact, not statistical.

use crosschain::anta::time::SimDuration;
use crosschain::payment::ValuePlan;
use crosschain::sim::prelude::*;
use proptest::prelude::*;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig {
        cases: n,
        ..ProptestConfig::default()
    }
}

/// A tight-budget routed workload on the given network family: bursty
/// arrivals over small per-venue budgets, so admission genuinely
/// contends and the router genuinely reroutes.
fn routed_cfg(family: TopologyFamily, payments: usize, seed: u64, threads: usize) -> SimConfig {
    let mut workload = WorkloadConfig::new(family, payments, seed);
    workload.amount = (100, 2_000);
    workload.max_commission = 0;
    workload.arrivals = ArrivalProcess::Bursty {
        burst: 16,
        gap: SimDuration::from_millis(30),
    };
    SimConfig {
        threads,
        ..SimConfig::new(workload)
    }
}

/// Everything a routed open report asserts: the closed-world counters,
/// the liquidity audit and the routing counters, flattened for exact
/// comparison.
#[allow(clippy::type_complexity)]
fn routed_digest(
    r: &crosschain::sim::OpenReport,
) -> (
    (usize, usize, usize, usize, Option<u64>),
    (u64, u64, u64, usize, bool, u64),
    Option<(u64, u64, u64, u64, u64, u64, u64)>,
) {
    let l = &r.liquidity;
    (
        (
            r.sim.instances,
            l.admitted,
            l.rejected,
            l.queued,
            r.sim.peak_locked_global,
        ),
        (
            l.horizon.ticks(),
            l.peak_locked_venue,
            l.peak_reserved_venue,
            l.budget_violations,
            l.drained,
            l.goodput_value,
        ),
        r.routing.map(|rs| {
            (
                rs.routed,
                rs.rerouted,
                rs.split,
                rs.no_path,
                rs.pathfind_calls,
                rs.rebalances,
                rs.restored_value,
            )
        }),
    )
}

fn assert_threads_identical(family: TopologyFamily, seed: u64) {
    let routing = RoutingConfig::with_rebalance(SimDuration::from_millis(20));
    let liq = LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let run = |threads: usize| run_routed(&routed_cfg(family, 160, seed, threads), &liq, &routing);
    let serial = run(1);
    let two = run(2);
    let parallel = run(4);
    assert_eq!(routed_digest(&serial), routed_digest(&two));
    assert_eq!(routed_digest(&serial), routed_digest(&parallel));
    for (a, b) in serial.sim.families.iter().zip(&parallel.sim.families) {
        assert_eq!(a.success.hits, b.success.hits);
        assert_eq!(a.instances, b.instances);
    }
    let rs = serial.routing.expect("routed run reports routing stats");
    assert!(rs.routed > 0, "the pathfinder actually admitted payments");
    assert!(
        rs.rebalances > 0,
        "the rebalancing period fired at least once"
    );
    assert_eq!(
        serial.liquidity.shards, 1,
        "a routed run is a single shard by construction"
    );
}

#[test]
fn routed_scalefree_report_identical_across_thread_counts() {
    assert_threads_identical(
        TopologyFamily::ScaleFree {
            venues: 96,
            attach: 2,
        },
        0xE11A,
    );
}

#[test]
fn routed_smallworld_report_identical_across_thread_counts() {
    assert_threads_identical(
        TopologyFamily::SmallWorld {
            nodes: 48,
            rewire_permille: 100,
        },
        0xE11B,
    );
}

/// Rebalancing restores spent liquidity: with successful payments
/// consuming venue budgets, a rebalanced run must restore value, and its
/// success count must be at least the unrebalanced run's on the same
/// specs (capacity only ever comes back).
#[test]
fn rebalancing_restores_spent_liquidity() {
    let family = TopologyFamily::ScaleFree {
        venues: 96,
        attach: 2,
    };
    let cfg = routed_cfg(family, 200, 0x51EE7, 0);
    let liq = LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let still = run_routed(&cfg, &liq, &RoutingConfig::new());
    let rebalanced = run_routed(
        &cfg,
        &liq,
        &RoutingConfig::with_rebalance(SimDuration::from_millis(10)),
    );
    let rs = rebalanced.routing.unwrap();
    assert!(rs.rebalances > 0);
    assert!(
        rs.restored_value > 0,
        "successful payments spend liquidity; rebalancing must restore some"
    );
    assert!(
        successes(&rebalanced) >= successes(&still),
        "restored capacity can only help ({} vs {})",
        successes(&rebalanced),
        successes(&still)
    );
    assert_eq!(rebalanced.liquidity.budget_violations, 0);
    assert!(rebalanced.liquidity.drained);
}

/// FNV-1a of a routed report's `Debug` rendering with `pathfind_calls`
/// zeroed: the gate memo elides searches whose result is already known,
/// so that counter is the one report field it may move.
fn digest_sans_pathfind_calls(report: &crosschain::sim::OpenReport) -> u64 {
    let mut report = report.clone();
    if let Some(rs) = report.routing.as_mut() {
        rs.pathfind_calls = 0;
    }
    crosschain::experiments::digest::fnv1a64(format!("{report:?}").as_bytes())
}

fn run_routed(
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: &RoutingConfig,
) -> crosschain::sim::OpenReport {
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    crosschain::sim::run_open(&TimeBoundedHarness, &specs, cfg, liq, Some(routing)).0
}

/// Three routed reports pinned to the digests the parent commit (layered
/// relaxation, every release re-polls the gate) produced: queueing with
/// rebalancing, reject-on-full on the other family, and queueing under
/// faults. Everything but the search count is bit-identical.
///
/// These are the only pins through the DES's fold of a split payment's
/// legs into one row (worst outcome, slowest latency, summed peaks and
/// events, offset lock profiles), so the queueing cases must split.
#[test]
fn routed_reports_match_the_digests_pinned_before_the_gate_memo() {
    let scalefree = TopologyFamily::ScaleFree {
        venues: 96,
        attach: 2,
    };
    let smallworld = TopologyFamily::SmallWorld {
        nodes: 48,
        rewire_permille: 100,
    };
    let queue = LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let rebalance = RoutingConfig::with_rebalance(SimDuration::from_millis(20));

    let report = run_routed(&routed_cfg(scalefree, 160, 0xE11A, 1), &queue, &rebalance);
    assert_eq!(digest_sans_pathfind_calls(&report), PINNED[0]);
    assert!(
        report.routing.unwrap().split > 0,
        "the pin must cover split legs"
    );

    let report = run_routed(
        &routed_cfg(smallworld, 160, 0xE11B, 1),
        &LiquidityConfig::reject(2_500),
        &RoutingConfig::new(),
    );
    assert_eq!(digest_sans_pathfind_calls(&report), PINNED[1]);

    // The `byz` rung of the fault ladder fails 15% of instances. A failed
    // routed payment returns its collateral intact (`consume == 0`), which
    // lowers a venue's load, so the gate must re-poll after it; the
    // successes around it settle with `consume == amount` and must not
    // cost a search. Both gate branches run, and debug builds re-run
    // every skipped search to check it still fails. Same report at 1 and
    // 4 threads, search count included.
    let faulty = |threads| SimConfig {
        faults: crosschain::sim::faults::ladder()[1].1,
        ..routed_cfg(scalefree, 240, 0xFA17, threads)
    };
    let serial = run_routed(&faulty(1), &queue, &rebalance);
    let parallel = run_routed(&faulty(4), &queue, &rebalance);
    assert_eq!(digest_sans_pathfind_calls(&serial), PINNED[2]);
    assert!(
        serial.routing.unwrap().split > 0,
        "faulty legs must split too"
    );
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    let failed = serial.sim.instances - successes(&serial) - serial.liquidity.rejected;
    assert!(failed > 0, "some admitted payments must fail");
    assert!(
        serial.liquidity.queued > 0,
        "the gate must have held payments"
    );
}

/// See `routed_reports_match_the_digests_pinned_before_the_gate_memo`.
const PINNED: [u64; 3] = [
    0x1baf_85e4_655a_4270,
    0xe6c7_6f2e_acce_7d4b,
    0x6e77_7d6a_7d74_e778,
];

/// One campaign of the benchmark's `routed_net` shape — 400 bursty
/// payments over a 1 024-venue scale-free network, queueing with 10 ms
/// rebalancing — with its routing work counters gated at zero tolerance
/// and its whole report pinned by digest. `pathfind_calls` counts
/// searches executed: before the gate memo this campaign ran 2 426 of
/// them for the same admissions.
#[test]
fn routed_campaign_work_counters_are_pinned_exactly() {
    let family = TopologyFamily::ScaleFree {
        venues: 1_024,
        attach: 2,
    };
    let mut workload = WorkloadConfig::new(family, 400, 42);
    workload.amount = (100, 2_000);
    workload.max_commission = 0;
    workload.arrivals = ArrivalProcess::Bursty {
        burst: 32,
        gap: SimDuration::from_millis(20),
    };
    let cfg = SimConfig {
        threads: 1,
        ..SimConfig::new(workload)
    };
    let report = run_routed(
        &cfg,
        &LiquidityConfig::queue(2_500, SimDuration::from_millis(25)),
        &RoutingConfig::with_rebalance(SimDuration::from_millis(10)),
    );
    assert_eq!(
        report.routing,
        Some(RoutingStats {
            routed: 388,
            rerouted: 216,
            split: 16,
            no_path: 2,
            pathfind_calls: 460,
            rebalances: 26,
            restored_value: 1_196_685,
        })
    );
    // The whole report, route choice included: the only tier-1 pin of the
    // pathfinder's exact routes on a graph of the benchmark's size.
    assert_eq!(
        crosschain::experiments::digest::fnv1a64(format!("{report:?}").as_bytes()),
        0xb1cc_4258_91d2_759d
    );
}

/// A split payment's legs join into one row by `HarnessRun::join`: the
/// worst outcome wins, latency is the slower leg's, peaks and events add,
/// griefing ORs, and the second leg's lock events follow the first's with
/// their hops offset past the first leg's.
#[test]
fn split_legs_join_into_one_row() {
    use crosschain::protocol::HarnessRun;
    let t = crosschain::anta::time::SimTime::from_ticks;
    let row = |outcome, latency, peak, events, griefed| {
        let mut r = HarnessRun::never_ran(
            outcome,
            InstanceFaults::NONE,
            SimDuration::from_ticks(latency),
        );
        (r.peak_locked, r.events, r.griefed) = (peak, events, griefed);
        r
    };
    let mut first = row(InstanceOutcome::Refund, 70, 100, 12, false);
    first.lock_profile = vec![(t(0), 0, 100), (t(5), 1, 100), (t(9), 0, -100)];
    let mut leg = row(InstanceOutcome::Success, 90, 40, 8, true);
    leg.lock_profile = vec![(t(2), 0, 40), (t(7), 1, -40)];
    first.join(leg, 2);
    assert_eq!(first.outcome, InstanceOutcome::Refund);
    assert_eq!(first.latency, SimDuration::from_ticks(90));
    assert_eq!((first.peak_locked, first.events), (140, 20));
    assert!(first.griefed);
    assert_eq!(
        first.lock_profile,
        vec![
            (t(0), 0, 100),
            (t(5), 1, 100),
            (t(9), 0, -100),
            (t(2), 2, 40),
            (t(7), 3, -40)
        ]
    );

    // Worst first: every pair joins to the later one of this list, in
    // either order.
    let order = [
        InstanceOutcome::Success,
        InstanceOutcome::Refund,
        InstanceOutcome::Stuck,
        InstanceOutcome::Failed,
        InstanceOutcome::Violation,
    ];
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i..] {
            for (x, y) in [(a, b), (b, a)] {
                let mut r = row(x, 0, 0, 0, false);
                r.join(row(y, 0, 0, 0, false), 0);
                assert_eq!(r.outcome, b, "{x:?} joined with {y:?}");
            }
        }
    }
}

/// Successful payments across every family of a report.
fn successes(r: &crosschain::sim::OpenReport) -> usize {
    r.sim.families.iter().map(|f| f.success.hits).sum()
}

/// Walks a route through the graph from `src`, asserting every hop is a
/// real edge adjacent to the walk's current node, and returns the node
/// it ends at.
fn walk(g: &VenueGraph, src: u32, venues: &[u32]) -> u32 {
    let mut at = src;
    for &v in venues {
        let (a, b) = g.endpoints(v);
        at = if a == at {
            b
        } else if b == at {
            a
        } else {
            panic!("venue {v} ({a}-{b}) is not adjacent to node {at}");
        };
    }
    at
}

proptest! {
    #![proptest_config(cases(24))]

    /// Every route the pathfinder returns is feasible against the book
    /// **at the instant it was chosen** (its aggregate per-venue demand
    /// fits), is a real walk from src to dst, and never exceeds the hop
    /// cap — under arbitrary pre-existing reservations and spends.
    #[test]
    fn chosen_paths_are_feasible_and_hop_capped(
        seed in 0u64..1_000,
        attach in 2usize..4,
        amount in 100u64..3_000,
        load_seed in 0u64..1_000,
    ) {
        let family = GraphFamily::ScaleFree { venues: 64, attach };
        let g = VenueGraph::generate(family, seed);
        let liq = LiquidityConfig::reject(4_000);
        let mut book = LiquidityBook::new(&liq, g.venues());
        // Deterministically pre-load some venues with reservations and
        // spends so feasibility genuinely bites.
        let mut x = load_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in 0..g.venues() as u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 => book.reserve(v, x % 4_000),
                1 => book.settle(v, 0, x % 4_000),
                _ => {}
            }
        }
        let mut router = Router::new();
        let nodes = g.nodes() as u32;
        let src = (seed as u32) % nodes;
        let dst = (src + 1 + (load_seed as u32) % (nodes - 1)) % nodes;
        // The offset is in [1, nodes-1], so dst never collides with src.
        prop_assert!(src != dst);

        if let Some(path) = router.route(&g, src, dst, amount, 8, &book) {
            prop_assert!(path.hops() >= 1 && path.hops() <= 8);
            prop_assert_eq!(walk(&g, src, &path.venues), dst);
            let demand = path.demand(&ValuePlan::uniform(path.hops(), amount));
            prop_assert!(book.fits(&demand), "single path must fit at choice time");
        }
        if let Some(legs) = router.route_multi(&g, src, dst, amount, 2, 8, &book) {
            let mut seen: Vec<u32> = Vec::new();
            let mut total = 0u64;
            for (path, share) in &legs {
                prop_assert!(path.hops() >= 1 && path.hops() <= 8);
                prop_assert_eq!(walk(&g, src, &path.venues), dst);
                for &v in &path.venues {
                    prop_assert!(!seen.contains(&v), "split paths are venue-disjoint");
                    seen.push(v);
                }
                let demand = path.demand(&ValuePlan::uniform(path.hops(), *share));
                prop_assert!(book.fits(&demand), "each leg must fit at choice time");
                total += share;
            }
            prop_assert_eq!(total, amount, "shares cover the full value");
        }
    }
}
