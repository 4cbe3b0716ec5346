//! The Monte-Carlo driver: thousands-to-millions of concurrent payment
//! instances, run in chunks on the worker pool — generic over the
//! protocol under test.
//!
//! Each instance is one deterministic engine run — a pure function of its
//! [`PaymentSpec`], the [`FaultPlan`] and the [`ProtocolHarness`] — so the
//! aggregate report is **bit-identical across thread counts**; only the
//! wall time moves. A worker runs its chunk of specs in order on one
//! engine, which the harness resets for each payment
//! ([`anta::engine::Engine::reset`]), so a payment allocates only what it
//! keeps and the engine's buffers are sized once per chunk. The engine
//! records in [`anta::trace::TraceMode::CountersOnly`], so no message
//! payload is ever cloned into a trace. The chunk size is worked out from
//! the spec count alone, never from the thread count, and no report
//! depends on it.
//!
//! There are two batch entry points, [`run_closed`] and [`run_open`].
//! Both are generic over the harness and take a pre-generated spec list; a
//! caller that has only a [`SimConfig`] passes
//! `&workload::generate(&cfg.workload)`. One payment runs through
//! [`protocol::run_harness_instance_in`], and its [`protocol::HarnessRun`] is
//! the row every report and tally folds, beside the spec it came from.

use crate::des;
use crate::faults::FaultPlan;
use crate::metrics::{OpenReport, OpenTelemetry, SimReport};
use crate::workload::{PaymentSpec, WorkloadConfig};
use anta::engine::Engine;
use experiments::parallel_map;
use protocol::harness::{run_harness_instance_in, HarnessRun, ProtocolHarness};
use protocol::liquidity::LiquidityConfig;
use protocol::network::RoutingConfig;

/// One simulation campaign.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The workload to generate.
    pub workload: WorkloadConfig,
    /// The fault distribution applied to every instance.
    pub faults: FaultPlan,
    /// Worker threads (0 ⇒ all available cores).
    pub threads: usize,
    /// Collect per-instance lock/unlock profiles and compute the
    /// workload-wide concurrency peaks (small extra memory per instance).
    /// Only [`run_closed`] reads it: the open-system DES replays lock
    /// events, so [`run_open`] always collects them.
    pub lock_profile: bool,
}

impl SimConfig {
    /// A campaign over `workload` with no faults, all cores, and lock
    /// profiling on.
    pub fn new(workload: WorkloadConfig) -> Self {
        SimConfig {
            workload,
            faults: FaultPlan::NONE,
            threads: 0,
            lock_profile: true,
        }
    }
}

/// Simulates `specs` through `harness` as a **closed system**: every
/// instance runs in isolation, whatever the others lock.
///
/// Panics if the harness does not support the configured workload (check
/// [`ProtocolHarness::supports`] first when sweeping protocol × workload
/// grids).
pub fn run_closed<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
) -> SimReport {
    let rows = simulate_specs(harness, specs, cfg, |_, rows| rows);
    SimReport::merge(specs.iter().zip(rows.iter().flatten()), cfg.lock_profile)
}

/// The one batch loop: `specs` chunked by [`chunk_len`], every instance
/// of a chunk simulated in order on one worker and one engine
/// (panic-isolated), and the
/// chunk handed to `fold` **on that worker** as `(specs, their rows)`.
/// Folded chunks come back in spec order, so whatever the caller builds
/// from them is bit-identical across thread counts — and a caller that
/// folds to a tally never holds more than one chunk of rows per worker.
pub(crate) fn simulate_specs<H, T, F>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    fold: F,
) -> Vec<T>
where
    H: ProtocolHarness,
    T: Send,
    F: Fn(&[PaymentSpec], Vec<HarnessRun>) -> T + Sync,
{
    assert!(
        harness.supports(&cfg.workload),
        "{} does not support this workload ({:?}); gate on supports()",
        harness.name(),
        cfg.workload.family,
    );
    let chunks: Vec<&[PaymentSpec]> = specs.chunks(chunk_len(specs.len())).collect();
    parallel_map(&chunks, cfg.threads, |chunk| {
        let mut eng = Engine::default();
        let rows = chunk
            .iter()
            .map(|spec| {
                run_instance_isolated(harness, &mut eng, spec, &cfg.faults, cfg.lock_profile)
            })
            .collect();
        fold(chunk, rows)
    })
}

/// Specs per worker chunk, a function of the spec count alone: up to 512
/// specs split into at most eight chunks (exactly eight from 57 specs
/// on), and a longer list into chunks of 64.
fn chunk_len(specs: usize) -> usize {
    specs.div_ceil(8).clamp(1, 64)
}

/// [`run_harness_instance_in`] under panic isolation: a harness that panics
/// degrades the instance to a counted [`InstanceOutcome::Failed`] row
/// instead of tearing down the whole campaign. There is no retry: a run
/// is a pure function of `(spec, plan)`, so a second attempt would panic
/// again. The failing instance is identified by its spec (`spec.seed`
/// names the seed to replay the panic under a debugger); the campaign
/// layer surfaces those seeds in its report.
///
/// The `Failed` row is [`HarnessRun::never_ran`]: no latency, no locked
/// value, no lock profile, no fault attribution. `eng` stays usable: the
/// next payment's harness resets it.
///
/// [`InstanceOutcome::Failed`]: crate::metrics::InstanceOutcome::Failed
pub(crate) fn run_instance_isolated<H: ProtocolHarness>(
    harness: &H,
    eng: &mut Engine<H::Msg>,
    spec: &PaymentSpec,
    plan: &FaultPlan,
    lock_profile: bool,
) -> HarnessRun {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| {
        run_harness_instance_in(harness, eng, spec, plan, lock_profile)
    }))
    .unwrap_or_else(|_| {
        HarnessRun::never_ran(
            protocol::ProtocolOutcome::Failed,
            crate::faults::InstanceFaults::NONE,
            anta::time::SimDuration::ZERO,
        )
    })
}

/// Simulates `specs` through `harness` as an **open system** against
/// finite escrow liquidity: payments are admitted in arrival order
/// against per-venue collateral budgets, so success becomes a function of
/// offered load, not only of faults and drift. `specs` must be in
/// nondecreasing arrival order (it panics otherwise) —
/// [`crate::workload::generate`] produces exactly that.
///
/// The campaign is one **discrete-event simulation**: arrivals, FIFO
/// admission/queueing, the lock/release audit stream and patience
/// expiries are all processed in `(time, rank, seq)` order against the
/// carried [`protocol::LiquidityBook`], so payments genuinely interleave
/// on shared escrows — a payment admitted with delay `w` runs
/// identically, shifted by `w` (each run is still a pure function of its
/// spec). Parallelism comes from **venue sharding**: routes that can
/// never contend (no shared venue, by union-find over every route) land
/// in disjoint shards that simulate concurrently on the worker pool and
/// merge deterministically, so the report — like the closed-world one —
/// is **bit-identical across thread counts**. A hub workload is a single
/// shard (every route crosses the hub: its contention is genuinely
/// sequential), while packetized workloads split into one shard per path
/// and scale near-linearly with the worker count.
///
/// Admission: each payment's collateral demand (`VenueRoute::demand`) is
/// checked against its route's remaining budgets at arrival; fitting
/// payments reserve their measured per-venue peak until their last lock
/// event releases, over-committed payments are rejected
/// ([`protocol::ProtocolOutcome::Rejected`]) or held at the shard's FIFO
/// gate per the [`protocol::AdmissionPolicy`] — a blocked head consumes
/// the patience of everyone queued behind it, and a demand no budget
/// could ever satisfy is refused on the spot. The book simultaneously
/// replays the admitted payments' actual lock events as an audit:
/// `locked ≤ budget` must hold at every venue at every instant
/// ([`LiquidityStats::budget_violations`] counts the exceptions) and
/// every venue must drain to zero by the end
/// ([`LiquidityStats::drained`]). Rejected payments record their *actual*
/// wasted wait in [`LiquidityStats::rejected_wait`].
///
/// **`routing: Some(_)`** switches admission to liquidity-aware dynamic
/// routing (network families only —
/// [`crate::workload::TopologyFamily::ScaleFree`] /
/// [`crate::workload::TopologyFamily::SmallWorld`]): each arrival is
/// routed by a [`protocol::Router`] over the live book instead of its
/// pinned static path, optionally splitting across venue-disjoint paths
/// and with periodic rebalancing flows restoring spent liquidity (see
/// [`RoutingConfig`]). For non-network families the routing knobs are
/// ignored and the run is identical to `None`. A routed run is one shard
/// and route choice is deterministic by construction, so routed reports
/// too are bit-identical across thread counts.
///
/// The second return value is the deterministic per-venue telemetry
/// sidecar: end-of-run venue samples and DES activity counters (and the
/// report's routing counters), taken from the same merged shard outcomes
/// as the report. It costs no simulation work; callers that do not emit
/// venue series drop it.
///
/// [`LiquidityStats::budget_violations`]: crate::metrics::LiquidityStats::budget_violations
/// [`LiquidityStats::drained`]: crate::metrics::LiquidityStats::drained
/// [`LiquidityStats::rejected_wait`]: crate::metrics::LiquidityStats::rejected_wait
pub fn run_open<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: Option<&RoutingConfig>,
) -> (OpenReport, OpenTelemetry) {
    let raw = des::run_open_specs_raw(harness, specs, cfg, liq, routing);
    let report = OpenReport {
        sim: SimReport::merge(specs.iter().zip(&raw.results), true),
        liquidity: raw.liquidity,
        routing: raw.telemetry.routing,
    };
    (report, raw.telemetry)
}

/// The retired two-phase open-system sweep, kept as a **differential
/// oracle**: phase one simulates every instance in isolation on the
/// worker pool, phase two replays the lock events through one sequential
/// arrival-ordered admission sweep. `Unbounded` and `Reject` campaigns
/// must match the sharded discrete-event engine bit for bit; `Queue`
/// semantics legitimately differ (one global head-of-line gate here vs
/// FIFO per venue shard there, and this oracle drains the release heap
/// before refusing a never-satisfiable demand).
#[cfg(test)]
pub(crate) mod legacy {
    use super::*;
    use crate::des::{EventKind, RANK_LOCK, RANK_UNLOCK, RANK_UNRESERVE};
    use crate::metrics::LiquidityStats;
    use anta::queue::EventQueue;
    use anta::time::SimTime;
    use experiments::stats::Summary;
    use protocol::liquidity::LiquidityBook;
    use protocol::ProtocolOutcome;

    /// Applies every pending event with time ≤ `until` to the book,
    /// advancing `horizon` past the last applied event. Same-instant
    /// ties resolve on `(rank, seq)` — insertion order within a rank,
    /// never venue/amount order ([`EventQueue`] never orders on payloads).
    fn apply_until(
        heap: &mut EventQueue<EventKind>,
        book: &mut LiquidityBook,
        until: SimTime,
        horizon: &mut SimTime,
    ) {
        while let Some((time, _, _)) = heap.peek() {
            if time > until {
                break;
            }
            match heap.pop().expect("peeked").1 {
                EventKind::Unreserve { venue, amount, .. } => book.settle(venue, amount, 0),
                EventKind::Book { venue, delta } => book.apply_lock(time, venue, delta),
                _ => unreachable!("the two-phase sweep only schedules book events"),
            }
            *horizon = (*horizon).max(time);
        }
    }

    /// The two-phase sweep (see the module docs).
    pub(crate) fn run_open_specs_two_phase<H: ProtocolHarness>(
        harness: &H,
        specs: &[PaymentSpec],
        cfg: &SimConfig,
        liq: &LiquidityConfig,
    ) -> OpenReport {
        assert!(
            specs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "open-system admission needs arrival-ordered specs"
        );
        // Phase 1: parallel simulation, lock profiles always collected
        // (the admission sweep is driven by them).
        let profiled = SimConfig {
            lock_profile: true,
            ..*cfg
        };
        let mut results: Vec<HarnessRun> =
            simulate_specs(harness, specs, &profiled, |_, rows| rows)
                .into_iter()
                .flatten()
                .collect();
        assert_eq!(results.len(), specs.len(), "one result per spec");

        // Phase 2: arrival-ordered admission sweep with carried
        // liquidity state.
        let policy = liq.policy;
        let mut book = LiquidityBook::new(liq, cfg.workload.family.venues());
        let mut heap: EventQueue<EventKind> = EventQueue::default();
        // The FIFO admission gate's clock: a queued payment advances it,
        // so later arrivals wait behind (head-of-line) — deterministic
        // and faithful to one global admission ledger.
        let mut gate_clock = SimTime::ZERO;
        let (mut admitted, mut rejected, mut queued) = (0usize, 0usize, 0usize);
        let mut waits: Vec<u64> = Vec::new();
        let mut rejected_waits: Vec<u64> = Vec::new();
        let mut horizon_end = SimTime::ZERO;
        let (mut goodput_value, mut offered_value) = (0u64, 0u64);

        for (spec, r) in specs.iter().zip(results.iter_mut()) {
            let delivered = spec.plan.amounts.last().map(|a| a.amount).unwrap_or(0);
            offered_value += delivered;
            let mut t_now = gate_clock.max(spec.arrival);
            apply_until(&mut heap, &mut book, t_now, &mut horizon_end);

            let admit_at = if !policy.bounded() {
                Some(t_now)
            } else {
                // The payer's patience runs from *arrival*: time already
                // spent blocked behind the gate's head counts against it.
                let deadline = SimTime::from_ticks(
                    spec.arrival
                        .ticks()
                        .saturating_add(policy.max_wait().ticks()),
                );
                if t_now > deadline {
                    None
                } else {
                    let demand = spec.venues.demand(&spec.plan);
                    loop {
                        if book.fits(&demand) {
                            break Some(t_now);
                        }
                        // Wait for the next release within patience.
                        match heap.peek() {
                            Some((time, _, _)) if time <= deadline => {
                                apply_until(&mut heap, &mut book, time, &mut horizon_end);
                                t_now = time;
                            }
                            _ => break None,
                        }
                    }
                }
            };

            match admit_at {
                Some(t0) => {
                    admitted += 1;
                    gate_clock = gate_clock.max(t0);
                    horizon_end = horizon_end.max(t0);
                    let wait = t0.saturating_since(spec.arrival);
                    if !wait.is_zero() {
                        queued += 1;
                        waits.push(wait.ticks());
                        // A delayed start shifts the whole run by the
                        // wait, payer-visible latency included.
                        for ev in r.lock_profile.iter_mut() {
                            ev.0 += wait;
                        }
                        r.latency += wait;
                    }
                    // Schedule the audit stream and measure the
                    // per-venue footprint: peak locked (the reservation)
                    // and last event (the reservation's release time).
                    let mut per_venue: std::collections::BTreeMap<u32, (i64, i64, SimTime)> =
                        std::collections::BTreeMap::new();
                    for &(t, hop, dv) in r.lock_profile.iter() {
                        let Some(venue) = spec.venues.venue(hop as usize) else {
                            continue;
                        };
                        let e = per_venue.entry(venue).or_insert((0, 0, t));
                        e.0 += dv;
                        e.1 = e.1.max(e.0);
                        e.2 = e.2.max(t);
                        let rank = if dv < 0 { RANK_UNLOCK } else { RANK_LOCK };
                        heap.push(t, rank, EventKind::Book { venue, delta: dv });
                    }
                    if policy.bounded() {
                        for (&venue, &(_, peak, last)) in &per_venue {
                            if peak > 0 {
                                book.reserve(venue, peak as u64);
                                heap.push(
                                    last,
                                    RANK_UNRESERVE,
                                    EventKind::Unreserve {
                                        venue,
                                        amount: peak as u64,
                                        consume: 0,
                                    },
                                );
                            }
                        }
                    }
                    if r.outcome == ProtocolOutcome::Success {
                        goodput_value += delivered;
                    }
                }
                None => {
                    rejected += 1;
                    gate_clock = gate_clock.max(t_now);
                    horizon_end = horizon_end.max(t_now);
                    // The payment never starts: no locks, no run, only
                    // the payer's *actual* wasted patience (clamped to
                    // it — the gate's head can hold an arrival past its
                    // own deadline).
                    let wasted = t_now.saturating_since(spec.arrival).min(policy.max_wait());
                    rejected_waits.push(wasted.ticks());
                    r.outcome = ProtocolOutcome::Rejected;
                    r.latency = wasted;
                    r.griefed = false;
                    r.peak_locked = 0;
                    r.events = 0;
                    r.lock_profile.clear();
                }
            }
        }

        // Drain the in-flight tail and close the utilization integral.
        apply_until(&mut heap, &mut book, SimTime::MAX, &mut horizon_end);
        book.finish(horizon_end);

        let horizon = horizon_end.saturating_since(SimTime::ZERO);
        let liquidity = LiquidityStats {
            offered: specs.len(),
            admitted,
            rejected,
            queued,
            wait: Summary::of(&waits),
            rejected_wait: Summary::of(&rejected_waits),
            shards: 1,
            horizon,
            budget: book.budget(),
            venues: book.venues(),
            peak_locked_venue: book.peak_locked_venue(),
            peak_reserved_venue: book.peak_reserved_venue(),
            utilization_ppm: book.utilization_ppm(horizon),
            budget_violations: book.violations(),
            drained: book.drained(),
            goodput_value,
            offered_value,
        };
        OpenReport {
            sim: SimReport::merge(specs.iter().zip(&results), true),
            liquidity,
            routing: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::InstanceOutcome;
    use crate::workload::{self, ArrivalProcess, TopologyFamily};
    use anta::net::NetFaults;
    use anta::time::SimDuration;
    use protocol::{
        run_harness_instance, DealsHarness, HtlcHarness, IlpAtomicHarness, IlpUntunedHarness,
        TimeBoundedHarness,
    };

    /// `cfg`'s own workload through `harness`, closed.
    fn closed_run<H: ProtocolHarness>(harness: &H, cfg: &SimConfig) -> SimReport {
        run_closed(harness, &workload::generate(&cfg.workload), cfg)
    }

    /// `cfg`'s own workload through the time-bounded protocol, open, on
    /// its static routes.
    fn open_run(cfg: &SimConfig, liq: &LiquidityConfig) -> OpenReport {
        let specs = workload::generate(&cfg.workload);
        run_open(&TimeBoundedHarness, &specs, cfg, liq, None).0
    }

    fn small(family: TopologyFamily, payments: usize, seed: u64) -> SimConfig {
        SimConfig::new(WorkloadConfig::new(family, payments, seed))
    }

    #[test]
    fn faultless_linear_workload_all_succeed() {
        let cfg = small(TopologyFamily::Linear { n: 3 }, 64, 1);
        let report = closed_run(&TimeBoundedHarness, &cfg);
        assert_eq!(report.instances, 64);
        let f = report.family("linear").unwrap();
        assert!(f.success.is_perfect(), "{:?}", f.success);
        assert_eq!(f.stuck + f.violations, 0);
        assert_eq!(f.griefed, 0, "time-bounded refunds are deadline-bounded");
        assert!(report.conserved());
        assert!(f.latency.is_some());
        // Peak locked per instance: at least the first hop's value.
        assert!(f.peak_locked.as_ref().unwrap().min >= 100);
        assert!(report.peak_locked_global.unwrap() > 0);
        assert!(report.peak_in_flight >= 1);
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let base = small(TopologyFamily::RandomTree { nodes: 24 }, 96, 5);
        let plan = FaultPlan {
            crash_permille: 150,
            thieving_escrow_permille: 50,
            net: NetFaults {
                drop_permille: 20,
                delay_permille: 100,
                extra_delay: SimDuration::from_millis(2),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let run_with_threads = |threads: usize| {
            let cfg = SimConfig {
                threads,
                faults: plan,
                ..base
            };
            closed_run(&TimeBoundedHarness, &cfg)
        };
        let a = run_with_threads(1);
        let b = run_with_threads(4);
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.griefed, b.griefed);
        assert_eq!(a.peak_locked_global, b.peak_locked_global);
        assert_eq!(a.peak_in_flight, b.peak_in_flight);
        for (fa, fb) in a.families.iter().zip(&b.families) {
            assert_eq!(fa.family, fb.family);
            assert_eq!(fa.success.hits, fb.success.hits);
            assert_eq!(
                (fa.refunds, fa.stuck, fa.violations),
                (fb.refunds, fb.stuck, fb.violations)
            );
            assert_eq!(fa.latency, fb.latency);
            assert_eq!(fa.peak_locked, fb.peak_locked);
        }
    }

    #[test]
    fn packetized_packets_complete_without_faults() {
        let cfg = small(TopologyFamily::Packetized { paths: 3, hops: 2 }, 30, 9);
        let report = closed_run(&TimeBoundedHarness, &cfg);
        let f = report.family("packetized").unwrap();
        assert!(f.success.is_perfect());
        let p = f.packets.unwrap();
        assert_eq!(p.complete, p.total);
        assert_eq!(p.partial, 0);
    }

    #[test]
    fn heavy_faults_degrade_liveness_never_conservation() {
        let cfg = SimConfig {
            faults: FaultPlan {
                crash_permille: 200,
                late_bob_permille: 100,
                forging_chloe_permille: 100,
                thieving_escrow_permille: 100,
                net: NetFaults {
                    drop_permille: 50,
                    delay_permille: 200,
                    extra_delay: SimDuration::from_millis(5),
                    delay_buckets: 4,
                },
            },
            ..small(TopologyFamily::HubAndSpoke { spokes: 6 }, 128, 3)
        };
        let report = closed_run(&TimeBoundedHarness, &cfg);
        let f = report.family("hub").unwrap();
        assert!(f.byzantine > 0, "the mix must actually inject faults");
        assert!(
            f.success.hits < f.success.total,
            "heavy faults must fail some payments"
        );
        assert!(report.conserved(), "violations: {}", report.violations);
    }

    #[test]
    fn single_instance_runner_is_reusable() {
        let specs =
            workload::generate(&WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 4, 11));
        for spec in &specs {
            let r = run_harness_instance(&TimeBoundedHarness, spec, &FaultPlan::NONE, false);
            assert_eq!(r.outcome, InstanceOutcome::Success);
            assert!(r.lock_profile.is_empty(), "profiling off");
            assert!(r.events > 0);
        }
    }

    #[test]
    fn bursty_arrivals_raise_concurrency() {
        let mk = |arrivals| {
            let mut cfg = small(TopologyFamily::Linear { n: 2 }, 64, 13);
            cfg.workload.arrivals = arrivals;
            cfg
        };
        let spread = closed_run(
            &TimeBoundedHarness,
            &mk(ArrivalProcess::Uniform {
                mean_gap: SimDuration::from_secs(5),
            }),
        );
        let burst = closed_run(
            &TimeBoundedHarness,
            &mk(ArrivalProcess::Bursty {
                burst: 64,
                gap: SimDuration::from_secs(5),
            }),
        );
        assert!(
            burst.peak_in_flight > spread.peak_in_flight,
            "burst {} vs spread {}",
            burst.peak_in_flight,
            spread.peak_in_flight
        );
        assert!(burst.peak_locked_global.unwrap() > spread.peak_locked_global.unwrap());
    }

    #[test]
    fn every_harness_drives_the_same_campaign() {
        let mut cfg = small(TopologyFamily::Linear { n: 2 }, 24, 17);
        // Zero drift: the untuned schedule is only correct on perfect
        // clocks, and this test is about the shared driver, not the
        // baselines' failure regions.
        cfg.workload.max_rho_ppm = (0, 0);
        let tb = closed_run(&TimeBoundedHarness, &cfg);
        let htlc = closed_run(&HtlcHarness, &cfg);
        let untuned = closed_run(&IlpUntunedHarness, &cfg);
        let atomic = closed_run(&IlpAtomicHarness, &cfg);
        let deals = closed_run(&DealsHarness, &cfg);
        for (name, report) in [
            ("timebounded", &tb),
            ("htlc", &htlc),
            ("ilp-untuned", &untuned),
            ("ilp-atomic", &atomic),
            ("deals", &deals),
        ] {
            assert_eq!(report.instances, 24, "{name}");
            assert!(
                report.family("linear").unwrap().success.is_perfect(),
                "{name} must succeed on a faultless drift-free-enough workload: {:?}",
                report.family("linear").unwrap().success
            );
            assert!(report.conserved(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_workload_panics_loudly() {
        let cfg = small(TopologyFamily::Packetized { paths: 3, hops: 2 }, 6, 1);
        let _ = closed_run(&HtlcHarness, &cfg);
    }

    fn bursty_hub(payments: usize, seed: u64) -> SimConfig {
        let mut cfg = small(TopologyFamily::HubAndSpoke { spokes: 4 }, payments, seed);
        cfg.workload.arrivals = ArrivalProcess::Bursty {
            burst: 16,
            gap: SimDuration::from_millis(50),
        };
        cfg
    }

    #[test]
    fn open_unbounded_matches_the_closed_world() {
        let cfg = bursty_hub(64, 41);
        let open = open_run(&cfg, &LiquidityConfig::UNBOUNDED);
        let closed = closed_run(&TimeBoundedHarness, &cfg);
        assert_eq!(open.liquidity.offered, 64);
        assert_eq!(open.liquidity.admitted, 64);
        assert_eq!(open.liquidity.rejected, 0);
        assert_eq!(open.liquidity.queued, 0);
        assert_eq!(open.liquidity.budget_violations, 0);
        assert_eq!(open.sim.rejected, 0);
        let (a, b) = (&open.sim.families[0], &closed.families[0]);
        assert_eq!(a.success.hits, b.success.hits);
        assert_eq!(a.latency, b.latency);
        assert_eq!(open.sim.peak_locked_global, closed.peak_locked_global);
        // The per-venue audit sees real demand even without a budget.
        assert!(open.liquidity.peak_locked_venue > 0);
        assert!(open.liquidity.utilization_ppm.is_none(), "unbounded");
    }

    #[test]
    fn reject_policy_sheds_load_and_conserves_collateral() {
        let cfg = bursty_hub(96, 43);
        // Each payment locks ≤ 10_000 at each of its two venues; a
        // 16-burst over 4 spokes must overrun a 12_000 budget.
        let liq = LiquidityConfig::reject(12_000);
        let open = open_run(&cfg, &liq);
        let l = &open.liquidity;
        assert_eq!(l.offered, 96);
        assert!(l.rejected > 0, "burst must overrun the budget");
        assert_eq!(l.admitted + l.rejected, l.offered);
        assert_eq!(l.queued, 0, "reject never waits");
        assert_eq!(l.budget_violations, 0, "locked ≤ budget always");
        assert!(l.drained, "all collateral returned");
        assert!(l.peak_locked_venue <= l.budget);
        assert!(l.utilization_ppm.unwrap() > 0);
        // Faultless: every admitted payment succeeds, every refused one
        // is Rejected.
        let f = &open.sim.families[0];
        assert_eq!(f.success.hits, l.admitted);
        assert_eq!(f.rejected, l.rejected);
        assert_eq!(open.sim.rejected, l.rejected);
        assert!(l.goodput_value < l.offered_value);
    }

    #[test]
    fn queue_policy_trades_waits_for_admissions() {
        let cfg = bursty_hub(96, 43);
        let reject = open_run(&cfg, &LiquidityConfig::reject(12_000));
        let queue = open_run(
            &cfg,
            &LiquidityConfig::queue(12_000, SimDuration::from_millis(200)),
        );
        let (lr, lq) = (&reject.liquidity, &queue.liquidity);
        assert!(
            lq.admitted > lr.admitted,
            "patience admits more: {} vs {}",
            lq.admitted,
            lr.admitted
        );
        assert!(lq.queued > 0, "some payments waited at the gate");
        assert!(
            lq.wait.as_ref().unwrap().max <= 200_000,
            "no wait exceeds the payer's patience: {:?}",
            lq.wait
        );
        assert_eq!(lq.budget_violations, 0);
        assert!(lq.drained);
        // Waiting shows up in payer-visible latency.
        let (fr, fq) = (&reject.sim.families[0], &queue.sim.families[0]);
        assert!(
            fq.latency.as_ref().unwrap().max > fr.latency.as_ref().unwrap().max,
            "queued starts stretch the latency tail"
        );
    }

    /// The sharded discrete-event engine and the retired two-phase sweep
    /// must agree **bit for bit** whenever no queueing feedback exists:
    /// `Unbounded` (every payment admitted at its arrival) and `Reject`
    /// (admission decided at arrival instants only) — including across
    /// multiple shards (packetized) and under injected faults.
    #[test]
    fn des_engine_matches_the_two_phase_oracle_exactly() {
        let plan = FaultPlan {
            crash_permille: 120,
            late_bob_permille: 60,
            ..FaultPlan::NONE
        };
        let cases = [
            (
                TopologyFamily::HubAndSpoke { spokes: 4 },
                LiquidityConfig::UNBOUNDED,
            ),
            (
                TopologyFamily::HubAndSpoke { spokes: 4 },
                LiquidityConfig::reject(12_000),
            ),
            (
                TopologyFamily::Packetized { paths: 3, hops: 2 },
                LiquidityConfig::reject(9_000),
            ),
        ];
        for (family, liq) in cases {
            let mut cfg = small(family, 96, 43);
            cfg.faults = plan;
            cfg.workload.arrivals = ArrivalProcess::Bursty {
                burst: 16,
                gap: SimDuration::from_millis(50),
            };
            let specs = workload::generate(&cfg.workload);
            let a = run_open(&TimeBoundedHarness, &specs, &cfg, &liq, None).0;
            let b = legacy::run_open_specs_two_phase(&TimeBoundedHarness, &specs, &cfg, &liq);
            let (la, lb) = (&a.liquidity, &b.liquidity);
            let ctx = format!("{family:?} under {}", liq.policy.label());
            assert_eq!(
                (la.offered, la.admitted, la.rejected, la.queued),
                (lb.offered, lb.admitted, lb.rejected, lb.queued),
                "{ctx}"
            );
            assert_eq!(la.wait, lb.wait, "{ctx}");
            assert_eq!(la.rejected_wait, lb.rejected_wait, "{ctx}");
            assert_eq!(la.horizon, lb.horizon, "{ctx}");
            assert_eq!(
                (la.peak_locked_venue, la.peak_reserved_venue),
                (lb.peak_locked_venue, lb.peak_reserved_venue),
                "{ctx}"
            );
            assert_eq!(la.utilization_ppm, lb.utilization_ppm, "{ctx}");
            assert_eq!(
                (la.budget_violations, la.drained),
                (lb.budget_violations, lb.drained),
                "{ctx}"
            );
            assert_eq!(
                (la.goodput_value, la.offered_value),
                (lb.goodput_value, lb.offered_value),
                "{ctx}"
            );
            assert_eq!(a.sim.instances, b.sim.instances, "{ctx}");
            assert_eq!(a.sim.rejected, b.sim.rejected, "{ctx}");
            assert_eq!(a.sim.peak_locked_global, b.sim.peak_locked_global, "{ctx}");
            assert_eq!(a.sim.peak_in_flight, b.sim.peak_in_flight, "{ctx}");
            for (fa, fb) in a.sim.families.iter().zip(&b.sim.families) {
                assert_eq!(fa.success.hits, fb.success.hits, "{ctx}");
                assert_eq!(
                    (fa.refunds, fa.stuck, fa.violations, fa.rejected, fa.griefed),
                    (fb.refunds, fb.stuck, fb.violations, fb.rejected, fb.griefed),
                    "{ctx}"
                );
                assert_eq!(fa.latency, fb.latency, "{ctx}");
                assert_eq!(fa.peak_locked, fb.peak_locked, "{ctx}");
            }
        }
    }

    /// Satellite pin: a rejected payment records its *actual* wasted
    /// wait, never a blanket full-patience charge.
    #[test]
    fn rejected_payments_record_actual_wasted_wait_not_full_patience() {
        // A budget below every demand: the gate turns payments away on
        // the spot, so their recorded wait must be zero even under a
        // generous patience (the retired sweep charged the full patience
        // for every rejection).
        let cfg = bursty_hub(32, 51);
        let starved = open_run(
            &cfg,
            &LiquidityConfig::queue(50, SimDuration::from_millis(40)),
        );
        let l = &starved.liquidity;
        assert_eq!(l.admitted, 0, "nothing fits a 50-unit budget");
        assert_eq!(l.rejected, 32);
        let rw = l.rejected_wait.as_ref().unwrap();
        assert_eq!((rw.min, rw.max), (0, 0), "turned away instantly");
        assert!(l.wait.is_none(), "no admitted payment ever queued");

        // With a workable budget, a queue-policy rejection only happens
        // at its patience expiry: the wasted wait is exactly the
        // patience, not more.
        let tight = open_run(
            &cfg,
            &LiquidityConfig::queue(12_000, SimDuration::from_millis(2)),
        );
        let lt = &tight.liquidity;
        assert!(lt.rejected > 0, "a 16-burst must overrun 12_000 in 2ms");
        let rw = lt.rejected_wait.as_ref().unwrap();
        assert_eq!(
            (rw.min, rw.max),
            (2_000, 2_000),
            "an expiry consumes exactly the patience"
        );

        // The two-phase oracle, post-fix, clamps a rejection's wait to
        // the time actually spent blocked — early turn-aways keep their
        // shorter wait.
        let specs = workload::generate(&cfg.workload);
        let oracle = legacy::run_open_specs_two_phase(
            &TimeBoundedHarness,
            &specs,
            &cfg,
            &LiquidityConfig::queue(12_000, SimDuration::from_millis(2)),
        );
        let lo = &oracle.liquidity;
        assert!(lo.rejected > 0);
        let rw = lo.rejected_wait.as_ref().unwrap();
        assert!(rw.max <= 2_000, "never above the patience: {rw:?}");
        assert!(
            rw.min < 2_000,
            "some payer was refused before its deadline and keeps its \
             actual wait: {rw:?}"
        );
    }

    #[test]
    fn open_mode_success_is_monotone_in_offered_load() {
        // Same traffic, compressed arrivals: success (= admission) rate
        // must not increase with offered load under a fixed budget.
        let rates: Vec<f64> = [2_000u64, 500, 125]
            .iter()
            .map(|&gap_us| {
                let mut cfg = small(TopologyFamily::HubAndSpoke { spokes: 4 }, 128, 47);
                cfg.workload.arrivals = ArrivalProcess::Uniform {
                    mean_gap: SimDuration::from_ticks(gap_us),
                };
                let open = open_run(&cfg, &LiquidityConfig::reject(20_000));
                assert_eq!(open.liquidity.budget_violations, 0);
                open.liquidity.admitted as f64 / open.liquidity.offered as f64
            })
            .collect();
        assert!(
            rates.windows(2).all(|w| w[1] <= w[0]),
            "admission rate must fall with load: {rates:?}"
        );
        assert!(
            rates[2] < rates[0],
            "an 16× load compression must actually bite: {rates:?}"
        );
    }
}
