//! The sharded discrete-event open-system engine.
//!
//! One discrete-event simulation per shard: arrivals,
//! admission/queueing, lock/release and patience expiry are all in-band
//! events against the carried [`LiquidityBook`], so payments genuinely
//! interleave on shared escrows.
//!
//! Parallelism comes from **venue sharding**. Two payments can only
//! contend when their routes share a venue, so the venue set is
//! partitioned into connected components of the "routes overlap" graph
//! (union-find over every spec's [`VenueRoute`]); each component is one
//! *shard* with its own event heap, FIFO admission gate and
//! [`LiquidityBook::shard_view`]. Shards share nothing, so they run on
//! the worker pool ([`experiments::parallel_map`]) and merge
//! deterministically — shard order is first-arrival order, per-spec
//! results go back to spec order, and [`LiquidityBook::merge`] sums the
//! disjoint per-venue columns — which keeps the report **bit-identical
//! across thread counts**. A hub workload is one shard (every route
//! crosses the hub: contention is genuinely sequential); packetized
//! workloads split into one shard per path and scale near-linearly.
//!
//! Event ordering is total and payload-free: `(time, rank, seq)` with
//! ranks unlock < unreserve < rebalance < lock < arrival < expiry, and
//! `seq` (push order) the sole remaining tiebreaker. In-flight events
//! wait in an [`EventQueue`], keyed by two packed words. Arrivals are a
//! cursor over the arrival-sorted members, merged with the queue on
//! `(time, rank)`: no queued event has the arrival rank, so none ties.
//!
//! **One gate, two ways to poll it.** An arrival at an empty gate, and
//! the gate's head on every reservation return, expiry and rebalance,
//! *polls* the book: which legs would the payment run if admitted now?
//! A static-route payment has one leg, its own spec, whenever its demand
//! [`LiquidityBook::fits`]. For the network families
//! ([`TopologyFamily::ScaleFree`] / [`TopologyFamily::SmallWorld`], see
//! `crate::workload`), passing a [`RoutingConfig`] makes the poll live
//! pathfinding instead: a [`Router`] looks for the cheapest feasible
//! path against the *current* book, then for a venue-disjoint split, so
//! payments route around drained venues, and each path is a leg.
//! Everything after the poll is shared — an admission runs one protocol
//! instance per leg and folds them onto the first, a failed poll queues
//! or rejects. The mode still decides settlement: a successful routed
//! payment *consumes* the liquidity it moved, until an optional periodic
//! [`EventKind::Rebalance`] flow restores it. Dynamic routes destroy
//! venue-disjointness, so a routed run is one shard — trivially
//! bit-identical across thread counts, with the router's deterministic
//! tie-breaking keeping route choice a pure function of the inputs.
//!
//! **The gate polls only when its inputs changed.** Either poll reads
//! the book only through venue loads (`reserved + spent`), and a
//! successful routed settlement turns a reservation into spend and
//! leaves every load where it was — 81 % of the searches the
//! benchmark's `routed_net` workload used to run came from those. The
//! shard remembers the head whose poll last failed and the
//! [`LiquidityBook::load_version`] it failed at, and skips the poll
//! while both stand: no change in credit, no change in feasibility —
//! exact in both modes and for splits, and cross-checked by a
//! `debug_assert!` that re-runs every skipped poll.
//! [`RoutingStats::pathfind_calls`] therefore counts searches executed.
//! What a routed run still pays beyond a static one is its searches and
//! the protocol instance, run inline on the DES thread at admission. A
//! search grows balls from both ends and meets in the middle (see
//! [`Router`]): on 1 024-venue scale-free networks it reads ≈ 117
//! adjacency entries, where a one-sided sweep read ≈ 499.

use crate::faults::FaultPlan;
use crate::metrics::{LiquidityStats, OpenTelemetry, RoutingStats, VenueEvents};
use crate::runner::{run_instance_isolated, SimConfig};
use crate::workload::{PaymentSpec, ValuePlan, VenueRoute};
use anta::queue::EventQueue;
use anta::time::SimTime;
use experiments::parallel_map;
use experiments::stats::Summary;
use protocol::harness::{sample_instance_faults, HarnessRun, ProtocolHarness};
use protocol::liquidity::{AdmissionPolicy, LiquidityBook, LiquidityConfig};
use protocol::network::{GraphFamily, Router, RoutingConfig, VenueGraph};
use protocol::ProtocolOutcome;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

/// Same-instant event ranks: actual unlocks settle first (the audit never
/// overstates a venue's simultaneous locked value), reservation returns
/// free gate capacity next, then rebalancing flows (a restore at `t`
/// sees every release that settled at `t`), then actual locks, then
/// arrivals (so a release at time `t` is visible to a payment arriving
/// at `t`), and a patience expiry loses to everything — a release at
/// exactly the deadline still admits.
pub(crate) const RANK_UNLOCK: u8 = 0;
pub(crate) const RANK_UNRESERVE: u8 = 1;
pub(crate) const RANK_REBALANCE: u8 = 2;
pub(crate) const RANK_LOCK: u8 = 3;
const RANK_ARRIVAL: u8 = 4;
const RANK_EXPIRY: u8 = 5;

/// What a queued event does to its shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Audited lock (`delta > 0`) or unlock (`delta < 0`) at a venue.
    Book {
        /// Global venue id.
        venue: u32,
        /// Signed locked-value delta.
        delta: i64,
    },
    /// A reservation return at a venue (frees admission capacity).
    Unreserve {
        /// Global venue id.
        venue: u32,
        /// Reserved amount being returned.
        amount: u64,
        /// Liquidity permanently spent at the venue when the reservation
        /// settles (a routed payment that *succeeded* moved value off the
        /// venue; zero for failures and for non-routed runs, which model
        /// collateral as returning intact).
        consume: u64,
    },
    /// A queued payment's patience runs out.
    Expiry {
        /// Index into the shard's member list.
        local: u32,
    },
    /// A periodic circular rebalancing flow: restores every venue's spent
    /// liquidity and reschedules itself one period later (routed mode
    /// only, and only while undecided payments remain).
    Rebalance,
}

/// Partitions the specs into venue-disjoint shards: union-find over each
/// route's venues, then one shard per connected component, ordered by
/// first arrival (specs are arrival-sorted, so the scan order is the
/// arrival order). Returns each shard's spec indices, in spec order.
pub(crate) fn shard_specs(specs: &[PaymentSpec], venues_hint: usize) -> Vec<Vec<usize>> {
    let max_venue = specs
        .iter()
        .filter_map(|s| s.venues.max_venue())
        .max()
        .map(|v| v as usize + 1)
        .unwrap_or(0);
    let n = venues_hint.max(max_venue).max(1);
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            // Path halving keeps the forest shallow without a rank array.
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for spec in specs {
        let mut venues = spec.venues.venues.iter();
        if let Some(&first) = venues.next() {
            let root = find(&mut parent, first);
            for &v in venues {
                let r = find(&mut parent, v);
                if r != root {
                    parent[r as usize] = root;
                }
            }
        }
    }
    let mut shard_of_root: BTreeMap<u32, usize> = BTreeMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let first = spec.venues.venues.first().copied().unwrap_or(0);
        let root = find(&mut parent, first);
        let shard = *shard_of_root.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[shard].push(i);
    }
    members
}

/// What the admission gate counts: one per shard, folded in shard order
/// by [`GateTally::absorb`] for the run.
#[derive(Default)]
struct GateTally {
    admitted: usize,
    rejected: usize,
    queued: usize,
    /// Gate waits of admitted queued payments (ticks).
    waits: Vec<u64>,
    /// Wasted waits of rejected payments (ticks).
    rejected_waits: Vec<u64>,
    /// Last event or decision instant.
    horizon: SimTime,
    goodput_value: u64,
    offered_value: u64,
    /// Per-venue activity counters, keyed by global venue id. Shards are
    /// venue-disjoint, so absorbing one is a plain union.
    venue_events: BTreeMap<u32, VenueEvents>,
}

impl GateTally {
    fn absorb(&mut self, other: GateTally) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.queued += other.queued;
        self.waits.extend(other.waits);
        self.rejected_waits.extend(other.rejected_waits);
        self.horizon = self.horizon.max(other.horizon);
        self.goodput_value += other.goodput_value;
        self.offered_value += other.offered_value;
        for (venue, ev) in other.venue_events {
            self.venue_events.entry(venue).or_default().absorb(&ev);
        }
    }
}

/// Everything one shard reports back for the deterministic merge.
struct ShardOutcome {
    /// `(spec index, result)` for every member, in spec order.
    results: Vec<(usize, HarnessRun)>,
    /// The shard's liquidity columns (zeros outside its venues).
    book: LiquidityBook,
    tally: GateTally,
    /// Pathfinder counters (routed mode only).
    routing: Option<RoutingStats>,
}

/// The live-routing side of a shard: the venue network, the pathfinder
/// scratch, the knobs, and the countdown that stops rebalancing from
/// rescheduling forever once every payment has decided.
struct RoutedState {
    graph: VenueGraph,
    router: Router,
    cfg: RoutingConfig,
    /// Payments not yet admitted or rejected.
    undecided: usize,
    stats: RoutingStats,
}

impl RoutedState {
    fn new(family: GraphFamily, seed: u64, cfg: RoutingConfig, undecided: usize) -> Self {
        RoutedState {
            // Same family + same seed as workload generation: the router
            // sees exactly the network the specs' endpoints were drawn on.
            graph: VenueGraph::generate(family, seed),
            router: Router::new(),
            cfg,
            undecided,
            stats: RoutingStats::default(),
        }
    }
}

/// One shard's live simulation state: the arrival cursor, the in-flight
/// event queue, the FIFO admission gate and a shard-local liquidity view.
struct ShardSim<'a, H: ProtocolHarness> {
    harness: &'a H,
    specs: &'a [PaymentSpec],
    /// Spec indices of this shard's payments, in arrival order.
    members: &'a [usize],
    plan: &'a FaultPlan,
    policy: AdmissionPolicy,
    book: LiquidityBook,
    /// The next member to arrive: `members[arrived..]` have not.
    arrived: usize,
    events: EventQueue<EventKind>,
    /// FIFO admission gate: shard-local indices of waiting payments.
    queue: VecDeque<u32>,
    /// The gate memo: the head whose poll last failed, and the book's
    /// [`LiquidityBook::load_version`] it failed at. A poll reads the
    /// book only through venue loads, so while that head still leads the
    /// queue and the version stands, polling again must fail again —
    /// `drain_queue` skips it. A decided payment never re-enters the
    /// queue, so a stale entry can never match a later head.
    blocked: Option<(u32, u64)>,
    decided: Vec<bool>,
    /// Per-member collateral demand (`VenueRoute::demand`).
    demands: Vec<Vec<(u32, u64)>>,
    results: Vec<Option<HarnessRun>>,
    tally: GateTally,
    /// Live-routing state (`None` for static-route runs).
    routed: Option<RoutedState>,
}

/// The payee-visible value of a payment (its final-hop amount).
fn delivered(spec: &PaymentSpec) -> u64 {
    spec.plan.amounts.last().map(|a| a.amount).unwrap_or(0)
}

impl<'a, H: ProtocolHarness> ShardSim<'a, H> {
    fn new(
        harness: &'a H,
        specs: &'a [PaymentSpec],
        members: &'a [usize],
        plan: &'a FaultPlan,
        policy: AdmissionPolicy,
        template: &LiquidityBook,
        routed: Option<RoutedState>,
    ) -> Self {
        let mut sim = ShardSim {
            harness,
            specs,
            members,
            plan,
            policy,
            book: template.shard_view(),
            arrived: 0,
            events: EventQueue::default(),
            queue: VecDeque::new(),
            blocked: None,
            decided: vec![false; members.len()],
            demands: members
                .iter()
                .map(|&si| specs[si].venues.demand(&specs[si].plan))
                .collect(),
            results: members.iter().map(|_| None).collect(),
            tally: GateTally::default(),
            routed,
        };
        let period = sim.routed.as_ref().map(|rt| rt.cfg.rebalance_period);
        if let Some(period) = period.filter(|p| !p.is_zero()) {
            let first = SimTime::ZERO + period;
            sim.events.push(first, RANK_REBALANCE, EventKind::Rebalance);
        }
        sim
    }

    /// Drives the shard to quiescence and reports. The next arrival
    /// dispatches unless a queued event sorts before it on `(time, rank)`.
    fn run(mut self) -> ShardOutcome {
        loop {
            let queued = self.events.peek().map(|(time, rank, _)| (time, rank));
            if let Some(&si) = self.members.get(self.arrived) {
                let at = self.specs[si].arrival;
                if queued.map_or(true, |q| (at, RANK_ARRIVAL) < q) {
                    self.arrived += 1;
                    self.on_arrival(self.arrived as u32 - 1, at);
                    continue;
                }
            }
            let Some((time, kind)) = self.events.pop() else {
                break;
            };
            match kind {
                EventKind::Book { venue, delta } => {
                    self.book.apply_lock(time, venue, delta);
                    let ve = self.tally.venue_events.entry(venue).or_default();
                    if delta < 0 {
                        ve.releases += 1;
                    } else {
                        ve.locks += 1;
                    }
                    self.tally.horizon = self.tally.horizon.max(time);
                }
                EventKind::Unreserve {
                    venue,
                    amount,
                    consume,
                } => {
                    // A successful routed payment moved value off this
                    // venue: `consume` of it stays spent until a
                    // rebalancing flow restores it.
                    self.book.settle(venue, amount, consume);
                    self.tally.horizon = self.tally.horizon.max(time);
                    // Capacity may have come back: the gate's head may now fit.
                    self.drain_queue(time);
                }
                EventKind::Expiry { local } => self.on_expiry(local, time),
                EventKind::Rebalance => self.on_rebalance(time),
            }
        }
        debug_assert!(
            self.queue.is_empty(),
            "every queued payment decides by its expiry event"
        );
        self.book.finish(self.tally.horizon);
        ShardOutcome {
            results: self
                .members
                .iter()
                .zip(self.results)
                .map(|(&si, r)| (si, r.expect("every member admitted, rejected or expired")))
                .collect(),
            book: self.book,
            tally: self.tally,
            routing: self.routed.as_ref().map(|rt| rt.stats),
        }
    }

    /// FIFO gate: an arrival at an empty gate polls the book and is
    /// admitted on the spot if the poll finds legs; a non-empty gate
    /// means the head gets the next shot at the book, not this arrival.
    fn on_arrival(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        self.tally.offered_value += delivered(&self.specs[self.members[li]]);
        if self.queue.is_empty() {
            if let Some(legs) = self.poll(li, true) {
                self.admit(local, t, legs);
                return;
            }
            // Should it queue, this arrival is the head and has had its poll.
            self.blocked = Some((local, self.book.load_version()));
        }
        let can_wait = self.can_wait(li);
        self.enqueue_or_reject(local, t, can_wait);
    }

    /// Whether waiting could ever admit member `li`: capacity must be
    /// able to come back — a reservation return (bounded gate) or a
    /// rebalancing flow — and the least a poll could ask of one venue
    /// must fit it *idle*: a static demand, or the smallest split share
    /// of a routed payment.
    fn can_wait(&self, li: usize) -> bool {
        let Some(rt) = &self.routed else {
            return self.policy.bounded() && self.book.could_ever_fit(&self.demands[li]);
        };
        let amount = delivered(&self.specs[self.members[li]]);
        let min_share = amount.div_ceil(rt.cfg.max_split.max(1) as u64);
        (self.policy.bounded() || !rt.cfg.rebalance_period.is_zero())
            && self.book.could_ever_fit(&[(0, min_share)])
    }

    /// The tail of every arrival that was not admitted on the spot: when
    /// waiting `can_help` and the payer has any patience, join the FIFO
    /// gate with an expiry at arrival + patience; otherwise be refused
    /// now, with zero wasted wait.
    fn enqueue_or_reject(&mut self, local: u32, t: SimTime, can_help: bool) {
        let patience = self.policy.max_wait();
        if can_help && !patience.is_zero() {
            self.queue.push_back(local);
            let arrival = self.specs[self.members[local as usize]].arrival;
            let deadline = arrival.saturating_add(patience);
            self.events
                .push(deadline, RANK_EXPIRY, EventKind::Expiry { local });
        } else {
            self.reject(local, t);
        }
    }

    /// One rebalancing flow: restore every venue's spent liquidity, give
    /// the gate's head a fresh shot, and reschedule one period later —
    /// but only while undecided payments remain, so the heap drains once
    /// the campaign is over. The horizon is deliberately *not* advanced:
    /// rebalancing is background plumbing, not payment activity.
    fn on_rebalance(&mut self, t: SimTime) {
        let period = match &self.routed {
            Some(rt) if !rt.cfg.rebalance_period.is_zero() && rt.undecided > 0 => {
                rt.cfg.rebalance_period
            }
            _ => return,
        };
        let restored = self.book.restore_all();
        if let Some(rt) = self.routed.as_mut() {
            rt.stats.rebalances += 1;
            rt.stats.restored_value += restored;
        }
        self.drain_queue(t);
        let next = t.saturating_add(period);
        self.events.push(next, RANK_REBALANCE, EventKind::Rebalance);
    }

    /// The legs member `li` would run if admitted against the current
    /// book, or `None` when nothing fits right now, and the number of
    /// pathfinder searches that took. A static payment's one leg is its
    /// own spec, borrowed, when its demand fits. A routed payment asks
    /// the router for a single cheapest path first, then venue-disjoint
    /// splits of increasing width, and runs one sub-spec per path.
    fn find_legs(&mut self, li: usize) -> (Option<Vec<Cow<'a, PaymentSpec>>>, u64) {
        let specs = self.specs;
        let spec = &specs[self.members[li]];
        let Some(rt) = self.routed.as_mut() else {
            let fits = self.book.fits(&self.demands[li]);
            return (fits.then(|| vec![Cow::Borrowed(spec)]), 0);
        };
        let (src, dst) = spec.endpoints.expect(
            "routing is armed only for network families, whose generated specs all carry endpoints",
        );
        let amount = delivered(spec);
        let (g, hops, book) = (&rt.graph, rt.cfg.max_hops, &self.book);
        let mut searches = 1;
        let mut paths = rt
            .router
            .route(g, src, dst, amount, hops, book)
            .map(|path| vec![(path, amount)]);
        for parts in 2..=rt.cfg.max_split {
            if paths.is_some() {
                break;
            }
            searches += 1;
            paths = rt
                .router
                .route_multi(g, src, dst, amount, parts, hops, book);
        }
        // Per-leg salted seeds keep legs independent; salt 0 for leg 0,
        // so a single-path admission replays the exact static-route faults.
        const SPLIT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
        let legs = paths.map(|paths| {
            paths
                .into_iter()
                .enumerate()
                .map(|(j, (path, share))| {
                    Cow::Owned(PaymentSpec {
                        id: spec.id,
                        family: spec.family,
                        arrival: spec.arrival,
                        n: path.hops(),
                        plan: ValuePlan::uniform(path.hops(), share),
                        params: spec.params,
                        seed: spec.seed ^ SPLIT_SEED_SALT.wrapping_mul(j as u64),
                        packet: spec.packet,
                        route: spec.route,
                        venues: path,
                        endpoints: spec.endpoints,
                    })
                })
                .collect()
        });
        (legs, searches)
    }

    /// One counted poll of the gate. `at_arrival` distinguishes a
    /// payment's first attempt (counted as `no_path` on a failed routed
    /// poll) from gate re-polls (not counted).
    fn poll(&mut self, li: usize, at_arrival: bool) -> Option<Vec<Cow<'a, PaymentSpec>>> {
        let (legs, searches) = self.find_legs(li);
        if let Some(rt) = self.routed.as_mut() {
            rt.stats.pathfind_calls += searches;
            if legs.is_none() && at_arrival {
                rt.stats.no_path += 1;
            }
        }
        legs
    }

    /// Runs an admitted payment: one deterministic instance per leg,
    /// folded onto the first leg's result — Success only when every leg
    /// succeeds, worst outcome otherwise; latency is the slowest leg,
    /// peaks and event counts sum, lock events concatenate with each
    /// leg's hops offset past the previous legs' (matching the combined
    /// route, so the venue lookup stays a plain index). A single leg is
    /// its own result. Only then are the book events scheduled, because
    /// the settlement's `consume` depends on the folded outcome.
    fn admit(&mut self, local: u32, t: SimTime, legs: Vec<Cow<'a, PaymentSpec>>) {
        if let Some(rt) = self.routed.as_mut() {
            rt.stats.routed += 1;
            if legs.len() > 1 {
                rt.stats.split += 1;
            } else if legs[0].venues != self.specs[self.members[local as usize]].venues {
                rt.stats.rerouted += 1;
            }
        }
        fn severity(o: ProtocolOutcome) -> u8 {
            match o {
                ProtocolOutcome::Violation => 4,
                ProtocolOutcome::Failed => 3,
                ProtocolOutcome::Stuck => 2,
                ProtocolOutcome::Refund => 1,
                _ => 0,
            }
        }
        let mut legs = legs.into_iter();
        let first = legs.next().expect("a poll that admits yields a leg");
        let mut r = run_instance_isolated(self.harness, &first, self.plan, true);
        let mut route = match first {
            Cow::Borrowed(spec) => Cow::Borrowed(&spec.venues),
            Cow::Owned(spec) => Cow::Owned(spec.venues),
        };
        for leg in legs {
            let lr = run_instance_isolated(self.harness, &leg, self.plan, true);
            if severity(lr.outcome) > severity(r.outcome) {
                r.outcome = lr.outcome;
            }
            r.griefed |= lr.griefed;
            r.latency = r.latency.max(lr.latency);
            r.peak_locked += lr.peak_locked;
            r.events += lr.events;
            let venues = &mut route.to_mut().venues;
            let offset = venues.len() as u32;
            let shifted = lr
                .lock_profile
                .iter()
                .map(|&(te, hop, dv)| (te, hop + offset, dv));
            r.lock_profile.extend(shifted);
            venues.extend_from_slice(&leg.venues.venues);
        }
        self.commit_admission(local, t, &route, r);
    }

    /// What every admission does once the payment's run is in hand:
    /// count it, shift the run by its gate wait, schedule one
    /// [`EventKind::Book`] event per lock event, and — under a bounded
    /// policy — reserve each venue's measured peak until its last lock
    /// event. `route` maps the profile's hops to venues.
    ///
    /// The mode decides the rest. A settled reservation of a *successful*
    /// payment stays spent (routed) or returns intact (static). The
    /// admission counts in [`VenueEvents`] at every venue of the spec's
    /// static demand — what a static poll decided on — or, routed, at
    /// every venue that saw a lock event.
    fn commit_admission(&mut self, local: u32, t: SimTime, route: &VenueRoute, mut r: HarnessRun) {
        let li = local as usize;
        let routed = self.routed.is_some();
        self.decided[li] = true;
        self.tally.admitted += 1;
        self.tally.horizon = self.tally.horizon.max(t);
        self.note_decided();
        let spec = &self.specs[self.members[li]];
        let wait = t.saturating_since(spec.arrival);
        let waited = !wait.is_zero();
        if waited {
            self.tally.queued += 1;
            self.tally.waits.push(wait.ticks());
            // A delayed start shifts the whole (deterministic) run by the
            // wait, payer-visible latency included.
            for ev in r.lock_profile.iter_mut() {
                ev.0 += wait;
            }
            r.latency += wait;
        }
        // Schedule the audit stream and measure the per-venue footprint:
        // net and peak locked (the reservation) and last event (its
        // release).
        let mut per_venue: BTreeMap<u32, (i64, i64, SimTime)> = BTreeMap::new();
        for &(te, hop, dv) in r.lock_profile.iter() {
            let Some(venue) = route.venue(hop as usize) else {
                continue;
            };
            let e = per_venue.entry(venue).or_insert((0, 0, te));
            e.0 += dv;
            e.1 = e.1.max(e.0);
            e.2 = e.2.max(te);
            let rank = if dv < 0 { RANK_UNLOCK } else { RANK_LOCK };
            self.events
                .push(te, rank, EventKind::Book { venue, delta: dv });
        }
        let mut count = |venue: u32| {
            let ve = self.tally.venue_events.entry(venue).or_default();
            ve.admitted += 1;
            if waited {
                ve.queued += 1;
            }
        };
        if routed {
            per_venue.keys().for_each(|&venue| count(venue));
        } else {
            self.demands[li].iter().for_each(|&(venue, _)| count(venue));
        }
        let success = r.outcome == ProtocolOutcome::Success;
        let spends = success && routed;
        if self.policy.bounded() {
            for (&venue, &(_, peak, last)) in &per_venue {
                if peak > 0 {
                    self.book.reserve(venue, peak as u64);
                    self.events.push(
                        last,
                        RANK_UNRESERVE,
                        EventKind::Unreserve {
                            venue,
                            amount: peak as u64,
                            consume: if spends { peak as u64 } else { 0 },
                        },
                    );
                }
            }
        }
        if success {
            self.tally.goodput_value += delivered(spec);
        }
        self.results[li] = Some(r);
    }

    /// Routed mode tracks how many payments are still undecided so the
    /// rebalance event knows when to stop rescheduling itself.
    fn note_decided(&mut self) {
        if let Some(rt) = self.routed.as_mut() {
            rt.undecided -= 1;
        }
    }

    fn on_expiry(&mut self, local: u32, t: SimTime) {
        if self.decided[local as usize] {
            return; // Admitted before the deadline: the expiry is stale.
        }
        self.queue.retain(|&q| q != local);
        self.reject(local, t);
        // An expired head unblocks the payments waiting behind it.
        self.drain_queue(t);
    }

    /// Admits from the gate's head while its polls find legs (FIFO: a
    /// blocked head blocks everyone behind it, whatever they demand) —
    /// unless the gate memo says that head already failed against this
    /// very book.
    fn drain_queue(&mut self, t: SimTime) {
        while let Some(&head) = self.queue.front() {
            let poll = Some((head, self.book.load_version()));
            if self.blocked == poll {
                debug_assert!(
                    self.find_legs(head as usize).0.is_none(),
                    "the book's loads did not move, so the head's poll must fail again"
                );
                break;
            }
            match self.poll(head as usize, false) {
                Some(legs) => {
                    self.queue.pop_front();
                    self.admit(head, t, legs);
                }
                None => {
                    self.blocked = poll;
                    break;
                }
            }
        }
    }

    fn reject(&mut self, local: u32, t: SimTime) {
        let li = local as usize;
        self.decided[li] = true;
        self.tally.rejected += 1;
        self.tally.horizon = self.tally.horizon.max(t);
        self.note_decided();
        let spec = &self.specs[self.members[li]];
        // The payment never starts: no locks, no run, only the payer's
        // *actual* wasted patience (zero for an on-the-spot refusal).
        let wasted = t.saturating_since(spec.arrival).min(self.policy.max_wait());
        for &(venue, _) in &self.demands[li] {
            let ve = self.tally.venue_events.entry(venue).or_default();
            ve.rejected += 1;
            if !wasted.is_zero() {
                ve.expired += 1;
            }
        }
        self.tally.rejected_waits.push(wasted.ticks());
        self.results[li] = Some(HarnessRun::never_ran(
            ProtocolOutcome::Rejected,
            sample_instance_faults(self.harness, spec, self.plan),
            wasted,
        ));
    }
}

/// The unaggregated outcome of one open-system run: spec-ordered rows,
/// the liquidity stats, and the raw wait samples the stats summarized —
/// the campaign layer folds all of these into its streaming sketches
/// instead of materializing a [`crate::metrics::SimReport`] per epoch.
pub(crate) struct OpenRaw {
    /// Per-instance rows, in spec order.
    pub results: Vec<HarnessRun>,
    /// The epoch's liquidity-side statistics.
    pub liquidity: LiquidityStats,
    /// Gate waits of admitted-but-queued payments (ticks), merge order.
    pub waits: Vec<u64>,
    /// Wasted waits of rejected payments (ticks), merge order.
    pub rejected_waits: Vec<u64>,
    /// The per-venue sidecar (end-of-run samples, DES activity counters,
    /// pathfinder counters): what `run_open` returns beside the report
    /// and the campaign keeps for its per-epoch venue series.
    pub telemetry: OpenTelemetry,
}

/// The engine behind [`crate::runner::run_open`] and the campaign
/// layer's open epochs: shards the venue set, runs one discrete-event
/// simulation per shard on the worker pool, and merges deterministically
/// (see the module docs and [`OpenRaw`]).
///
/// `routing` switches on liquidity-aware admission-time pathfinding; it
/// only takes effect for workloads whose family carries a venue network
/// ([`crate::workload::TopologyFamily::graph`]). A routed run is a
/// single shard: dynamic routes may touch any venue, so venue-disjoint
/// sharding is impossible — and a single shard is trivially
/// bit-identical across thread counts.
pub(crate) fn run_open_specs_raw<H: ProtocolHarness>(
    harness: &H,
    specs: &[PaymentSpec],
    cfg: &SimConfig,
    liq: &LiquidityConfig,
    routing: Option<&RoutingConfig>,
) -> OpenRaw {
    assert!(
        harness.supports(&cfg.workload),
        "{} does not support this workload ({:?}); gate on supports()",
        harness.name(),
        cfg.workload.family,
    );
    assert!(
        specs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "open-system admission needs arrival-ordered specs"
    );
    let venues = cfg.workload.family.venues();
    let routed_cfg: Option<(RoutingConfig, GraphFamily)> =
        routing.and_then(|rc| cfg.workload.family.graph().map(|fam| (*rc, fam)));
    let members = if routed_cfg.is_some() {
        vec![(0..specs.len()).collect::<Vec<usize>>()]
    } else {
        shard_specs(specs, venues)
    };
    let template = LiquidityBook::new(liq, venues);
    let seed = cfg.workload.seed;
    let outcomes: Vec<ShardOutcome> = parallel_map(&members, cfg.threads, |shard| {
        let routed = routed_cfg.map(|(rc, fam)| RoutedState::new(fam, seed, rc, shard.len()));
        ShardSim::new(
            harness,
            specs,
            shard,
            &cfg.faults,
            liq.policy,
            &template,
            routed,
        )
        .run()
    });

    // Deterministic merge: shard outcomes arrive in shard order whatever
    // the thread count, per-spec results go back to spec order, and the
    // venue-disjoint book columns sum.
    let mut book = template;
    let mut per_spec: Vec<Option<HarnessRun>> = specs.iter().map(|_| None).collect();
    let mut tally = GateTally::default();
    let mut routing_stats: Option<RoutingStats> = routed_cfg.map(|_| RoutingStats::default());
    for shard in outcomes {
        tally.absorb(shard.tally);
        if let (Some(acc), Some(rs)) = (routing_stats.as_mut(), shard.routing.as_ref()) {
            acc.absorb(rs);
        }
        book.merge(&shard.book);
        for (si, r) in shard.results {
            debug_assert!(per_spec[si].is_none(), "spec {si} decided twice");
            per_spec[si] = Some(r);
        }
    }
    book.finish(tally.horizon);

    let horizon = tally.horizon.saturating_since(SimTime::ZERO);
    let liquidity = LiquidityStats {
        offered: specs.len(),
        admitted: tally.admitted,
        rejected: tally.rejected,
        queued: tally.queued,
        wait: Summary::of(&tally.waits),
        rejected_wait: Summary::of(&tally.rejected_waits),
        shards: members.len(),
        horizon,
        budget: book.budget(),
        venues: book.venues(),
        peak_locked_venue: book.peak_locked_venue(),
        peak_reserved_venue: book.peak_reserved_venue(),
        utilization_ppm: book.utilization_ppm(horizon),
        budget_violations: book.violations(),
        drained: book.drained(),
        goodput_value: tally.goodput_value,
        offered_value: tally.offered_value,
    };
    let results: Vec<HarnessRun> = per_spec
        .into_iter()
        .map(|r| r.expect("the shards partition the specs and each decides all its members"))
        .collect();
    OpenRaw {
        results,
        liquidity,
        waits: tally.waits,
        rejected_waits: tally.rejected_waits,
        telemetry: OpenTelemetry {
            venues: book.venue_samples(),
            venue_events: tally.venue_events.into_iter().collect(),
            routing: routing_stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};
    use anta::time::SimDuration;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// One shard of `members` over `specs` under `liq`, routed when
    /// `routing` is given.
    fn shard<'a>(
        specs: &'a [PaymentSpec],
        members: &'a [usize],
        family: TopologyFamily,
        liq: &LiquidityConfig,
        routing: Option<RoutingConfig>,
    ) -> ShardSim<'a, protocol::TimeBoundedHarness> {
        let template = LiquidityBook::new(liq, family.venues());
        let routed = routing.map(|rc| {
            let graph = family
                .graph()
                .expect("a routed shard needs a network family");
            RoutedState::new(graph, 5, rc, members.len())
        });
        ShardSim::new(
            &protocol::TimeBoundedHarness,
            specs,
            members,
            &FaultPlan::NONE,
            liq.policy,
            &template,
            routed,
        )
    }

    /// Everything that can happen at one instant `T`. The gate reads the
    /// book only through venue loads, so where an arrival falls among the
    /// instant's events shows in what its first poll sees: a routed poll
    /// that fails at arrival counts one `no_path`. Book events never move
    /// a load, so their place relative to an arrival cannot show in any
    /// outcome; their own order shows in the audit (an unlock before a
    /// lock keeps the venue's peak at zero).
    #[test]
    fn one_instant_dispatches_returns_then_arrivals_in_spec_order_then_expiries() {
        let family = TopologyFamily::ScaleFree {
            venues: 64,
            attach: 2,
        };
        let at_t = t(1_000_000);
        let patience = SimDuration::from_ticks(1_000);
        let budget = 1 << 40;
        let liq = LiquidityConfig::queue(budget, patience);
        let venues = family.venues() as u32;
        let mut specs = workload::generate(&WorkloadConfig::new(family, 2, 5));
        specs[0].arrival = SimTime::from_ticks(at_t.ticks() - patience.ticks());
        specs[1].arrival = at_t;
        let never = RoutingConfig::new();

        // An arrival sees the instant's reservation returns.
        let mut sim = shard(&specs, &[1], family, &liq, Some(never));
        for venue in 0..venues {
            sim.book.reserve(venue, budget);
            sim.events.push(
                at_t,
                RANK_UNRESERVE,
                EventKind::Unreserve {
                    venue,
                    amount: budget,
                    consume: 0,
                },
            );
        }
        let out = sim.run();
        assert_eq!(out.routing.unwrap().no_path, 0, "returns come first");
        assert_eq!(out.results[0].1.outcome, ProtocolOutcome::Success);
        assert_eq!(out.tally.queued, 0);

        // An arrival sees the instant's rebalancing flow.
        let period = RoutingConfig::with_rebalance(SimDuration::from_ticks(1 << 40));
        let mut sim = shard(&specs, &[1], family, &liq, Some(period));
        for venue in 0..venues {
            sim.book.reserve(venue, budget);
            sim.book.settle(venue, budget, budget);
        }
        sim.events.push(at_t, RANK_REBALANCE, EventKind::Rebalance);
        let out = sim.run();
        let stats = out.routing.unwrap();
        assert_eq!(stats.no_path, 0, "the rebalance comes first");
        assert_eq!(stats.rebalances, 1);
        assert_eq!(out.results[0].1.outcome, ProtocolOutcome::Success);

        // A queued head expires at `T` after the arrival at `T` joined the
        // gate behind it: the arrival's one poll is a re-poll, not its own.
        // Nothing is admitted, so the audit shows the instant's unlock
        // went before its lock.
        let mut sim = shard(&specs, &[0, 1], family, &liq, Some(never));
        for venue in 0..venues {
            sim.book.reserve(venue, budget);
        }
        sim.events
            .push(at_t, RANK_LOCK, EventKind::Book { venue: 0, delta: 5 });
        sim.events.push(
            at_t,
            RANK_UNLOCK,
            EventKind::Book {
                venue: 0,
                delta: -5,
            },
        );
        let out = sim.run();
        assert_eq!(out.routing.unwrap().no_path, 1, "the expiry comes last");
        assert_eq!(out.tally.rejected, 2);
        assert_eq!(out.tally.rejected_waits, vec![patience.ticks(); 2]);
        assert_eq!(out.book.peak_locked_venue(), 0, "unlock before lock");

        // Two arrivals at `T` with room for one: the first in spec order
        // is admitted.
        let family = TopologyFamily::Linear { n: 2 };
        let one = workload::generate(&WorkloadConfig::new(family, 1, 5)).remove(0);
        let room = one
            .venues
            .demand(&one.plan)
            .iter()
            .map(|d| d.1)
            .max()
            .unwrap();
        let specs = vec![
            one.clone(),
            PaymentSpec {
                id: one.id + 1,
                ..one
            },
        ];
        let out = shard(
            &specs,
            &[0, 1],
            family,
            &LiquidityConfig::reject(room),
            None,
        )
        .run();
        let outcomes: Vec<(usize, ProtocolOutcome)> =
            out.results.iter().map(|(si, r)| (*si, r.outcome)).collect();
        assert_eq!(
            outcomes,
            vec![
                (0, ProtocolOutcome::Success),
                (1, ProtocolOutcome::Rejected)
            ]
        );
    }

    /// The arrival cursor dispatches members in spec order, so a campaign
    /// whose specs are not arrival-sorted is refused in every build rather
    /// than run with time going backwards.
    #[test]
    #[should_panic(expected = "arrival-ordered specs")]
    fn unsorted_arrivals_are_refused() {
        let workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 4 }, 8, 3);
        let mut specs = workload::generate(&workload);
        specs[0].arrival = specs[7].arrival + SimDuration::from_ticks(1);
        let cfg = SimConfig {
            threads: 1,
            ..SimConfig::new(workload)
        };
        let liq = LiquidityConfig::reject(1 << 40);
        run_open_specs_raw(&protocol::TimeBoundedHarness, &specs, &cfg, &liq, None);
    }

    #[test]
    fn hub_routes_collapse_to_one_shard() {
        let specs = workload::generate(&WorkloadConfig::new(
            TopologyFamily::HubAndSpoke { spokes: 6 },
            32,
            7,
        ));
        let members = shard_specs(&specs, 6);
        assert_eq!(members.len(), 1, "every route crosses the hub");
        assert_eq!(members[0].len(), 32);
        assert!(members[0].windows(2).all(|w| w[0] < w[1]), "spec order");
    }

    #[test]
    fn packetized_paths_shard_independently() {
        let (paths, hops) = (4usize, 3usize);
        let specs = workload::generate(&WorkloadConfig::new(
            TopologyFamily::Packetized { paths, hops },
            40,
            11,
        ));
        let members = shard_specs(&specs, paths * hops);
        assert_eq!(members.len(), paths, "one shard per disjoint path");
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), specs.len());
        // Shards are venue-disjoint.
        let mut seen: Vec<Vec<u32>> = Vec::new();
        for shard in &members {
            let mut venues: Vec<u32> = shard
                .iter()
                .flat_map(|&si| specs[si].venues.venues.iter().copied())
                .collect();
            venues.sort_unstable();
            venues.dedup();
            for prior in &seen {
                assert!(prior.iter().all(|v| !venues.contains(v)));
            }
            seen.push(venues);
        }
    }
}
