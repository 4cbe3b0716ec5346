//! Workload generation: topology families × arrival processes ×
//! per-instance value-plan and synchrony-parameter sampling.
//!
//! Every cross-chain payment of the time-bounded protocol executes over a
//! linear chain of escrows (Figure 1); what a *topology family* decides is
//! how those chains are shaped and grouped by the traffic:
//!
//! * [`TopologyFamily::Linear`] — the paper's fixed `n`-escrow path;
//! * [`TopologyFamily::HubAndSpoke`] — Boros-style hub routing
//!   (arXiv:1911.12929): every payment crosses exactly two escrows,
//!   sender-spoke → hub → receiver-spoke, so one connector (the hub) is
//!   party to all traffic;
//! * [`TopologyFamily::RandomTree`] — payments between two random nodes of
//!   a random routing tree; the escrow path is the tree path through their
//!   lowest common ancestor, giving a heavy-tailed hop-count mix;
//! * [`TopologyFamily::Packetized`] — packetized payments (Dubovitskaya et
//!   al., arXiv:2103.02056): one logical value plan split across `paths`
//!   parallel sub-payments via [`ValuePlan::split`]; the packet completes
//!   only when every sub-payment does;
//! * [`TopologyFamily::ScaleFree`] / [`TopologyFamily::SmallWorld`] —
//!   payments between random endpoint pairs of a seeded random venue
//!   network (see [`crate::network`]); each spec carries its endpoints
//!   plus the *static* shortest path as its route, which a routed
//!   open-system run may replace at admission time.
//!
//! Generation is a pure function of [`WorkloadConfig`] (including its
//! seed): the spec list is identical across runs and thread counts.

use anta::time::{SimDuration, SimTime};
use payment::{SyncParams, VenueId};
pub use payment::{ValuePlan, VenueRoute};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::network::{GraphFamily, Router, VenueGraph, MAX_NET_HOPS};

/// The shape of the escrow paths a workload's payments traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// Fixed-length linear chains of exactly `n` escrows (`n ≥ 1`).
    Linear {
        /// Escrows per payment.
        n: usize,
    },
    /// Hub-and-spoke: `spokes ≥ 2` gateways around one hub connector;
    /// every payment is a 2-escrow chain through the hub.
    HubAndSpoke {
        /// Number of spoke gateways (sender and receiver spokes are
        /// sampled distinct).
        spokes: usize,
    },
    /// A random routing tree over `nodes ≥ 2` nodes; each payment runs
    /// between two distinct random nodes along the tree path.
    RandomTree {
        /// Tree size.
        nodes: usize,
    },
    /// Packetized payments: each logical payment is split into `paths ≥ 1`
    /// parallel sub-payments, each over its own `hops`-escrow chain.
    Packetized {
        /// Parallel sub-payments per packet.
        paths: usize,
        /// Escrows per sub-payment path.
        hops: usize,
    },
    /// Payments between random endpoints of a scale-free venue network
    /// ([`crate::network::GraphFamily::ScaleFree`]); each payment's
    /// static route is the deterministic shortest path within
    /// [`MAX_NET_HOPS`].
    ScaleFree {
        /// Exact venue (edge) count; floored at 3.
        venues: usize,
        /// Preferential-attachment edges per new node.
        attach: usize,
    },
    /// Payments between random endpoints of a small-world venue network
    /// ([`crate::network::GraphFamily::SmallWorld`]).
    SmallWorld {
        /// Ring size; the venue count is `2 × nodes` (floored at 6).
        nodes: usize,
        /// Rewiring probability in parts per thousand.
        rewire_permille: u64,
    },
}

impl TopologyFamily {
    /// Short stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyFamily::Linear { .. } => "linear",
            TopologyFamily::HubAndSpoke { .. } => "hub",
            TopologyFamily::RandomTree { .. } => "tree",
            TopologyFamily::Packetized { .. } => "packetized",
            TopologyFamily::ScaleFree { .. } => "scalefree",
            TopologyFamily::SmallWorld { .. } => "smallworld",
        }
    }

    /// Number of shared escrow venues the family's network exposes — the
    /// venue-id space [`generate`] assigns routes from, and the
    /// denominator of network-wide collateral budgets:
    ///
    /// * linear — all payments share the one `n`-escrow path (venues
    ///   `0..n`);
    /// * hub — one venue per spoke gateway (every payment enters through
    ///   its sender's gateway and leaves through its receiver's);
    /// * tree — one venue per tree edge (`nodes − 1`);
    /// * packetized — one venue per (path, hop) cell: sibling paths are
    ///   disjoint escrow chains, shared across packets;
    /// * scalefree / smallworld — one venue per network edge, exactly
    ///   [`GraphFamily::venues`].
    pub fn venues(&self) -> usize {
        match *self {
            TopologyFamily::Linear { n } => n.max(1),
            TopologyFamily::HubAndSpoke { spokes } => spokes.max(2),
            TopologyFamily::RandomTree { nodes } => nodes.max(2) - 1,
            TopologyFamily::Packetized { paths, hops } => paths.max(1) * hops.max(1),
            TopologyFamily::ScaleFree { venues, attach } => {
                GraphFamily::ScaleFree { venues, attach }.venues()
            }
            TopologyFamily::SmallWorld {
                nodes,
                rewire_permille,
            } => GraphFamily::SmallWorld {
                nodes,
                rewire_permille,
            }
            .venues(),
        }
    }

    /// The random-network family behind this topology, for the two
    /// network-backed variants; `None` for the fixed-shape families.
    /// Both workload generation and the routed DES build their
    /// [`VenueGraph`] from this plus the workload seed, so the static
    /// routes in the specs and the live routing table describe the same
    /// network.
    pub fn graph(&self) -> Option<GraphFamily> {
        match *self {
            TopologyFamily::ScaleFree { venues, attach } => {
                Some(GraphFamily::ScaleFree { venues, attach })
            }
            TopologyFamily::SmallWorld {
                nodes,
                rewire_permille,
            } => Some(GraphFamily::SmallWorld {
                nodes,
                rewire_permille,
            }),
            _ => None,
        }
    }
}

/// When payment instances enter the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Independent arrivals with gaps uniform in `[0, 2·mean_gap]`.
    Uniform {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
    /// Bursts of `burst` simultaneous arrivals separated by `gap` — the
    /// adversarial load shape for locked-value concurrency.
    Bursty {
        /// Arrivals per burst.
        burst: usize,
        /// Gap between bursts.
        gap: SimDuration,
    },
}

/// Parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Topology family shaping every payment's escrow path.
    pub family: TopologyFamily,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of payment instances to generate (a packet counts one
    /// instance per path; the last packet is always completed, so the
    /// result may overshoot by at most `paths − 1`).
    pub payments: usize,
    /// Per-instance hop value sampled uniformly from this inclusive range.
    pub amount: (u64, u64),
    /// Maximum per-hop commission (0 ⇒ uniform plans only).
    pub max_commission: u64,
    /// Per-instance drift bound ρ sampled uniformly from this inclusive
    /// range (ppm); clocks are then sampled within that envelope.
    pub max_rho_ppm: (u64, u64),
    /// Master seed: equal configs generate equal spec lists.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A small sane default over the given family: 10 ms δ baseline,
    /// uniform arrivals, mixed amounts and drifts.
    pub fn new(family: TopologyFamily, payments: usize, seed: u64) -> Self {
        WorkloadConfig {
            family,
            arrivals: ArrivalProcess::Uniform {
                mean_gap: SimDuration::from_millis(2),
            },
            payments,
            amount: (100, 10_000),
            max_commission: 5,
            max_rho_ppm: (0, 100_000),
            seed,
        }
    }
}

/// One generated payment instance — everything
/// [`run_harness_instance`](crate::harness::run_harness_instance) needs to
/// rebuild the run deterministically.
#[derive(Debug, Clone)]
pub struct PaymentSpec {
    /// Dense instance id (generation order).
    pub id: u64,
    /// Family label (see [`TopologyFamily::label`]).
    pub family: &'static str,
    /// Real time at which the instance enters the system.
    pub arrival: SimTime,
    /// Escrow-path length.
    pub n: usize,
    /// The value plan this instance carries.
    pub plan: ValuePlan,
    /// The synchrony cell this instance runs under.
    pub params: SyncParams,
    /// Per-instance seed (keys, oracle, clock sampling, fault sampling).
    pub seed: u64,
    /// `(packet id, sibling-path count)` for packetized sub-payments.
    pub packet: Option<(u64, usize)>,
    /// `(sender spoke, receiver spoke)` for hub-routed payments — the
    /// gateways this payment enters and leaves through, feeding the
    /// per-spoke load statistics.
    pub route: Option<(usize, usize)>,
    /// The global escrow venues this payment's hops lock collateral at
    /// (see [`TopologyFamily::venues`] for each family's venue layout).
    /// Always `n` entries. For network families this is the *static*
    /// shortest path between the endpoints; a routed open-system run
    /// may substitute a liquidity-aware path at admission time.
    pub venues: VenueRoute,
    /// `(source node, destination node)` on the venue network, for
    /// network families ([`TopologyFamily::ScaleFree`] /
    /// [`TopologyFamily::SmallWorld`]) — what admission-time
    /// pathfinding routes between. `None` elsewhere.
    pub endpoints: Option<(u32, u32)>,
}

/// Random routing tree with O(1) pairwise distance queries via depths and
/// parent walking (trees here are tiny — tens of nodes).
struct RoutingTree {
    parent: Vec<usize>,
    depth: Vec<usize>,
}

impl RoutingTree {
    fn sample(nodes: usize, rng: &mut StdRng) -> Self {
        assert!(nodes >= 2, "a routing tree needs at least two nodes");
        let mut parent = vec![0usize; nodes];
        let mut depth = vec![0usize; nodes];
        for v in 1..nodes {
            let p = rng.gen_range(0..v);
            parent[v] = p;
            depth[v] = depth[p] + 1;
        }
        RoutingTree { parent, depth }
    }

    /// The tree edges between `a` and `b`, in walk order from `a`. Each
    /// edge is identified by its child endpoint (`1..nodes`), so edge ids
    /// are stable across queries and dense in `1..nodes`.
    fn path_edges(&self, mut a: usize, mut b: usize) -> Vec<usize> {
        let mut up = Vec::new();
        let mut down = Vec::new();
        while self.depth[a] > self.depth[b] {
            up.push(a);
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            down.push(b);
            b = self.parent[b];
        }
        while a != b {
            up.push(a);
            a = self.parent[a];
            down.push(b);
            b = self.parent[b];
        }
        down.reverse();
        up.extend(down);
        up
    }
}

/// Longest escrow path the tree family will emit; longer sampled routes
/// are truncated here. Timeout schedules grow with every hop, so this
/// bounds both run time and the deadline magnitudes.
pub const MAX_TREE_HOPS: usize = 8;

/// Two distinct endpoints of `0..k` (`k ≥ 2`): `a` uniformly, then `b`
/// uniformly from the other `k − 1`.
fn two_endpoints(rng: &mut StdRng, k: usize) -> (usize, usize) {
    let a = rng.gen_range(0..k);
    let b = rng.gen_range(0..k - 1);
    (a, if b >= a { b + 1 } else { b })
}

/// Generates the workload's payment specs, deterministically from the
/// config.
pub fn generate(cfg: &WorkloadConfig) -> Vec<PaymentSpec> {
    assert!(
        cfg.amount.0 >= 1 && cfg.amount.0 <= cfg.amount.1,
        "bad amount range"
    );
    assert!(cfg.max_rho_ppm.0 <= cfg.max_rho_ppm.1, "bad drift range");
    if let TopologyFamily::Packetized { paths, .. } = cfg.family {
        // Every sampled amount must satisfy ValuePlan::split's one-unit-
        // per-path precondition; a silent clamp would distort the
        // configured value distribution.
        assert!(
            cfg.amount.0 >= paths.max(1) as u64,
            "packetized workload needs per-hop amount ≥ paths ({} < {paths})",
            cfg.amount.0
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let tree = match cfg.family {
        TopologyFamily::RandomTree { nodes } => Some(RoutingTree::sample(nodes, &mut rng)),
        _ => None,
    };
    // Network families build their venue graph once, up front, from the
    // workload seed — the same construction the routed DES uses, so the
    // static routes below and the live routing table agree on topology.
    let graph = cfg
        .family
        .graph()
        .map(|family| VenueGraph::generate(family, cfg.seed));
    let mut router = Router::new();
    let mut reach_buf: Vec<u32> = Vec::new();

    let mut specs: Vec<PaymentSpec> = Vec::with_capacity(cfg.payments);
    let mut clock = SimTime::ZERO;
    let mut burst_fill = 0usize;
    let mut packet_id = 0u64;
    while specs.len() < cfg.payments {
        // Arrival of the next logical payment (a whole packet shares one).
        match cfg.arrivals {
            ArrivalProcess::Uniform { mean_gap } => {
                let gap = if mean_gap.is_zero() {
                    0
                } else {
                    rng.gen_range(0..=2 * mean_gap.ticks())
                };
                clock += SimDuration::from_ticks(gap);
            }
            ArrivalProcess::Bursty { burst, gap } => {
                burst_fill += 1;
                if burst_fill > burst.max(1) {
                    burst_fill = 1;
                    clock += gap;
                }
            }
        }
        let rho = rng.gen_range(cfg.max_rho_ppm.0..=cfg.max_rho_ppm.1);
        let params = SyncParams {
            rho_ppm: rho,
            ..SyncParams::baseline()
        };
        match cfg.family {
            TopologyFamily::Packetized { paths, hops } => {
                let paths = paths.max(1);
                let n = hops.max(1);
                let amount = rng.gen_range(cfg.amount.0..=cfg.amount.1);
                let whole = ValuePlan::uniform(n, amount);
                for (j, part) in whole.split(paths).into_iter().enumerate() {
                    // Each parallel path has its own escrow chain, shared
                    // by every packet's j-th sub-payment.
                    let venues = VenueRoute::new((0..n).map(|h| (j * n + h) as VenueId).collect());
                    specs.push(PaymentSpec {
                        id: specs.len() as u64,
                        family: cfg.family.label(),
                        arrival: clock,
                        n,
                        plan: part,
                        params,
                        seed: rng.next_u64(),
                        packet: Some((packet_id, paths)),
                        route: None,
                        venues,
                        endpoints: None,
                    });
                }
                packet_id += 1;
            }
            _ => {
                let mut route = None;
                let mut endpoints = None;
                let (n, venues) = match cfg.family {
                    TopologyFamily::Linear { n } => {
                        // Every payment crosses the same n-escrow path.
                        (n.max(1), VenueRoute::linear(n.max(1)))
                    }
                    TopologyFamily::HubAndSpoke { spokes } => {
                        // Distinct sender/receiver spokes; the route is
                        // always spoke → hub → spoke (two escrows), each
                        // hop locking at its gateway's venue.
                        let (s, r) = two_endpoints(&mut rng, spokes.max(2));
                        route = Some((s, r));
                        (2, VenueRoute::new(vec![s as VenueId, r as VenueId]))
                    }
                    TopologyFamily::RandomTree { nodes } => {
                        let tree = tree.as_ref().expect("sampled up front for RandomTree");
                        let (a, b) = two_endpoints(&mut rng, nodes.max(2));
                        // Edge e(child) gets venue id child − 1, keeping
                        // venue ids dense in 0..nodes−1. Routes longer
                        // than MAX_TREE_HOPS keep their first hops.
                        let mut edges = tree.path_edges(a, b);
                        edges.truncate(MAX_TREE_HOPS);
                        let venues = VenueRoute::new(
                            edges.iter().map(|&child| (child - 1) as VenueId).collect(),
                        );
                        // a ≠ b, so the path has at least one edge.
                        (edges.len(), venues)
                    }
                    TopologyFamily::ScaleFree { .. } | TopologyFamily::SmallWorld { .. } => {
                        let g = graph.as_ref().expect("built up front: graph() is Some");
                        let (a, b) = two_endpoints(&mut rng, g.nodes());
                        let (a, mut b) = (a as u32, b as u32);
                        let path = match router.shortest(g, a, b, MAX_NET_HOPS) {
                            Some(p) => p,
                            None => {
                                // b is further than the hop cap; redraw it
                                // from the cap-reachable ball (non-empty:
                                // every node has neighbours).
                                router.reachable(g, a, MAX_NET_HOPS, &mut reach_buf);
                                let b2 = reach_buf[rng.gen_range(0..reach_buf.len())];
                                b = b2;
                                router
                                    .shortest(g, a, b2, MAX_NET_HOPS)
                                    .expect("b2 is within MAX_NET_HOPS of a: reachable() drew it")
                            }
                        };
                        endpoints = Some((a, b));
                        (path.hops(), path)
                    }
                    TopologyFamily::Packetized { .. } => unreachable!("handled above"),
                };
                let amount = rng.gen_range(cfg.amount.0..=cfg.amount.1);
                // Network families keep uniform plans: admission-time
                // routing re-shapes the plan per chosen path, which only
                // preserves value conservation without commissions.
                let commission = if cfg.max_commission == 0 || n == 1 || endpoints.is_some() {
                    0
                } else {
                    // Keep the last hop's value positive.
                    let cap = cfg.max_commission.min((amount - 1) / (n as u64 - 1).max(1));
                    if cap == 0 {
                        0
                    } else {
                        rng.gen_range(0..=cap)
                    }
                };
                let plan = if commission == 0 {
                    ValuePlan::uniform(n, amount)
                } else {
                    ValuePlan::with_commission(n, amount, commission)
                };
                debug_assert_eq!(venues.hops(), n, "route covers every hop");
                specs.push(PaymentSpec {
                    id: specs.len() as u64,
                    family: cfg.family.label(),
                    arrival: clock,
                    n,
                    plan,
                    params,
                    seed: rng.next_u64(),
                    packet: None,
                    route,
                    venues,
                    endpoints,
                });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(family: TopologyFamily) -> WorkloadConfig {
        WorkloadConfig::new(family, 64, 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = base(TopologyFamily::RandomTree { nodes: 24 });
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.seed, x.n, x.arrival), (y.seed, y.n, y.arrival));
            assert_eq!(x.plan.amounts, y.plan.amounts);
        }
        let c = generate(&WorkloadConfig { seed: 8, ..cfg });
        assert_ne!(
            a.iter().map(|s| s.seed).collect::<Vec<_>>(),
            c.iter().map(|s| s.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn linear_family_has_fixed_n() {
        let specs = generate(&base(TopologyFamily::Linear { n: 3 }));
        assert_eq!(specs.len(), 64);
        assert!(specs.iter().all(|s| s.n == 3 && s.family == "linear"));
        assert!(specs.iter().all(|s| s.plan.hops() == 3));
    }

    #[test]
    fn hub_family_is_two_escrows_with_distinct_spokes() {
        let specs = generate(&base(TopologyFamily::HubAndSpoke { spokes: 10 }));
        assert!(specs.iter().all(|s| s.n == 2 && s.family == "hub"));
        let mut spokes_seen = std::collections::BTreeSet::new();
        for s in &specs {
            let (snd, rcv) = s.route.expect("hub payments carry a spoke route");
            assert_ne!(snd, rcv, "sender and receiver spokes are distinct");
            assert!(snd < 10 && rcv < 10);
            spokes_seen.insert(snd);
            spokes_seen.insert(rcv);
        }
        assert!(spokes_seen.len() > 2, "traffic spreads over the spokes");
        // Non-hub families carry no route.
        let linear = generate(&base(TopologyFamily::Linear { n: 2 }));
        assert!(linear.iter().all(|s| s.route.is_none()));
    }

    #[test]
    fn tree_family_mixes_path_lengths_within_bounds() {
        let specs = generate(&WorkloadConfig::new(
            TopologyFamily::RandomTree { nodes: 40 },
            256,
            11,
        ));
        assert!(specs.iter().all(|s| (1..=MAX_TREE_HOPS).contains(&s.n)));
        let distinct: std::collections::BTreeSet<usize> = specs.iter().map(|s| s.n).collect();
        assert!(distinct.len() >= 3, "tree routes should vary: {distinct:?}");
    }

    #[test]
    fn packetized_groups_complete_packets() {
        let specs = generate(&base(TopologyFamily::Packetized { paths: 4, hops: 2 }));
        assert!(specs.len() >= 64 && specs.len() % 4 == 0);
        for chunk in specs.chunks(4) {
            let (pid, paths) = chunk[0].packet.unwrap();
            assert_eq!(paths, 4);
            assert!(chunk.iter().all(|s| s.packet == Some((pid, 4))));
            // Sibling paths share the arrival instant.
            assert!(chunk.iter().all(|s| s.arrival == chunk[0].arrival));
        }
        // Packet ids are dense.
        let last = specs.last().unwrap().packet.unwrap().0;
        assert_eq!(last as usize, specs.len() / 4 - 1);
    }

    #[test]
    #[should_panic(expected = "amount ≥ paths")]
    fn packetized_amount_below_paths_rejected() {
        let cfg = WorkloadConfig {
            amount: (2, 3),
            ..base(TopologyFamily::Packetized { paths: 8, hops: 2 })
        };
        let _ = generate(&cfg);
    }

    #[test]
    fn arrivals_are_monotone_and_bursty_groups() {
        let specs = generate(&WorkloadConfig {
            arrivals: ArrivalProcess::Bursty {
                burst: 8,
                gap: SimDuration::from_millis(50),
            },
            ..base(TopologyFamily::Linear { n: 1 })
        });
        assert!(specs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let first = specs[0].arrival;
        assert_eq!(
            specs.iter().filter(|s| s.arrival == first).count(),
            8,
            "first burst holds 8 arrivals"
        );
    }

    #[test]
    fn venue_routes_cover_every_hop_within_the_family_venue_space() {
        for family in [
            TopologyFamily::Linear { n: 3 },
            TopologyFamily::HubAndSpoke { spokes: 10 },
            TopologyFamily::RandomTree { nodes: 40 },
            TopologyFamily::Packetized { paths: 4, hops: 2 },
        ] {
            let venue_space = family.venues();
            for s in generate(&base(family)) {
                assert_eq!(s.venues.hops(), s.n, "{}: one venue per hop", s.family);
                assert!(
                    s.venues.max_venue().unwrap() < venue_space as u32,
                    "{}: venue ids stay inside the family's venue space",
                    s.family
                );
            }
        }
    }

    #[test]
    fn hub_venues_are_the_spoke_gateways() {
        for s in generate(&base(TopologyFamily::HubAndSpoke { spokes: 10 })) {
            let (snd, rcv) = s.route.unwrap();
            assert_eq!(s.venues.venues, vec![snd as u32, rcv as u32]);
        }
    }

    #[test]
    fn linear_venues_are_shared_by_all_payments() {
        let specs = generate(&base(TopologyFamily::Linear { n: 3 }));
        assert!(specs.iter().all(|s| s.venues == VenueRoute::linear(3)));
    }

    #[test]
    fn tree_venues_are_distinct_edges_per_route() {
        let specs = generate(&WorkloadConfig::new(
            TopologyFamily::RandomTree { nodes: 40 },
            256,
            11,
        ));
        for s in &specs {
            // A tree path never repeats an edge.
            let mut seen = std::collections::BTreeSet::new();
            assert!(s.venues.venues.iter().all(|v| seen.insert(*v)));
        }
        // Edges are genuinely shared across payments: fewer distinct
        // venues than total hops.
        let all: std::collections::BTreeSet<u32> = specs
            .iter()
            .flat_map(|s| s.venues.venues.iter().copied())
            .collect();
        let total_hops: usize = specs.iter().map(|s| s.n).sum();
        assert!(all.len() < total_hops, "routes overlap on tree edges");
    }

    #[test]
    fn network_families_pin_static_shortest_paths_and_endpoints() {
        for family in [
            TopologyFamily::ScaleFree {
                venues: 256,
                attach: 2,
            },
            TopologyFamily::SmallWorld {
                nodes: 128,
                rewire_permille: 100,
            },
        ] {
            let graph = VenueGraph::generate(family.graph().unwrap(), 7);
            let mut router = Router::new();
            let specs = generate(&base(family));
            assert_eq!(specs.len(), 64);
            for s in &specs {
                assert!((1..=MAX_NET_HOPS).contains(&s.n));
                assert_eq!(s.venues.hops(), s.n);
                assert!(s.venues.max_venue().unwrap() < family.venues() as u32);
                let (a, b) = s.endpoints.expect("network specs carry endpoints");
                assert_ne!(a, b);
                // The pinned route is exactly the deterministic static
                // shortest path on the same (family, seed) graph.
                let expect = router.shortest(&graph, a, b, MAX_NET_HOPS).unwrap();
                assert_eq!(s.venues, expect, "{}: static route mismatch", s.family);
                // Network plans are uniform (commission-free) so routing
                // can re-shape them per path.
                let v0 = s.plan.amounts[0].amount;
                assert!(s.plan.amounts.iter().all(|x| x.amount == v0));
            }
            // Distinct endpoint pairs actually occur.
            let pairs: std::collections::BTreeSet<(u32, u32)> =
                specs.iter().filter_map(|s| s.endpoints).collect();
            assert!(pairs.len() > 8, "endpoint pairs vary: {}", pairs.len());
            // Non-network families carry no endpoints.
            let linear = generate(&base(TopologyFamily::Linear { n: 2 }));
            assert!(linear.iter().all(|s| s.endpoints.is_none()));
        }
    }

    #[test]
    fn sampled_params_stay_in_ranges() {
        let cfg = WorkloadConfig {
            amount: (50, 60),
            max_rho_ppm: (1_000, 2_000),
            ..base(TopologyFamily::Linear { n: 2 })
        };
        for s in generate(&cfg) {
            assert!((1_000..=2_000).contains(&s.params.rho_ppm));
            let v0 = s.plan.amounts[0].amount;
            assert!((50..=60).contains(&v0));
            assert!(s.plan.amounts.iter().all(|a| a.amount >= 1));
        }
    }
}
