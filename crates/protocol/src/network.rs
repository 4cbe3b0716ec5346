//! Random venue networks and liquidity-aware dynamic routing.
//!
//! The paper proves its success guarantee on a fixed payment path; this
//! module asks whether the guarantee survives *realistic routing*:
//! thousands of shared venues whose balances drain and recover under
//! load. It provides
//!
//! * [`VenueGraph`] — seeded, deterministic generators for two standard
//!   random-network families: scale-free graphs grown by
//!   Barabási–Albert-style preferential attachment
//!   ([`GraphFamily::ScaleFree`]) and small-world graphs built by
//!   Watts–Strogatz ring rewiring ([`GraphFamily::SmallWorld`]). Every
//!   *edge* of the graph is one escrow venue (its id is the edge index),
//!   so a path between two nodes is a [`VenueRoute`];
//! * [`Router`] — a bounded-hop cheapest-feasible-path search that
//!   consults the live [`LiquidityBook`] at the admission instant, so
//!   payments route *around* drained venues, plus
//!   [`Router::route_multi`] which maps a split payment onto
//!   venue-disjoint parallel paths;
//! * [`RoutingConfig`] — the knobs a routed open-system run carries: hop
//!   cap, split width and the rebalancing period (`SimDuration::ZERO`
//!   disables rebalancing).
//!
//! Everything here is deterministic given `(family, seed)`: graph
//! generation draws from a salted [`StdRng`] and the pathfinder's
//! tie-breaking is a total order (see [`Router::route`]), which is what
//! lets routed open-system reports stay bit-identical across thread
//! counts.

use anta::time::SimDuration;
use payment::{VenueId, VenueRoute};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::liquidity::LiquidityBook;

/// Hop cap for routed payments: endpoint pairs are sampled so a path of
/// at most this many venues exists on the empty network, and the
/// pathfinder never returns a longer one.
pub const MAX_NET_HOPS: usize = 8;

/// Which random-network family to generate, with its size knobs. The
/// venue count ([`GraphFamily::venues`]) is exact — generators produce
/// precisely that many edges — so liquidity books and reports can be
/// sized without building the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFamily {
    /// Scale-free graph grown by preferential attachment: starting from
    /// a triangle, each new node attaches `attach` edges to existing
    /// nodes sampled proportionally to their current degree
    /// (Barabási–Albert). Produces hub-dominated degree distributions —
    /// the payment-network shape where a few venues carry most routes.
    ScaleFree {
        /// Exact number of venues (edges) to generate; floored at 3.
        venues: usize,
        /// Edges each new node attaches with; clamped to `1..=3`.
        attach: usize,
    },
    /// Small-world graph by Watts–Strogatz rewiring: a ring of `nodes`
    /// nodes where each connects to its two nearest clockwise
    /// neighbours (distance 1 and 2, so exactly `2 × nodes` edges),
    /// then each edge's far endpoint is rewired to a uniform random
    /// node with probability `rewire_permille / 1000` (self-loops and
    /// duplicate edges are re-drawn a bounded number of times, then
    /// kept in place).
    SmallWorld {
        /// Ring size; floored at 6. The venue count is `2 × nodes`.
        nodes: usize,
        /// Rewiring probability in parts per thousand.
        rewire_permille: u64,
    },
}

impl GraphFamily {
    /// Short stable label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            GraphFamily::ScaleFree { .. } => "scalefree",
            GraphFamily::SmallWorld { .. } => "smallworld",
        }
    }

    /// The exact number of venues (edges) [`VenueGraph::generate`]
    /// produces for this family.
    pub fn venues(&self) -> usize {
        match self {
            GraphFamily::ScaleFree { venues, .. } => (*venues).max(3),
            GraphFamily::SmallWorld { nodes, .. } => 2 * (*nodes).max(6),
        }
    }
}

/// An undirected venue network: nodes are chains/participants, each edge
/// is one escrow venue whose id is its index in edge order. Generated
/// deterministically from `(family, seed)`; adjacency lists are sorted
/// ascending by `(neighbour, venue)`, which the pathfinder's
/// deterministic scan order relies on.
#[derive(Debug, Clone)]
pub struct VenueGraph {
    nodes: usize,
    edges: Vec<(u32, u32)>,
    adj: Vec<Vec<(u32, VenueId)>>,
}

impl VenueGraph {
    /// Generates the family's network from the given seed. Both
    /// generators guarantee every node has degree ≥ 2 and the edge
    /// count equals [`GraphFamily::venues`] exactly.
    pub fn generate(family: GraphFamily, seed: u64) -> VenueGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5C3_9D71_6A0F_44D9);
        let edges = match family {
            GraphFamily::ScaleFree { venues, attach } => {
                let venues = venues.max(3);
                let attach = attach.clamp(1, 3);
                // Seed triangle, then preferential attachment: the pool
                // holds every edge endpoint, so sampling it uniformly is
                // degree-proportional sampling.
                let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
                let mut pool: Vec<u32> = vec![0, 1, 1, 2, 2, 0];
                let mut next_node: u32 = 3;
                while edges.len() < venues {
                    let u = next_node;
                    next_node += 1;
                    let want = attach.min(venues - edges.len()).min(next_node as usize - 1);
                    let mut targets: Vec<u32> = Vec::with_capacity(want);
                    while targets.len() < want {
                        let t = pool[rng.gen_range(0..pool.len())];
                        if t != u && !targets.contains(&t) {
                            targets.push(t);
                        }
                    }
                    for t in targets {
                        edges.push((u, t));
                        pool.push(u);
                        pool.push(t);
                    }
                }
                edges
            }
            GraphFamily::SmallWorld {
                nodes,
                rewire_permille,
            } => {
                let n = nodes.max(6);
                let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
                for i in 0..n as u32 {
                    edges.push((i, (i + 1) % n as u32));
                }
                for i in 0..n as u32 {
                    edges.push((i, (i + 2) % n as u32));
                }
                let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
                let mut present: std::collections::BTreeSet<(u32, u32)> =
                    edges.iter().map(|&(a, b)| norm(a, b)).collect();
                for edge in &mut edges {
                    if rng.gen_range(0..1000u64) >= rewire_permille {
                        continue;
                    }
                    let (u, old) = *edge;
                    // Rewire the far endpoint; bounded re-draws keep the
                    // generator total even on dense rings.
                    for _ in 0..8 {
                        let t = rng.gen_range(0..n) as u32;
                        if t != u && !present.contains(&norm(u, t)) {
                            present.remove(&norm(u, old));
                            present.insert(norm(u, t));
                            *edge = (u, t);
                            break;
                        }
                    }
                }
                edges
            }
        };
        let nodes = edges
            .iter()
            .map(|&(a, b)| a.max(b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut adj: Vec<Vec<(u32, VenueId)>> = vec![Vec::new(); nodes];
        for (id, &(a, b)) in edges.iter().enumerate() {
            adj[a as usize].push((b, id as VenueId));
            adj[b as usize].push((a, id as VenueId));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        VenueGraph { nodes, edges, adj }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of venues (edges).
    pub fn venues(&self) -> usize {
        self.edges.len()
    }

    /// The two endpoints of a venue (edge).
    pub fn endpoints(&self, venue: VenueId) -> (u32, u32) {
        self.edges[venue as usize]
    }

    /// The node's adjacency list, sorted ascending by
    /// `(neighbour, venue)`.
    pub fn neighbors(&self, node: u32) -> &[(u32, VenueId)] {
        &self.adj[node as usize]
    }

    /// The node's degree (parallel edges counted separately).
    pub fn degree(&self, node: u32) -> usize {
        self.adj[node as usize].len()
    }
}

/// The knobs of a routed open-system run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Longest admissible path, in venues; [`MAX_NET_HOPS`] is the
    /// conventional cap (workload endpoint sampling guarantees a path
    /// within it exists on the empty network).
    pub max_hops: usize,
    /// Widest split the router may try when no single path fits: the
    /// payment is divided over `2..=max_split` venue-disjoint paths.
    /// `1` disables splitting.
    pub max_split: usize,
    /// Period of the circular rebalancing flow that restores spent
    /// venue liquidity; [`SimDuration::ZERO`] disables rebalancing.
    pub rebalance_period: SimDuration,
}

impl RoutingConfig {
    /// The conventional configuration: [`MAX_NET_HOPS`], two-way
    /// splitting, no rebalancing.
    pub fn new() -> Self {
        RoutingConfig {
            max_hops: MAX_NET_HOPS,
            max_split: 2,
            rebalance_period: SimDuration::ZERO,
        }
    }

    /// Same knobs with the given rebalancing period.
    pub fn with_rebalance(period: SimDuration) -> Self {
        RoutingConfig {
            rebalance_period: period,
            ..RoutingConfig::new()
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig::new()
    }
}

#[cfg(test)]
thread_local! {
    /// Adjacency entries the search has read on this thread while growing
    /// either ball or sweeping labels (the destination's final label read
    /// aside), so unit tests can pin how much of the graph a search reads.
    static ADJACENCY_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one adjacency entry read by the search (unit tests only).
#[inline(always)]
fn count_read() {
    #[cfg(test)]
    ADJACENCY_READS.with(|n| n.set(n.get() + 1));
}

/// Bounded-hop cheapest-feasible-path search with reusable scratch.
///
/// The router searches the *feasible subgraph*: an edge is feasible when
/// the liquidity book can cover the payment's per-hop amount at that venue
/// right now ([`LiquidityBook::fits`]) and the venue is not banned by an
/// earlier leg of a split; its *cost* is the venue's committed load
/// ([`LiquidityBook::load_at`]), so among feasible routes the search
/// prefers idle venues. Feasibility does not depend on the direction an
/// edge is crossed in, so the search works from both ends:
///
/// 1. **Meet in the middle.** It grows a breadth-first ball from the
///    source and one from the destination, one level at a time: first
///    each end's own adjacency (the smaller first), then always the side
///    whose frontier has the smaller degree sum (the source's side on
///    ties). Reading both ends first bounds a search whose source or
///    destination has no feasible edge by `deg(src) + deg(dst)`
///    adjacency entries. The forward ball's level `k` holds the nodes at
///    feasible distance exactly `k` from the source, each labelled with the
///    cost and last hop of its cheapest `k`-hop path; the backward ball
///    records each node's distance to the destination. While the balls are
///    disjoint the distance exceeds the sum of their radii (a shortest path
///    would have a node in both), so at the first level where they share a
///    node the forward radius `rf` plus the backward radius `rb` is the
///    hop distance `h`. The search returns `None` when a side's new level
///    comes up empty, and when the radii reach the hop cap unmet.
/// 2. **Sweep only the shortest-path levels.** The forward sweep goes on
///    from level `rf` to level `h − 1`, but from level `k` it sweeps only
///    the nodes at backward distance exactly `h − k` and labels only their
///    neighbours at backward distance `h − k − 1`: the nodes that lie on a
///    shortest path.
/// 3. **Read the destination's label from its own adjacency**: its
///    cheapest neighbour on level `h − 1` behind a feasible edge. When the
///    forward sweep reached the destination itself (`rb = 0`), the label it
///    gave is that one.
///
/// The level being built is a bitset over nodes, read out in ascending id
/// as the next frontier, so no level is sorted. Each ball reads an
/// adjacency list at most once, the pruned sweep reads only shortest-path
/// nodes' and the destination's is read once more for its label, so a
/// search costs O(E + deg(dst) + h · N / 64) at worst. What it saves is
/// the typical case: two balls of radius about `h / 2` instead of the one
/// of radius `h − 2` around the source that a one-sided sweep reads, and
/// on a miss the cheaper side running dry instead of the source's whole
/// feasible component.
///
/// # Deterministic tie-breaking contract
///
/// Routed reports must be bit-identical across thread counts, so route
/// choice is a pure function of `(graph, book, src, dst, amount)` under
/// a total preference order:
///
/// 1. **fewest hops** — the search returns a path of exactly the hop
///    distance `h`;
/// 2. **minimal total committed load** — within a level, labels keep the
///    cheapest predecessor (sum of [`LiquidityBook::load_at`] over the
///    path's venues);
/// 3. **scan order** — exact cost ties keep the *first* label found by
///    the deterministic relaxation sweep: the previous level's nodes in
///    ascending node id, each adjacency list in ascending
///    `(neighbour, venue)` order, and strictly-better-only updates.
///
/// Rule 3 makes the choice independent of anything but the inputs —
/// no hashing, no iteration-order dependence — which is what the
/// 1-vs-4-thread digest tests pin. The backward ball and the degree sums
/// decide only how far each side grows, never a label.
///
/// **Why one label per node is the same search as one per (hop count,
/// node).** A relaxation over walks of exactly `k` hops (Bellman–Ford
/// over path length, which this search replaced) returns at the first
/// `K` with a `K`-hop walk to the destination, so the walk it returns is
/// a shortest path and its `k`-th node lies at distance exactly `k`.
/// The label of such a node is only ever improved from nodes at distance
/// exactly `k − 1` (a closer predecessor would put it closer), scanned
/// in ascending id — which is the previous level as its bitset reads
/// out — through the same adjacency order with the same strictly-better
/// rule. Labels the walk relaxation also kept for nodes *closer* than
/// their hop count are never on a returned route, so dropping them
/// changes no route and no tie-break; the `#[cfg(test)]` reference keeps
/// that relaxation and a differential proptest holds the two equal.
///
/// **Why sweeping only the shortest-path levels changes no label.** A
/// node `v` on a shortest path at level `k` is labelled from its feasible
/// neighbours `u` on level `k − 1`. Through `v`, such a `u` is at most
/// `h − k + 1` from the destination, and it is at least that far, or a
/// path shorter than `h` would exist: so `u` lies on a shortest path too,
/// and the pruned sweep scans it. Every shortest-path node thus sees all
/// of its candidates, in the same ascending order through the same
/// adjacency order under the same strictly-better rule, and a node on no
/// shortest path is on no returned route. The backward distances the
/// pruned sweep asks for are at most `rb`, so the backward ball holds
/// them exactly.
///
/// **Why the destination's label can be read from its own adjacency.**
/// The sweep would label the destination from the candidates
/// `(u, venue)` with `u` on level `k − 1` and `venue` a feasible edge
/// `u — dst`, in ascending `u` and then ascending `venue`. The
/// destination's adjacency holds exactly those edges, sorted by
/// `(neighbour, venue)`: the same candidates in the same order, kept
/// under the same strictly-better rule, give the same label.
#[derive(Debug, Default)]
pub struct Router {
    /// Per-node label of the running search: cost of the cheapest
    /// shortest feasible path found so far, and its last hop.
    cost: Vec<u64>,
    prev_node: Vec<u32>,
    prev_venue: Vec<u32>,
    /// The tick at which the node was labelled. Ticks only grow — one
    /// per search plus one per level — so a stamp below the running
    /// search's first tick means "unlabelled", and a stamp equal to the
    /// level being built means "still improvable": no per-call clearing.
    stamp: Vec<u64>,
    tick: u64,
    /// `back_stamp[v]` equals the running search's first tick when `v`
    /// lies in the backward ball, and `back_dist[v]` is then its feasible
    /// distance to the destination.
    back_stamp: Vec<u64>,
    back_dist: Vec<u32>,
    /// The backward ball's nodes in breadth-first order; its last level is
    /// the backward frontier.
    back: Vec<u32>,
    /// The forward level being expanded, ascending by node id.
    frontier: Vec<u32>,
    /// The level being built, one bit per node; [`Router::drain_level`]
    /// turns it into the next frontier.
    level_bits: Vec<u64>,
    /// `banned[venue] == ban_epoch` marks a venue taken by an earlier leg
    /// of the running [`Router::route_multi`]; every entry point starts a
    /// new epoch, which lifts all bans at once.
    banned: Vec<u64>,
    ban_epoch: u64,
}

impl Router {
    /// A router with empty scratch; arrays are sized lazily on first
    /// use and reused across calls.
    pub fn new() -> Self {
        Router::default()
    }

    fn ensure_nodes(&mut self, nodes: usize) {
        if nodes > self.stamp.len() {
            self.cost.resize(nodes, 0);
            self.prev_node.resize(nodes, 0);
            self.prev_venue.resize(nodes, 0);
            self.stamp.resize(nodes, 0);
            self.back_stamp.resize(nodes, 0);
            self.back_dist.resize(nodes, 0);
            self.level_bits.resize(nodes.div_ceil(64), 0);
        }
    }

    /// Lifts every ban and makes sure each of `g`'s venues has a slot.
    fn lift_bans(&mut self, g: &VenueGraph) {
        self.ban_epoch += 1;
        if g.venues() > self.banned.len() {
            self.banned.resize(g.venues(), 0);
        }
    }

    /// The cost of crossing `venue` with `amount` per hop, or `None` when
    /// the venue is banned or the book cannot cover it. `book == None`
    /// means "empty network": every unbanned venue fits at zero cost.
    fn step(&self, venue: VenueId, amount: u64, book: Option<&LiquidityBook>) -> Option<u64> {
        if self.banned[venue as usize] == self.ban_epoch {
            return None;
        }
        match book {
            Some(b) => b.fits(&[(venue, amount)]).then(|| b.load_at(venue)),
            None => Some(0),
        }
    }

    /// Moves the level marked in `level_bits` into `frontier`, ascending,
    /// and clears the marks.
    fn drain_level(&mut self, nodes: usize) {
        self.frontier.clear();
        for (w, word) in self.level_bits[..nodes.div_ceil(64)].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.frontier.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Whether `v` lies in the backward ball of the search that started at
    /// `first_tick`, exactly `dist` hops from the destination.
    fn back_at(&self, v: usize, first_tick: u64, dist: u32) -> bool {
        self.back_stamp[v] == first_tick && self.back_dist[v] == dist
    }

    /// Builds the next forward level from the frontier by the labelling
    /// sweep and makes it the frontier. With `on_path == Some(j)` only
    /// frontier nodes at backward distance `j` are swept and only nodes at
    /// backward distance `j − 1` are labelled. Returns the new level's
    /// degree sum — zero exactly when the level is empty, as each of its
    /// nodes has the edge it was reached by — and whether the level
    /// touches the backward ball.
    fn sweep(
        &mut self,
        g: &VenueGraph,
        amount: u64,
        book: Option<&LiquidityBook>,
        first_tick: u64,
        on_path: Option<u32>,
    ) -> (usize, bool) {
        self.tick += 1;
        let level = self.tick;
        let (mut degrees, mut met) = (0, false);
        for i in 0..self.frontier.len() {
            let u = self.frontier[i];
            if on_path.is_some_and(|j| !self.back_at(u as usize, first_tick, j)) {
                continue;
            }
            let cu = self.cost[u as usize];
            for &(nbr, venue) in g.neighbors(u) {
                count_read();
                let v = nbr as usize;
                let labelled = self.stamp[v] >= first_tick;
                if labelled && self.stamp[v] != level {
                    continue; // closer to the source: labelled on an earlier level
                }
                if on_path.is_some_and(|j| !self.back_at(v, first_tick, j - 1)) {
                    continue;
                }
                let Some(step) = self.step(venue, amount, book) else {
                    continue;
                };
                let nc = cu.saturating_add(step);
                if !labelled {
                    self.stamp[v] = level;
                    self.level_bits[v / 64] |= 1 << (v % 64);
                    degrees += g.degree(nbr);
                    met |= self.back_stamp[v] == first_tick;
                }
                if !labelled || nc < self.cost[v] {
                    self.cost[v] = nc;
                    self.prev_node[v] = u;
                    self.prev_venue[v] = venue;
                }
            }
        }
        self.drain_level(g.nodes());
        (degrees, met)
    }

    /// Grows the backward ball by the level at distance `dist` from the
    /// destination, out of the frontier `back[start..]`. Returns the new
    /// level's degree sum and whether it touches the forward ball.
    fn grow_back(
        &mut self,
        g: &VenueGraph,
        amount: u64,
        book: Option<&LiquidityBook>,
        first_tick: u64,
        start: usize,
        dist: u32,
    ) -> (usize, bool) {
        let (mut degrees, mut met) = (0, false);
        for i in start..self.back.len() {
            for &(nbr, venue) in g.neighbors(self.back[i]) {
                count_read();
                let v = nbr as usize;
                if self.back_stamp[v] == first_tick || self.step(venue, amount, book).is_none() {
                    continue;
                }
                self.back_stamp[v] = first_tick;
                self.back_dist[v] = dist;
                self.back.push(nbr);
                degrees += g.degree(nbr);
                met |= self.stamp[v] >= first_tick;
            }
        }
        (degrees, met)
    }

    /// The route of `hops` venues ending in the hop `last_node — last_venue`,
    /// its earlier hops read back through the labels to `src`.
    fn trace_back(&self, src: u32, hops: usize, last_node: u32, last_venue: VenueId) -> VenueRoute {
        let mut venues = vec![0; hops];
        venues[hops - 1] = last_venue;
        let mut node = last_node as usize;
        for slot in venues[..hops - 1].iter_mut().rev() {
            *slot = self.prev_venue[node];
            node = self.prev_node[node] as usize;
        }
        debug_assert_eq!(node, src as usize, "labels chain back to the source");
        VenueRoute::new(venues)
    }

    /// The search core. `book == None` means "empty network" (every edge
    /// feasible at zero cost), which is how static shortest paths are
    /// computed at workload-generation time.
    fn search(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        max_hops: usize,
        book: Option<&LiquidityBook>,
    ) -> Option<VenueRoute> {
        let nodes = g.nodes();
        if src == dst || max_hops == 0 || src as usize >= nodes || dst as usize >= nodes {
            return None;
        }
        self.ensure_nodes(nodes);
        self.tick += 1;
        let first_tick = self.tick;
        self.stamp[src as usize] = first_tick;
        self.cost[src as usize] = 0;
        self.frontier.clear();
        self.frontier.push(src);
        self.back_stamp[dst as usize] = first_tick;
        self.back_dist[dst as usize] = 0;
        self.back.clear();
        self.back.push(dst);
        // The balls' radii and frontier degree sums; the backward frontier
        // is `back[back_start..]`.
        let (mut rf, mut rb, mut back_start) = (0, 0, 0);
        let (mut fwd_degrees, mut back_degrees) = (g.degree(src), g.degree(dst));
        loop {
            if rf + rb == max_hops {
                return None;
            }
            // Both ends' own adjacency is read before either ball grows a
            // second level, so a dead end costs at most deg(src) + deg(dst).
            let forward = if (rf == 0) != (rb == 0) {
                rf == 0
            } else {
                fwd_degrees <= back_degrees
            };
            let (degrees, met) = if forward {
                rf += 1;
                let grown = self.sweep(g, amount, book, first_tick, None);
                fwd_degrees = grown.0;
                grown
            } else {
                rb += 1;
                let end = self.back.len();
                let grown = self.grow_back(g, amount, book, first_tick, back_start, rb as u32);
                back_start = end;
                back_degrees = grown.0;
                grown
            };
            if met {
                break;
            }
            if degrees == 0 {
                return None;
            }
        }
        let hops = rf + rb;
        if rb == 0 {
            // The forward sweep reached `dst` itself; it labelled it from
            // the candidates the adjacency read below would scan.
            let d = dst as usize;
            return Some(self.trace_back(src, hops, self.prev_node[d], self.prev_venue[d]));
        }
        for k in rf..hops - 1 {
            self.sweep(g, amount, book, first_tick, Some((hops - k) as u32));
        }
        // The frontier is level `hops - 1`: reading the destination's
        // adjacency gives the label the sweep would assign it.
        let frontier_tick = self.tick;
        let mut best: Option<(u32, VenueId)> = None;
        let mut best_cost = 0;
        for &(u, venue) in g.neighbors(dst) {
            if self.stamp[u as usize] != frontier_tick {
                continue;
            }
            let Some(step) = self.step(venue, amount, book) else {
                continue;
            };
            let c = self.cost[u as usize].saturating_add(step);
            if best.is_none() || c < best_cost {
                best = Some((u, venue));
                best_cost = c;
            }
        }
        let (node, venue) = best.expect("the balls met, so a shortest path enters dst");
        Some(self.trace_back(src, hops, node, venue))
    }

    /// The cheapest feasible path from `src` to `dst` for a payment
    /// carrying `amount` per hop, under the tie-breaking contract above.
    /// `None` when no path of at most `max_hops` venues fits the book at
    /// this instant.
    pub fn route(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        max_hops: usize,
        book: &LiquidityBook,
    ) -> Option<VenueRoute> {
        self.lift_bans(g);
        let path = self.search(g, src, dst, amount, max_hops, Some(book))?;
        // A shortest path is simple, so it crosses each venue once and the
        // per-edge `fits` the search ran already is the aggregate demand.
        debug_assert!(book.fits(&path.demand(&payment::ValuePlan::uniform(path.hops(), amount))));
        Some(path)
    }

    /// Splits the payment over `parts` venue-disjoint feasible paths:
    /// path `j` carries `amount / parts` per hop (the remainder goes to
    /// the first paths, mirroring `ValuePlan`-style splitting), and each
    /// path is found by the same search with every earlier path's venues
    /// banned. Returns `(path, per-hop share)` pairs, or `None` when any
    /// share cannot be routed — splitting is all-or-nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn route_multi(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        amount: u64,
        parts: usize,
        max_hops: usize,
        book: &LiquidityBook,
    ) -> Option<Vec<(VenueRoute, u64)>> {
        if parts < 2 || amount < parts as u64 {
            return None;
        }
        self.lift_bans(g);
        let base = amount / parts as u64;
        let rem = (amount % parts as u64) as usize;
        let mut out = Vec::with_capacity(parts);
        for j in 0..parts {
            let share = base + u64::from(j < rem);
            let path = self.search(g, src, dst, share, max_hops, Some(book))?;
            for &v in &path.venues {
                // Earlier legs' venues were banned from this search, and a
                // shortest path is simple: no venue can come up twice.
                debug_assert_ne!(self.banned[v as usize], self.ban_epoch);
                self.banned[v as usize] = self.ban_epoch;
            }
            out.push((path, share));
        }
        Some(out)
    }

    /// The static shortest path on the empty network (every edge
    /// feasible, zero cost): hop-count-minimal, tie-broken by the same
    /// deterministic scan order. This is the route the workload
    /// generator pins into [`crate::workload::PaymentSpec::venues`] as
    /// the static-routing baseline.
    pub fn shortest(
        &mut self,
        g: &VenueGraph,
        src: u32,
        dst: u32,
        max_hops: usize,
    ) -> Option<VenueRoute> {
        self.lift_bans(g);
        self.search(g, src, dst, 0, max_hops, None)
    }

    /// Fills `out` with every node reachable from `src` within
    /// `max_hops` edges, excluding `src` itself, sorted ascending — the
    /// workload generator's fallback when a uniformly sampled endpoint
    /// pair is further apart than the hop cap.
    pub fn reachable(&mut self, g: &VenueGraph, src: u32, max_hops: usize, out: &mut Vec<u32>) {
        out.clear();
        let nodes = g.nodes();
        if src as usize >= nodes {
            return;
        }
        self.ensure_nodes(nodes);
        self.tick += 1;
        let t = self.tick;
        self.stamp[src as usize] = t;
        self.frontier.clear();
        self.frontier.push(src);
        for _ in 0..max_hops {
            for i in 0..self.frontier.len() {
                for &(nbr, _) in g.neighbors(self.frontier[i]) {
                    let v = nbr as usize;
                    if self.stamp[v] != t {
                        self.stamp[v] = t;
                        self.level_bits[v / 64] |= 1 << (v % 64);
                        out.push(nbr);
                    }
                }
            }
            self.drain_level(nodes);
            if self.frontier.is_empty() {
                break;
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liquidity::LiquidityConfig;
    use proptest::prelude::*;

    /// The search [`Router`] ran before it became one breadth-first
    /// sweep: Bellman–Ford over path length, one label per (hop count,
    /// node), every node swept for every layer — and, around it, the
    /// aggregate-demand re-check and the revisited-venue rejection that
    /// a shortest path makes unreachable. Kept only as the reference of
    /// `bfs_search_equals_the_layered_relaxation`.
    #[derive(Default)]
    struct LayeredRouter {
        cost: Vec<u64>,
        prev_node: Vec<u32>,
        prev_venue: Vec<u32>,
        stamp: Vec<u64>,
        tick: u64,
    }

    impl LayeredRouter {
        #[allow(clippy::too_many_arguments)]
        fn search(
            &mut self,
            g: &VenueGraph,
            src: u32,
            dst: u32,
            amount: u64,
            max_hops: usize,
            book: Option<&LiquidityBook>,
            banned: &[bool],
        ) -> Option<VenueRoute> {
            let nodes = g.nodes();
            if src == dst || max_hops == 0 || src as usize >= nodes || dst as usize >= nodes {
                return None;
            }
            let len = nodes * (max_hops + 1);
            if len > self.stamp.len() {
                self.cost.resize(len, 0);
                self.prev_node.resize(len, 0);
                self.prev_venue.resize(len, 0);
                self.stamp.resize(len, 0);
            }
            self.tick += 1;
            let t = self.tick;
            self.stamp[src as usize] = t;
            self.cost[src as usize] = 0;
            for k in 0..max_hops {
                let mut layer_alive = false;
                for u in 0..nodes {
                    let iu = k * nodes + u;
                    if self.stamp[iu] != t {
                        continue;
                    }
                    let cu = self.cost[iu];
                    for &(nbr, venue) in g.neighbors(u as u32) {
                        if banned.get(venue as usize).copied().unwrap_or(false) {
                            continue;
                        }
                        let step = match book {
                            Some(b) => {
                                if !b.fits(&[(venue, amount)]) {
                                    continue;
                                }
                                b.load_at(venue)
                            }
                            None => 0,
                        };
                        let iv = (k + 1) * nodes + nbr as usize;
                        let nc = cu.saturating_add(step);
                        if self.stamp[iv] != t || nc < self.cost[iv] {
                            self.stamp[iv] = t;
                            self.cost[iv] = nc;
                            self.prev_node[iv] = u as u32;
                            self.prev_venue[iv] = venue;
                            layer_alive = true;
                        }
                    }
                }
                if self.stamp[(k + 1) * nodes + dst as usize] == t {
                    let mut venues = Vec::with_capacity(k + 1);
                    let mut node = dst as usize;
                    for layer in (1..=k + 1).rev() {
                        let i = layer * nodes + node;
                        venues.push(self.prev_venue[i]);
                        node = self.prev_node[i] as usize;
                    }
                    venues.reverse();
                    return Some(VenueRoute::new(venues));
                }
                if !layer_alive {
                    return None;
                }
            }
            None
        }

        fn route(
            &mut self,
            g: &VenueGraph,
            src: u32,
            dst: u32,
            amount: u64,
            max_hops: usize,
            book: &LiquidityBook,
        ) -> Option<VenueRoute> {
            let path = self.search(g, src, dst, amount, max_hops, Some(book), &[])?;
            let mut demand: Vec<(VenueId, u64)> = Vec::with_capacity(path.hops());
            for &v in &path.venues {
                match demand.iter_mut().find(|(dv, _)| *dv == v) {
                    Some((_, a)) => *a += amount,
                    None => demand.push((v, amount)),
                }
            }
            book.fits(&demand).then_some(path)
        }

        #[allow(clippy::too_many_arguments)]
        fn route_multi(
            &mut self,
            g: &VenueGraph,
            src: u32,
            dst: u32,
            amount: u64,
            parts: usize,
            max_hops: usize,
            book: &LiquidityBook,
        ) -> Option<Vec<(VenueRoute, u64)>> {
            if parts < 2 || amount < parts as u64 {
                return None;
            }
            let base = amount / parts as u64;
            let rem = (amount % parts as u64) as usize;
            let mut banned = vec![false; g.venues()];
            let mut out = Vec::with_capacity(parts);
            for j in 0..parts {
                let share = base + u64::from(j < rem);
                let path = self.search(g, src, dst, share, max_hops, Some(book), &banned)?;
                for &v in &path.venues {
                    if std::mem::replace(&mut banned[v as usize], true) {
                        return None;
                    }
                }
                out.push((path, share));
            }
            Some(out)
        }
    }

    /// A xorshift step: the differential test's cheap per-venue dice.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    proptest! {
        /// The two-ended search and the layered relaxation it replaced
        /// return the identical route — same venues in the same order, same
        /// shares, same `None`s — for `route`, `route_multi`, `shortest`
        /// and the bare search under arbitrary bans, on both graph
        /// families, under random reservations and spends, with amounts on
        /// both sides of what the budget can still cover and every hop cap.
        /// Sizes reach 300 venues, so the graphs cross the level bitset's
        /// 64- and 128-node word boundaries; one case in eight runs on the
        /// benchmark's own graph shape instead, 1 024 scale-free venues
        /// attached two at a time, where routes run up to the hop cap.
        #[test]
        fn bfs_search_equals_the_layered_relaxation(
            small_world in any::<bool>(),
            size in 12usize..300,
            graph_seed in 0u64..10_000,
            load_seed in 1u64..u64::MAX,
            amount in 1u64..5_000,
            max_hops in 1usize..=MAX_NET_HOPS,
            benchmark_shape in 0u32..8,
        ) {
            const BUDGET: u64 = 4_000;
            let family = if benchmark_shape == 0 {
                GraphFamily::ScaleFree { venues: 1_024, attach: 2 }
            } else if small_world {
                GraphFamily::SmallWorld { nodes: size / 2, rewire_permille: 150 }
            } else {
                GraphFamily::ScaleFree { venues: size, attach: 1 + size % 3 }
            };
            let g = VenueGraph::generate(family, graph_seed);
            let mut book = LiquidityBook::new(&LiquidityConfig::reject(BUDGET), g.venues());
            let mut x = load_seed;
            let mut banned = vec![false; g.venues()];
            for v in 0..g.venues() as u32 {
                let roll = xorshift(&mut x);
                match roll % 4 {
                    0 => book.reserve(v, roll % BUDGET),
                    1 => book.settle(v, 0, roll % BUDGET),
                    // Equal loads, so rule 3's scan order has ties to break.
                    2 => book.reserve(v, 1_000),
                    _ => {}
                }
                banned[v as usize] = xorshift(&mut x) % 5 == 0;
            }
            let mut bfs = Router::new();
            let mut layered = LayeredRouter::default();
            let nodes = g.nodes() as u32;
            for _ in 0..12 {
                let src = (xorshift(&mut x) % nodes as u64) as u32;
                let dst = (xorshift(&mut x) % nodes as u64) as u32;
                prop_assert_eq!(
                    bfs.route(&g, src, dst, amount, max_hops, &book),
                    layered.route(&g, src, dst, amount, max_hops, &book)
                );
                for parts in 2..=3 {
                    prop_assert_eq!(
                        bfs.route_multi(&g, src, dst, amount, parts, max_hops, &book),
                        layered.route_multi(&g, src, dst, amount, parts, max_hops, &book)
                    );
                }
                prop_assert_eq!(
                    bfs.shortest(&g, src, dst, max_hops),
                    layered.search(&g, src, dst, 0, max_hops, None, &[])
                );
                bfs.lift_bans(&g);
                for (v, _) in banned.iter().enumerate().filter(|(_, &b)| b) {
                    bfs.banned[v] = bfs.ban_epoch;
                }
                prop_assert_eq!(
                    bfs.search(&g, src, dst, amount, max_hops, Some(&book)),
                    layered.search(&g, src, dst, amount, max_hops, Some(&book), &banned)
                );
            }
        }
    }

    fn scalefree(venues: usize, seed: u64) -> VenueGraph {
        VenueGraph::generate(GraphFamily::ScaleFree { venues, attach: 2 }, seed)
    }

    fn smallworld(nodes: usize, seed: u64) -> VenueGraph {
        VenueGraph::generate(
            GraphFamily::SmallWorld {
                nodes,
                rewire_permille: 100,
            },
            seed,
        )
    }

    /// A graph with the given edges; venue ids are edge indices.
    fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> VenueGraph {
        let mut adj = vec![Vec::new(); nodes];
        for (id, &(a, b)) in edges.iter().enumerate() {
            adj[a as usize].push((b, id as VenueId));
            adj[b as usize].push((a, id as VenueId));
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        VenueGraph {
            nodes,
            edges: edges.to_vec(),
            adj,
        }
    }

    /// Adjacency entries the search read on this thread so far.
    fn reads() -> u64 {
        ADJACENCY_READS.with(std::cell::Cell::get)
    }

    /// Plain breadth-first hop distances from `from` over every edge;
    /// `usize::MAX` marks a node it cannot reach.
    fn hop_distances(g: &VenueGraph, from: u32) -> Vec<usize> {
        let mut dist = vec![usize::MAX; g.nodes()];
        dist[from as usize] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.neighbors(u) {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// What a search on the empty network must read, modelled on plain
    /// hop distances `ds` from the source and `dt` to the destination:
    /// both ends' adjacency first, then the ball whose frontier has the
    /// smaller degree sum grows until the balls share a node, then the
    /// shortest-path nodes of levels `rf ..= h − 2` are swept. Returns the
    /// adjacency entries read and the hop distance found.
    fn expected_reads(
        g: &VenueGraph,
        ds: &[usize],
        dt: &[usize],
        max_hops: usize,
    ) -> (u64, Option<usize>) {
        // The degree sum of the nodes `keep` selects.
        let degrees = |keep: &dyn Fn(usize) -> bool| -> usize {
            (0..g.nodes())
                .filter(|&v| keep(v))
                .map(|v| g.degree(v as u32))
                .sum()
        };
        let (mut rf, mut rb, mut read) = (0, 0, 0);
        loop {
            if rf + rb == max_hops {
                return (read as u64, None);
            }
            let forward = if (rf == 0) != (rb == 0) {
                rf == 0
            } else {
                degrees(&|v| ds[v] == rf) <= degrees(&|v| dt[v] == rb)
            };
            let (d, r) = if forward {
                read += degrees(&|v| ds[v] == rf);
                rf += 1;
                (ds, rf)
            } else {
                read += degrees(&|v| dt[v] == rb);
                rb += 1;
                (dt, rb)
            };
            if (0..g.nodes()).any(|v| ds[v] <= rf && dt[v] <= rb) {
                break;
            }
            if !d.contains(&r) {
                return (read as u64, None);
            }
        }
        let h = rf + rb;
        if rb > 0 {
            for k in rf..h - 1 {
                read += degrees(&|v| ds[v] == k && dt[v] == h - k);
            }
        }
        (read as u64, Some(h))
    }

    /// The search reads both ends' adjacency, grows the cheaper ball until
    /// the two meet and then sweeps only the shortest-path nodes of the
    /// levels the forward ball has not reached: pinned exactly against a
    /// model of that rule over plain breadth-first distances. The
    /// one-sided sweep it replaced read 3 and 1 on the path graph and
    /// 99 817 over the scale-free cases; the new search is not cheaper on
    /// every tiny graph, so only equalities are asserted.
    #[test]
    fn search_reads_both_ends_and_only_the_shortest_path_levels() {
        // The path 0 - 1 - 2 - 3: the edge out of 0, the edge out of 3,
        // then the two out of 1, whose level holds 2, where the balls meet.
        // With a cap of 2 hops the radii reach it after the first two.
        let path = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut router = Router::new();
        let before = reads();
        assert_eq!(
            router.shortest(&path, 0, 3, 8).unwrap().venues,
            vec![0, 1, 2]
        );
        assert_eq!(reads() - before, 4);
        let before = reads();
        assert!(router.shortest(&path, 0, 3, 2).is_none());
        assert_eq!(reads() - before, 2);

        let g = scalefree(400, 5);
        let dist: Vec<Vec<usize>> = (0..g.nodes() as u32)
            .map(|n| hop_distances(&g, n))
            .collect();
        let mut total = 0;
        for src in [0u32, 7, 100] {
            let ds = &dist[src as usize];
            for dst in (0..g.nodes() as u32).filter(|&d| d != src) {
                for max_hops in [2, 3, MAX_NET_HOPS] {
                    let distance = ds[dst as usize];
                    let (expected, hops) = expected_reads(&g, ds, &dist[dst as usize], max_hops);
                    assert_eq!(hops, (distance <= max_hops).then_some(distance));
                    let before = reads();
                    let found = router.shortest(&g, src, dst, max_hops);
                    assert_eq!(found.map(|p| p.hops()), hops);
                    assert_eq!(reads() - before, expected);
                    total += expected;
                }
            }
        }
        assert_eq!(total, 66_986);
    }

    /// A destination with no feasible edge costs at most the two ends'
    /// adjacency: the first two expansions read it (the smaller end first)
    /// and the backward ball comes up empty. The one-sided sweep swept the
    /// source's whole feasible component up to the hop cap instead.
    #[test]
    fn a_dead_destination_costs_at_most_both_ends_adjacency() {
        let g = scalefree(1_024, 42);
        let mut router = Router::new();
        for dst in 0..g.nodes() as u32 {
            let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), g.venues());
            for &(_, venue) in g.neighbors(dst) {
                book.reserve(venue, 100);
            }
            let dead = g.degree(dst);
            for src in (0..g.nodes() as u32).filter(|&s| s != dst) {
                let before = reads();
                assert!(router.route(&g, src, dst, 1, MAX_NET_HOPS, &book).is_none());
                let read = (reads() - before) as usize;
                assert!(read <= g.degree(src) + dead);
                let src_live = g.neighbors(src).iter().any(|&(v, _)| v != dst);
                let exact = match (g.degree(src) <= dead, src_live) {
                    (false, _) => dead,
                    (true, true) => g.degree(src) + dead,
                    (true, false) => g.degree(src),
                };
                assert_eq!(read, exact);
            }
        }
    }

    #[test]
    fn generators_hit_exact_venue_counts_and_min_degree() {
        for seed in [1u64, 7, 42] {
            for venues in [3usize, 64, 257, 1000] {
                let fam = GraphFamily::ScaleFree { venues, attach: 2 };
                let g = VenueGraph::generate(fam, seed);
                assert_eq!(g.venues(), fam.venues());
                assert_eq!(g.venues(), venues.max(3));
                assert!((0..g.nodes()).all(|n| g.degree(n as u32) >= 1));
            }
            for nodes in [6usize, 128, 500] {
                let fam = GraphFamily::SmallWorld {
                    nodes,
                    rewire_permille: 100,
                };
                let g = VenueGraph::generate(fam, seed);
                assert_eq!(g.venues(), fam.venues());
                assert_eq!(g.venues(), 2 * nodes);
                assert!((0..g.nodes()).all(|n| g.degree(n as u32) >= 2));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = scalefree(200, 9);
        let b = scalefree(200, 9);
        assert_eq!(a.edges, b.edges);
        let c = scalefree(200, 10);
        assert_ne!(a.edges, c.edges, "different seeds, different graphs");
        let w1 = smallworld(100, 5);
        let w2 = smallworld(100, 5);
        assert_eq!(w1.edges, w2.edges);
    }

    #[test]
    fn adjacency_is_sorted_and_mirrors_edges() {
        let g = smallworld(50, 3);
        for n in 0..g.nodes() as u32 {
            let adj = g.neighbors(n);
            assert!(adj.windows(2).all(|w| w[0] <= w[1]));
            for &(nbr, venue) in adj {
                let (a, b) = g.endpoints(venue);
                assert!((a, b) == (n, nbr) || (a, b) == (nbr, n));
            }
        }
    }

    /// A 4-cycle with one budget-exhausted edge: the router must take
    /// the long way around.
    #[test]
    fn router_avoids_drained_venues() {
        // Square 0-1-2-3: venue 0 = (0,1), 1 = (1,2), 2 = (2,3), 3 = (3,0).
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 4);
        let mut router = Router::new();
        // Empty book: 0 → 2 has two 2-hop paths; scan order picks the
        // one through node 1 (venues 0, 1).
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![0, 1]);
        // Drain venue 0: the router must go the other way (venues 3, 2).
        book.reserve(0, 95);
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![3, 2]);
        // Drain that side too: no feasible path remains.
        book.reserve(2, 95);
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_none());
        // Spent liquidity blocks identically until restored.
        book.settle(2, 95, 95);
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_none());
        book.restore_all();
        assert!(router.route(&g, 0, 2, 10, 4, &book).is_some());
    }

    #[test]
    fn equal_cost_ties_break_by_scan_order_and_load_breaks_ties_first() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 4);
        let mut router = Router::new();
        // Load venue 0 lightly: still feasible, but the idle side
        // (venues 3, 2) is now strictly cheaper and must win.
        book.reserve(0, 10);
        let p = router.route(&g, 0, 2, 10, 4, &book).unwrap();
        assert_eq!(p.venues, vec![3, 2]);
    }

    #[test]
    fn route_multi_returns_disjoint_paths_covering_the_amount() {
        let g = smallworld(40, 11);
        let book = LiquidityBook::new(&LiquidityConfig::reject(1000), g.venues());
        let mut router = Router::new();
        let parts = router
            .route_multi(&g, 0, 5, 101, 2, MAX_NET_HOPS, &book)
            .expect("two disjoint paths exist on a ring lattice");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1 + parts[1].1, 101);
        assert!(parts[0].1 == 51 && parts[1].1 == 50);
        let mut seen = std::collections::BTreeSet::new();
        for (path, _) in &parts {
            assert!(path.hops() <= MAX_NET_HOPS);
            for &v in &path.venues {
                assert!(seen.insert(v), "venue {v} appears in two split paths");
            }
        }
    }

    #[test]
    fn shortest_and_reachable_respect_the_hop_cap() {
        let g = smallworld(60, 2);
        let mut router = Router::new();
        let mut reach = Vec::new();
        router.reachable(&g, 0, 2, &mut reach);
        for &b in &reach {
            let p = router.shortest(&g, 0, b, 2).expect("reachable within cap");
            assert!(p.hops() <= 2);
            // The path really connects 0 to b along graph edges.
            let mut at = 0u32;
            for &v in &p.venues {
                let (x, y) = g.endpoints(v);
                at = if x == at { y } else { x };
            }
            assert_eq!(at, b);
        }
        // Nodes outside the 2-hop ball are not reachable within it.
        let ball: std::collections::BTreeSet<u32> = reach.iter().copied().collect();
        for b in 0..g.nodes() as u32 {
            if b != 0 && !ball.contains(&b) {
                assert!(router.shortest(&g, 0, b, 2).is_none());
            }
        }
    }

    #[test]
    fn routes_are_stable_across_router_instances() {
        // The scratch is stamp-versioned; a fresh router must agree with
        // a heavily reused one.
        let g = scalefree(300, 4);
        let book = LiquidityBook::new(&LiquidityConfig::reject(500), g.venues());
        let mut warm = Router::new();
        for i in 0..50u32 {
            let _ = warm.route(&g, i % 7, (i % 11) + 1, 10, MAX_NET_HOPS, &book);
        }
        for (a, b) in [(0u32, 9u32), (3, 17), (5, 40)] {
            let mut fresh = Router::new();
            assert_eq!(
                warm.route(&g, a, b, 10, MAX_NET_HOPS, &book),
                fresh.route(&g, a, b, 10, MAX_NET_HOPS, &book)
            );
        }
    }
}
