//! The four workloads. Each builds its inputs from the seed, runs a fixed
//! amount of simulated work per pass through the program's public
//! functions, and — in the traced run — times the calls into each layer
//! it exercises.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::span::Tracer;
use anta::time::SimDuration;

pub mod closed_mix;
pub mod explore_e4;
pub mod open_hub;
mod open_system;
pub mod routed_net;

/// Name and the one-line reason each workload exists (the same text as
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "closed_mix",
        "3k linear-3 payments through all 5 protocol harnesses under mixed faults: harness, engine and xcrypto do all the work, DES and router are bypassed; the only workload that scales with threads",
    ),
    (
        "open_hub",
        "8 bursty 4k-payment campaigns over an 8-spoke hub with finite collateral: 61% are refused at the gate, so DES admission, queueing, expiry and book code all run; one shard, so threads do not help",
    ),
    (
        "routed_net",
        "20 campaigns of 400 payments routed over 1024-venue scale-free networks with rebalancing: pathfinder and gate re-polls do ~80% of the work; the workload the routed-gap item must move",
    ),
    (
        "explore_e4",
        "Reduced exhaustive exploration of a seeded n=3 chain: anta::explore, state fingerprints and engine rebuild/replay do all the work; sim, DES and router are bypassed entirely",
    ),
];

/// Fixed work counts. Every pass of a workload does exactly this much
/// simulated work, whatever the commit and however long it takes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `closed_mix`: slices of linear specs, each slice run through all
    /// five harnesses. A slice is a whole number of the runner's 64-spec
    /// batches per worker at 2 and at 4 threads.
    pub closed_slices: usize,
    pub closed_slice_specs: usize,
    /// `open_hub`: independent campaigns, each with a seed of its own, as
    /// `sim::campaign` epochs are.
    pub open_campaigns: usize,
    pub open_campaign_payments: usize,
    /// `routed_net`: independent campaigns, each over a network of its own.
    pub routed_campaigns: usize,
    pub routed_campaign_payments: usize,
    /// `explore_e4`: escrows per chain and chains explored per pass.
    pub explore_n: usize,
    pub explore_instances: usize,
    /// Specs re-run one by one to price a payment outside the DES.
    pub cost_sample: usize,
    /// Layer micro-benchmarks (traced run only).
    pub crypto_ops: usize,
    pub engine_messages: u32,
    pub book_ops: usize,
    pub pathfind_pairs: usize,
    pub telemetry_events: usize,
    pub campaign_payments: u64,
    pub shard_payments: usize,
}

impl Sizes {
    /// Sized for 0.5–2 s single-thread passes on the 2-core reference box:
    /// short enough that a 20 s run visits every chunk ten to twenty times.
    pub const FULL: Sizes = Sizes {
        closed_slices: 6,
        closed_slice_specs: 512,
        open_campaigns: 8,
        open_campaign_payments: 4_000,
        routed_campaigns: 20,
        routed_campaign_payments: 400,
        explore_n: 3,
        explore_instances: 1,
        cost_sample: 20_000,
        crypto_ops: 200_000,
        engine_messages: 2_000_000,
        book_ops: 2_000_000,
        pathfind_pairs: 20_000,
        telemetry_events: 200_000,
        campaign_payments: 40_000,
        shard_payments: 16_000,
    };

    /// Smoke sizes: every code path and every correctness check, no
    /// number worth keeping.
    pub const QUICK: Sizes = Sizes {
        closed_slices: 2,
        closed_slice_specs: 256,
        open_campaigns: 2,
        open_campaign_payments: 2_000,
        routed_campaigns: 2,
        routed_campaign_payments: 150,
        explore_n: 2,
        explore_instances: 2,
        cost_sample: 1_000,
        crypto_ops: 5_000,
        engine_messages: 50_000,
        book_ops: 50_000,
        pathfind_pairs: 500,
        telemetry_events: 5_000,
        campaign_payments: 2_000,
        shard_payments: 1_000,
    };
}

/// What one chunk of a pass — or, merged, a whole pass — produced.
/// `digest` covers everything that must not depend on the thread count;
/// `counts` are exact simulated statistics, printed and compared between
/// passes, never gated as speed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pass {
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Vec<(String, u64)>,
    /// Correctness failures seen inside this pass.
    pub errors: Vec<String>,
}

impl Pass {
    /// Folds the next chunk in: digests chain, counts add up by name.
    pub fn absorb(&mut self, chunk: Pass) {
        self.digest = debug_digest(&(self.digest, chunk.digest));
        self.attempted += chunk.attempted;
        self.failed += chunk.failed;
        for (name, value) in chunk.counts {
            match self.counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => self.counts.push((name, value)),
            }
        }
        self.errors.extend(chunk.errors);
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// A pass is a fixed list of chunks, each a call into the program that is
/// timed on its own: host interference on the reference box comes and goes
/// within tens of milliseconds, and the steadiest estimate of the pass's
/// undisturbed time is the sum, over chunks, of each chunk's best time
/// across passes.
pub trait Workload {
    /// The fixed sizes this workload ran with, for the run context.
    fn sizes(&self) -> Json;

    /// Chunks per pass.
    fn chunks(&self) -> usize;

    /// Chunk `i` of the fixed work, on `threads` worker threads.
    fn run_chunk(&self, i: usize, threads: usize) -> Pass;

    /// Checks that need a side pass of their own (run once, untimed).
    fn side_checks(&self, t1: &Pass) -> Vec<String>;

    /// The traced run: spans around the calls into each layer, ledger
    /// entries for every per-layer metric homed on this workload (`tn` is
    /// the thread count of side passes that compare against one thread).
    /// Returns the host seconds the traced equivalent of one `t1` pass took.
    fn traced(&self, tn: usize, tracer: &mut Tracer, ledger: &mut Ledger) -> f64;
}

/// Generates the named workload's inputs from `seed`. This is the whole of
/// set-up: the program only ever sees what this returns.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "closed_mix" => Box::new(closed_mix::ClosedMix::generate(seed, sizes)),
        "open_hub" => Box::new(open_hub::OpenHub::generate(seed, sizes)),
        "routed_net" => Box::new(routed_net::RoutedNet::generate(seed, sizes)),
        "explore_e4" => Box::new(explore_e4::ExploreE4::generate(seed, sizes)),
        _ => return None,
    })
}

/// `k` seeds drawn from `seed` (splitmix64): one per independent campaign
/// or instance of a workload.
pub(crate) fn derive_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut x = seed;
    (0..k)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// 32 payments every 20 ms of simulated time, as `exp10` / `exp11` offer
/// load.
pub(crate) fn bursty() -> sim::ArrivalProcess {
    sim::ArrivalProcess::Bursty {
        burst: 32,
        gap: SimDuration::from_millis(20),
    }
}

/// FNV-1a of a report's `Debug` rendering: the thread-invariance digest.
pub(crate) fn debug_digest<T: std::fmt::Debug>(report: &T) -> u64 {
    experiments::digest::fnv1a64(format!("{report:?}").as_bytes())
}
