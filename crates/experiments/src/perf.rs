//! **P — engineering performance measurements** in simulated time and
//! event counts: deterministic tables, no wall-clock (host-time cost is
//! the repo benchmark's job, `benchmark/`).
//!
//! * protocol cost: messages and simulated completion time per payment,
//!   as functions of chain length — the μ-benchmarks behind the paper's
//!   "2n+1 participants" scaling;
//! * consensus: decision round and message count vs committee size;
//! * engine: events processed for a fixed workload (the denominator of
//!   the benchmark's `anta.engine_ns_per_event_*`).

use crate::table::Table;
use anta::net::SyncNet;
use anta::oracle::RandomOracle;
use anta::trace::TraceMode;
use payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use payment::{SyncParams, ValuePlan};

/// Per-chain-length protocol cost.
#[derive(Debug, Clone)]
pub struct ChainCost {
    /// Number of escrows in the chain / sample size, per context.
    pub n: usize,
    /// Messages sent during the run.
    pub messages: usize,
    /// Simulated completion time in ticks.
    pub completion_ticks: u64,
    /// The events, in dispatch order.
    pub events: u64,
}

/// Measures the time-bounded protocol's cost for one chain length.
pub fn chain_cost(n: usize) -> ChainCost {
    let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 0xF0);
    let mut eng = setup.build_engine(
        Box::new(SyncNet::new(setup.params.delta, 16)),
        Box::new(RandomOracle::seeded(1)),
        ClockPlan::Sampled { seed: 1 },
    );
    let report = eng.run();
    let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
    assert!(outcome.bob_paid(), "perf baseline must succeed");
    ChainCost {
        n,
        messages: eng.trace().sent_count(),
        completion_ticks: report.end_time.ticks(),
        events: report.events,
    }
}

/// The engine-throughput workload (`expperf`'s events table and the
/// benchmark's `anta.engine_ns_per_event_*`): a two-process ping-pong of
/// `messages` messages under a 16-bucket synchronous network. Returns the
/// number of dispatched events (identical across trace modes — the mode
/// affects only what the trace stores, never the schedule).
pub fn engine_events_workload(messages: u32, trace_mode: TraceMode) -> u64 {
    use anta::clock::DriftClock;
    use anta::engine::{Engine, EngineConfig};
    use anta::process::{Ctx, Pid, Process, TimerId};
    use anta::time::SimDuration;

    #[derive(Debug, Clone)]
    struct Pinger {
        peer: Pid,
        limit: u32,
        first: bool,
    }
    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if self.first {
                ctx.send(self.peer, 0);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u32, ctx: &mut Ctx<u32>) {
            if msg >= self.limit {
                ctx.halt();
            } else {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    let mut eng: Engine<u32> = Engine::new(
        Box::new(SyncNet::new(SimDuration::from_ticks(50), 16)),
        Box::new(RandomOracle::seeded(3)),
        EngineConfig {
            trace_mode,
            ..EngineConfig::default()
        },
    );
    for (peer, first) in [(1, true), (0, false)] {
        eng.add_process(
            Box::new(Pinger {
                peer,
                limit: messages,
                first,
            }),
            DriftClock::perfect(),
        );
    }
    eng.run().events
}

/// Consensus cost for one committee size.
#[derive(Debug, Clone)]
pub struct ConsensusCost {
    /// Committee size.
    pub k: usize,
    /// Highest round at which any notary decided.
    pub decision_round: u32,
    /// Messages sent during the run.
    pub messages: usize,
}

/// Measures a consensus instance for committee size `k` (all honest,
/// synchronous network).
pub fn consensus_cost(k: usize) -> ConsensusCost {
    use anta::clock::DriftClock;
    use anta::engine::{Engine, EngineConfig};
    use anta::time::SimDuration;
    use consensus::{Config, ConsMsg, NotaryCore, NotaryProcess};
    use std::sync::Arc;
    let mut pki = xcrypto::Pki::new(0xF1);
    let pairs = pki.register_many(k);
    let members: Vec<xcrypto::KeyId> = pairs.iter().map(|(id, _)| *id).collect();
    let pki = Arc::new(pki);
    let cfg = Config {
        instance: 1,
        members,
        f: k.saturating_sub(1) / 3,
        base_timeout: SimDuration::from_millis(50),
        validity: Arc::new(|_: &u64| true),
    };
    let mut eng: Engine<ConsMsg<u64>> = Engine::new(
        Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
        Box::new(RandomOracle::seeded(2)),
        EngineConfig::default(),
    );
    for (i, (_, signer)) in pairs.iter().enumerate() {
        let peers: Vec<usize> = (0..k).filter(|&p| p != i).collect();
        let core = NotaryCore::new(cfg.clone(), signer.clone(), pki.clone(), 42u64);
        eng.add_process(
            Box::new(NotaryProcess::new(core, peers)),
            DriftClock::perfect(),
        );
    }
    let report = eng.run();
    let mut round = 0;
    for i in 0..k {
        let p = eng.process_as::<NotaryProcess<u64>>(i).expect("notary");
        assert_eq!(p.decided(), Some(&42));
        if let Some((r, _, _)) = p.decision() {
            round = round.max(*r);
        }
    }
    let _ = report;
    ConsensusCost {
        k,
        decision_round: round,
        messages: eng.trace().sent_count(),
    }
}

/// The perf report.
pub struct PerfReport {
    /// Per-chain-length protocol costs.
    pub chain: Vec<ChainCost>,
    /// Per-committee-size consensus costs.
    pub consensus: Vec<ConsensusCost>,
}

/// Runs all perf measurements.
pub fn run() -> PerfReport {
    PerfReport {
        chain: [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&n| chain_cost(n))
            .collect(),
        consensus: [4usize, 7, 10, 13]
            .iter()
            .map(|&k| consensus_cost(k))
            .collect(),
    }
}

impl PerfReport {
    /// Renders both tables.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "P — protocol cost vs chain length (time-bounded, success path)",
            &["n", "messages", "completion (µs sim)", "engine events"],
        );
        for c in &self.chain {
            t.push(&[
                c.n.to_string(),
                c.messages.to_string(),
                c.completion_ticks.to_string(),
                c.events.to_string(),
            ]);
        }
        let mut u = Table::new(
            "P — consensus cost vs committee size (all honest, synchronous)",
            &["k", "decision round", "messages"],
        );
        for c in &self.consensus {
            u.push(&[
                c.k.to_string(),
                c.decision_round.to_string(),
                c.messages.to_string(),
            ]);
        }
        format!("{}\n{}", t.render(), u.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_cost_scales_linearly_in_messages() {
        let c2 = chain_cost(2);
        let c8 = chain_cost(8);
        // 5n+… messages: G,$,P per hop + χ,$ settlement per hop.
        assert!(c8.messages > c2.messages * 3, "{c2:?} vs {c8:?}");
        assert!(c8.messages < c2.messages * 8, "{c2:?} vs {c8:?}");
        assert!(c8.completion_ticks > c2.completion_ticks);
    }

    #[test]
    fn engine_workload_events_identical_across_trace_modes() {
        let full = engine_events_workload(1_000, TraceMode::Full);
        let lean = engine_events_workload(1_000, TraceMode::CountersOnly);
        assert_eq!(full, lean);
        assert!(full > 1_000, "two starts + one event per message: {full}");
    }

    #[test]
    fn consensus_decides_round_zero_when_honest_and_fast() {
        let c = consensus_cost(4);
        assert_eq!(c.decision_round, 0, "{c:?}");
        assert!(c.messages > 0);
    }
}
