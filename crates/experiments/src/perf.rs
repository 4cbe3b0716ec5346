//! The engine-throughput workload the repo benchmark (`benchmark/`)
//! times. The paper's message and event counts are exact tests instead:
//! `tests/protocol_cost.rs` pins them, and E1 prints each run's messages.

use anta::net::SyncNet;
use anta::oracle::RandomOracle;
use anta::trace::TraceMode;

/// The engine-throughput workload (the denominator of the benchmark's
/// `anta.engine_ns_per_event_*`): a two-process ping-pong of
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_workload_events_identical_across_trace_modes() {
        let full = engine_events_workload(1_000, TraceMode::Full);
        let lean = engine_events_workload(1_000, TraceMode::CountersOnly);
        assert_eq!(full, lean);
        assert!(full > 1_000, "two starts + one event per message: {full}");
    }
}
