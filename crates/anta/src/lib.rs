//! # xchain-anta — Asynchronous Networks of Timed Automata
//!
//! The executable form of the specification formalism the paper introduces
//! for its protocols (§4, "a specification formalism introduced in \[5\]"):
//! a network of automata, each with its own (drifting) clock, exchanging
//! messages through a timing model that is synchronous, partially
//! synchronous, or adversarial.
//!
//! Components:
//!
//! * [`time`] — fixed-point simulated time (deterministic integer math);
//! * [`clock`] — per-process drifting clocks `C(t) = offset + rate·t`;
//! * [`process`] — the [`process::Process`] trait protocol code implements;
//! * [`automaton`] — data-driven timed automata (white/grey states, guards,
//!   `x := now` clocks, sends that see their trigger) interpreting Figure 2;
//! * [`net`] — `Sync(δ)` / `PartialSync(GST, δ)` / adversarial models;
//! * [`oracle`] — the single funnel for scheduler nondeterminism;
//! * [`engine`] — the deterministic discrete-event simulator, over [`queue`];
//! * [`fingerprint`] — the explorer's state hasher, a fixed
//!   [`std::hash::Hasher`] every message and process state feeds through
//!   its derived `Hash`;
//! * [`trace`] — run traces consumed by the property checkers;
//! * [`explore`] — exhaustive schedule enumeration on small instances.
//!
//! ## Responsibility boundaries
//!
//! **In scope:**
//! - deterministic runs: every nondeterministic choice is one
//!   [`oracle::Oracle`] draw, and events dispatch in `(time, seq)` order;
//! - the engine owns dead-branch elision (it pins a choice that can only
//!   reach halted processes before drawing it) and state fingerprints,
//!   which it hands to the probe of [`engine::Engine::run_probed`];
//! - the explorer owns the seen-set: one sharded set of every fingerprint
//!   a run has left, and a run that re-enters one is cut ([`explore`]).
//!
//! **Out of scope:**
//! - protocols, their processes and violation checkers (`payment` and the
//!   baseline crates; `protocol::explore` points the explorer at a
//!   harness), the E4 instances (`experiments`) and wall-clock
//!   measurement (`benchmark/`).
//!
//! ## Example: two automata under a synchronous network
//!
//! ```
//! use anta::prelude::*;
//! use std::sync::Arc;
//!
//! // Messages feed the explorer's state fingerprint through `Hash`.
//! #[derive(Debug, Clone, PartialEq, Hash)]
//! enum Msg { Ping, Pong }
//!
//! // requester: grey "send ping" → white "await pong" (with timeout).
//! let mut b = AutomatonBuilder::new("requester");
//! let send = b.output_state("send_ping");
//! let wait = b.input_state("await_pong");
//! let done = b.input_state("done");
//! let late = b.input_state("gave_up");
//! b.clock_vars(1);
//! b.initial(send);
//! // A send sees the clocks and the message that led into it (none here).
//! b.send(send, wait, 1, |_, _| Msg::Ping,
//!        Some(Arc::new(|st: &mut VarStore, now| st.clocks[0] = now)));
//! b.receive(wait, done, 1, |m, _| matches!(m, Msg::Pong), None);
//! b.timeout(wait, late, 0, SimDuration::from_millis(5), None);
//! let requester = b.build().unwrap();
//!
//! let mut b = AutomatonBuilder::new("responder");
//! let wait = b.input_state("await_ping");
//! let reply = b.output_state("send_pong");
//! let fin = b.input_state("done");
//! b.initial(wait);
//! b.receive(wait, reply, 0, |m, _| matches!(m, Msg::Ping), None);
//! b.send(reply, fin, 0, |_, _ping| Msg::Pong, None);
//! let responder = b.build().unwrap();
//!
//! let mut eng = Engine::new(
//!     Box::new(SyncNet::worst_case(SimDuration::from_millis(1))),
//!     Box::new(RandomOracle::seeded(1)),
//!     EngineConfig::default(),
//! );
//! let rq = eng.add_process(Box::new(AutomatonProcess::new(Arc::new(requester))),
//!                          DriftClock::perfect());
//! let _rs = eng.add_process(Box::new(AutomatonProcess::new(Arc::new(responder))),
//!                           DriftClock::with_drift_ppm(50_000, SimDuration::ZERO));
//! let report = eng.run();
//! assert!(report.quiescent);
//! let a = eng.process_as::<AutomatonProcess<Msg>>(rq).unwrap();
//! assert_eq!(a.state_name(), "done");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod clock;
pub mod engine;
pub mod explore;
pub mod fingerprint;
pub mod net;
pub mod oracle;
pub mod process;
pub mod queue;
pub mod time;
pub mod trace;

/// One-stop imports for simulation code.
pub mod prelude {
    pub use crate::automaton::{
        Action, AutomatonBuilder, AutomatonProcess, AutomatonSpec, StateId, StateKind, VarStore,
    };
    pub use crate::clock::DriftClock;
    pub use crate::engine::{Engine, EngineConfig, RunReport};
    pub use crate::explore::{
        explore, explore_differential, explore_parallel, explore_parallel_with, replay,
        replay_pruned, DifferentialReport, ExploreConfig, ExploreMode, ExploreReport, Violation,
    };
    pub use crate::fingerprint::{fingerprint, Fnv64, Stamp};
    pub use crate::net::{
        AdversarialNet, Delivery, EnvelopeMeta, FaultyNet, NetFaults, NetModel, PartialSyncNet,
        SyncNet,
    };
    pub use crate::oracle::{FixedOracle, Oracle, RandomOracle, ReplayOracle};
    pub use crate::process::{Ctx, Effect, Message, Pid, Process, TimerId};
    pub use crate::time::{SimDuration, SimTime, MILLI, SECOND};
    pub use crate::trace::{Trace, TraceEvent, TraceKind, TraceMode};
}
