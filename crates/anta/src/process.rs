//! The process interface between protocol code and the simulation engine.
//!
//! A [`Process`] is its three handlers — the transitions of an ANTA
//! automaton — and sees the world exactly as the automaton does:
//!
//! * its **local clock** (`ctx.now()`), never real simulation time;
//! * incoming messages (`on_message`) — the `r(id, m)` transitions;
//! * its own timers (`on_timer`) — the `now ≥ x + d` time-out transitions;
//! * the ability to send (`ctx.send`) — the `s(id, m)` transitions.
//!
//! Implementing `on_start`, `on_message` and `on_timer` plus the state
//! digest `fp_digest` is the whole job; downcasting for post-run inspection
//! comes from the blanket [`AsAny`] impl, and the optional `fp_times` hook
//! sharpens the reduced explorer's state fingerprints. Nothing clones a
//! process: the explorer replays a schedule by rebuilding the engine.
//!
//! Protocol implementations (the Figure 2 automata, the weak-liveness
//! participants, the consensus notaries, Byzantine strategies) all implement
//! this trait; the data-driven [`crate::automaton`] interpreter is itself
//! just one more `Process`.

use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::hash::Hash;

/// Index of a process within an engine. Dense, assigned in registration
/// order — used directly as an arena index (perf-book idiom: no hashing on
/// the hot path).
pub type Pid = usize;

/// Identifier for a timer registered by a process (process-local meaning).
pub type TimerId = u64;

/// Messages must be cheaply clonable values that can feed their fields into
/// the reduced explorer's state fingerprint (in-flight payloads are part of
/// the state).
pub trait Message: Clone + std::fmt::Debug + Hash + 'static {}
impl<T: Clone + std::fmt::Debug + Hash + 'static> Message for T {}

/// Effects a process can request during a handler invocation. Collected by
/// the [`Ctx`] and applied by the engine after the handler returns, so
/// handlers never re-enter the engine.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to` (the `s(to, msg)` action).
    Send {
        /// Recipient process id.
        to: Pid,
        /// The message payload.
        msg: M,
    },
    /// Request `on_timer(id)` once the local clock reads ≥ `at_local`.
    SetTimer {
        /// The timer's id, handed back to `on_timer`.
        id: TimerId,
        /// Local-clock deadline.
        at_local: SimTime,
    },
    /// Stop participating: no further handlers run for this process.
    Halt,
    /// Trace annotation (protocol-level observation, e.g. "got_money").
    Mark {
        /// Static annotation label.
        label: &'static str,
        /// The annotation's value.
        value: i64,
    },
}

/// Handler context: the process's window onto the engine.
pub struct Ctx<M> {
    pid: Pid,
    now_local: SimTime,
    effects: Vec<Effect<M>>,
}

impl<M> Ctx<M> {
    #[cfg(test)]
    pub(crate) fn new(pid: Pid, now_local: SimTime) -> Self {
        Self::recycled(pid, now_local, Vec::new())
    }

    /// Builds a context over a recycled effects buffer, so the engine pays
    /// for the effects allocation once per run instead of once per handler
    /// dispatch. The buffer is cleared; its capacity is kept.
    pub(crate) fn recycled(pid: Pid, now_local: SimTime, mut effects: Vec<Effect<M>>) -> Self {
        effects.clear();
        Ctx {
            pid,
            now_local,
            effects,
        }
    }

    pub(crate) fn into_effects(self) -> Vec<Effect<M>> {
        self.effects
    }

    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The local clock reading (`now` in the paper's automata).
    pub fn now(&self) -> SimTime {
        self.now_local
    }

    /// Sends `msg` to `to`.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Fires `on_timer(id)` when the local clock reaches `at_local`.
    /// Deadlines already in the past fire immediately (next event).
    pub fn set_timer_at(&mut self, id: TimerId, at_local: SimTime) {
        self.effects.push(Effect::SetTimer { id, at_local });
    }

    /// Fires `on_timer(id)` after `d` of *local* time.
    pub fn set_timer_after(&mut self, id: TimerId, d: SimDuration) {
        let at = self.now_local.saturating_add(d);
        self.set_timer_at(id, at);
    }

    /// Halts this process (terminal states of the automata).
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }

    /// Records a protocol-level observation in the trace, with local
    /// timestamp. Used by the property checkers (termination times, money
    /// received, certificates issued…).
    pub fn mark(&mut self, label: &'static str, value: i64) {
        self.effects.push(Effect::Mark { label, value });
    }
}

/// Downcasting hook so property checkers can inspect a process's final
/// state (see [`crate::engine::Engine::process_as`]). Implemented for every
/// `'static` type; no process writes it.
pub trait AsAny {
    /// `self` as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A participant in the simulated network: three handlers plus the digest
/// of its state.
///
/// The reduced schedule explorer fingerprints engine states (see
/// [`crate::engine::Engine::enable_fingerprints`]), so every process writes
/// [`Process::fp_digest`]: there is no default, and a process without one
/// does not compile. The idiom is to split the process into its setup and
/// its run state. The setup — pids, keys, bounds, shared registries, fixed
/// from registration on — stays in plain fields of the process; everything
/// its future behaviour can read goes into one `…State` struct that
/// `#[derive(Hash)]`s, and `fp_digest` is
/// [`fingerprint`](crate::fingerprint::fingerprint) of that struct. A new
/// field is then hashed or ignored by the struct it goes in.
///
/// A process is never cloned: the explorer replays a schedule by building a
/// fresh engine and feeding it the recorded choices.
pub trait Process<M>: AsAny + 'static {
    /// Invoked once at simulation start (time 0 on the local clock modulo
    /// offset). ANTA automata use this to leave their initial grey states.
    fn on_start(&mut self, ctx: &mut Ctx<M>);

    /// A message has been delivered to this process.
    fn on_message(&mut self, from: Pid, msg: M, ctx: &mut Ctx<M>);

    /// A timer set earlier has fired (local clock ≥ its deadline).
    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<M>);

    /// Digest of the process's **time-free** run state, folded into the
    /// engine's state fingerprint — typically
    /// [`fingerprint`](crate::fingerprint::fingerprint) of its `…State`
    /// struct. Hashing a field that cannot matter is always sound (extra
    /// distinctions never merge states wrongly; they only forfeit
    /// reduction), so when in doubt a field goes in the state. A stateless
    /// process returns a constant.
    ///
    /// Absolute local-clock instants (`ctx.now()` snapshots) need care: the
    /// state hashes whether they are set, and then each instant is either
    ///
    /// * pushed to [`Process::fp_times`], in a fixed order, if the
    ///   process's *future* behaviour still reads it (a live `now ≥ u + d`
    ///   timeout race). The engine folds it as a residue against the
    ///   current local clock, so states with the same pending-timeout
    ///   structure reached earlier or later fingerprint identically and
    ///   deduplicate; or
    /// * kept only for post-run checkers (a recorded "when did I pay"
    ///   instant). Past times are deliberately abstracted out of the
    ///   fingerprint — see the time-robust checker contract on
    ///   [`Engine::enable_fingerprints`](crate::engine::Engine::enable_fingerprints).
    ///
    /// Both kinds sit in the state as a
    /// [`Stamp`](crate::fingerprint::Stamp), whose `Hash` feeds only its
    /// presence. Hashing an instant absolutely instead is sound too; it only
    /// forfeits reduction. A wrapper process forwards both the inner digest
    /// and the inner [`Process::fp_times`]: dropping the latter would lose a
    /// live timeout anchor, which is unsound.
    fn fp_digest(&self) -> u64;

    /// Absolute local-clock instants this process's **future** behaviour
    /// still reads, pushed in a fixed order; folded into the state
    /// fingerprint as residues against the local clock. See
    /// [`Process::fp_digest`] for the contract. Default: none.
    fn fp_times(&self, _out: &mut Vec<SimTime>) {}
}

/// A process that does nothing — useful as a crash-from-start fault and in
/// engine tests.
#[derive(Debug, Clone, Default)]
pub struct InertProcess;

impl<M: Message> Process<M> for InertProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}
    fn on_message(&mut self, _from: Pid, _msg: M, _ctx: &mut Ctx<M>) {}
    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<M>) {}
    fn fp_digest(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_effects_in_order() {
        let mut ctx: Ctx<u32> = Ctx::new(3, SimTime::from_ticks(50));
        assert_eq!(ctx.pid(), 3);
        assert_eq!(ctx.now(), SimTime::from_ticks(50));
        ctx.send(1, 42);
        ctx.set_timer_after(7, SimDuration::from_ticks(10));
        ctx.mark("m", -1);
        ctx.halt();
        let fx = ctx.into_effects();
        assert_eq!(fx.len(), 4);
        match &fx[0] {
            Effect::Send { to, msg } => {
                assert_eq!(*to, 1);
                assert_eq!(*msg, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &fx[1] {
            Effect::SetTimer { id, at_local } => {
                assert_eq!(*id, 7);
                assert_eq!(*at_local, SimTime::from_ticks(60));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            fx[2],
            Effect::Mark {
                label: "m",
                value: -1
            }
        ));
        assert!(matches!(fx[3], Effect::Halt));
    }

    #[test]
    fn timer_after_saturates() {
        let mut ctx: Ctx<u32> = Ctx::new(0, SimTime::MAX);
        ctx.set_timer_after(1, SimDuration::MAX);
        match &ctx.into_effects()[0] {
            Effect::SetTimer { at_local, .. } => assert_eq!(*at_local, SimTime::MAX),
            other => panic!("unexpected {other:?}"),
        }
    }
}
