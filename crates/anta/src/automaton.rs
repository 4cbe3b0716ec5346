//! Data-driven timed automata — the paper's specification formalism.
//!
//! §4: *"There is one automaton for each participant in the protocol …
//! It has a finite number of states, depicted as circles, and transitions
//! between them. Each automaton keeps an internal clock, whose value … is
//! stored in the variable `now`. In case a transition occurs that is
//! labelled by an assignment `x := now`, the variable `x` will remember the
//! point in time when the transition took place. An automaton spends a
//! bounded amount of time calculating in each grey (output) state, and
//! leaves it by performing the action `s(id, m)`. … When an automaton is in
//! a white (input) state, it stays there (possibly forever) until one of its
//! outgoing transitions becomes enabled. … The time-out transition
//! `now ≥ u + a_i` is enabled when this formula evaluates to true. An input
//! transition `r(id, m)` is triggered by the receipt of message `m` from the
//! automaton `id`."*
//!
//! [`AutomatonSpec`] encodes exactly that structure as *data* (states,
//! transitions, guards, clock-variable assignments), and
//! [`AutomatonProcess`] interprets a spec as a [`Process`] on the engine.
//! Encoding Figure 2 as data rather than hand-written handlers lets the
//! test-suite cross-check the executable protocol against the paper's
//! diagram (state reachability, transition coverage) and lets the schedule
//! explorer enumerate its behaviours.
//!
//! The store holds clock variables only. A grey state's send is built
//! from the store and the message whose receipt entered the grey chain
//! (its *trigger*), which is how the paper's `r(id, m)` followed by
//! `s(id', m)` forwards the `m` it received — a connector passes on Bob's
//! χ, it does not sign one.
//!
//! Message buffering: deliveries that no transition of the *current* state
//! can consume are buffered and re-offered after every state change — the
//! standard asynchronous-network reading of `r(id, m)` (the network does not
//! destroy messages because the receiver is momentarily elsewhere; see e.g.
//! Chloe, who may receive `G(d_i)` and `P(a_{i-1})` in either order).

use crate::fingerprint::fingerprint;
use crate::process::{Ctx, Message, Pid, Process, TimerId};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// Index of a state within an automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

/// White (input) or grey (output) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// White: waits for a receive or time-out transition to become enabled.
    Input,
    /// Grey: performs its single send and moves on (bounded compute time is
    /// charged by the engine).
    Output,
}

/// Variable store of one automaton: its clock variables (`x := now`).
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct VarStore {
    /// Clock variables (`x := now` targets).
    pub clocks: Vec<SimTime>,
}

/// Guard over an incoming message.
pub type GuardFn<M> = Arc<dyn Fn(&M, &VarStore) -> bool + Send + Sync>;
/// Assignment executed when a transition fires: receives the store and the
/// local `now`.
pub type AssignFn = Arc<dyn Fn(&mut VarStore, SimTime) + Send + Sync>;
/// Constructor of an outgoing message from the variable store and the
/// trigger: the message whose receipt entered the chain of grey states
/// (`None` when a time-out or the start entered it).
pub type MakeFn<M> = Arc<dyn Fn(&VarStore, Option<&M>) -> M + Send + Sync>;

/// A transition's triggering action.
#[derive(Clone)]
pub enum Action<M> {
    /// `r(from, m)` with a content guard.
    Receive {
        /// Sender process id.
        from: Pid,
        /// Content guard the message must satisfy.
        guard: GuardFn<M>,
    },
    /// `now ≥ clocks[var] + delay`.
    Timeout {
        /// Clock-variable index the timeout reads.
        var: usize,
        /// Offset added to the clock variable.
        delay: SimDuration,
    },
    /// `s(to, make(store, trigger))` — only from output states.
    Send {
        /// Recipient process id.
        to: Pid,
        /// Constructs the outgoing message (see [`MakeFn`]).
        make: MakeFn<M>,
    },
}

impl<M> std::fmt::Debug for Action<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Receive { from, .. } => write!(f, "r({from}, …)"),
            Action::Timeout { var, delay } => write!(f, "now ≥ x{var} + {delay}"),
            Action::Send { to, .. } => write!(f, "s({to}, …)"),
        }
    }
}

/// One transition of the automaton.
#[derive(Clone)]
pub struct Transition<M> {
    /// Sender process id.
    pub from: StateId,
    /// Recipient process id.
    pub to: StateId,
    /// The triggering action.
    pub action: Action<M>,
    /// Optional `x := now` assignments on firing.
    pub assign: Option<AssignFn>,
}

/// A complete automaton specification.
#[derive(Clone)]
pub struct AutomatonSpec<M> {
    /// Human-readable name (diagrams, traces).
    pub name: String,
    state_names: Vec<String>,
    state_kinds: Vec<StateKind>,
    transitions: Vec<Transition<M>>,
    /// Transitions indexed by source state.
    by_state: Vec<Vec<usize>>,
    initial: StateId,
    n_clocks: usize,
}

/// Errors detected by [`AutomatonBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutomatonError {
    /// An output (grey) state must have exactly one outgoing transition,
    /// and it must be a send.
    BadOutputState(String),
    /// An input (white) state may not have outgoing send transitions.
    SendFromInputState(String),
    /// A transition references a state that does not exist.
    DanglingState(usize),
    /// A timeout references a clock variable ≥ `n_clocks`.
    BadClockVar(usize),
    /// No states were declared.
    Empty,
}

impl std::fmt::Display for AutomatonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutomatonError::BadOutputState(s) => {
                write!(
                    f,
                    "output state `{s}` must have exactly one send transition"
                )
            }
            AutomatonError::SendFromInputState(s) => {
                write!(f, "input state `{s}` has a send transition")
            }
            AutomatonError::DanglingState(i) => write!(f, "transition references state {i}"),
            AutomatonError::BadClockVar(v) => write!(f, "timeout uses undeclared clock var {v}"),
            AutomatonError::Empty => write!(f, "automaton has no states"),
        }
    }
}

impl std::error::Error for AutomatonError {}

/// Fluent builder for [`AutomatonSpec`].
pub struct AutomatonBuilder<M> {
    name: String,
    state_names: Vec<String>,
    state_kinds: Vec<StateKind>,
    transitions: Vec<Transition<M>>,
    initial: StateId,
    n_clocks: usize,
}

impl<M> AutomatonBuilder<M> {
    /// Starts building an automaton called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AutomatonBuilder {
            name: name.into(),
            state_names: Vec::new(),
            state_kinds: Vec::new(),
            transitions: Vec::new(),
            initial: StateId(0),
            n_clocks: 0,
        }
    }

    /// Declares a white (input) state.
    pub fn input_state(&mut self, name: impl Into<String>) -> StateId {
        self.state_names.push(name.into());
        self.state_kinds.push(StateKind::Input);
        StateId(self.state_names.len() - 1)
    }

    /// Declares a grey (output) state.
    pub fn output_state(&mut self, name: impl Into<String>) -> StateId {
        self.state_names.push(name.into());
        self.state_kinds.push(StateKind::Output);
        StateId(self.state_names.len() - 1)
    }

    /// Sets the initial state (default: first declared).
    pub fn initial(&mut self, s: StateId) -> &mut Self {
        self.initial = s;
        self
    }

    /// Declares `n` clock variables.
    pub fn clock_vars(&mut self, n: usize) -> &mut Self {
        self.n_clocks = n;
        self
    }

    /// Adds `r(from, m)` guarded by `guard`, with optional assignment.
    pub fn receive(
        &mut self,
        from_state: StateId,
        to_state: StateId,
        sender: Pid,
        guard: impl Fn(&M, &VarStore) -> bool + Send + Sync + 'static,
        assign: Option<AssignFn>,
    ) -> &mut Self {
        self.transitions.push(Transition {
            from: from_state,
            to: to_state,
            action: Action::Receive {
                from: sender,
                guard: Arc::new(guard),
            },
            assign,
        });
        self
    }

    /// Adds a time-out transition `now ≥ clocks[var] + delay`.
    pub fn timeout(
        &mut self,
        from_state: StateId,
        to_state: StateId,
        var: usize,
        delay: SimDuration,
        assign: Option<AssignFn>,
    ) -> &mut Self {
        self.transitions.push(Transition {
            from: from_state,
            to: to_state,
            action: Action::Timeout { var, delay },
            assign,
        });
        self
    }

    /// Adds `s(to, make(store, trigger))` leaving a grey state.
    pub fn send(
        &mut self,
        from_state: StateId,
        to_state: StateId,
        to: Pid,
        make: impl Fn(&VarStore, Option<&M>) -> M + Send + Sync + 'static,
        assign: Option<AssignFn>,
    ) -> &mut Self {
        self.transitions.push(Transition {
            from: from_state,
            to: to_state,
            action: Action::Send {
                to,
                make: Arc::new(make),
            },
            assign,
        });
        self
    }

    /// Validates and finalises the spec.
    pub fn build(self) -> Result<AutomatonSpec<M>, AutomatonError> {
        if self.state_names.is_empty() {
            return Err(AutomatonError::Empty);
        }
        let n = self.state_names.len();
        let mut by_state: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.transitions.iter().enumerate() {
            if t.from.0 >= n {
                return Err(AutomatonError::DanglingState(t.from.0));
            }
            if t.to.0 >= n {
                return Err(AutomatonError::DanglingState(t.to.0));
            }
            if let Action::Timeout { var, .. } = t.action {
                if var >= self.n_clocks {
                    return Err(AutomatonError::BadClockVar(var));
                }
            }
            by_state[t.from.0].push(i);
        }
        for (s, kind) in self.state_kinds.iter().enumerate() {
            let outs = &by_state[s];
            match kind {
                StateKind::Output => {
                    let ok = outs.len() == 1
                        && matches!(self.transitions[outs[0]].action, Action::Send { .. });
                    if !ok {
                        return Err(AutomatonError::BadOutputState(self.state_names[s].clone()));
                    }
                }
                StateKind::Input => {
                    if outs
                        .iter()
                        .any(|&i| matches!(self.transitions[i].action, Action::Send { .. }))
                    {
                        return Err(AutomatonError::SendFromInputState(
                            self.state_names[s].clone(),
                        ));
                    }
                }
            }
        }
        Ok(AutomatonSpec {
            name: self.name,
            state_names: self.state_names,
            state_kinds: self.state_kinds,
            transitions: self.transitions,
            by_state,
            initial: self.initial,
            n_clocks: self.n_clocks,
        })
    }
}

impl<M> AutomatonSpec<M> {
    /// The automaton's states as `(name, kind)` pairs, in declaration order.
    pub fn states(&self) -> impl Iterator<Item = (&str, StateKind)> + '_ {
        self.state_names
            .iter()
            .map(|s| s.as_str())
            .zip(self.state_kinds.iter().copied())
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of transitions.
    pub fn n_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The state's display name.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.0]
    }

    /// Renders the automaton as a Graphviz DOT digraph (used by experiment
    /// E4 to regenerate Figure 2).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=LR;");
        for (i, name) in self.state_names.iter().enumerate() {
            let fill = match self.state_kinds[i] {
                StateKind::Input => "white",
                StateKind::Output => "grey",
            };
            let _ = writeln!(
                out,
                "  s{i} [label=\"{name}\", shape=circle, style=filled, fillcolor={fill}];"
            );
        }
        let _ = writeln!(out, "  init [shape=point];");
        let _ = writeln!(out, "  init -> s{};", self.initial.0);
        for t in &self.transitions {
            let label = format!("{:?}", t.action).replace('"', "'");
            let _ = writeln!(out, "  s{} -> s{} [label=\"{label}\"];", t.from.0, t.to.0);
        }
        out.push_str("}\n");
        out
    }
}

/// Interprets an [`AutomatonSpec`] as an engine [`Process`].
///
/// The spec (guard and payload closures) is shared setup; everything else
/// is run state.
#[derive(Clone)]
pub struct AutomatonProcess<M> {
    spec: Arc<AutomatonSpec<M>>,
    st: AutomatonState<M>,
}

/// Clock variables are hashed as absolute instants, which is sound and
/// forfeits only time-translation merges.
#[derive(Clone, Hash)]
struct AutomatonState<M> {
    state: StateId,
    store: VarStore,
    /// Messages not yet consumable in the current state (see module docs).
    pending: VecDeque<(Pid, M)>,
    /// Increments on every state entry; timers carry the epoch they were set
    /// in, so timers from abandoned states are ignored.
    epoch: u64,
    halted: bool,
}

impl<M: Message> AutomatonProcess<M> {
    /// Instantiates the automaton in its initial state.
    pub fn new(spec: Arc<AutomatonSpec<M>>) -> Self {
        let store = VarStore {
            clocks: vec![SimTime::ZERO; spec.n_clocks],
        };
        let initial = spec.initial;
        AutomatonProcess {
            spec,
            st: AutomatonState {
                state: initial,
                store,
                pending: VecDeque::new(),
                epoch: 0,
                halted: false,
            },
        }
    }

    /// Current control state.
    pub fn state(&self) -> StateId {
        self.st.state
    }

    /// Current control-state name.
    pub fn state_name(&self) -> &str {
        self.spec.state_name(self.st.state)
    }

    /// The variable store (its clock variables).
    pub fn store(&self) -> &VarStore {
        &self.st.store
    }

    fn fire(&mut self, idx: usize, now: SimTime, msg: Option<&M>, ctx: &mut Ctx<M>) {
        let t = self.spec.transitions[idx].clone();
        if let Some(assign) = &t.assign {
            assign(&mut self.st.store, now);
        }
        self.enter(t.to, msg, ctx);
    }

    /// Enters `state`, on receipt of `trigger` if a receive led here:
    /// performs the whole chain of grey states (each sends its one message,
    /// built from the store and `trigger`), then in the final white state
    /// arms timeout timers, re-offers buffered messages, and halts if
    /// terminal.
    fn enter(&mut self, state: StateId, trigger: Option<&M>, ctx: &mut Ctx<M>) {
        self.st.state = state;
        self.st.epoch += 1;
        ctx.mark("state", state.0 as i64);
        // Chain through grey states.
        while matches!(self.spec.state_kinds[self.st.state.0], StateKind::Output) {
            let out = self.spec.by_state[self.st.state.0][0];
            let t = self.spec.transitions[out].clone();
            if let Action::Send { to, make } = &t.action {
                let msg = make(&self.st.store, trigger);
                ctx.send(*to, msg);
            }
            if let Some(assign) = &t.assign {
                assign(&mut self.st.store, ctx.now());
            }
            self.st.state = t.to;
            self.st.epoch += 1;
            ctx.mark("state", self.st.state.0 as i64);
        }
        // Arm timers for timeout transitions of the (white) state.
        for &ti in &self.spec.by_state[self.st.state.0] {
            if let Action::Timeout { var, delay } = self.spec.transitions[ti].action {
                let deadline = self.st.store.clocks[var] + delay;
                let id = (self.st.epoch << 16) | ti as u64;
                ctx.set_timer_at(id, deadline);
            }
        }
        // Terminal white state: protocol role complete.
        if self.spec.by_state[self.st.state.0].is_empty() {
            self.st.halted = true;
            ctx.halt();
            return;
        }
        // Re-offer buffered messages to the new state.
        self.drain_pending(ctx);
    }

    fn drain_pending(&mut self, ctx: &mut Ctx<M>) {
        let mut i = 0;
        while i < self.st.pending.len() {
            if self.st.halted {
                return;
            }
            let (from, msg) = self.st.pending[i].clone();
            if let Some(idx) = self.match_receive(from, &msg) {
                self.st.pending.remove(i);
                self.fire(idx, ctx.now(), Some(&msg), ctx);
                // `fire` may have changed state; restart the scan.
                i = 0;
            } else {
                i += 1;
            }
        }
    }

    fn match_receive(&self, from: Pid, msg: &M) -> Option<usize> {
        self.spec.by_state[self.st.state.0]
            .iter()
            .copied()
            .find(|&ti| match &self.spec.transitions[ti].action {
                Action::Receive { from: want, guard } => {
                    *want == from && guard(msg, &self.st.store)
                }
                _ => false,
            })
    }
}

impl<M: Message> Process<M> for AutomatonProcess<M> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        let init = self.spec.initial;
        self.enter(init, None, ctx);
    }

    fn on_message(&mut self, from: Pid, msg: M, ctx: &mut Ctx<M>) {
        if self.st.halted {
            return;
        }
        if let Some(idx) = self.match_receive(from, &msg) {
            self.fire(idx, ctx.now(), Some(&msg), ctx);
        } else {
            // Buffer: the asynchronous network holds messages until the
            // automaton reaches a state that can consume them.
            self.st.pending.push_back((from, msg));
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<M>) {
        if self.st.halted {
            return;
        }
        let epoch = id >> 16;
        let ti = (id & 0xFFFF) as usize;
        if epoch != self.st.epoch {
            return; // stale timer from a state we already left
        }
        // The timeout may still be in the future if the clock variable was
        // re-assigned; re-check the guard against the local clock.
        if let Action::Timeout { var, delay } = self.spec.transitions[ti].action {
            let deadline = self.st.store.clocks[var] + delay;
            if ctx.now() >= deadline {
                self.fire(ti, ctx.now(), None, ctx);
            } else {
                let id = (self.st.epoch << 16) | ti as u64;
                ctx.set_timer_at(id, deadline);
            }
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DriftClock;
    use crate::engine::{Engine, EngineConfig};
    use crate::net::SyncNet;
    use crate::oracle::RandomOracle;
    use crate::trace::TraceKind;

    /// Test message alphabet.
    #[derive(Debug, Clone, PartialEq, Hash)]
    enum TMsg {
        Ping,
        Pong,
        Value(i64),
    }

    /// requester(0): send Ping to 1; await Pong with timeout; halt.
    fn requester(peer: Pid, patience: SimDuration) -> AutomatonSpec<TMsg> {
        let mut b = AutomatonBuilder::new("requester");
        let send = b.output_state("send_ping");
        let wait = b.input_state("await_pong");
        let done = b.input_state("done");
        let gave_up = b.input_state("gave_up");
        b.clock_vars(1);
        b.initial(send);
        b.send(
            send,
            wait,
            peer,
            |_, _| TMsg::Ping,
            Some(Arc::new(|st: &mut VarStore, now| st.clocks[0] = now)),
        );
        b.receive(wait, done, peer, |m, _| matches!(m, TMsg::Pong), None);
        b.timeout(wait, gave_up, 0, patience, None);
        b.build().unwrap()
    }

    /// responder(1): await Ping from 0, send Pong back, halt.
    fn responder(peer: Pid) -> AutomatonSpec<TMsg> {
        let mut b = AutomatonBuilder::new("responder");
        let wait = b.input_state("await_ping");
        let reply = b.output_state("send_pong");
        let done = b.input_state("done");
        b.initial(wait);
        b.receive(wait, reply, peer, |m, _| matches!(m, TMsg::Ping), None);
        b.send(reply, done, peer, |_, _| TMsg::Pong, None);
        b.build().unwrap()
    }

    fn run_pair(delta: SimDuration, patience: SimDuration) -> (Engine<TMsg>, Pid, Pid) {
        let mut eng = Engine::new(
            Box::new(SyncNet::worst_case(delta)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let req = eng.add_process(
            Box::new(AutomatonProcess::new(Arc::new(requester(1, patience)))),
            DriftClock::perfect(),
        );
        let rsp = eng.add_process(
            Box::new(AutomatonProcess::new(Arc::new(responder(0)))),
            DriftClock::perfect(),
        );
        eng.run();
        (eng, req, rsp)
    }

    #[test]
    fn happy_path_reaches_done() {
        let (eng, req, rsp) = run_pair(SimDuration::from_ticks(10), SimDuration::from_ticks(1_000));
        let r = eng.process_as::<AutomatonProcess<TMsg>>(req).unwrap();
        assert_eq!(r.state_name(), "done");
        assert!(
            eng.trace().halt_time(req).is_some(),
            "a terminal state halts"
        );
        let s = eng.process_as::<AutomatonProcess<TMsg>>(rsp).unwrap();
        assert_eq!(s.state_name(), "done");
    }

    #[test]
    fn timeout_path_when_network_slow() {
        // Round trip needs 2·δ = 400 > patience 100 ⇒ requester gives up.
        let (eng, req, _) = run_pair(SimDuration::from_ticks(200), SimDuration::from_ticks(100));
        let r = eng.process_as::<AutomatonProcess<TMsg>>(req).unwrap();
        assert_eq!(r.state_name(), "gave_up");
    }

    #[test]
    fn timeout_exactly_at_round_trip_boundary_takes_timeout() {
        // Round trip = 2·δ = 200 with zero compute; with patience exactly
        // 200 the time-out guard `now ≥ u + a` is already enabled when the
        // Pong arrives at t = 200, and the timer event was scheduled first
        // (lower sequence number) — the automaton gives up. This is the
        // sharpness of the timeout calculus: deadlines must be strictly
        // larger than the worst-case round trip.
        let (eng, req, _) = run_pair(SimDuration::from_ticks(100), SimDuration::from_ticks(200));
        let r = eng.process_as::<AutomatonProcess<TMsg>>(req).unwrap();
        assert_eq!(r.state_name(), "gave_up");
        // One tick of slack flips the outcome.
        let (eng2, req2, _) = run_pair(SimDuration::from_ticks(100), SimDuration::from_ticks(201));
        let r2 = eng2.process_as::<AutomatonProcess<TMsg>>(req2).unwrap();
        assert_eq!(r2.state_name(), "done");
    }

    #[test]
    fn early_messages_are_buffered() {
        // An automaton expecting Value(1) then Value(2), fed in reverse
        // order, must still complete thanks to buffering, and its grey
        // state then echoes the buffered Value(2) that entered it.
        #[derive(Debug, Clone)]
        struct Feeder {
            peer: Pid,
        }
        impl Process<TMsg> for Feeder {
            fn on_start(&mut self, ctx: &mut Ctx<TMsg>) {
                ctx.send(self.peer, TMsg::Value(2));
                ctx.send(self.peer, TMsg::Value(1));
            }
            fn on_message(&mut self, _f: Pid, _m: TMsg, _c: &mut Ctx<TMsg>) {}
            fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<TMsg>) {}
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        let mut b = AutomatonBuilder::new("orderly");
        let s1 = b.input_state("want_one");
        let s2 = b.input_state("want_two");
        let echo = b.output_state("echo");
        let done = b.input_state("done");
        b.initial(s1);
        b.receive(s1, s2, 0, |m, _| matches!(m, TMsg::Value(1)), None);
        b.receive(s2, echo, 0, |m, _| matches!(m, TMsg::Value(2)), None);
        b.send(echo, done, 0, |_, m| m.cloned().expect("a receive"), None);
        let spec = b.build().unwrap();

        // Deliver Value(2) strictly before Value(1): the first send goes out
        // earlier and the net is FIFO-by-schedule with equal worst-case
        // delay, so ordering is by send time.
        let mut eng = Engine::new(
            Box::new(SyncNet::worst_case(SimDuration::from_ticks(10))),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let feeder = eng.add_process(Box::new(Feeder { peer: 1 }), DriftClock::perfect());
        assert_eq!(feeder, 0);
        let orderly = eng.add_process(
            Box::new(AutomatonProcess::new(Arc::new(spec))),
            DriftClock::perfect(),
        );
        eng.run();
        let a = eng.process_as::<AutomatonProcess<TMsg>>(orderly).unwrap();
        assert_eq!(a.state_name(), "done");
        let echoed = eng.trace().events.iter().any(|e| {
            matches!(
                &e.kind,
                TraceKind::Sent {
                    from: 1,
                    to: 0,
                    msg: TMsg::Value(2)
                }
            )
        });
        assert!(echoed, "the grey send sees the message that entered it");
    }

    #[test]
    fn clock_assignment_remembers_transition_time() {
        let (eng, req, _) = run_pair(SimDuration::from_ticks(10), SimDuration::from_ticks(1_000));
        let r = eng.process_as::<AutomatonProcess<TMsg>>(req).unwrap();
        // x0 := now fired when Ping was sent, at local time 0.
        assert_eq!(r.store().clocks[0], SimTime::ZERO);
    }

    #[test]
    fn stale_timers_ignored_after_state_change() {
        // Patience long enough that Pong arrives first; the timer still
        // fires later but must not move the automaton out of `done`.
        let (mut eng, req, _) =
            run_pair(SimDuration::from_ticks(10), SimDuration::from_ticks(50_000));
        eng.run_until(SimTime::from_secs(7_200));
        let r = eng.process_as::<AutomatonProcess<TMsg>>(req).unwrap();
        assert_eq!(r.state_name(), "done");
    }

    #[test]
    fn builder_validates_output_states() {
        let mut b = AutomatonBuilder::<TMsg>::new("bad");
        let g = b.output_state("grey_no_send");
        let _w = b.input_state("white");
        b.initial(g);
        assert!(matches!(b.build(), Err(AutomatonError::BadOutputState(_))));

        let mut b2 = AutomatonBuilder::<TMsg>::new("bad2");
        let w = b2.input_state("white_with_send");
        let w2 = b2.input_state("white2");
        b2.send(w, w2, 0, |_, _| TMsg::Ping, None);
        assert!(matches!(
            b2.build(),
            Err(AutomatonError::SendFromInputState(_))
        ));

        let mut b3 = AutomatonBuilder::<TMsg>::new("bad3");
        let w = b3.input_state("w");
        b3.timeout(w, w, 3, SimDuration::ZERO, None);
        assert!(matches!(b3.build(), Err(AutomatonError::BadClockVar(3))));

        let b4 = AutomatonBuilder::<TMsg>::new("empty");
        assert!(matches!(b4.build(), Err(AutomatonError::Empty)));
    }

    #[test]
    fn dot_rendering_mentions_all_states() {
        let spec = requester(1, SimDuration::from_ticks(5));
        let dot = spec.to_dot();
        for (name, _) in spec.states() {
            assert!(dot.contains(name), "missing {name} in DOT output");
        }
        assert!(dot.contains("digraph"));
        assert!(dot.contains("fillcolor=grey"));
        assert!(dot.contains("fillcolor=white"));
    }

    #[test]
    fn spec_accessors() {
        let spec = requester(1, SimDuration::from_ticks(5));
        assert_eq!(spec.n_states(), 4);
        assert_eq!(spec.n_transitions(), 3);
        assert_eq!(spec.state_name(StateId(0)), "send_ping");
    }
}
