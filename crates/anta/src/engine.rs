//! The deterministic discrete-event engine executing an Asynchronous
//! Network of Timed Automata.
//!
//! Semantics follow §4 of the paper:
//!
//! * each process owns a drifting local clock; *all* protocol-visible time
//!   is local (`Ctx::now`), while the engine itself runs on real time;
//! * **white (input) states**: a process sits idle until a message delivery
//!   or a local-clock timeout enables a transition — modelled by
//!   `on_message` / `on_timer`;
//! * **grey (output) states**: "an automaton spends a bounded amount of
//!   time calculating in each grey state" — modelled by charging a
//!   computation delay in `[0, σ_max]` (oracle-quantised) to every handler
//!   invocation that sends messages;
//! * message transit is decided by the pluggable [`NetModel`].
//!
//! Determinism: events wait in an [`EventQueue`] at rank 0, so they
//! dispatch in real-time order and, at one instant, in the order they were
//! scheduled; runs are bit-reproducible given the same oracle, and all
//! randomness flows through [`Oracle`].

use crate::clock::DriftClock;
use crate::fingerprint::Fnv64;
use crate::net::{Delivery, EnvelopeMeta, NetModel};
use crate::oracle::{FixedOracle, Oracle};
use crate::process::{Ctx, Effect, Message, Pid, Process, TimerId};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceMode};
use std::hash::Hasher;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard horizon on real simulation time; runs stop at the first event
    /// beyond it. "Eventually" in liveness properties is checked against
    /// generous horizons.
    pub max_real_time: SimTime,
    /// Runaway guard: maximum number of dispatched events.
    pub max_events: u64,
    /// Maximum computation time charged to a sending handler (σ).
    pub sigma_max: SimDuration,
    /// Quantisation of the computation delay (1 ⇒ always σ_max).
    pub sigma_buckets: usize,
    /// How much of the run the trace records. [`TraceMode::CountersOnly`]
    /// skips storing (and cloning) message payloads — the right choice for
    /// exhaustive exploration and sweeps, where only counters, marks and
    /// halts are read back.
    pub trace_mode: TraceMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_real_time: SimTime::from_secs(3_600),
            max_events: 5_000_000,
            sigma_max: SimDuration::ZERO,
            sigma_buckets: 1,
            trace_mode: TraceMode::Full,
        }
    }
}

/// Why and how a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Events dispatched.
    pub events: u64,
    /// Real time of the last dispatched event.
    pub end_time: SimTime,
    /// True if the event queue drained (nothing left to happen).
    pub quiescent: bool,
    /// True if every process halted.
    pub all_halted: bool,
    /// True if the run stopped at the time horizon or event cap instead of
    /// draining.
    pub truncated: bool,
}

struct ProcSlot<M> {
    proc: Box<dyn Process<M>>,
    clock: DriftClock,
    halted: bool,
}

enum EventKind<M> {
    Start(Pid),
    Deliver { from: Pid, to: Pid, msg: M },
    Timer { pid: Pid, id: TimerId },
}

/// State-fingerprinting machinery, present only after
/// [`Engine::enable_fingerprints`]. Kept out of the hot path entirely when
/// absent.
struct FpState {
    /// Cached per-process [`Process::fp_digest`] values; only the dispatched
    /// pid's entry is recomputed per event.
    proc_digests: Vec<u64>,
    /// Events dispatched so far (dead deliveries included).
    dispatched: u64,
    /// Scratch buffer for sorting the in-flight event set by `(at, seq)`.
    scratch: Vec<(SimTime, u64, u64)>,
    /// Scratch buffer for [`Process::fp_times`] residues.
    times_scratch: Vec<SimTime>,
}

/// The simulator.
pub struct Engine<M: Message> {
    procs: Vec<ProcSlot<M>>,
    net: Box<dyn NetModel<M>>,
    oracle: Box<dyn Oracle>,
    /// In-flight events, each with its content hash (pids, timer id,
    /// payload digest — **not** the queue's `seq`; see
    /// [`Engine::enable_fingerprints`]), computed once at push time and
    /// zero unless fingerprinting is enabled.
    queue: EventQueue<(EventKind<M>, u64)>,
    now: SimTime,
    trace: Trace<M>,
    cfg: EngineConfig,
    started: bool,
    /// Recycled effects buffer, handed to each handler's `Ctx` and taken
    /// back after dispatch — one allocation per run, not per handler.
    fx_buf: Vec<Effect<M>>,
    /// High-water mark of the event queue, for pre-sizing repeated runs.
    queue_high: usize,
    /// Fingerprinting state (reduced explorer); `None` ⇒ zero overhead.
    fp: Option<FpState>,
    /// Dead-branch elision, set only by the reduced explorer and
    /// `replay_pruned` ([`Engine::set_prune_dead_sends`]).
    ///
    /// A delivery to a process that has already **halted** is a no-op: the
    /// engine discards the event before the handler or the trace sees it.
    /// The delay bucket chosen for such a message (and the σ bucket of a
    /// handler *all* of whose sends are dead) therefore decides nothing the
    /// run can observe — except the real time at which the dead event is
    /// popped, which only moves `RunReport::end_time`/`events` for the dead
    /// tail of the run. With elision on, those choices are pinned to the
    /// worst case (the same convention as `buckets = 1`) instead of being
    /// drawn from the oracle, so an exploring oracle never logs — and the
    /// explorer never branches on — choices whose subtrees are pairwise
    /// identical.
    ///
    /// Off for every other run: pinning removes oracle draws, so seeded
    /// Monte-Carlo runs would see a shifted choice stream. Checkers that
    /// read `end_time`/`events` of post-halt tails, or that distinguish runs
    /// truncated *inside* a dead tail, do not hold under it.
    prune_dead_sends: bool,
    /// Choices elided under `prune_dead_sends`.
    dead_branch_prunes: u64,
}

impl<M: Message> Engine<M> {
    /// Creates an engine over a network model and an oracle.
    pub fn new(net: Box<dyn NetModel<M>>, oracle: Box<dyn Oracle>, cfg: EngineConfig) -> Self {
        let trace = Trace::with_mode(cfg.trace_mode);
        Engine {
            procs: Vec::new(),
            net,
            oracle,
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            trace,
            cfg,
            started: false,
            fx_buf: Vec::new(),
            queue_high: 0,
            fp: None,
            prune_dead_sends: false,
            dead_branch_prunes: 0,
        }
    }

    /// Registers a process with its local clock; returns its [`Pid`]
    /// (dense, in registration order).
    pub fn add_process(&mut self, proc: Box<dyn Process<M>>, clock: DriftClock) -> Pid {
        assert!(!self.started, "processes must be added before run()");
        let pid = self.procs.len();
        self.procs.push(ProcSlot {
            proc,
            clock,
            halted: false,
        });
        pid
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if no processes are registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Immutable access to a process, downcast to its concrete type.
    /// Returns `None` for a wrong type; panics on a bad pid.
    pub fn process_as<T: 'static>(&self, pid: Pid) -> Option<&T> {
        // Deref to the `dyn Process` first: wherever `AsAny` is in scope,
        // `.as_any()` on the `Box` picks the blanket impl for the `Box`
        // itself, and no downcast would ever succeed.
        (*self.procs[pid].proc).as_any().downcast_ref::<T>()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace<M> {
        &self.trace
    }

    /// Largest number of events the queue held at any point so far — the
    /// capacity a repeat of a comparable run needs. Its only caller is the
    /// repo benchmark (`benchmark/`), until ROADMAP item 1(ii) ports it;
    /// the simulator builds every engine fresh.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high
    }

    /// Pre-sizes the event queue and (in [`TraceMode::Full`]) the trace
    /// buffer with an earlier comparable run's high-water marks, so a
    /// rebuilt engine skips the grow-by-doubling phase. Like
    /// [`queue_high_water`](Self::queue_high_water), only `benchmark/`
    /// calls it.
    pub fn reserve_capacity(&mut self, queue_events: usize, trace_events: usize) {
        self.queue
            .reserve(queue_events.saturating_sub(self.queue.len()));
        self.trace.reserve(trace_events);
    }

    /// Turns on state fingerprinting (and the trace's rolling observable
    /// digest). Must be called before the first `run()`.
    ///
    /// # What the fingerprint covers, and why it is sound
    ///
    /// After every dispatched event the engine folds into one 64-bit FNV-1a
    /// digest everything the run's *future* is a function of:
    ///
    /// * **per-process state** — each process's hand-written
    ///   [`Process::fp_digest`] over its run state (cached, recomputed
    ///   only for the pid the event touched) plus its engine-side `halted`
    ///   flag, plus any [`Process::fp_times`] instants folded as signed
    ///   residues against the process's *current* local clock;
    /// * **in-flight events** — every queued `(at, seq, content-hash)`
    ///   triple (`seq` is the [`EventQueue`]'s push counter), folded in
    ///   `(at, seq)` order as `(at − now, content-hash)`.
    ///   The content hash excludes `seq` (so differently-ordered histories
    ///   can converge) but the fold order *is* the dispatch order,
    ///   including `seq` tie-breaks among equal times — two states with
    ///   equal folds dispatch equal events in the same order. Message
    ///   payloads enter through their `Hash` impl (a bound of
    ///   [`Message`]), fed into [`Fnv64`]; timers via `(pid, id)`;
    /// * **the observable trace** — counters (sent / delivered / per-pid
    ///   delivered / dropped) plus the rolling
    ///   [`Trace::obs_digest`](crate::trace::Trace::obs_digest) over
    ///   time-free, payload-free events — so two states are only identified
    ///   when checkers running over their traces see the same event
    ///   structure (see `obs_digest` for what "time-free" demands of
    ///   checkers);
    /// * **dispatch count** — so `RunReport::events`-derived caps behave
    ///   monotonically across merged prefixes.
    ///
    /// # Clock residues: the fingerprint is time-abstract
    ///
    /// Nothing above folds an *absolute* time. Times enter only where the
    /// run's **future** reads them, and only as offsets from the current
    /// clocks ("clock residues"): queued events as `at − now`, live
    /// process-held timeout anchors via [`Process::fp_times`] as residues
    /// against that process's local clock. Process behaviour is itself a
    /// function of exactly those residues: handlers read time only through
    /// `ctx.now()` comparisons against stored instants and relative timers,
    /// local clocks are affine in real time with per-run-constant
    /// parameters, and queued timers are clamped to `≥ now` at creation.
    /// So two states with equal residue structure — the same configuration
    /// reached earlier or later, e.g. down different σ delay choices —
    /// fingerprint identically and deduplicate, and their futures unfold
    /// event-for-event alike (shifted in time). Two deliberate caveats,
    /// both validated per instance by the differential mode
    /// ([`crate::explore`]):
    ///
    /// * **past timestamps are abstracted away.** Merged runs agree on the
    ///   *order* of halts and marks but may disagree on their timestamps,
    ///   so a checker combined with deduplication must be *time-robust*:
    ///   its verdict may read event or stored times only through predicates
    ///   that hold (or fail) uniformly across all schedules of the
    ///   instance — e.g. the Definition 1 `T` bound, which the timeout
    ///   calculus guarantees for every delay the explorer can choose. A
    ///   checker thresholding on raw timestamps could have a near-threshold
    ///   run pruned as a duplicate of one on the other side;
    /// * **[`EngineConfig::max_real_time`]** — a run near the horizon has
    ///   less slack than its earlier twin. Explorer horizons are sized as a
    ///   many-multiples-of-worst-deadline backstop that quiescent runs
    ///   never reach (same documented-caveat class as the explorer's
    ///   dead-branch elision); a run truncated by the
    ///   horizon reports `truncated` and fails verdicts loudly rather than
    ///   silently.
    ///
    /// Deliberately **excluded**:
    ///
    /// * `self.now` — by design, per the residue scheme above;
    /// * clock drift/offset parameters — constant per run and identical
    ///   across all schedules of one instance (exploration never varies
    ///   them mid-tree);
    /// * network-model and oracle internals — the explorer's networks
    ///   ([`crate::net::SyncNet`]-style) are stateless per message; a
    ///   stateful net (e.g. per-mille fault counters) would need its own
    ///   digest term before it could be deduplicated soundly.
    ///
    /// Collisions: this is a 64-bit hash — a collision wrongly prunes a
    /// schedule. At the ≤10⁷ states per instance the explorer visits, the
    /// birthday bound puts the collision probability around 10⁻⁵ per
    /// instance; the differential mode ([`crate::explore`]) exists to catch
    /// exactly such discrepancies on instances small enough to enumerate.
    pub fn enable_fingerprints(&mut self) {
        assert!(!self.started, "enable_fingerprints() before run()");
        if self.fp.is_none() {
            self.trace.enable_digest();
            self.fp = Some(FpState {
                proc_digests: Vec::new(),
                dispatched: 0,
                scratch: Vec::new(),
                times_scratch: Vec::new(),
            });
        }
    }

    /// Turns dead-branch elision on or off (see the `prune_dead_sends`
    /// field) — the reduced explorer flips it on engines built by
    /// mode-agnostic `build` closures. Must be called before the first
    /// `run()`.
    pub(crate) fn set_prune_dead_sends(&mut self, on: bool) {
        assert!(!self.started, "set_prune_dead_sends() before run()");
        self.prune_dead_sends = on;
    }

    /// Oracle choices elided as dead branches so far.
    pub(crate) fn dead_branch_prunes(&self) -> u64 {
        self.dead_branch_prunes
    }

    /// The current state fingerprint, when fingerprinting is enabled.
    pub fn state_fingerprint(&mut self) -> Option<u64> {
        if self.fp.is_some() {
            self.refresh_proc_digests();
            Some(self.compute_fingerprint())
        } else {
            None
        }
    }

    /// Content hash of an event, independent of its queue sequence number.
    fn event_hash(kind: &EventKind<M>) -> u64 {
        let mut h = Fnv64::new();
        match kind {
            EventKind::Start(pid) => {
                h.write_u64(1);
                h.write_usize(*pid);
            }
            EventKind::Deliver { from, to, msg } => {
                h.write_u64(2);
                h.write_usize(*from);
                h.write_usize(*to);
                msg.hash(&mut h);
            }
            EventKind::Timer { pid, id } => {
                h.write_u64(3);
                h.write_usize(*pid);
                h.write_u64(*id);
            }
        }
        h.finish()
    }

    /// The process an event's dispatch can mutate.
    fn target_pid(kind: &EventKind<M>) -> Pid {
        match kind {
            EventKind::Start(pid) => *pid,
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { pid, .. } => *pid,
        }
    }

    /// (Re)fills the per-process digest cache for newly added processes.
    fn refresh_proc_digests(&mut self) {
        let Self {
            ref mut fp,
            ref procs,
            ..
        } = *self;
        if let Some(fp) = fp.as_mut() {
            if fp.proc_digests.len() != procs.len() {
                fp.proc_digests = procs.iter().map(|s| s.proc.fp_digest()).collect();
            }
        }
    }

    /// Folds the full state fingerprint; see [`Engine::enable_fingerprints`]
    /// for the coverage contract. Requires `self.fp` to be populated.
    fn compute_fingerprint(&mut self) -> u64 {
        let Self {
            ref mut fp,
            ref procs,
            ref queue,
            ref trace,
            now,
            ..
        } = *self;
        let fp = fp.as_mut().expect("fingerprinting enabled");
        let mut h = Fnv64::new();
        h.write_u64(fp.dispatched);
        h.write_usize(trace.sent_count());
        h.write_usize(trace.delivered_total());
        h.write_usize(trace.dropped_count());
        for pid in 0..procs.len() {
            h.write_usize(trace.delivered_count(pid));
        }
        h.write_u64(trace.obs_digest().unwrap_or(0));
        for (slot, digest) in procs.iter().zip(&fp.proc_digests) {
            h.write_u8(slot.halted as u8);
            h.write_u64(*digest);
            fp.times_scratch.clear();
            slot.proc.fp_times(&mut fp.times_scratch);
            if !fp.times_scratch.is_empty() {
                let local = slot.clock.local_at(now);
                h.write_usize(fp.times_scratch.len());
                for &t in fp.times_scratch.iter() {
                    // Signed residue: keeps "how far past the instant we
                    // already are" distinct from "how far before it we are".
                    h.write_i64(t.ticks() as i64 - local.ticks() as i64);
                }
            }
        }
        fp.scratch.clear();
        // Every event sits at rank 0, so the second key word is its `seq`.
        let keyed = queue.iter().map(|(at, seq, &(_, ehash))| (at, seq, ehash));
        fp.scratch.extend(keyed);
        fp.scratch.sort_unstable();
        for &(at, _seq, ehash) in fp.scratch.iter() {
            // Offset from the current instant, not the absolute time: two
            // states that are uniform time-translations of each other must
            // fold identically (every queued `at` is ≥ `now`).
            h.write_u64(at.ticks() - now.ticks());
            h.write_u64(ehash);
        }
        h.finish()
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind<M>) {
        let ehash = if self.fp.is_some() {
            Self::event_hash(&kind)
        } else {
            0
        };
        self.queue.push(at, 0, (kind, ehash));
        self.queue_high = self.queue_high.max(self.queue.len());
    }

    /// Runs to quiescence (or to the horizon / event cap).
    pub fn run(&mut self) -> RunReport {
        self.run_loop(None)
            .expect("a run without a probe is never cut")
    }

    /// [`Engine::run`], calling `probe` with the state fingerprint after
    /// every dispatched event. A probe that returns `true` ("this state is
    /// already covered") stops the run, and the result is `None`.
    ///
    /// # Panics
    ///
    /// Unless [`Engine::enable_fingerprints`] was called first.
    pub fn run_probed(&mut self, probe: &mut dyn FnMut(u64) -> bool) -> Option<RunReport> {
        assert!(
            self.fp.is_some(),
            "run_probed requires enable_fingerprints()"
        );
        self.run_loop(Some(probe))
    }

    fn run_loop(&mut self, mut probe: Option<&mut dyn FnMut(u64) -> bool>) -> Option<RunReport> {
        if !self.started {
            self.started = true;
            self.refresh_proc_digests();
            for pid in 0..self.procs.len() {
                self.push_event(SimTime::ZERO, EventKind::Start(pid));
            }
        }
        let mut events = 0u64;
        let mut truncated = false;
        while let Some((at, _, _)) = self.queue.peek() {
            if at > self.cfg.max_real_time || events >= self.cfg.max_events {
                // Leave it queued: a caller may resume with a larger horizon.
                truncated = true;
                break;
            }
            let (at, (kind, _)) = self.queue.pop().expect("peeked");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            events += 1;
            let fp_pid = self.fp.as_ref().map(|_| Self::target_pid(&kind));
            self.dispatch(kind);
            if let Some(pid) = fp_pid {
                let digest = self.procs[pid].proc.fp_digest();
                let fp = self.fp.as_mut().expect("fp present");
                fp.dispatched += 1;
                fp.proc_digests[pid] = digest;
                if let Some(probe) = probe.as_mut() {
                    if probe(self.compute_fingerprint()) {
                        return None;
                    }
                }
            }
        }
        let all_halted = self.procs.iter().all(|p| p.halted);
        Some(RunReport {
            events,
            end_time: self.now,
            quiescent: self.queue.is_empty(),
            all_halted,
            truncated,
        })
    }

    /// Extends the horizon and continues the run — used to distinguish
    /// "terminated" from "would have kept going" in liveness checks.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        self.cfg.max_real_time = horizon;
        self.run()
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        let pid = Self::target_pid(&kind);
        if self.procs[pid].halted {
            return;
        }
        match &kind {
            EventKind::Start(_) => {}
            EventKind::Deliver { from, msg, .. } => {
                self.trace.record_delivered(self.now, *from, pid, msg);
            }
            &EventKind::Timer { id, .. } => {
                self.trace.push(self.now, TraceKind::TimerFired { pid, id });
            }
        }
        let local = self.procs[pid].clock.local_at(self.now);
        let mut ctx = Ctx::recycled(pid, local, std::mem::take(&mut self.fx_buf));
        let proc = &mut self.procs[pid].proc;
        match kind {
            EventKind::Start(_) => proc.on_start(&mut ctx),
            EventKind::Deliver { from, msg, .. } => proc.on_message(from, msg, &mut ctx),
            EventKind::Timer { id, .. } => proc.on_timer(id, &mut ctx),
        }
        self.apply_effects(pid, ctx.into_effects());
    }

    fn apply_effects(&mut self, pid: Pid, mut effects: Vec<Effect<M>>) {
        // Charge the grey-state computation time once per handler that
        // sends; timers and marks are bookkeeping on the transition itself.
        let has_sends = effects.iter().any(|e| matches!(e, Effect::Send { .. }));
        let prune = self.prune_dead_sends;
        // Under dead-branch elision, a handler whose every send is addressed
        // to an already-halted process gets its σ draw pinned too: the draw
        // would only shift dead delivery times.
        let live_sends = !prune
            || effects
                .iter()
                .any(|e| matches!(e, Effect::Send { to, .. } if !self.procs[*to].halted));
        let compute = if has_sends && !self.cfg.sigma_max.is_zero() {
            let buckets = self.cfg.sigma_buckets.max(1);
            let idx = if live_sends {
                self.oracle.choose(buckets)
            } else {
                self.dead_branch_prunes += 1;
                buckets - 1
            } as u64;
            let buckets = buckets as u64;
            if buckets == 1 {
                self.cfg.sigma_max
            } else {
                SimDuration::from_ticks(self.cfg.sigma_max.ticks() * idx / (buckets - 1))
            }
        } else {
            SimDuration::ZERO
        };
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => {
                    let sent_at = self.now + compute;
                    let meta = EnvelopeMeta {
                        from: pid,
                        to,
                        sent_at,
                        seq: self.queue.pushed(),
                    };
                    self.trace.record_sent(sent_at, pid, to, &msg);
                    let delivery = if prune && self.procs[to].halted {
                        // Delivery to a halted process is a no-op; route
                        // with a pinned worst-case oracle so no branchable
                        // choice is consumed (see `prune_dead_sends`).
                        self.dead_branch_prunes += 1;
                        let mut pinned = FixedOracle::maximal();
                        self.net.route(&meta, &msg, &mut pinned)
                    } else {
                        self.net.route(&meta, &msg, self.oracle.as_mut())
                    };
                    match delivery {
                        Delivery::At(t) => {
                            let at = t.max(sent_at);
                            self.push_event(at, EventKind::Deliver { from: pid, to, msg });
                        }
                        Delivery::Never => {
                            self.trace.record_dropped(sent_at, pid, to, msg);
                        }
                    }
                }
                Effect::SetTimer { id, at_local } => {
                    let real = match self.procs[pid].clock.real_when_local(at_local) {
                        Some(r) => r.max(self.now),
                        None => self.now, // deadline already passed locally
                    };
                    self.push_event(real, EventKind::Timer { pid, id });
                }
                Effect::Halt => {
                    if !self.procs[pid].halted {
                        self.procs[pid].halted = true;
                        let local = self.procs[pid].clock.local_at(self.now);
                        self.trace.push(self.now, TraceKind::Halted { pid, local });
                    }
                }
                Effect::Mark { label, value } => {
                    let local = self.procs[pid].clock.local_at(self.now);
                    self.trace.push(
                        self.now,
                        TraceKind::Mark {
                            pid,
                            local,
                            label,
                            value,
                        },
                    );
                }
            }
        }
        // Hand the (now empty) buffer back for the next dispatch.
        self.fx_buf = effects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::net::SyncNet;
    use crate::oracle::RandomOracle;

    /// Ping-pong: A sends counter to B, B returns counter+1, until limit.
    #[derive(Debug, Clone)]
    struct Pinger {
        peer: Pid,
        limit: u32,
        last_seen: u32,
        serve_first: bool,
    }

    impl Process<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if self.serve_first {
                ctx.send(self.peer, 0);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u32, ctx: &mut Ctx<u32>) {
            self.last_seen = msg;
            if msg >= self.limit {
                ctx.mark("done", msg as i64);
                ctx.halt();
            } else {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<u32>) {}
        fn fp_digest(&self) -> u64 {
            fingerprint(&self.last_seen)
        }
    }

    fn ping_pong_engine_mode(seed: u64, sigma: SimDuration, trace_mode: TraceMode) -> Engine<u32> {
        let cfg = EngineConfig {
            sigma_max: sigma,
            sigma_buckets: 4,
            trace_mode,
            ..Default::default()
        };
        let mut eng = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_ticks(100), 8)),
            Box::new(RandomOracle::seeded(seed)),
            cfg,
        );
        eng.add_process(
            Box::new(Pinger {
                peer: 1,
                limit: 10,
                last_seen: 0,
                serve_first: true,
            }),
            DriftClock::perfect(),
        );
        eng.add_process(
            Box::new(Pinger {
                peer: 0,
                limit: 10,
                last_seen: 0,
                serve_first: false,
            }),
            DriftClock::perfect(),
        );
        eng
    }

    fn ping_pong_engine(seed: u64, sigma: SimDuration) -> Engine<u32> {
        ping_pong_engine_mode(seed, sigma, TraceMode::Full)
    }

    #[test]
    fn ping_pong_completes() {
        let mut eng = ping_pong_engine(1, SimDuration::ZERO);
        let report = eng.run();
        assert!(report.quiescent);
        assert!(!report.truncated);
        // Message values 0..=10 → eleven sends.
        assert_eq!(eng.trace().sent_count(), 11);
        let p1 = eng.process_as::<Pinger>(1).unwrap();
        let p0 = eng.process_as::<Pinger>(0).unwrap();
        assert_eq!(p0.last_seen.max(p1.last_seen), 10);
        // Whoever saw 10 halted and marked.
        assert!(eng.trace().marks("done").count() == 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut eng = ping_pong_engine(seed, SimDuration::from_ticks(7));
            let r = eng.run();
            (r.end_time, r.events, eng.trace().events.len())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(
            run(5).0,
            run(6).0,
            "different seeds explore different delays"
        );
    }

    #[test]
    fn compute_delay_shifts_sends() {
        // With σ > 0 and worst-case delays the run takes strictly longer.
        let mut fast = ping_pong_engine(2, SimDuration::ZERO);
        let mut slow = ping_pong_engine(2, SimDuration::from_ticks(1_000));
        let t_fast = fast.run().end_time;
        let t_slow = slow.run().end_time;
        assert!(t_slow > t_fast);
    }

    #[test]
    fn counters_only_runs_bit_identically_to_full() {
        // Same oracle, same schedule: the run report and all counters must
        // coincide; only the stored message events differ.
        let mut full = ping_pong_engine_mode(4, SimDuration::from_ticks(7), TraceMode::Full);
        let mut lean =
            ping_pong_engine_mode(4, SimDuration::from_ticks(7), TraceMode::CountersOnly);
        let rf = full.run();
        let rl = lean.run();
        assert_eq!(rf, rl);
        assert_eq!(full.trace().sent_count(), lean.trace().sent_count());
        assert_eq!(
            full.trace().delivered_total(),
            lean.trace().delivered_total()
        );
        assert_eq!(
            full.trace().delivered_count(0),
            lean.trace().delivered_count(0)
        );
        assert_eq!(full.trace().dropped_count(), lean.trace().dropped_count());
        assert_eq!(full.trace().marks("done").count() as u64, 1);
        assert_eq!(lean.trace().marks("done").count() as u64, 1);
        // The lean trace holds no message payloads.
        assert!(lean.trace().events.iter().all(|e| !matches!(
            e.kind,
            TraceKind::Sent { .. } | TraceKind::Delivered { .. } | TraceKind::Dropped { .. }
        )));
        assert!(full.trace().events.len() > lean.trace().events.len());
    }

    #[test]
    fn queue_high_water_and_reserve() {
        let mut eng = ping_pong_engine(1, SimDuration::ZERO);
        eng.run();
        let high = eng.queue_high_water();
        assert!(high >= 1, "ping-pong keeps at least one event in flight");
        // Pre-sizing a fresh engine is accepted and harmless.
        let mut eng2 = ping_pong_engine(1, SimDuration::ZERO);
        eng2.reserve_capacity(high, eng.trace().events.len());
        let r = eng2.run();
        assert!(r.quiescent);
        assert_eq!(eng2.trace().events.len(), eng.trace().events.len());
    }

    /// A process that sets three timers and records firing order.
    #[derive(Debug, Clone, Default)]
    struct TimerBox {
        fired: Vec<TimerId>,
    }

    impl Process<u32> for TimerBox {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.set_timer_at(3, SimTime::from_ticks(300));
            ctx.set_timer_at(1, SimTime::from_ticks(100));
            ctx.set_timer_at(2, SimTime::from_ticks(200));
        }
        fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
        fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<u32>) {
            self.fired.push(id);
            if self.fired.len() == 3 {
                ctx.halt();
            }
        }
        fn fp_digest(&self) -> u64 {
            fingerprint(&self.fired)
        }
    }

    #[test]
    fn timers_fire_in_local_deadline_order() {
        let mut eng = Engine::<u32>::new(
            Box::new(SyncNet::new(SimDuration::ZERO, 1)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let pid = eng.add_process(Box::new(TimerBox::default()), DriftClock::perfect());
        let report = eng.run();
        assert!(report.all_halted);
        assert_eq!(
            eng.process_as::<TimerBox>(pid).unwrap().fired,
            vec![1, 2, 3]
        );
    }

    #[test]
    fn fast_clock_reaches_deadline_sooner_in_real_time() {
        // Two processes set a timer for local time 1000; the +10% clock
        // fires earlier in real time than the −10% clock.
        let run_one = |drift_ppm: i64| {
            let mut eng = Engine::<u32>::new(
                Box::new(SyncNet::new(SimDuration::ZERO, 1)),
                Box::new(RandomOracle::seeded(0)),
                EngineConfig::default(),
            );
            let clock = DriftClock::with_drift_ppm(drift_ppm, SimDuration::ZERO);
            #[derive(Debug, Clone, Default)]
            struct OneTimer;
            impl Process<u32> for OneTimer {
                fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                    ctx.set_timer_at(1, SimTime::from_ticks(1_000));
                }
                fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
                fn on_timer(&mut self, _id: TimerId, ctx: &mut Ctx<u32>) {
                    ctx.mark("fired", 0);
                    ctx.halt();
                }
                fn fp_digest(&self) -> u64 {
                    0
                }
            }
            let pid = eng.add_process(Box::new(OneTimer), clock);
            eng.run();
            eng.trace().first_mark(pid, "fired").unwrap()
        };
        let fast = run_one(100_000);
        let slow = run_one(-100_000);
        assert!(fast < slow, "fast {fast:?} vs slow {slow:?}");
    }

    #[test]
    fn horizon_truncates() {
        #[derive(Debug, Clone, Default)]
        struct Babbler;
        impl Process<u32> for Babbler {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer_after(0, SimDuration::from_ticks(10));
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _id: TimerId, ctx: &mut Ctx<u32>) {
                ctx.set_timer_after(0, SimDuration::from_ticks(10));
            }
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::<u32>::new(
            Box::new(SyncNet::new(SimDuration::ZERO, 1)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig {
                max_real_time: SimTime::from_ticks(1_000),
                ..Default::default()
            },
        );
        eng.add_process(Box::new(Babbler), DriftClock::perfect());
        let report = eng.run();
        assert!(report.truncated);
        assert!(!report.quiescent);
        assert!(report.end_time <= SimTime::from_ticks(1_000));
        // Resuming with a larger horizon continues the same run.
        let report2 = eng.run_until(SimTime::from_ticks(2_000));
        assert!(report2.truncated);
        assert!(report2.end_time > SimTime::from_ticks(900));
    }

    #[test]
    fn event_cap_guards_runaway() {
        #[derive(Debug, Clone, Default)]
        struct Flood;
        impl Process<u32> for Flood {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.send(0, 0); // self-message storm
            }
            fn on_message(&mut self, _f: Pid, m: u32, ctx: &mut Ctx<u32>) {
                ctx.send(0, m + 1);
            }
            fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::<u32>::new(
            Box::new(SyncNet::new(SimDuration::ZERO, 1)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig {
                max_events: 500,
                ..Default::default()
            },
        );
        eng.add_process(Box::new(Flood), DriftClock::perfect());
        let report = eng.run();
        assert!(report.truncated);
        assert_eq!(report.events, 500);
    }

    #[test]
    fn halted_processes_receive_nothing() {
        #[derive(Debug, Clone, Default)]
        struct QuitsEarly {
            got_after_halt: bool,
        }
        impl Process<u32> for QuitsEarly {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.halt();
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {
                self.got_after_halt = true;
            }
            fn on_timer(&mut self, _id: TimerId, _c: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                fingerprint(&self.got_after_halt)
            }
        }
        #[derive(Debug, Clone, Default)]
        struct Sender;
        impl Process<u32> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.send(0, 1);
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _id: TimerId, _c: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        let mut eng = Engine::<u32>::new(
            Box::new(SyncNet::new(SimDuration::from_ticks(10), 1)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let quitter = eng.add_process(Box::new(QuitsEarly::default()), DriftClock::perfect());
        eng.add_process(Box::new(Sender), DriftClock::perfect());
        eng.run();
        assert!(eng.trace().halt_time(quitter).is_some());
        assert!(
            !eng.process_as::<QuitsEarly>(quitter)
                .unwrap()
                .got_after_halt
        );
    }

    #[test]
    fn fingerprints_deterministic_and_translation_invariant() {
        let fp_of = |seed| {
            let mut eng = ping_pong_engine(seed, SimDuration::from_ticks(7));
            eng.enable_fingerprints();
            eng.run();
            eng.state_fingerprint().unwrap()
        };
        assert_eq!(fp_of(5), fp_of(5), "equal schedules, equal fingerprints");
        // Seeds 5 and 6 run the same ping-pong sequence under different
        // delays: the quiescent states are time-translations of each other,
        // and the clock-residue fingerprint deliberately identifies them.
        assert_eq!(fp_of(5), fp_of(6), "translated runs, equal fingerprints");
        // A run cut mid-way is structurally different (fewer dispatches, a
        // message still in flight): different fingerprint.
        let mut cut = ping_pong_engine(5, SimDuration::from_ticks(7));
        cut.enable_fingerprints();
        let mut calls = 0u32;
        let run = cut.run_probed(&mut |_| {
            calls += 1;
            calls >= 3
        });
        assert!(run.is_none(), "the probe cut the run");
        assert_eq!(calls, 3);
        assert_ne!(
            cut.state_fingerprint().unwrap(),
            fp_of(5),
            "different progress, different fingerprints"
        );
    }

    #[test]
    fn fingerprinting_does_not_change_the_run() {
        let mut plain = ping_pong_engine(3, SimDuration::from_ticks(7));
        let mut fped = ping_pong_engine(3, SimDuration::from_ticks(7));
        fped.enable_fingerprints();
        assert_eq!(plain.run(), fped.run());
        assert_eq!(plain.trace().sent_count(), fped.trace().sent_count());
    }

    #[test]
    fn fingerprint_probe_cuts_run_short() {
        let mut eng = ping_pong_engine(1, SimDuration::ZERO);
        eng.enable_fingerprints();
        let mut calls = 0u32;
        let run = eng.run_probed(&mut |_| {
            calls += 1;
            calls >= 3
        });
        assert_eq!(run, None, "cut after the third dispatch");
        assert_eq!(calls, 3);
        // The cut left work behind: a probe that never fires resumes it.
        assert!(eng.run_probed(&mut |_| false).is_some_and(|r| r.quiescent));
    }

    #[test]
    #[should_panic(expected = "run_probed requires enable_fingerprints()")]
    fn run_probed_without_fingerprints_panics() {
        let mut eng = ping_pong_engine(1, SimDuration::ZERO);
        eng.run_probed(&mut |_| false);
    }

    #[test]
    fn prune_dead_sends_elides_choices_for_halted_recipients() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountingOracle(Rc<Cell<usize>>);
        impl Oracle for CountingOracle {
            fn choose(&mut self, _options: usize) -> usize {
                self.0.set(self.0.get() + 1);
                0
            }
        }

        #[derive(Debug, Clone, Default)]
        struct HaltsAtStart;
        impl Process<u32> for HaltsAtStart {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.halt();
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _id: TimerId, _c: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        #[derive(Debug, Clone, Default)]
        struct SendsToDead;
        impl Process<u32> for SendsToDead {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.send(0, 9);
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _id: TimerId, _c: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                0
            }
        }

        let run_one = |prune: bool| {
            let draws = Rc::new(Cell::new(0));
            let mut eng = Engine::<u32>::new(
                // 4 delay buckets: routing a live message draws once.
                Box::new(SyncNet::new(SimDuration::from_ticks(10), 4)),
                Box::new(CountingOracle(draws.clone())),
                EngineConfig {
                    sigma_max: SimDuration::from_ticks(8),
                    sigma_buckets: 2,
                    ..Default::default()
                },
            );
            eng.set_prune_dead_sends(prune);
            // Pid 0 halts before pid 1's start sends to it (Start events
            // dispatch in registration order at equal time).
            eng.add_process(Box::new(HaltsAtStart), DriftClock::perfect());
            eng.add_process(Box::new(SendsToDead), DriftClock::perfect());
            let r = eng.run();
            assert!(r.quiescent);
            assert_eq!(eng.trace().sent_count(), 1);
            assert_eq!(eng.trace().delivered_total(), 0, "recipient halted");
            (draws.get(), eng.dead_branch_prunes())
        };
        // Unpruned: one σ draw + one delay draw. Pruned: both elided (the
        // handler's only send is dead), counted as two prunes.
        assert_eq!(run_one(false), (2, 0));
        assert_eq!(run_one(true), (0, 2));
    }

    #[test]
    fn past_local_deadline_fires_immediately() {
        #[derive(Debug, Clone, Default)]
        struct PastTimer {
            fired_at: Option<SimTime>,
        }
        impl Process<u32> for PastTimer {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                // Clock offset is 500: local deadline 100 is already past.
                ctx.set_timer_at(1, SimTime::from_ticks(100));
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _id: TimerId, ctx: &mut Ctx<u32>) {
                self.fired_at = Some(ctx.now());
                ctx.halt();
            }
            fn fp_digest(&self) -> u64 {
                fingerprint(&self.fired_at)
            }
        }
        let mut eng = Engine::<u32>::new(
            Box::new(SyncNet::new(SimDuration::ZERO, 1)),
            Box::new(RandomOracle::seeded(0)),
            EngineConfig::default(),
        );
        let pid = eng.add_process(
            Box::new(PastTimer::default()),
            DriftClock::with_drift_ppm(0, SimDuration::from_ticks(500)),
        );
        let report = eng.run();
        assert!(report.all_halted);
        let p = eng.process_as::<PastTimer>(pid).unwrap();
        assert_eq!(
            p.fired_at,
            Some(SimTime::from_ticks(500)),
            "fired at once, local now"
        );
    }
}
