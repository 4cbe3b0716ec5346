//! Exhaustive schedule exploration (systematic concurrency testing).
//!
//! For small protocol instances the space of scheduler choices — which
//! delay bucket each message takes, how long each grey state computes — is
//! finite once quantised. This module enumerates *every* path of that choice
//! tree (depth-first, lexicographic) and checks a safety predicate on each
//! complete run. It is the executable counterpart of the paper's "for every
//! execution" quantifier over the safety clauses ES and CS1–CS3, applied to
//! bounded instances, and is used by experiment E4 to cross-check the
//! Figure 2 automata against the theorems on all schedules of small chains.
//!
//! The mechanism: the engine draws every nondeterministic choice from an
//! [`Oracle`]; a [`ReplayOracle`] replays a prescribed prefix and records the
//! branching degree at each step; [`explore`] re-runs the simulation with
//! successive prefixes until the whole tree is covered (or a run budget is
//! hit). Because runs are deterministic given the oracle, path enumeration
//! is exactly schedule enumeration — no state snapshotting is needed.
//!
//! ## Reduced exploration ([`ExploreMode::Reduced`])
//!
//! Full enumeration scales as the product of branching degrees — ~4k leaves
//! for a 2-party chain at one σ bucket, ~10⁷ already at four. The reduced
//! mode prunes the tree without losing any distinct behaviour, using two
//! mechanisms whose soundness arguments live on the engine:
//!
//! * **state-hash deduplication** — the engine fingerprints its complete
//!   state after every event ([`Engine::enable_fingerprints`]); when a run
//!   re-enters a state any schedule has already left (first fresh choice
//!   made, i.e. [`ReplayOracle::replay_done`]), the run is cut and the whole
//!   choice subtree below the convergence point is skipped. This is where
//!   partial-order reduction lives in this engine: event *dispatch order* is
//!   already determinised by `(time, seq)`, so there are no raw interleaving
//!   choices to commute — instead, independent choices (a delay bucket here,
//!   a σ draw there) that land on the same global state are recognised *as*
//!   the same state and explored once. Two delay buckets that quantise to
//!   the same tick, or a fast-bucket/slow-σ pair meeting a slow-bucket/
//!   fast-σ pair, collapse exactly as commuting actions do in classic DPOR.
//!   The fingerprint is *time-abstract* (clock residues — queued events as
//!   offsets from `now`, live timeout anchors as residues against their
//!   local clock, past timestamps not at all), so schedules that reach the
//!   same configuration earlier or later also merge; the matching
//!   time-robustness contract on checkers lives on
//!   [`Engine::enable_fingerprints`];
//! * **dead-branch elision** — choices that only affect messages addressed
//!   to already-halted processes decide nothing observable, so the engine
//!   pins them instead of branching. It is on for every reduced run and
//!   for [`replay_pruned`], and off everywhere else; the engine's private
//!   `prune_dead_sends` flag documents the independence argument and its
//!   `end_time` caveat.
//!
//! Budget semantics: `max_runs` ([`explore`]'s argument,
//! [`ExploreConfig::max_runs`]) counts **executed** schedules — runs cut by
//! the deduplicator are refunded, so the same budget buys the same number of
//! complete, checked runs in both modes. Deduplicated cuts are reported
//! separately ([`ExploreReport::dedup_hits`]). An exploration is
//! `exhausted` unless an unvisited path remained when the budget ran out.
//!
//! Correctness insurance: [`explore_differential`] runs full and reduced
//! exploration back to back and compares exhaustion, verdict, and the
//! *distinct violation set* (reduced mode executes one representative per
//! converged state, so it reports each distinct violation at least once but
//! not once per schedule).
//!
//! ## Parallel exploration
//!
//! Schedules are independent runs, so the tree is embarrassingly parallel
//! once partitioned — but subtree sizes are wildly uneven (in reduced mode a
//! subtree can collapse to a single deduplicated cut), so no static
//! partition balances. [`explore_parallel`] therefore runs **one scheduler
//! for both modes**: a shared work queue of subtree prefixes, seeded with
//! the root, plus **dynamic re-splitting** — whenever a worker notices an
//! idle peer, it donates the unvisited sibling subtrees at the shallowest
//! still-open level of its own DFS position and deepens its own prefix
//! ([`ExploreReport::resplits`] counts donations). Donated subtrees are
//! disjoint and together cover everything the donor gave up, so every leaf
//! is still executed exactly once. [`ExploreMode`] decides only whether
//! fingerprints and the dedup probe are armed on each run.
//!
//! In full mode, when the tree is exhausted the result is **bit-identical**
//! to the serial [`explore`] at every thread count: same run count, same
//! violations, merged back in path (= serial DFS) order. When the run budget
//! intervenes, the run *count* still matches the serial explorer but which
//! schedules got visited depends on thread timing. The serial DFS shares
//! only the [`ReplayOracle`] with the queue worker and stays as the
//! independent reference: serial ≡ queue-full (bit-identical) ≡-in-verdict
//! queue-reduced ([`explore_differential`]).
//!
//! Reduced-mode deduplication probes one sharded seen-set shared by all
//! workers, one shard lock per probed state. Reduced-mode reports are
//! deterministic in verdict (exhaustion, distinct violations) but — unlike
//! full mode — *which* representative schedule reaches a state first
//! depends on thread timing.

use crate::engine::{Engine, RunReport};
use crate::oracle::{Oracle, ReplayOracle};
use crate::process::Message;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use telemetry::{Event, NullSink, TelemetrySink};

/// Exploration strategy: every schedule, or one representative per
/// distinct behaviour (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreMode {
    /// Enumerate every leaf of the choice tree. Bit-reproducible across
    /// thread counts; the reference reduced mode is checked against.
    #[default]
    Full,
    /// State-hash deduplication + dead-branch elision. Same exhaustion
    /// verdict and distinct violation set as [`ExploreMode::Full`], at a
    /// fraction of the executed runs.
    Reduced,
}

/// Configuration for [`explore_parallel`].
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum number of complete runs (tree leaves) to **execute**, across
    /// all threads. Runs cut short by state-hash deduplication do not count
    /// against this budget (their slot is refunded), so the limit means the
    /// same thing in full and reduced modes: how many complete schedules
    /// get checked.
    pub max_runs: usize,
    /// Worker threads. `0` ⇒ all available cores.
    pub threads: usize,
    /// Exploration strategy.
    pub mode: ExploreMode,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_runs: 1_000_000,
            threads: 1,
            mode: ExploreMode::Full,
        }
    }
}

impl ExploreConfig {
    /// Default limits with the given worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExploreConfig {
            threads,
            ..Self::default()
        }
    }

    /// Reduced exploration — the configuration E4 uses for instances full
    /// enumeration cannot exhaust.
    pub fn reduced(threads: usize) -> Self {
        ExploreConfig {
            mode: ExploreMode::Reduced,
            ..Self::with_threads(threads)
        }
    }
}

/// A safety violation found on one schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The oracle choice path reproducing the failing schedule. Paths from
    /// reduced explorations must be replayed with [`replay_pruned`] (elided
    /// dead-branch choices are absent from the path).
    pub path: Vec<usize>,
    /// Checker-provided description.
    pub message: String,
}

/// Outcome of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Complete runs executed (checked). Deduplicated cuts excluded.
    pub runs: usize,
    /// True when the entire choice tree was covered within budget.
    pub exhausted: bool,
    /// All violations found (one per failing executed schedule).
    pub violations: Vec<Violation>,
    /// Reduced mode: runs cut short because they re-entered a state some
    /// schedule had already covered (each cut skips a whole subtree).
    pub dedup_hits: usize,
    /// Reduced mode: oracle choices elided as dead branches (see the
    /// module docs).
    pub dead_branch_prunes: u64,
    /// Dynamic re-splits (work donations to idle workers).
    pub resplits: usize,
    /// Set by [`explore_differential`]: the executed-run count of the full
    /// enumeration this reduced report was checked against, enabling
    /// [`ExploreReport::reduction_ratio`].
    pub full_tree_runs: Option<usize>,
}

impl ExploreReport {
    /// True when every explored schedule satisfied the checker.
    pub fn all_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Executed runs over the full tree's leaf count — the fraction of the
    /// schedule space the reduced exploration had to execute (≤ 1; lower
    /// is better). Available when the full count is known
    /// ([`ExploreReport::full_tree_runs`], set by [`explore_differential`]).
    pub fn reduction_ratio(&self) -> Option<f64> {
        self.full_tree_runs
            .filter(|&full| full > 0)
            .map(|full| self.runs as f64 / full as f64)
    }

    /// Fraction of attempted runs cut by deduplication — a full-count-free
    /// proxy for the reduction on instances too big to enumerate fully.
    /// Each cut skips an entire subtree, so the true reduction ratio is
    /// much stronger than `1 − prune_rate`.
    pub fn prune_rate(&self) -> f64 {
        let attempted = self.runs + self.dedup_hits;
        if attempted == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / attempted as f64
        }
    }

    /// The distinct violation messages, order-free — the set differential
    /// mode compares across full and reduced explorations (reduced mode
    /// executes one representative per converged state, so per-schedule
    /// violation *counts* differ by design).
    pub fn distinct_violation_messages(&self) -> BTreeSet<&str> {
        self.violations.iter().map(|v| v.message.as_str()).collect()
    }
}

/// Shares a [`ReplayOracle`] between the engine (which consumes choices) and
/// the explorer (which reads the log afterwards).
struct SharedOracle(Rc<RefCell<ReplayOracle>>);

impl Oracle for SharedOracle {
    fn choose(&mut self, options: usize) -> usize {
        self.0.borrow_mut().choose(options)
    }
}

/// The choices a finished run took — the path that replays it.
fn taken_path(oracle: &ReplayOracle) -> Vec<usize> {
    oracle.log.iter().map(|&(c, _)| c).collect()
}

/// Exhaustively explores the schedule tree of a simulation, serially:
/// plain lexicographic DFS, executing at most `max_runs` schedules.
///
/// * `build` — constructs a fresh engine wired to the given oracle; it must
///   be deterministic (same oracle behaviour ⇒ same run).
/// * `check` — inspects the completed engine and its [`RunReport`]; returns
///   `Err(description)` to record a violation for that schedule.
///
/// See [`explore_parallel`] for the multi-threaded variant; this function
/// shares nothing with its scheduler but the [`ReplayOracle`], and remains
/// the full-enumeration reference both the parallel and the reduced
/// explorers are checked against.
pub fn explore<M: Message>(
    mut build: impl FnMut(Box<dyn Oracle>) -> Engine<M>,
    mut check: impl FnMut(&Engine<M>, &RunReport) -> Result<(), String>,
    max_runs: usize,
) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut path: Vec<usize> = Vec::new();
    while report.runs < max_runs {
        let oracle = Rc::new(RefCell::new(ReplayOracle::new(path)));
        let mut engine = build(Box::new(SharedOracle(oracle.clone())));
        let run = engine.run();
        report.runs += 1;
        if let Err(message) = check(&engine, &run) {
            report.violations.push(Violation {
                path: taken_path(&oracle.borrow()),
                message,
            });
        }
        // Ask for the next path *before* consulting the budget: spending
        // the last slot on the last leaf is exhaustion, not a budget hit.
        let next = oracle.borrow().next_path();
        match next {
            Some(p) => path = p,
            None => {
                report.exhausted = true;
                break;
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The parallel scheduler
// ---------------------------------------------------------------------------

/// Global seen-set cap: past this many distinct fingerprints the set stops
/// growing (probes keep answering for known states but fresh states are no
/// longer recorded — still sound, just less reduction). Bounds worst-case
/// memory to a few hundred MB.
const SEEN_CAP: usize = 1 << 23;

/// Why locking a [`Seen`] shard cannot fail.
const SEEN_LOCK: &str = "seen shard: no code that can panic runs under this lock";

/// Sharded global fingerprint set: every probe takes one shard lock.
struct Seen {
    shards: Vec<Mutex<HashSet<u64>>>,
    count: AtomicUsize,
    full: AtomicBool,
}

impl Seen {
    fn new(shards: usize) -> Self {
        Seen {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
            count: AtomicUsize::new(0),
            full: AtomicBool::new(false),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<HashSet<u64>> {
        &self.shards[(fp as usize) % self.shards.len()]
    }

    /// Records `fp` and reports whether it was already known. At capacity
    /// it degrades to lookups only.
    fn probe_insert(&self, fp: u64) -> bool {
        if self.full.load(Ordering::Relaxed) {
            return self.shard(fp).lock().expect(SEEN_LOCK).contains(&fp);
        }
        let fresh = self.shard(fp).lock().expect(SEEN_LOCK).insert(fp);
        if fresh && self.count.fetch_add(1, Ordering::Relaxed) + 1 >= SEEN_CAP {
            self.full.store(true, Ordering::Relaxed);
        }
        !fresh
    }
}

/// Why locking the [`WorkQueue`] state cannot fail.
const QUEUE_LOCK: &str = "work queue: build/check run outside this lock, so it is never poisoned";

/// Shared work queue of subtree prefixes. Seeded with the root prefix;
/// grows by donation (dynamic re-splits).
struct WorkQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Shutdown flag. Set only while holding `state`'s lock, so `pop`
    /// reading it under that lock never misses a wake-up; workers
    /// mid-subtree read it lock-free before each run, so peers of a
    /// panicked or budget-stopped worker stop at their next run, not at
    /// the end of their subtree. `Relaxed`: the flag publishes no data, and
    /// a late lock-free read costs one more run.
    stopped: AtomicBool,
    /// Workers currently parked waiting for work — the cheap "does anyone
    /// need a donation" signal read on the hot path.
    idle_hint: AtomicUsize,
}

struct QueueState {
    items: Vec<Vec<usize>>,
    idle: usize,
}

impl WorkQueue {
    fn new(seed: Vec<Vec<usize>>) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: seed,
                idle: 0,
            }),
            cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            idle_hint: AtomicUsize::new(0),
        }
    }

    /// Pops a work item, parking until one arrives. Returns `None` once all
    /// `workers` are idle with an empty queue (global completion) or after
    /// [`WorkQueue::shutdown`].
    fn pop(&self, workers: usize) -> Option<Vec<usize>> {
        let mut st = self.state.lock().expect(QUEUE_LOCK);
        loop {
            if self.stopped.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(p) = st.items.pop() {
                return Some(p);
            }
            st.idle += 1;
            if st.idle == workers {
                self.stopped.store(true, Ordering::Relaxed);
                self.cv.notify_all();
                return None;
            }
            self.idle_hint.fetch_add(1, Ordering::Relaxed);
            st = self.cv.wait(st).expect(QUEUE_LOCK);
            self.idle_hint.fetch_sub(1, Ordering::Relaxed);
            st.idle -= 1;
        }
    }

    fn push_many(&self, donated: Vec<Vec<usize>>) {
        let mut st = self.state.lock().expect(QUEUE_LOCK);
        st.items.extend(donated);
        drop(st);
        self.cv.notify_all();
    }

    /// Wakes every parked worker and makes all further pops return `None`.
    /// Also runs from [`ShutdownOnPanic`]'s `Drop`, so it must not panic:
    /// setting the flag is valid whatever state a poisoned lock guards.
    fn shutdown(&self) {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.stopped.store(true, Ordering::Relaxed);
        drop(st);
        self.cv.notify_all();
    }
}

/// Held by every worker: a worker that dies (a panicking `build` or `check`)
/// never counts as idle, so without this its peers would park on the
/// condvar forever waiting for `idle == workers`. Shutting the queue down
/// lets them drain and the scope's join re-raise the panic.
struct ShutdownOnPanic<'a>(&'a WorkQueue);

impl Drop for ShutdownOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown();
        }
    }
}

/// What all workers of one exploration share.
struct Shared {
    q: WorkQueue,
    workers: usize,
    /// Executed-run slots handed out so far (dedup cuts are refunded).
    budget: AtomicUsize,
    max_runs: usize,
    /// Set by the worker that found the budget spent with a path still to
    /// run — the only way an exploration ends un-exhausted.
    budget_hit: AtomicBool,
    /// `Some` in reduced mode: arms dead-branch elision, fingerprints and
    /// the dedup probe.
    seen: Option<Seen>,
}

/// Per-worker tallies.
#[derive(Default)]
struct WorkerTotals {
    runs: usize,
    dedup_hits: usize,
    dead_prunes: u64,
    resplits: usize,
    violations: Vec<Violation>,
    wall_s: f64,
}

/// One worker: drains the work queue, DFS-ing each subtree (with dedup
/// probes armed in reduced mode) and donating sibling subtrees to idle
/// peers.
fn queue_worker<M, B, C>(build: &B, check: &C, sh: &Shared) -> WorkerTotals
where
    M: Message,
    B: Fn(Box<dyn Oracle>) -> Engine<M>,
    C: Fn(&Engine<M>, &RunReport) -> Result<(), String>,
{
    let started = std::time::Instant::now();
    let _guard = ShutdownOnPanic(&sh.q);
    let mut totals = WorkerTotals::default();
    'items: while let Some(item) = sh.q.pop(sh.workers) {
        let mut prefix_len = item.len();
        let mut path = item;
        loop {
            if sh.q.stopped.load(Ordering::Relaxed) {
                break 'items;
            }
            // Reserve an executed-run slot; refunded if the run dedups.
            let slot = sh.budget.fetch_add(1, Ordering::Relaxed);
            if slot >= sh.max_runs {
                sh.budget_hit.store(true, Ordering::Relaxed);
                sh.q.shutdown();
                break 'items;
            }
            let oracle = Rc::new(RefCell::new(ReplayOracle::new(path)));
            let mut engine = build(Box::new(SharedOracle(oracle.clone())));
            let run = match &sh.seen {
                Some(seen) => {
                    engine.set_prune_dead_sends(true);
                    engine.enable_fingerprints();
                    // Probe only once the run has left replayed territory:
                    // states visited *while replaying* were inserted by the
                    // runs that opened this branch, and pruning on them
                    // would wrongly discard the branch being opened.
                    engine.run_probed(&mut |fp| {
                        oracle.borrow().replay_done() && seen.probe_insert(fp)
                    })
                }
                None => Some(engine.run()),
            };
            totals.dead_prunes += engine.dead_branch_prunes();
            if let Some(report) = run {
                totals.runs += 1;
                if let Err(message) = check(&engine, &report) {
                    totals.violations.push(Violation {
                        path: taken_path(&oracle.borrow()),
                        message,
                    });
                }
            } else {
                sh.budget.fetch_sub(1, Ordering::Relaxed);
                totals.dedup_hits += 1;
            }
            // The truncated log of a deduplicated run prunes exactly the
            // subtree below the convergence point: every schedule with this
            // log as prefix passes through the already-covered state.
            path = match oracle.borrow().next_path() {
                // A longer next path cannot have bumped a choice inside the
                // prefix, so it still starts with it: stay in the subtree.
                Some(p) if p.len() > prefix_len => p,
                _ => break,
            };
            // Dynamic re-split: a parked peer means the queue is dry —
            // donate every unvisited sibling at the shallowest still-open
            // level of our position and deepen our own prefix past it.
            if sh.q.idle_hint.load(Ordering::Relaxed) > 0 {
                let orc = oracle.borrow();
                let open = (prefix_len..path.len()).find(|&i| path[i] + 1 < orc.log[i].1);
                if let Some(i) = open {
                    let donated = (path[i] + 1..orc.log[i].1)
                        .map(|c| [&path[..i], &[c]].concat())
                        .collect();
                    prefix_len = i + 1;
                    totals.resplits += 1;
                    sh.q.push_many(donated);
                }
            }
        }
    }
    totals.wall_s = started.elapsed().as_secs_f64();
    totals
}

/// Explores the schedule tree using `cfg.threads` worker threads, with the
/// strategy selected by `cfg.mode` (see the module docs).
///
/// In [`ExploreMode::Full`], identical in observable behaviour to
/// [`explore`] whenever the tree is exhausted within budget: same `runs`,
/// same `exhausted`, and the same violations in the same (serial DFS)
/// order, regardless of thread count. In [`ExploreMode::Reduced`], the
/// exhaustion verdict and the distinct violation set match full
/// enumeration; executed-run counts and representative paths don't (that is
/// the point). `build` and `check` must be thread-safe (`Sync`) because
/// workers invoke them concurrently; runs themselves stay single-threaded
/// and deterministic. A panic in either closure is re-raised here once
/// every worker has stopped.
pub fn explore_parallel<M, B, C>(build: B, check: C, cfg: ExploreConfig) -> ExploreReport
where
    M: Message,
    B: Fn(Box<dyn Oracle>) -> Engine<M> + Sync,
    C: Fn(&Engine<M>, &RunReport) -> Result<(), String> + Sync,
{
    explore_parallel_with(build, check, cfg, &mut NullSink)
}

/// [`explore_parallel`] with a telemetry sink attached.
///
/// Both modes emit one `dpor_worker` event per worker (in worker-index
/// order) and a closing `dpor` summary (runs, dedup hits, dead-branch
/// prunes, re-splits, prune rate), each carrying a `mode` field (`"full"`
/// / `"reduced"`). The sink is only touched from the calling thread, and
/// only wall-clock fields depend on the machine: the report is the same
/// object [`explore_parallel`] returns.
pub fn explore_parallel_with<M, B, C>(
    build: B,
    check: C,
    cfg: ExploreConfig,
    sink: &mut dyn TelemetrySink,
) -> ExploreReport
where
    M: Message,
    B: Fn(Box<dyn Oracle>) -> Engine<M> + Sync,
    C: Fn(&Engine<M>, &RunReport) -> Result<(), String> + Sync,
{
    let started = std::time::Instant::now();
    let workers = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let reduced = cfg.mode == ExploreMode::Reduced;
    let sh = Shared {
        q: WorkQueue::new(vec![Vec::new()]),
        workers,
        budget: AtomicUsize::new(0),
        max_runs: cfg.max_runs,
        budget_hit: AtomicBool::new(false),
        seen: reduced.then(|| Seen::new(if workers > 1 { 64 } else { 1 })),
    };
    let per_worker: Vec<WorkerTotals> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| queue_worker(&build, &check, &sh)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("explorer worker panicked"))
            .collect()
    });

    let mode = if reduced { "reduced" } else { "full" };
    let mut report = ExploreReport {
        exhausted: !sh.budget_hit.load(Ordering::Relaxed),
        ..Default::default()
    };
    for (i, t) in per_worker.into_iter().enumerate() {
        report.runs += t.runs;
        report.dedup_hits += t.dedup_hits;
        report.dead_branch_prunes += t.dead_prunes;
        report.resplits += t.resplits;
        sink.emit(
            &Event::new("dpor_worker")
                .with_str("mode", mode)
                .with_u64("index", i as u64)
                .with_u64("runs", t.runs as u64)
                .with_u64("dedup_hits", t.dedup_hits as u64)
                .with_u64("resplits", t.resplits as u64)
                .with_f64("wall_s", t.wall_s),
        );
        report.violations.extend(t.violations);
    }
    // Path order is serial DFS order, so an exhausted full exploration
    // reports exactly what `explore` does; in reduced mode (which worker
    // executed a violating representative first is timing-dependent) it
    // makes the merged report deterministic in content for a fixed set of
    // executed schedules.
    report
        .violations
        .sort_by(|a, b| a.path.cmp(&b.path).then_with(|| a.message.cmp(&b.message)));
    let wall_s = started.elapsed().as_secs_f64();
    let attempted = report.runs + report.dedup_hits;
    sink.emit(
        &Event::new("dpor")
            .with_str("mode", mode)
            .with_u64("threads", workers as u64)
            .with_u64("runs", report.runs as u64)
            .with_u64("dedup_hits", report.dedup_hits as u64)
            .with_u64("dead_branch_prunes", report.dead_branch_prunes)
            .with_u64("resplits", report.resplits as u64)
            .with_u64("violations", report.violations.len() as u64)
            .with_bool("exhausted", report.exhausted)
            .with_f64("prune_rate", report.prune_rate())
            .with_f64("wall_s", wall_s)
            .with_f64(
                "sched_per_sec",
                if wall_s > 0.0 {
                    attempted as f64 / wall_s
                } else {
                    0.0
                },
            ),
    );
    report
}

/// Result of [`explore_differential`]: full enumeration vs reduced
/// exploration of the same instance, with the equivalence verdict.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// The full-enumeration reference report.
    pub full: ExploreReport,
    /// The reduced report, with
    /// [`full_tree_runs`](ExploreReport::full_tree_runs) filled in (so
    /// [`ExploreReport::reduction_ratio`] is available).
    pub reduced: ExploreReport,
    /// `None` when the modes agree; otherwise a description of the first
    /// discrepancy (exhaustion verdict, overall verdict, or distinct
    /// violation sets).
    pub mismatch: Option<String>,
}

impl DifferentialReport {
    /// True when the reduced exploration matched the full reference.
    pub fn agree(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Runs full enumeration and reduced exploration back to back and compares
/// them: when the full reference exhausts, the reduced pass must too (its
/// executed leaves are a subset), with the same overall pass/fail and the
/// same *distinct violation set* (reduced mode executes one representative
/// per converged state, so per-schedule counts differ by design). A
/// budget-limited full reference makes the reports incomparable and never
/// a mismatch. This is the correctness gate for the reduction — CI runs it
/// on every instance the full explorer can exhaust.
pub fn explore_differential<M, B, C>(
    build: B,
    check: C,
    cfg: ExploreConfig,
    sink: &mut dyn TelemetrySink,
) -> DifferentialReport
where
    M: Message,
    B: Fn(Box<dyn Oracle>) -> Engine<M> + Sync,
    C: Fn(&Engine<M>, &RunReport) -> Result<(), String> + Sync,
{
    let full = explore_parallel_with(
        &build,
        &check,
        ExploreConfig {
            mode: ExploreMode::Full,
            ..cfg
        },
        sink,
    );
    let mut reduced = explore_parallel_with(
        &build,
        &check,
        ExploreConfig {
            mode: ExploreMode::Reduced,
            ..cfg
        },
        sink,
    );
    if full.exhausted {
        reduced.full_tree_runs = Some(full.runs);
    }
    let mismatch = if !full.exhausted {
        // The reference is incomplete: the visited schedule sets are
        // incomparable. (Reduced may legitimately exhaust a tree full
        // enumeration cannot within the same executed-run budget — that is
        // the reduction working, not a discrepancy.)
        None
    } else if !reduced.exhausted {
        // Reduced executes a subset of the full leaves, so with the same
        // budget it must exhaust whenever full does.
        Some(format!(
            "full exhausted in {} runs but reduced hit the budget at {}",
            full.runs, reduced.runs
        ))
    } else if full.all_ok() != reduced.all_ok() {
        Some(format!(
            "verdict differs: full all_ok={} reduced all_ok={}",
            full.all_ok(),
            reduced.all_ok()
        ))
    } else if full.distinct_violation_messages() != reduced.distinct_violation_messages() {
        Some(format!(
            "distinct violation sets differ: full={:?} reduced={:?}",
            full.distinct_violation_messages(),
            reduced.distinct_violation_messages()
        ))
    } else {
        None
    };
    DifferentialReport {
        full,
        reduced,
        mismatch,
    }
}

/// Re-runs a single schedule (e.g. a violating path from a previous
/// exploration) and returns the engine for inspection.
///
/// Paths recorded by a reduced exploration omit the elided dead-branch
/// choices — replay those with [`replay_pruned`] so the choice indices line
/// up.
pub fn replay<M: Message>(
    build: impl FnMut(Box<dyn Oracle>) -> Engine<M>,
    path: &[usize],
) -> (Engine<M>, RunReport) {
    replay_inner(build, path, false)
}

/// [`replay`] with dead-branch elision on (see the module docs) —
/// required for paths recorded by a reduced exploration.
pub fn replay_pruned<M: Message>(
    build: impl FnMut(Box<dyn Oracle>) -> Engine<M>,
    path: &[usize],
) -> (Engine<M>, RunReport) {
    replay_inner(build, path, true)
}

fn replay_inner<M: Message>(
    mut build: impl FnMut(Box<dyn Oracle>) -> Engine<M>,
    path: &[usize],
    prune_dead: bool,
) -> (Engine<M>, RunReport) {
    let oracle = Rc::new(RefCell::new(ReplayOracle::new(path.to_vec())));
    let mut engine = build(Box::new(SharedOracle(oracle)));
    if prune_dead {
        engine.set_prune_dead_sends(true);
    }
    let report = engine.run();
    (engine, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::DriftClock;
    use crate::engine::EngineConfig;
    use crate::fingerprint::fingerprint;
    use crate::net::SyncNet;
    use crate::process::{Ctx, Pid, Process, TimerId};
    use crate::time::SimDuration;
    use std::sync::Arc;

    /// Two racers send to a judge; the judge records who arrived first.
    #[derive(Debug, Clone, Default)]
    struct Judge {
        first: Option<Pid>,
    }
    impl Process<u32> for Judge {
        fn on_start(&mut self, _ctx: &mut Ctx<u32>) {}
        fn on_message(&mut self, from: Pid, _m: u32, ctx: &mut Ctx<u32>) {
            if self.first.is_none() {
                self.first = Some(from);
                ctx.mark("winner", from as i64);
            }
        }
        fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
        fn fp_digest(&self) -> u64 {
            fingerprint(&self.first)
        }
    }

    #[derive(Debug, Clone)]
    struct Racer {
        judge: Pid,
    }
    impl Process<u32> for Racer {
        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            ctx.send(self.judge, 1);
        }
        fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
        fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    fn build_race(oracle: Box<dyn Oracle>) -> Engine<u32> {
        let mut eng = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_ticks(100), 2)), // 2 buckets
            oracle,
            EngineConfig::default(),
        );
        eng.add_process(Box::new(Judge::default()), DriftClock::perfect()); // pid 0
        eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect()); // pid 1
        eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect()); // pid 2
        eng
    }

    /// Like `build_race`, but the 1-tick delay span quantised into 4
    /// buckets makes buckets 0–2 collide on the same tick — converging
    /// schedules the reduced explorer must deduplicate.
    fn build_race_colliding(oracle: Box<dyn Oracle>) -> Engine<u32> {
        let mut eng = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_ticks(1), 4)),
            oracle,
            EngineConfig::default(),
        );
        eng.add_process(Box::new(Judge::default()), DriftClock::perfect());
        eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect());
        eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect());
        eng
    }

    fn racer2_wins_check(eng: &Engine<u32>, _r: &RunReport) -> Result<(), String> {
        let judge = eng.process_as::<Judge>(0).unwrap();
        if judge.first == Some(2) {
            Err("racer 2 won".to_owned())
        } else {
            Ok(())
        }
    }

    #[test]
    fn explorer_finds_both_race_outcomes() {
        let mut winners = std::collections::HashSet::new();
        let report = explore(
            build_race,
            |eng, _| {
                let judge = eng.process_as::<Judge>(0).unwrap();
                winners.insert(judge.first);
                Ok(())
            },
            usize::MAX,
        );
        assert!(report.exhausted);
        assert!(report.all_ok());
        // 2 racers × 2 delay buckets → 4 schedules.
        assert_eq!(report.runs, 4);
        assert!(winners.contains(&Some(1)));
        assert!(winners.contains(&Some(2)));
    }

    #[test]
    fn explorer_reports_violations_with_replayable_paths() {
        let report = explore(build_race, racer2_wins_check, usize::MAX);
        assert!(report.exhausted);
        assert!(!report.all_ok());
        assert!(!report.violations.is_empty());
        // Every reported path replays to the same violation.
        for v in &report.violations {
            let (eng, _) = replay(build_race, &v.path);
            let judge = eng.process_as::<Judge>(0).unwrap();
            assert_eq!(judge.first, Some(2), "replay must reproduce the violation");
        }
    }

    #[test]
    fn run_budget_respected() {
        let report = explore(build_race, |_, _| Ok(()), 2);
        assert_eq!(report.runs, 2);
        assert!(!report.exhausted);
    }

    fn paths(r: &ExploreReport) -> Vec<(Vec<usize>, String)> {
        r.violations
            .iter()
            .map(|v| (v.path.clone(), v.message.clone()))
            .collect()
    }

    /// Serial vs parallel equivalence on the race example, across thread
    /// counts (1 worker is the queue scheduler too, not the serial DFS).
    #[test]
    fn parallel_matches_serial_on_race() {
        let serial = explore(build_race, racer2_wins_check, usize::MAX);
        assert!(serial.exhausted);
        for threads in [1usize, 2, 4, 8] {
            let par = explore_parallel(
                build_race,
                racer2_wins_check,
                ExploreConfig::with_threads(threads),
            );
            assert_eq!(par.runs, serial.runs, "t={threads}");
            assert_eq!(par.exhausted, serial.exhausted);
            assert_eq!(
                paths(&par),
                paths(&serial),
                "violations in serial DFS order, t={threads}"
            );
        }
    }

    /// Full mode runs on the same scheduler as reduced mode and reports
    /// through the same event family: one `dpor_worker` per worker, then
    /// the `dpor` summary, with nothing deduplicated.
    #[test]
    fn full_exploration_emits_the_dpor_event_family() {
        let mut ring = telemetry::RingSink::new(64);
        let par = explore_parallel_with(
            build_race,
            |_, _| Ok(()),
            ExploreConfig::with_threads(4),
            &mut ring,
        );
        assert!(par.exhausted);
        assert_eq!(par.runs, 4);
        let events: Vec<_> = ring.events().collect();
        let (summary, per_worker) = events.split_last().unwrap();
        assert_eq!(per_worker.len(), 4);
        assert!(per_worker.iter().all(|e| e.kind() == "dpor_worker"));
        let worker_runs: u64 = per_worker
            .iter()
            .map(|e| e.u64_field("runs").unwrap())
            .sum();
        assert_eq!(worker_runs, par.runs as u64);
        assert_eq!(summary.kind(), "dpor");
        assert_eq!(summary.u64_field("threads"), Some(4));
        assert_eq!(summary.bool_field("exhausted"), Some(true));
        for e in &events {
            assert_eq!(e.str_field("mode"), Some("full"));
            assert_eq!(e.u64_field("dedup_hits"), Some(0));
        }
    }

    /// A budget-limited full run reports exactly `max_runs` runs at every
    /// thread count.
    #[test]
    fn parallel_respects_run_budget() {
        for threads in [1usize, 2, 4, 8] {
            let par = explore_parallel(
                build_race,
                |_, _| Ok(()),
                ExploreConfig {
                    max_runs: 2,
                    ..ExploreConfig::with_threads(threads)
                },
            );
            assert_eq!(par.runs, 2, "t={threads}");
            assert!(!par.exhausted, "t={threads}");
        }
    }

    /// `exhausted` is false only when an unvisited path remained: a budget
    /// equal to the leaf count exhausts the 4-leaf race tree, one less does
    /// not — in the serial DFS and in the queue scheduler.
    #[test]
    fn budget_equal_to_leaf_count_is_exhaustion() {
        let ok = |_: &Engine<u32>, _: &RunReport| Ok(());
        let verdict = |r: ExploreReport| (r.runs, r.exhausted);
        assert_eq!(verdict(explore(build_race, ok, 4)), (4, true));
        assert_eq!(verdict(explore(build_race, ok, 3)), (3, false));
        for threads in [1usize, 2] {
            let queue = |max_runs, mode| {
                let cfg = ExploreConfig {
                    max_runs,
                    mode,
                    ..ExploreConfig::with_threads(threads)
                };
                verdict(explore_parallel(build_race, ok, cfg))
            };
            assert_eq!(queue(4, ExploreMode::Full), (4, true), "t={threads}");
            assert_eq!(queue(3, ExploreMode::Full), (3, false), "t={threads}");
            // Reduced mode needs one representative per winner: the same
            // boundary sits at 2 executed runs, and a budget of 4 never
            // binds.
            assert_eq!(queue(4, ExploreMode::Reduced), (2, true), "t={threads}");
            assert_eq!(queue(1, ExploreMode::Reduced), (1, false), "t={threads}");
        }
    }

    /// A checker that panics on its second call, whichever worker makes it.
    fn panics_on_second_call() -> impl Fn(&Engine<u32>, &RunReport) -> Result<(), String> + Sync {
        let calls = AtomicUsize::new(0);
        move |_, _| {
            assert!(calls.fetch_add(1, Ordering::Relaxed) < 1, "checker died");
            Ok(())
        }
    }

    /// A dead worker never counts as idle; without the worker's shutdown
    /// guard its peers would park forever and this test would hang.
    #[test]
    #[should_panic(expected = "explorer worker panicked")]
    fn worker_panic_propagates_in_full_mode() {
        explore_parallel(
            build_race_colliding,
            panics_on_second_call(),
            ExploreConfig::with_threads(4),
        );
    }

    #[test]
    #[should_panic(expected = "explorer worker panicked")]
    fn worker_panic_propagates_in_reduced_mode() {
        explore_parallel(
            build_race_colliding,
            panics_on_second_call(),
            ExploreConfig::reduced(4),
        );
    }

    /// A judge and 14 racers under 2 delay buckets: a 2¹⁴-leaf tree, so
    /// each of two workers holds a subtree of thousands of runs.
    fn build_wide_race(oracle: Box<dyn Oracle>) -> Engine<u32> {
        let mut eng = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_ticks(100), 2)),
            oracle,
            EngineConfig::default(),
        );
        eng.add_process(Box::new(Judge::default()), DriftClock::perfect());
        for _ in 0..14 {
            eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect());
        }
        eng
    }

    /// Sets its flag when dropped. Parked in a thread-local by a panicking
    /// checker, it fires only once that worker has unwound and its thread
    /// is exiting — after its shutdown guard ran.
    struct SignalOnExit(Arc<(Mutex<bool>, Condvar)>);

    impl Drop for SignalOnExit {
        fn drop(&mut self) {
            let (exited, cv) = &*self.0;
            *exited.lock().expect("no panic under this lock") = true;
            cv.notify_all();
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<SignalOnExit>> = const { RefCell::new(None) };
    }

    /// The peer of a worker whose checker panics stops at its next run —
    /// at most 2 builds follow the panic — instead of finishing its
    /// subtree first. Builds after the panic wait for the panicked thread
    /// to exit, so the bound holds however slowly it unwinds.
    #[test]
    fn peers_of_a_panicked_worker_stop_at_their_next_run() {
        for mode in [ExploreMode::Full, ExploreMode::Reduced] {
            let builds = AtomicUsize::new(0);
            let at_panic = AtomicUsize::new(0);
            let calls = AtomicUsize::new(0);
            let exited = Arc::new((Mutex::new(false), Condvar::new()));
            let cfg = ExploreConfig {
                mode,
                ..ExploreConfig::with_threads(2)
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                explore_parallel(
                    |oracle| {
                        builds.fetch_add(1, Ordering::SeqCst);
                        if at_panic.load(Ordering::SeqCst) > 0 {
                            let (done, cv) = &*exited;
                            let guard = done.lock().expect("no panic under this lock");
                            let wait = std::time::Duration::from_secs(30);
                            drop(cv.wait_timeout_while(guard, wait, |done| !*done));
                        }
                        build_wide_race(oracle)
                    },
                    |_, _| {
                        if calls.fetch_add(1, Ordering::SeqCst) == 200 {
                            at_panic.store(builds.load(Ordering::SeqCst), Ordering::SeqCst);
                            let signal = SignalOnExit(exited.clone());
                            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(signal));
                            panic!("checker died");
                        }
                        Ok(())
                    },
                    cfg,
                )
            }));
            assert!(outcome.is_err(), "{mode:?}: the panic is re-raised");
            let after = builds.load(Ordering::SeqCst) - at_panic.load(Ordering::SeqCst);
            assert!(after <= 2, "{mode:?}: {after} builds followed the panic");
        }
    }

    #[test]
    fn parallel_zero_threads_uses_all_cores() {
        let par = explore_parallel(build_race, |_, _| Ok(()), ExploreConfig::with_threads(0));
        assert!(par.exhausted);
        assert_eq!(par.runs, 4);
    }

    #[test]
    fn deterministic_system_explores_single_path() {
        // With 1 bucket there is no choice anywhere: exactly one schedule.
        let report = explore(
            |oracle| {
                let mut eng = Engine::new(
                    Box::new(SyncNet::worst_case(SimDuration::from_ticks(10))),
                    oracle,
                    EngineConfig::default(),
                );
                eng.add_process(Box::new(Judge::default()), DriftClock::perfect());
                eng.add_process(Box::new(Racer { judge: 0 }), DriftClock::perfect());
                eng
            },
            |_, _| Ok(()),
            usize::MAX,
        );
        assert!(report.exhausted);
        assert_eq!(report.runs, 1);
    }

    // -- reduced exploration ------------------------------------------------

    #[test]
    fn reduced_deduplicates_colliding_schedules() {
        // 2 racers × 4 buckets = 16 full schedules, but buckets 0–2 collide
        // on the same delivery tick: only 2 distinct delays per racer → 4
        // delay pairs, and the time-abstract fingerprint identifies every
        // pair with the same *winner* (delivery order is all the judge
        // observes). 2 distinct behaviours; the reduced explorer must
        // execute exactly those and cut the rest.
        let full = explore(build_race_colliding, |_, _| Ok(()), usize::MAX);
        assert!(full.exhausted);
        assert_eq!(full.runs, 16);
        let winners = std::sync::Mutex::new(std::collections::HashSet::new());
        let reduced = explore_parallel(
            build_race_colliding,
            |eng, _| {
                let judge = eng.process_as::<Judge>(0).unwrap();
                winners.lock().unwrap().insert(judge.first);
                Ok(())
            },
            ExploreConfig {
                mode: ExploreMode::Reduced,
                ..Default::default()
            },
        );
        assert!(reduced.exhausted);
        assert!(reduced.all_ok());
        assert_eq!(reduced.runs, 2, "one representative per distinct behaviour");
        assert_eq!(reduced.dedup_hits, 8, "pruned subtrees, counted at the cut");
        let winners = winners.lock().unwrap();
        assert!(winners.contains(&Some(1)), "racer 1 outcome preserved");
        assert!(winners.contains(&Some(2)), "racer 2 outcome preserved");
    }

    #[test]
    fn reduced_finds_the_seeded_violation() {
        // Regression guard: the known "racer 2 wins" violation must survive
        // reduction, serial and parallel, and its path must replay.
        for threads in [1usize, 4] {
            let reduced = explore_parallel(
                build_race_colliding,
                racer2_wins_check,
                ExploreConfig {
                    mode: ExploreMode::Reduced,
                    threads,
                    ..Default::default()
                },
            );
            assert!(reduced.exhausted, "t={threads}");
            assert!(!reduced.all_ok(), "t={threads}");
            assert_eq!(
                reduced.distinct_violation_messages(),
                ["racer 2 won"].into_iter().collect(),
                "t={threads}"
            );
            for v in &reduced.violations {
                let (eng, _) = replay_pruned(build_race_colliding, &v.path);
                let judge = eng.process_as::<Judge>(0).unwrap();
                assert_eq!(judge.first, Some(2), "t={threads}: path must replay");
            }
        }
    }

    #[test]
    fn reduced_matches_full_across_threads() {
        for build in [build_race, build_race_colliding] {
            let full = explore(build, racer2_wins_check, usize::MAX);
            assert!(full.exhausted);
            for threads in [1usize, 2, 4] {
                let reduced = explore_parallel(
                    build,
                    racer2_wins_check,
                    ExploreConfig {
                        mode: ExploreMode::Reduced,
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(reduced.exhausted, full.exhausted, "t={threads}");
                assert_eq!(reduced.all_ok(), full.all_ok(), "t={threads}");
                assert_eq!(
                    reduced.distinct_violation_messages(),
                    full.distinct_violation_messages(),
                    "t={threads}"
                );
                assert!(reduced.runs <= full.runs, "t={threads}");
            }
        }
    }

    #[test]
    fn reduced_respects_run_budget_counting_executed_only() {
        let reduced = explore_parallel(
            build_race_colliding,
            |_, _| Ok(()),
            ExploreConfig {
                max_runs: 2,
                mode: ExploreMode::Reduced,
                ..Default::default()
            },
        );
        assert!(!reduced.exhausted);
        assert_eq!(reduced.runs, 2, "budget counts executed schedules");
    }

    #[test]
    fn differential_agrees_and_reports_reduction() {
        let mut ring = telemetry::RingSink::new(256);
        let diff = explore_differential(
            build_race_colliding,
            racer2_wins_check,
            ExploreConfig::default(),
            &mut ring,
        );
        assert!(diff.agree(), "{:?}", diff.mismatch);
        assert!(diff.full.exhausted && diff.reduced.exhausted);
        assert_eq!(diff.reduced.full_tree_runs, Some(16));
        let ratio = diff.reduced.reduction_ratio().unwrap();
        assert!(ratio <= 0.25 + 1e-9, "4/16 executed, got {ratio}");
        assert!(diff.reduced.prune_rate() > 0.0);
        // The reduced pass emitted dpor telemetry.
        let kinds: Vec<_> = ring.events().map(|e| e.kind().to_owned()).collect();
        assert!(kinds.iter().any(|k| k == "dpor"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "dpor_worker"), "{kinds:?}");
    }

    /// A budget-limited full reference makes the two reports incomparable —
    /// never a mismatch, even though reduced mode exhausts the 16-leaf tree
    /// (2 representatives) within the budget that leaves full enumeration
    /// truncated.
    #[test]
    fn differential_with_a_budget_limited_reference_is_never_a_mismatch() {
        let diff = explore_differential(
            build_race_colliding,
            racer2_wins_check,
            ExploreConfig {
                max_runs: 3,
                ..Default::default()
            },
            &mut NullSink,
        );
        assert_eq!((diff.full.runs, diff.full.exhausted), (3, false));
        assert!(diff.reduced.exhausted);
        assert!(diff.agree(), "{:?}", diff.mismatch);
        assert_eq!(diff.reduced.full_tree_runs, None, "no full count known");
    }

    #[test]
    fn reduced_with_dead_send_elision_prunes_choices() {
        // A judge that halts after the first arrival: the second racer's
        // delivery is dead, so its delay choice is elided and the tree
        // shrinks further.
        #[derive(Debug, Clone, Default)]
        struct HaltingJudge {
            first: Option<Pid>,
        }
        impl Process<u32> for HaltingJudge {
            fn on_start(&mut self, _ctx: &mut Ctx<u32>) {}
            fn on_message(&mut self, from: Pid, _m: u32, ctx: &mut Ctx<u32>) {
                if self.first.is_none() {
                    self.first = Some(from);
                    ctx.mark("winner", from as i64);
                    ctx.halt();
                }
            }
            fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<u32>) {}
            fn fp_digest(&self) -> u64 {
                fingerprint(&self.first)
            }
        }
        // Racers send only after a timer, so the judge's halt can precede
        // the *send* of the loser's message on some schedules.
        #[derive(Debug, Clone)]
        struct TimedRacer {
            judge: Pid,
            delay: u64,
        }
        impl Process<u32> for TimedRacer {
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                ctx.set_timer_after(0, SimDuration::from_ticks(self.delay));
            }
            fn on_message(&mut self, _f: Pid, _m: u32, _c: &mut Ctx<u32>) {}
            fn on_timer(&mut self, _i: TimerId, ctx: &mut Ctx<u32>) {
                ctx.send(self.judge, 1);
            }
            fn fp_digest(&self) -> u64 {
                0
            }
        }
        let build = |oracle: Box<dyn Oracle>| {
            let mut eng = Engine::new(
                Box::new(SyncNet::new(SimDuration::from_ticks(100), 2)),
                oracle,
                EngineConfig::default(),
            );
            eng.add_process(Box::new(HaltingJudge::default()), DriftClock::perfect());
            eng.add_process(
                Box::new(TimedRacer { judge: 0, delay: 1 }),
                DriftClock::perfect(),
            );
            eng.add_process(
                Box::new(TimedRacer {
                    judge: 0,
                    delay: 500,
                }),
                DriftClock::perfect(),
            );
            eng
        };
        let full = explore(build, |_, _| Ok(()), usize::MAX);
        assert!(full.exhausted);
        let reduced = explore_parallel(
            build,
            |_, _| Ok(()),
            ExploreConfig {
                mode: ExploreMode::Reduced,
                ..Default::default()
            },
        );
        assert!(reduced.exhausted);
        assert!(
            reduced.dead_branch_prunes > 0,
            "the late racer's dead delivery must be elided"
        );
        assert!(reduced.runs < full.runs);
    }
}
