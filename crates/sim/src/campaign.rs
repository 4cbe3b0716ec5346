//! Crash-safe streaming campaigns: epoch-chunked workloads, constant
//! memory, atomic checkpoints, bit-identical resume.
//!
//! A *campaign* runs a huge seeded workload (millions to tens of millions
//! of payments) that no single [`crate::run_closed`] / [`crate::run_open`]
//! call should hold in memory or be allowed to lose to a crash.
//! [`CampaignRunner`] chunks the workload into **epochs** — each a
//! self-contained seeded [`WorkloadConfig`] derived from the campaign
//! seed and the epoch index — and folds every epoch's per-instance rows
//! into a [`CampaignTally`] of exact counters and constant-memory
//! [`MergeableSketch`]es instead of collected `Vec`s. Memory is bounded
//! by one epoch, never by the campaign.
//!
//! ## Checkpoint format
//!
//! After each epoch the runner can write a checkpoint — a small file,
//! schema-versioned and CRC-guarded, written to `<path>.tmp` (the suffix
//! appended to the whole file name, so `run.linear` and `run.hub` never
//! share a temp file) and **renamed into place** so a SIGKILL at any
//! instant leaves either the previous checkpoint or the new one, never a
//! torn file. The payload is one [`telemetry::Event`] JSON line per
//! record, the JSONL stream's codec (`u128`s ride as decimal strings):
//!
//! ```text
//! xchain-campaign-checkpoint v2
//! crc32 <8 hex chars over the payload below>
//! {"kind":"campaign","config":"<FNV-1a of the campaign config>","next_epoch":2,"instances":10000,"events":"5240000"}
//! {"kind":"outcomes","success":9960,"refunds":40,"stuck":0,…,"byzantine":0}
//! {"kind":"failed_seed","seed":…}   one per carried seed, at most 16
//! {"kind":"latency","count":9960,"sum":"…","min":…,"max":…,"<bucket>":<count>,…}
//! {"kind":"peak_locked",…}          then, open campaigns only: liquidity, lq_wait, lq_rejected_wait
//! ```
//!
//! [`CampaignRunner::resume`] verifies the magic, schema version (a v1
//! file is refused), CRC and config digest before adopting the carried
//! state; a config digest mismatch (different workload, faults,
//! liquidity, totals or harness) refuses to resume rather than silently
//! fusing incompatible campaigns. A CRC is not a MAC, so the decoded
//! state is checked too: outcome counters must sum to `instances`, at
//! most 16 and at most `failed` seeds may be carried, and a `liquidity`
//! record must be present exactly when [`CampaignConfig::liquidity`] is
//! set. The thread count is deliberately **not** part of the digest: it
//! is a performance knob, and the workspace invariant is that it never
//! changes a report. Neither does how an epoch is chunked onto workers.
//!
//! ## Resume is bit-identical
//!
//! Every epoch is a pure function of `(config, epoch index)` and the
//! tally fold is exact integer arithmetic plus order-independent sketch
//! merges, so a campaign killed after any epoch and resumed from its
//! checkpoint produces a final report — and report digest — **bit
//! identical** to an uninterrupted run, at any thread count
//! (`tests/campaign.rs` proves this for linear and packetized families at
//! 1 and 4 threads).
//!
//! ## Open-system campaigns
//!
//! With [`CampaignConfig::liquidity`] set, each epoch runs through the
//! sharded discrete-event engine against a fresh [`LiquidityBook`] with
//! the configured budgets (epochs are independent admission timelines),
//! and the checkpoint carries the book's cumulative audit state across
//! epochs — budget violations, drain flags, per-venue peaks, value
//! goodput and the wait sketches ([`LiquidityTally`]).
//!
//! [`LiquidityBook`]: protocol::liquidity::LiquidityBook

use crate::des;
use crate::faults::FaultPlan;
use crate::metrics::{InstanceOutcome, OpenTelemetry, OutcomeCounts};
use crate::runner::{simulate_specs, SimConfig};
use crate::sketch::MergeableSketch;
use crate::workload::{self, PaymentSpec, WorkloadConfig};
use experiments::digest::{crc32, fnv1a64, hex16};
use protocol::harness::{HarnessRun, ProtocolHarness};
use protocol::liquidity::LiquidityConfig;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use telemetry::json::{round_to, JsonObject};
use telemetry::{Event, NullSink, PhaseProfile, TelemetrySink};

/// Checkpoint schema version; bumped on any wire-format change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;
const MAGIC: &str = "xchain-campaign-checkpoint";
/// At most this many poisoned seeds are carried in the report (enough to
/// replay, bounded so a catastrophically broken harness cannot grow the
/// "constant-memory" state).
const FAILED_SEEDS_CAP: usize = 16;

/// One streaming campaign: the workload template, its scale, and how to
/// run it.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Workload template: family, arrival process, amount/commission/drift
    /// envelopes and the campaign seed. The `payments` field is ignored —
    /// scale comes from `total_payments`, and each epoch derives its own
    /// seeded copy.
    pub workload: WorkloadConfig,
    /// Payments the whole campaign offers (the last epoch is short when
    /// `epoch_payments` does not divide it; packetized families may
    /// overshoot by at most `paths − 1` rows per epoch, exactly as
    /// [`workload::generate`] documents).
    pub total_payments: u64,
    /// Payments per epoch — the campaign's memory high-water mark and its
    /// checkpoint granularity.
    pub epoch_payments: usize,
    /// Fault distribution applied to every instance.
    pub faults: FaultPlan,
    /// Worker threads (0 ⇒ all cores). Not part of the config digest:
    /// reports are bit-identical across thread counts.
    pub threads: usize,
    /// `Some` runs every epoch as an open system against finite per-venue
    /// collateral (see the module docs); `None` is the closed world.
    pub liquidity: Option<LiquidityConfig>,
    /// `Some` switches open-system epochs of network families to
    /// liquidity-aware dynamic routing with optional rebalancing (the
    /// `routing` argument of [`crate::run_open`]). Ignored for non-network
    /// families and closed-world campaigns.
    pub routing: Option<protocol::RoutingConfig>,
}

impl CampaignConfig {
    /// A closed-world campaign of `total_payments` over `workload`, in
    /// epochs of `epoch_payments`, fault-free, all cores.
    pub fn new(workload: WorkloadConfig, total_payments: u64, epoch_payments: usize) -> Self {
        CampaignConfig {
            workload,
            total_payments,
            epoch_payments,
            faults: FaultPlan::NONE,
            threads: 0,
            liquidity: None,
            routing: None,
        }
    }

    /// Number of epochs the campaign runs.
    pub fn epochs(&self) -> u64 {
        self.total_payments
            .div_ceil(self.epoch_payments.max(1) as u64)
    }

    /// The self-contained seeded workload of epoch `e`: the template with
    /// the epoch's payment count and a seed derived from `(campaign seed,
    /// e)` — regenerable at resume time with no carried RNG state.
    pub fn epoch_workload(&self, e: u64) -> WorkloadConfig {
        let remaining = self
            .total_payments
            .saturating_sub(e * self.epoch_payments as u64);
        let payments = (self.epoch_payments as u64).min(remaining) as usize;
        let mut wl = self.workload;
        wl.payments = payments;
        wl.seed = self
            .workload
            .seed
            .wrapping_add((e + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        wl
    }

    fn sim_config(&self, wl: WorkloadConfig) -> SimConfig {
        SimConfig {
            workload: wl,
            faults: self.faults,
            threads: self.threads,
            lock_profile: false,
        }
    }

    /// FNV-1a digest of the canonical campaign identity under `harness`:
    /// everything that changes what the campaign *computes* (workload
    /// template, scale, epoch size, faults, liquidity, harness), nothing
    /// that only changes how fast (the thread count).
    pub fn digest(&self, harness_name: &str) -> u64 {
        let mut wl = self.workload;
        wl.payments = 0; // template: scale lives in total/epoch
        let mut canon = format!(
            "campaign harness={} workload={:?} total={} epoch={} faults={:?} liquidity={:?}",
            harness_name, wl, self.total_payments, self.epoch_payments, self.faults, self.liquidity
        );
        // Appended only when set, so an unrouted campaign keeps the
        // digest it had before routing existed (the exp8 `config_digest`
        // pinned in `tests/driver.rs`).
        if let Some(routing) = &self.routing {
            canon.push_str(&format!(" routing={routing:?}"));
        }
        fnv1a64(canon.as_bytes())
    }
}

/// Cumulative liquidity-side state of an open-system campaign — the
/// carried [`LiquidityBook`] audit rolled up across epochs (each epoch is
/// an independent admission timeline against fresh budgets; the campaign
/// carries the cumulative audit, not live reservations).
///
/// [`LiquidityBook`]: protocol::liquidity::LiquidityBook
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiquidityTally {
    /// Payments offered / admitted / rejected / queued, summed.
    pub offered: u64,
    /// Admitted payments.
    pub admitted: u64,
    /// Rejected payments.
    pub rejected: u64,
    /// Admitted payments that waited at the gate.
    pub queued: u64,
    /// `locked > budget` audit violations, summed — must stay zero.
    pub budget_violations: u64,
    /// True while every epoch's venues drained to zero.
    pub drained_all: bool,
    /// Highest single-venue locked peak seen in any epoch.
    pub peak_locked_venue: u64,
    /// Highest single-venue reserved peak seen in any epoch.
    pub peak_reserved_venue: u64,
    /// Value delivered by successful payments, summed.
    pub goodput_value: u128,
    /// Value offered, summed.
    pub offered_value: u128,
    /// Sum of epoch horizons (ticks of simulated time, end to end).
    pub horizon_ticks: u128,
    /// Gate-wait sketch over admitted queued payments (ticks).
    pub wait: MergeableSketch,
    /// Wasted-wait sketch over rejected payments (ticks).
    pub rejected_wait: MergeableSketch,
}

impl Default for LiquidityTally {
    fn default() -> Self {
        LiquidityTally {
            offered: 0,
            admitted: 0,
            rejected: 0,
            queued: 0,
            budget_violations: 0,
            drained_all: true,
            peak_locked_venue: 0,
            peak_reserved_venue: 0,
            goodput_value: 0,
            offered_value: 0,
            horizon_ticks: 0,
            wait: MergeableSketch::new(),
            rejected_wait: MergeableSketch::new(),
        }
    }
}

impl LiquidityTally {
    /// The `liquidity` checkpoint record; the two wait sketches are
    /// records of their own.
    fn to_event(&self) -> Event {
        Event::new("liquidity")
            .with_u64("offered", self.offered)
            .with_u64("admitted", self.admitted)
            .with_u64("rejected", self.rejected)
            .with_u64("queued", self.queued)
            .with_u64("budget_violations", self.budget_violations)
            .with_bool("drained_all", self.drained_all)
            .with_u64("peak_locked_venue", self.peak_locked_venue)
            .with_u64("peak_reserved_venue", self.peak_reserved_venue)
            .with_u128("goodput_value", self.goodput_value)
            .with_u128("offered_value", self.offered_value)
            .with_u128("horizon_ticks", self.horizon_ticks)
    }

    fn fold_epoch(&mut self, raw: &des::OpenRaw) {
        let l = &raw.liquidity;
        self.offered += l.offered as u64;
        self.admitted += l.admitted as u64;
        self.rejected += l.rejected as u64;
        self.queued += l.queued as u64;
        self.budget_violations += l.budget_violations as u64;
        self.drained_all &= l.drained;
        self.peak_locked_venue = self.peak_locked_venue.max(l.peak_locked_venue);
        self.peak_reserved_venue = self.peak_reserved_venue.max(l.peak_reserved_venue);
        self.goodput_value += l.goodput_value as u128;
        self.offered_value += l.offered_value as u128;
        self.horizon_ticks += l.horizon.ticks() as u128;
        for &w in &raw.waits {
            self.wait.record(w);
        }
        for &w in &raw.rejected_waits {
            self.rejected_wait.record(w);
        }
    }
}

/// The campaign's whole aggregated state: exact counters plus
/// constant-memory sketches. This — not a `Vec` of instances — is what
/// the checkpoint persists and the final report renders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTally {
    /// Rows simulated (≥ `total_payments` only through the documented
    /// packetized overshoot).
    pub instances: u64,
    /// The outcome counters. `violations` is the campaign's core gate;
    /// the seeds of the `failed` rows are in `failed_seeds`.
    pub outcomes: OutcomeCounts,
    /// Engine events dispatched, summed.
    pub events: u128,
    /// Latency sketch over successful payments (ticks).
    pub latency: MergeableSketch,
    /// Peak-locked-value sketch across instances.
    pub peak_locked: MergeableSketch,
    /// Seeds of up to 16 poisoned instances — enough to replay the panic
    /// under a debugger: the 16 smallest, sorted, in closed and open
    /// campaigns alike, so how an epoch is chunked never changes them.
    pub failed_seeds: Vec<u64>,
    /// Liquidity-side tally (open-system campaigns only).
    pub liquidity: Option<LiquidityTally>,
}

impl CampaignTally {
    fn fold_row(&mut self, spec: &PaymentSpec, r: &HarnessRun) {
        self.instances += 1;
        self.outcomes.count(r);
        if r.outcome == InstanceOutcome::Success {
            self.latency.record(r.latency.ticks());
        }
        if r.outcome == InstanceOutcome::Failed {
            self.keep_failed_seeds([spec.seed]);
        }
        self.peak_locked.record(r.peak_locked);
        self.events += r.events as u128;
    }

    /// The one `failed_seeds` rule: keep the [`FAILED_SEEDS_CAP`]
    /// smallest distinct seeds, sorted. A row and a part's seeds go
    /// through it alike, so the result does not depend on where the
    /// chunk boundaries fell.
    fn keep_failed_seeds(&mut self, seeds: impl IntoIterator<Item = u64>) {
        self.failed_seeds.extend(seeds);
        self.failed_seeds.sort_unstable();
        self.failed_seeds.dedup();
        self.failed_seeds.truncate(FAILED_SEEDS_CAP);
    }

    /// Folds a per-worker partial tally in. All fields merge by exact
    /// commutative arithmetic (sketch merges included), and
    /// `failed_seeds` by [`keep_failed_seeds`](Self::keep_failed_seeds),
    /// so the combined tally is independent of worker count, chunking and
    /// merge order.
    fn absorb(&mut self, part: CampaignTally) {
        self.instances += part.instances;
        self.outcomes.absorb(&part.outcomes);
        self.events += part.events;
        self.latency.merge(&part.latency);
        self.peak_locked.merge(&part.peak_locked);
        self.keep_failed_seeds(part.failed_seeds);
    }
}

/// Everything one completed epoch reports: progress, throughput, peak
/// memory and the ETA. This is the payload of the `epoch` telemetry event
/// (which adds the tally's cumulative outcome counters) and of the
/// standardized [`progress_line`] every exp binary prints. The wall-clock
/// and memory fields are observability-only — they never reach a
/// checkpoint, a report digest or any other digest preimage.
///
/// [`progress_line`]: EpochEvent::progress_line
#[derive(Debug, Clone, Copy)]
pub struct EpochEvent {
    /// The epoch that just completed (0-based).
    pub epoch: u64,
    /// Total epochs in the campaign.
    pub epochs: u64,
    /// Rows simulated in this epoch.
    pub rows: u64,
    /// Cumulative rows simulated so far.
    pub total_rows: u64,
    /// Wall-clock seconds this epoch took (step only, checkpoint
    /// excluded).
    pub epoch_wall_s: f64,
    /// This epoch's rows over its wall time (0 when unmeasurable).
    pub payments_per_sec: f64,
    /// Peak RSS of the process so far ([`peak_rss_mb`]; Linux-only,
    /// `None` elsewhere).
    pub peak_rss_mb: Option<u64>,
    /// Estimated seconds to campaign completion, from the mean epoch
    /// wall time observed so far in this process.
    pub eta_s: f64,
}

impl EpochEvent {
    /// The standardized one-line progress render every campaign binary
    /// prints (to stderr; stdout stays machine-readable):
    ///
    /// ```text
    /// epoch 3/20 — 50000 rows (150000 total) — 81243 payments/s — rss 74 MiB — eta 42s
    /// ```
    pub fn progress_line(&self) -> String {
        let rss = match self.peak_rss_mb {
            Some(mb) => format!("{mb} MiB"),
            None => "n/a".to_owned(),
        };
        format!(
            "epoch {}/{} — {} rows ({} total) — {:.0} payments/s — rss {} — eta {:.0}s",
            self.epoch + 1,
            self.epochs,
            self.rows,
            self.total_rows,
            self.payments_per_sec,
            rss,
            self.eta_s
        )
    }

    /// Renders the `epoch` telemetry event, with `tally`'s cumulative
    /// outcome counters (the checkpoint's `outcomes` record) after the
    /// throughput.
    pub fn to_event(&self, tally: &CampaignTally) -> Event {
        let e = Event::new("epoch")
            .with_u64("epoch", self.epoch)
            .with_u64("epochs", self.epochs)
            .with_u64("rows", self.rows)
            .with_u64("total_rows", self.total_rows)
            .with_f64("epoch_wall_s", self.epoch_wall_s)
            .with_f64("payments_per_sec", self.payments_per_sec);
        let mut e = tally.outcomes.with_fields(e).with_f64("eta_s", self.eta_s);
        if let Some(mb) = self.peak_rss_mb {
            e = e.with_u64("peak_rss_mb", mb);
        }
        e
    }
}

/// The runner: steps a campaign epoch by epoch, checkpointing after each
/// (see the module docs for the format and the resume guarantee).
///
/// ```no_run
/// use sim::campaign::{CampaignConfig, CampaignRunner};
/// use sim::workload::{TopologyFamily, WorkloadConfig};
/// use sim::TimeBoundedHarness;
///
/// let wl = WorkloadConfig::new(TopologyFamily::Linear { n: 4 }, 0, 42);
/// let cfg = CampaignConfig::new(wl, 1_000_000, 50_000);
/// let ckpt = std::path::Path::new("campaign.ckpt");
/// let mut runner = CampaignRunner::resume_or_new(TimeBoundedHarness, cfg, ckpt)
///     .expect("checkpoint readable");
/// runner.run_to_end(Some(ckpt), None, |e| eprintln!("epoch {}/{}", e.epoch + 1, e.epochs))
///     .expect("checkpoint writable");
/// println!("{}", runner.report().render());
/// ```
pub struct CampaignRunner<H> {
    harness: H,
    cfg: CampaignConfig,
    next_epoch: u64,
    tally: CampaignTally,
    /// Scoped phase timers (generation / simulation / merge / checkpoint).
    /// Observability-only: never checkpointed, never in any digest.
    profile: PhaseProfile,
    /// The last open-system epoch's per-venue telemetry sidecar, for the
    /// epoch-boundary venue series.
    last_open: Option<OpenTelemetry>,
}

impl<H: ProtocolHarness> CampaignRunner<H> {
    /// A fresh campaign at epoch 0.
    ///
    /// Panics if `harness` does not support the workload family or the
    /// scale parameters are zero.
    pub fn new(harness: H, cfg: CampaignConfig) -> Self {
        assert!(cfg.total_payments > 0, "empty campaign");
        assert!(cfg.epoch_payments > 0, "zero-payment epochs never finish");
        assert!(
            harness.supports(&cfg.workload),
            "{} does not support this workload ({:?}); gate on supports()",
            harness.name(),
            cfg.workload.family,
        );
        let open = cfg.liquidity.is_some();
        CampaignRunner {
            harness,
            cfg,
            next_epoch: 0,
            tally: CampaignTally {
                liquidity: open.then(LiquidityTally::default),
                ..CampaignTally::default()
            },
            profile: PhaseProfile::new(),
            last_open: None,
        }
    }

    /// Resumes from `path`, or starts fresh when no checkpoint exists yet
    /// (the state a campaign killed before its first epoch completed is
    /// in). A checkpoint that exists but fails validation is an error,
    /// never silently discarded.
    pub fn resume_or_new(harness: H, cfg: CampaignConfig, path: &Path) -> io::Result<Self> {
        if path.exists() {
            Self::resume(harness, cfg, path)
        } else {
            Ok(Self::new(harness, cfg))
        }
    }

    /// Resumes a campaign from the checkpoint at `path`, verifying magic,
    /// schema version, CRC and config digest (see the module docs).
    pub fn resume(harness: H, cfg: CampaignConfig, path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let (header, rest) = text.split_once('\n').unwrap_or((&text, ""));
        let expect_header = format!("{MAGIC} v{CHECKPOINT_SCHEMA_VERSION}");
        if header != expect_header {
            return Err(bad(format!(
                "checkpoint header {header:?}, expected {expect_header:?}"
            )));
        }
        let (crc_line, payload) = rest.split_once('\n').unwrap_or((rest, ""));
        let crc_hex = crc_line
            .strip_prefix("crc32 ")
            .ok_or_else(|| bad(format!("missing crc32 line, got {crc_line:?}")))?;
        let stored_crc = u32::from_str_radix(crc_hex, 16)
            .map_err(|e| bad(format!("unparseable crc32 {crc_hex:?}: {e}")))?;
        let actual_crc = crc32(payload.as_bytes());
        if actual_crc != stored_crc {
            return Err(bad(format!(
                "checkpoint CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x} \
                 (torn or corrupted file)"
            )));
        }
        let mut runner = Self::new(harness, cfg);
        let (next_epoch, tally) =
            read_state(payload, runner.cfg.digest(runner.harness.name())).map_err(bad)?;
        if next_epoch > runner.cfg.epochs() {
            return Err(bad(format!(
                "checkpoint is at epoch {next_epoch} of a {}-epoch campaign",
                runner.cfg.epochs()
            )));
        }
        // The CRC only catches accidents. `step` relies on the tally's
        // liquidity side existing exactly when the campaign is open.
        if tally.liquidity.is_some() != runner.cfg.liquidity.is_some() {
            return Err(bad(
                "checkpoint's liquidity record disagrees with this campaign's config".to_owned(),
            ));
        }
        runner.next_epoch = next_epoch;
        runner.tally = tally;
        Ok(runner)
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Epochs completed so far (also the next epoch index to run).
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// True once every epoch has been folded in.
    pub fn is_done(&self) -> bool {
        self.next_epoch >= self.cfg.epochs()
    }

    /// Runs the next epoch, folds it into the tally and returns the
    /// epoch's row count.
    ///
    /// Panics when the campaign [`is_done`](Self::is_done).
    pub fn step(&mut self) -> u64 {
        assert!(!self.is_done(), "campaign already complete");
        let e = self.next_epoch;
        let wl = self.cfg.epoch_workload(e);
        let sim_cfg = self.cfg.sim_config(wl);
        let specs = {
            let _t = self.profile.time("generation");
            workload::generate(&wl)
        };
        let rows = specs.len() as u64;
        match self.cfg.liquidity {
            None => {
                // Closed world: the shared batch loop, each chunk folded
                // to a partial tally on the worker that ran it. The merge
                // commutes, so the tally is bit-identical across thread
                // counts.
                let parts = {
                    let _t = self.profile.time("simulation");
                    simulate_specs(&self.harness, &specs, &sim_cfg, |chunk, rows| {
                        let mut part = CampaignTally::default();
                        for (spec, r) in chunk.iter().zip(&rows) {
                            part.fold_row(spec, r);
                        }
                        part
                    })
                };
                let _t = self.profile.time("merge");
                for part in parts {
                    self.tally.absorb(part);
                }
                self.last_open = None;
            }
            Some(liq) => {
                // Open system: the sharded DES engine runs the epoch and
                // the rows + raw waits fold into the carried tally; the
                // per-venue sidecar is kept for the epoch-boundary venue
                // series.
                let raw = {
                    let _t = self.profile.time("simulation");
                    des::run_open_specs_raw(
                        &self.harness,
                        &specs,
                        &sim_cfg,
                        &liq,
                        self.cfg.routing.as_ref(),
                    )
                };
                let _t = self.profile.time("merge");
                for (spec, r) in specs.iter().zip(&raw.results) {
                    self.tally.fold_row(spec, r);
                }
                self.tally
                    .liquidity
                    .as_mut()
                    .expect("`new` and `resume` set `tally.liquidity` iff `cfg.liquidity` is set")
                    .fold_epoch(&raw);
                self.last_open = Some(raw.telemetry);
            }
        }
        self.next_epoch += 1;
        rows
    }

    /// Steps to completion. After every epoch: `progress` is called and,
    /// when `checkpoint` is given, the checkpoint is atomically rewritten.
    /// `stop_after_epoch: Some(k)` returns early once epoch index `k` has
    /// completed (0-based) — the programmatic stand-in for a kill between
    /// epochs, used by the resume smoke tests.
    ///
    /// [`run_to_end_with_telemetry`] with a [`NullSink`].
    ///
    /// [`run_to_end_with_telemetry`]: Self::run_to_end_with_telemetry
    pub fn run_to_end<F: FnMut(&EpochEvent)>(
        &mut self,
        checkpoint: Option<&Path>,
        stop_after_epoch: Option<u64>,
        progress: F,
    ) -> io::Result<()> {
        self.run_to_end_with_telemetry(checkpoint, stop_after_epoch, &mut NullSink, progress)
    }

    /// [`run_to_end`](Self::run_to_end) with a telemetry sink attached.
    ///
    /// After every epoch the runner builds an [`EpochEvent`] (throughput,
    /// peak RSS, ETA), emits it into `sink` with the cumulative outcome
    /// counters — plus, for open-system campaigns, the per-venue `venue` /
    /// `venue_des` series scoped by `epoch` — and hands it to `progress`.
    /// When the loop ends, the `phase_profile` event follows and the sink is
    /// flushed.
    ///
    /// The sink lives on this (orchestrating) thread only and every event
    /// is rendered from already-merged state, so any sink — including a
    /// buffered JSONL file sink — observes the exact same values at any
    /// thread count, and no sink can change a digest.
    pub fn run_to_end_with_telemetry<F: FnMut(&EpochEvent)>(
        &mut self,
        checkpoint: Option<&Path>,
        stop_after_epoch: Option<u64>,
        sink: &mut dyn TelemetrySink,
        mut progress: F,
    ) -> io::Result<()> {
        let mut wall_total = 0.0f64;
        let mut epochs_timed = 0u64;
        let epochs = self.cfg.epochs();
        while !self.is_done() {
            let epoch = self.next_epoch;
            let t0 = std::time::Instant::now();
            let rows = self.step();
            let wall = t0.elapsed().as_secs_f64();
            wall_total += wall;
            epochs_timed += 1;
            if let Some(path) = checkpoint {
                let _t = self.profile.time("checkpoint");
                self.checkpoint_to(path)?;
            }
            let remaining = epochs.saturating_sub(epoch + 1);
            let event = EpochEvent {
                epoch,
                epochs,
                rows,
                total_rows: self.tally.instances,
                epoch_wall_s: wall,
                payments_per_sec: if wall > 0.0 { rows as f64 / wall } else { 0.0 },
                peak_rss_mb: peak_rss_mb(),
                eta_s: (wall_total / epochs_timed as f64) * remaining as f64,
            };
            sink.emit(&event.to_event(&self.tally));
            if let Some(open) = &self.last_open {
                open.emit(&[("epoch", epoch)], sink);
            }
            progress(&event);
            if stop_after_epoch.is_some_and(|k| epoch >= k) {
                break;
            }
        }
        sink.emit(&self.profile.to_event());
        sink.flush()
    }

    /// The campaign's aggregated state.
    pub fn tally(&self) -> &CampaignTally {
        &self.tally
    }

    /// The scoped phase timers (generation / simulation / merge /
    /// checkpoint write) accumulated by this process. Observability-only.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Atomically writes the checkpoint: full state to `<path>.tmp` (the
    /// whole file name plus `.tmp`), fsync, rename into place.
    pub fn checkpoint_to(&self, path: &Path) -> io::Result<()> {
        let payload = self.state_payload();
        let mut text = format!("{MAGIC} v{CHECKPOINT_SCHEMA_VERSION}\n");
        text.push_str(&format!("crc32 {:08x}\n", crc32(payload.as_bytes())));
        text.push_str(&payload);
        // Appended, not `with_extension`: `run.linear` and `run.hub` in
        // one directory must not share a temp file.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// The final report (meaningful any time, canonical when
    /// [`is_done`](Self::is_done)).
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            harness: self.harness.name(),
            family: self.cfg.workload.family.label(),
            epochs_run: self.next_epoch,
            epochs: self.cfg.epochs(),
            config_digest: hex16(self.cfg.digest(self.harness.name())),
            digest: hex16(fnv1a64(self.state_payload().as_bytes())),
            tally: self.tally.clone(),
        }
    }

    /// The checkpoint payload: every carried bit of campaign state, one
    /// event per line (see the module docs). Doubles as the report-digest
    /// preimage, so "same payload" and "same report" are the same
    /// statement.
    fn state_payload(&self) -> String {
        let t = &self.tally;
        let mut records = vec![
            Event::new("campaign")
                .with_str("config", &hex16(self.cfg.digest(self.harness.name())))
                .with_u64("next_epoch", self.next_epoch)
                .with_u64("instances", t.instances)
                .with_u128("events", t.events),
            t.outcomes.with_fields(Event::new("outcomes")),
        ];
        let seeds = t.failed_seeds.iter();
        records.extend(seeds.map(|&seed| Event::new("failed_seed").with_u64("seed", seed)));
        records.push(t.latency.to_event("latency"));
        records.push(t.peak_locked.to_event("peak_locked"));
        if let Some(l) = &t.liquidity {
            records.push(l.to_event());
            records.push(l.wait.to_event("lq_wait"));
            records.push(l.rejected_wait.to_event("lq_rejected_wait"));
        }
        records.iter().map(|e| e.to_json() + "\n").collect()
    }
}

type Records = std::iter::Peekable<std::vec::IntoIter<Event>>;

/// The next record, which must be of `kind`.
fn next_record(records: &mut Records, kind: &str) -> Result<Event, String> {
    let next = records.next_if(|e| e.kind() == kind);
    next.ok_or_else(|| format!("expected a {kind} record"))
}

fn sketch(records: &mut Records, kind: &str) -> Result<MergeableSketch, String> {
    MergeableSketch::from_event(&next_record(records, kind)?)
}

/// Field `name` of `e`, read by the typed accessor `get`.
fn field<T>(e: &Event, name: &str, get: fn(&Event, &str) -> Option<T>) -> Result<T, String> {
    get(e, name).ok_or_else(|| format!("{}: missing or malformed {name}", e.kind()))
}

/// Reads a CRC-verified checkpoint payload back; `expected_config` is the
/// resuming configuration's digest. Refuses a tally no run can produce.
fn read_state(payload: &str, expected_config: u64) -> Result<(u64, CampaignTally), String> {
    let records = payload.lines().map(Event::parse);
    let mut r = records
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .peekable();
    let c = next_record(&mut r, "campaign")?;
    let config = field(&c, "config", |e, name| e.str_field(name).map(str::to_owned))?;
    if config != hex16(expected_config) {
        return Err(format!(
            "checkpoint was written by a different campaign config \
             (checkpoint {config}, this config {}); refusing to resume",
            hex16(expected_config)
        ));
    }
    let next_epoch = field(&c, "next_epoch", Event::u64_field)?;
    let mut t = CampaignTally {
        instances: field(&c, "instances", Event::u64_field)?,
        outcomes: OutcomeCounts::from_event(&next_record(&mut r, "outcomes")?)?,
        events: field(&c, "events", Event::u128_field)?,
        failed_seeds: std::iter::from_fn(|| r.next_if(|e| e.kind() == "failed_seed"))
            .map(|e| field(&e, "seed", Event::u64_field))
            .collect::<Result<_, _>>()?,
        latency: sketch(&mut r, "latency")?,
        peak_locked: sketch(&mut r, "peak_locked")?,
        liquidity: None,
    };
    if let Some(l) = r.next_if(|e| e.kind() == "liquidity") {
        t.liquidity = Some(LiquidityTally {
            offered: field(&l, "offered", Event::u64_field)?,
            admitted: field(&l, "admitted", Event::u64_field)?,
            rejected: field(&l, "rejected", Event::u64_field)?,
            queued: field(&l, "queued", Event::u64_field)?,
            budget_violations: field(&l, "budget_violations", Event::u64_field)?,
            drained_all: field(&l, "drained_all", Event::bool_field)?,
            peak_locked_venue: field(&l, "peak_locked_venue", Event::u64_field)?,
            peak_reserved_venue: field(&l, "peak_reserved_venue", Event::u64_field)?,
            goodput_value: field(&l, "goodput_value", Event::u128_field)?,
            offered_value: field(&l, "offered_value", Event::u128_field)?,
            horizon_ticks: field(&l, "horizon_ticks", Event::u128_field)?,
            wait: sketch(&mut r, "lq_wait")?,
            rejected_wait: sketch(&mut r, "lq_rejected_wait")?,
        });
    }
    if let Some(e) = r.next() {
        return Err(format!("unexpected {:?} record after the last", e.kind()));
    }
    if t.outcomes.rows() != Some(t.instances) {
        return Err("outcomes: the six outcome counters do not sum to instances".to_owned());
    }
    let seeds = t.failed_seeds.len();
    if seeds > FAILED_SEEDS_CAP || seeds as u64 > t.outcomes.failed {
        return Err(format!(
            "failed_seed: {seeds} records, over {FAILED_SEEDS_CAP} or failed"
        ));
    }
    Ok((next_epoch, t))
}

/// The campaign's final aggregates plus its canonical digest — two runs
/// (interrupted or not, any thread count) with equal `digest` carry
/// byte-identical campaign state.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Harness name.
    pub harness: &'static str,
    /// Workload family label.
    pub family: &'static str,
    /// Epochs folded into this report.
    pub epochs_run: u64,
    /// Epochs the campaign has in total.
    pub epochs: u64,
    /// Canonical config digest (hex), matching the checkpoint's.
    pub config_digest: String,
    /// FNV-1a digest (hex) of the full canonical campaign state.
    pub digest: String,
    /// The aggregates themselves.
    pub tally: CampaignTally,
}

impl CampaignReport {
    /// Renders the human-readable report block.
    pub fn render(&self) -> String {
        let t = &self.tally;
        let o = &t.outcomes;
        let mut out = String::new();
        out.push_str(&format!(
            "campaign: {} over {} — epoch {}/{} — {} rows\n",
            self.harness, self.family, self.epochs_run, self.epochs, t.instances
        ));
        let pct = |n: u64| {
            if t.instances == 0 {
                0.0
            } else {
                100.0 * n as f64 / t.instances as f64
            }
        };
        out.push_str(&format!(
            "outcomes: success {} ({:.1}%) refund {} stuck {} violation {} rejected {} \
             failed {} | griefed {} byzantine {}\n",
            o.success,
            pct(o.success),
            o.refunds,
            o.stuck,
            o.violations,
            o.rejected,
            o.failed,
            o.griefed,
            o.byzantine
        ));
        if !t.failed_seeds.is_empty() {
            out.push_str(&format!("failed seeds: {:?}\n", t.failed_seeds));
        }
        let sketch_line = |name: &str, s: &MergeableSketch| match s.summary() {
            None => format!("{name}: (no samples)\n"),
            Some(sm) => format!(
                "{name}: n={} min={} mean={:.1} p50~{} p99~{} max={} (sketch: ≤1/64 over)\n",
                sm.n, sm.min, sm.mean, sm.p50, sm.p99, sm.max
            ),
        };
        out.push_str(&sketch_line("latency(ticks)", &t.latency));
        out.push_str(&sketch_line("peak_locked", &t.peak_locked));
        if let Some(l) = &t.liquidity {
            out.push_str(&format!(
                "liquidity: offered {} admitted {} rejected {} queued {} | \
                 budget violations {} drained {} | peak locked/venue {} reserved {} | \
                 goodput {}/{}\n",
                l.offered,
                l.admitted,
                l.rejected,
                l.queued,
                l.budget_violations,
                if l.drained_all { "yes" } else { "NO" },
                l.peak_locked_venue,
                l.peak_reserved_venue,
                l.goodput_value,
                l.offered_value
            ));
            out.push_str(&sketch_line("gate wait(ticks)", &l.wait));
            out.push_str(&sketch_line("rejected wait(ticks)", &l.rejected_wait));
        }
        out.push_str(&format!(
            "config {}  report digest {}\n",
            self.config_digest, self.digest
        ));
        out
    }

    /// The machine-readable campaign artifact the nightly CI uploads, as
    /// a [`JsonObject`] the caller may extend before rendering.
    /// `experiment` names the producing binary (`"exp8"`…).
    pub fn to_json(&self, experiment: &str) -> JsonObject {
        let t = &self.tally;
        let sketch = |s: &MergeableSketch| {
            s.summary().map(|sm| {
                JsonObject::new()
                    .with("n", sm.n as u64)
                    .with("min", sm.min)
                    .with("mean", round_to(sm.mean, 3))
                    .with("p50", sm.p50)
                    .with("p99", sm.p99)
                    .with("max", sm.max)
            })
        };
        // Sums of u64 samples; a campaign that overflowed u64 would have
        // run for centuries, so saturating loses nothing real.
        let sat = |x: u128| u64::try_from(x).unwrap_or(u64::MAX);
        let liquidity = t.liquidity.as_ref().map(|l| {
            JsonObject::new()
                .with("offered", l.offered)
                .with("admitted", l.admitted)
                .with("rejected", l.rejected)
                .with("queued", l.queued)
                .with("budget_violations", l.budget_violations)
                .with("drained_all", l.drained_all)
                .with("peak_locked_venue", l.peak_locked_venue)
                .with("peak_reserved_venue", l.peak_reserved_venue)
                .with("goodput_value", sat(l.goodput_value))
                .with("offered_value", sat(l.offered_value))
                .with("wait_ticks", sketch(&l.wait))
                .with("rejected_wait_ticks", sketch(&l.rejected_wait))
        });
        JsonObject::new()
            .with("schema_version", 1u64)
            .with("experiment", format!("{experiment}-campaign").as_str())
            .with("harness", self.harness)
            .with("family", self.family)
            .with("config_digest", self.config_digest.as_str())
            .with("report_digest", self.digest.as_str())
            .with("epochs_run", self.epochs_run)
            .with("epochs", self.epochs)
            .with("instances", t.instances)
            .with(
                "outcomes",
                JsonObject::from_event(&t.outcomes.with_fields(Event::new("outcomes"))),
            )
            .with("events", sat(t.events))
            .with("failed_seeds", t.failed_seeds.clone())
            .with("latency_ticks", sketch(&t.latency))
            .with("peak_locked", sketch(&t.peak_locked))
            .with("liquidity", liquidity)
    }
}

/// Peak resident-set size of this process in MiB, or `None` where it
/// cannot be measured.
///
/// **Linux-only by construction**: the value is the `VmHWM` ("high-water
/// mark") line of `/proc/self/status`, so on any platform without that
/// procfs file — macOS, Windows, BSDs — this returns `None` cleanly and
/// every consumer renders `n/a` instead. The campaign runner is the one
/// place that reads it: the value flows into [`EpochEvent::peak_rss_mb`],
/// which is where [`crate::driver::drive`] takes it from. The nightly
/// bounded-RSS gate reads it after a 1M-payment campaign:
/// constant-memory metrics are a claim about this number.
pub fn peak_rss_mb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::InstanceFaults;
    use crate::workload::TopologyFamily;
    use anta::time::SimDuration;

    /// A chunk boundary cannot change `failed_seeds`: 40 panic-isolated
    /// rows, seeds descending in spec order, keep the 16 smallest seeds
    /// whether they are folded as one part or as five parts of 8.
    #[test]
    fn failed_seeds_do_not_depend_on_chunking() {
        let mut specs =
            workload::generate(&WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 40, 3));
        for (i, spec) in specs.iter_mut().enumerate() {
            spec.seed = 1_000 - i as u64;
        }
        let failed = HarnessRun::never_ran(
            InstanceOutcome::Failed,
            InstanceFaults::NONE,
            SimDuration::ZERO,
        );
        let fold = |chunk: &[PaymentSpec]| {
            let mut part = CampaignTally::default();
            for spec in chunk {
                part.fold_row(spec, &failed);
            }
            part
        };
        let one = fold(&specs);
        let mut five = CampaignTally::default();
        for chunk in specs.chunks(8) {
            five.absorb(fold(chunk));
        }
        let smallest: Vec<u64> = (961..=976).collect();
        assert_eq!(one.failed_seeds, smallest);
        assert_eq!(five.failed_seeds, smallest);
        assert_eq!(one, five);
    }
}
