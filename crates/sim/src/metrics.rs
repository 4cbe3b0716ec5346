//! The metrics pipeline: workload-wide aggregation of per-payment rows
//! into percentile summaries.
//!
//! A payment's row is the harness's own [`protocol::HarnessRun`]:
//! outcome (success / refund / stuck / **violation** — the
//! money-conservation assertion), end-to-end latency, peak locked value
//! and the lock/unlock event profile. The outcome vocabulary is the
//! protocol layer's [`protocol::ProtocolOutcome`] ([`InstanceOutcome`] is
//! the same type), so the same aggregation serves every
//! [`protocol::ProtocolHarness`]. Aggregation is contention-free: each
//! worker returns its chunk's rows as a plain `Vec`, and the runner folds
//! them with their specs, in spec order, into a [`SimReport`] after the
//! parallel phase — the same discipline as [`experiments::parallel_map`],
//! which the runner drives.
//!
//! Each count has one owner: a split payment's legs are one row before
//! any report sees them ([`protocol::HarnessRun::join`]), one `match` in
//! [`OutcomeCounts`] counts a row's outcome for every report, and a
//! venue's counters live in its [`protocol::LiquidityBook`] account.

use crate::faults::ByzFault;
use crate::workload::PaymentSpec;
use anta::time::{SimDuration, SimTime};
use experiments::stats::{Rate, Summary};
use protocol::{HarnessRun, VenueEvents};
use std::collections::BTreeMap;
use telemetry::Event;

/// How one payment instance ended — the protocol layer's shared outcome
/// vocabulary (see [`protocol::ProtocolOutcome`] for the semantics).
pub use protocol::ProtocolOutcome as InstanceOutcome;

/// Aggregated statistics for one topology family; `success` to
/// `byzantine` are a view of its [`OutcomeCounts`].
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// Family label.
    pub family: &'static str,
    /// Instances simulated.
    pub instances: usize,
    /// Success rate (Bob paid).
    pub success: Rate,
    /// Refund count.
    pub refunds: usize,
    /// Stuck count.
    pub stuck: usize,
    /// Violation count — must be zero.
    pub violations: usize,
    /// Payments the admission controller refused (finite-liquidity mode
    /// only; always zero for closed-world campaigns). Rejected payments
    /// count in the success denominator: they were offered, not served.
    pub rejected: usize,
    /// Instances whose harness panicked under the runner's panic
    /// isolation ([`InstanceOutcome::Failed`]): counted here so a poisoned
    /// instance is never silently dropped, but measured nothing.
    pub failed: usize,
    /// Instances that griefed a compliant party (HTLC-style full-window
    /// capital stranding) — zero for the time-bounded protocol.
    pub griefed: usize,
    /// Instances that had a Byzantine substitution.
    pub byzantine: usize,
    /// Latency summary over successful instances (ticks), if any succeeded.
    pub latency: Option<Summary>,
    /// Peak-locked-value summary across instances.
    pub peak_locked: Option<Summary>,
    /// Packet statistics (packetized families only).
    pub packets: Option<PacketStats>,
    /// Payments per **active** spoke gateway — each instance counts at
    /// both its sender and receiver spoke (hub families only). Fewer
    /// spokes for the same traffic ⇒ higher per-spoke load. Gateways no
    /// payment touched have no entry, so `n` is the count of gateways
    /// that actually served traffic and `min`/`max` span only those.
    pub spoke_load: Option<Summary>,
}

/// The eight outcome counters every report keeps: one per outcome class
/// of [`InstanceOutcome`], then griefed and Byzantine rows. A
/// [`FamilyStats`] is read off one, and a [`crate::CampaignTally`] holds
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Successful payments (Bob paid).
    pub success: u64,
    /// Clean refunds.
    pub refunds: u64,
    /// Stuck instances (liveness lost).
    pub stuck: u64,
    /// Money-conservation violations — must be zero.
    pub violations: u64,
    /// Admission rejections (open-system runs only).
    pub rejected: u64,
    /// Panic-isolated instances ([`InstanceOutcome::Failed`]).
    pub failed: u64,
    /// Instances that griefed a compliant party.
    pub griefed: u64,
    /// Instances with a Byzantine substitution.
    pub byzantine: u64,
}

impl OutcomeCounts {
    /// Counts one row.
    pub(crate) fn count(&mut self, r: &HarnessRun) {
        let class = match r.outcome {
            InstanceOutcome::Success => &mut self.success,
            InstanceOutcome::Refund => &mut self.refunds,
            InstanceOutcome::Stuck => &mut self.stuck,
            InstanceOutcome::Violation => &mut self.violations,
            InstanceOutcome::Rejected => &mut self.rejected,
            InstanceOutcome::Failed => &mut self.failed,
        };
        *class += 1;
        self.griefed += u64::from(r.griefed);
        self.byzantine += u64::from(r.faults.byz != ByzFault::None);
    }

    /// Each counter with its record name, in field order: the one table
    /// the record is written and read by.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("success", &mut self.success),
            ("refunds", &mut self.refunds),
            ("stuck", &mut self.stuck),
            ("violations", &mut self.violations),
            ("rejected", &mut self.rejected),
            ("failed", &mut self.failed),
            ("griefed", &mut self.griefed),
            ("byzantine", &mut self.byzantine),
        ]
    }

    /// [`OutcomeCounts::fields_mut`], read-only.
    fn fields(&self) -> [(&'static str, u64); 8] {
        let mut counts = *self;
        counts.fields_mut().map(|(name, n)| (name, *n))
    }

    /// Folds another counter set into this one (element-wise add).
    pub(crate) fn absorb(&mut self, other: &OutcomeCounts) {
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a += b;
        }
    }

    /// The rows counted: the six outcome classes summed, `None` when the
    /// sum overflows.
    pub(crate) fn rows(&self) -> Option<u64> {
        let classes = [self.success, self.refunds, self.stuck, self.violations];
        let mut classes = classes.into_iter().chain([self.rejected, self.failed]);
        classes.try_fold(0u64, u64::checked_add)
    }

    /// `e` with the eight counters appended, in field order: the
    /// campaign checkpoint's `outcomes` record, the `--json` artifact's
    /// `outcomes` object and the tail of every `epoch` event.
    pub(crate) fn with_fields(&self, e: Event) -> Event {
        let fields = self.fields().into_iter();
        fields.fold(e, |e, (name, n)| e.with_u64(name, n))
    }

    /// Reads the counters [`OutcomeCounts::with_fields`] wrote into `e`.
    pub(crate) fn from_event(e: &Event) -> Result<OutcomeCounts, String> {
        let mut counts = OutcomeCounts::default();
        for (name, n) in counts.fields_mut() {
            let bad = || format!("{}: missing or malformed {name}", e.kind());
            *n = e.u64_field(name).ok_or_else(bad)?;
        }
        Ok(counts)
    }
}

/// Packet-level accounting for packetized payments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketStats {
    /// Number of logical packets.
    pub total: usize,
    /// Packets in which every sub-payment succeeded.
    pub complete: usize,
    /// Packets in which some but not all sub-payments succeeded —
    /// partial delivery, unwound on the failed paths only.
    pub partial: usize,
}

/// The whole workload's aggregated report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-family statistics, sorted by family label.
    pub families: Vec<FamilyStats>,
    /// Total instances.
    pub instances: usize,
    /// Total violations (sum over families) — the money-conservation
    /// assertion for the whole run.
    pub violations: usize,
    /// Total admission rejections (sum over families).
    pub rejected: usize,
    /// Total panic-isolated instances (sum over families) — must be zero
    /// unless a harness is genuinely broken.
    pub failed: usize,
    /// Total griefed instances (sum over families).
    pub griefed: usize,
    /// Peak value locked simultaneously across *all* concurrent instances
    /// (arrival-shifted), when lock profiling was enabled.
    pub peak_locked_global: Option<u64>,
    /// Largest number of instances simultaneously in flight.
    pub peak_in_flight: usize,
}

impl SimReport {
    /// Folds per-payment rows, each with the spec it came from, into the
    /// report. The spec supplies the family, packet and route; the lock
    /// profiles are read only when `with_lock_profile` is set.
    pub(crate) fn merge<'a>(
        rows: impl IntoIterator<Item = (&'a PaymentSpec, &'a HarnessRun)>,
        with_lock_profile: bool,
    ) -> SimReport {
        let mut by_family: BTreeMap<&'static str, Vec<(&PaymentSpec, &HarnessRun)>> =
            BTreeMap::new();
        for (spec, r) in rows {
            by_family.entry(spec.family).or_default().push((spec, r));
        }

        let mut families = Vec::with_capacity(by_family.len());
        // `(time, locked delta, in-flight delta)` over every row, for the
        // workload-wide concurrency peaks.
        let mut deltas: Vec<(SimTime, i64, i64)> = Vec::new();
        for (family, rs) in by_family {
            let mut counts = OutcomeCounts::default();
            let mut latencies: Vec<u64> = Vec::new();
            let mut peaks: Vec<u64> = Vec::with_capacity(rs.len());
            let mut packets: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            let mut spokes: BTreeMap<usize, u64> = BTreeMap::new();
            for &(spec, r) in &rs {
                counts.count(r);
                if r.outcome == InstanceOutcome::Success {
                    latencies.push(r.latency.ticks());
                }
                peaks.push(r.peak_locked);
                if let Some((pid, paths)) = spec.packet {
                    let e = packets.entry(pid).or_insert((0, paths));
                    e.0 += usize::from(r.outcome == InstanceOutcome::Success);
                }
                if let Some((snd, rcv)) = spec.route {
                    *spokes.entry(snd).or_insert(0) += 1;
                    *spokes.entry(rcv).or_insert(0) += 1;
                }
                if with_lock_profile {
                    for &(t, _hop, dv) in &r.lock_profile {
                        deltas.push((t, dv, 0));
                    }
                    // In-flight interval: arrival-shifted [first, last] event.
                    if let (Some(first), Some(last)) =
                        (r.lock_profile.first(), r.lock_profile.last())
                    {
                        deltas.push((first.0, 0, 1));
                        deltas.push((last.0, 0, -1));
                    }
                }
            }
            let packet_stats = (!packets.is_empty()).then(|| {
                let mut complete = 0;
                let mut partial = 0;
                for (ok, paths) in packets.values() {
                    if *ok == *paths {
                        complete += 1;
                    } else if *ok > 0 {
                        partial += 1;
                    }
                }
                PacketStats {
                    total: packets.len(),
                    complete,
                    partial,
                }
            });
            let spoke_counts: Vec<u64> = spokes.into_values().collect();
            let n = |count: u64| count as usize;
            families.push(FamilyStats {
                family,
                instances: rs.len(),
                success: Rate {
                    hits: n(counts.success),
                    total: rs.len(),
                },
                refunds: n(counts.refunds),
                stuck: n(counts.stuck),
                violations: n(counts.violations),
                rejected: n(counts.rejected),
                failed: n(counts.failed),
                griefed: n(counts.griefed),
                byzantine: n(counts.byzantine),
                latency: Summary::of(&latencies),
                peak_locked: Summary::of(&peaks),
                packets: packet_stats,
                spoke_load: Summary::of(&spoke_counts),
            });
        }

        let (peak_locked_global, peak_in_flight) = if with_lock_profile {
            // Unlocks at the same instant settle before locks (never
            // overstate the peak), and in-flight exits before entries. The
            // key is the whole tuple, so the order rows arrive in does not
            // matter.
            deltas.sort_unstable_by_key(|&(t, dv, df)| (t, dv, df));
            let (mut locked, mut peak) = (0i64, 0i64);
            let (mut flight, mut peak_flight) = (0i64, 0i64);
            for (_, dv, df) in deltas {
                locked += dv;
                peak = peak.max(locked);
                flight += df;
                peak_flight = peak_flight.max(flight);
            }
            (Some(peak.max(0) as u64), peak_flight.max(0) as usize)
        } else {
            (None, 0)
        };

        let total = |count: fn(&FamilyStats) -> usize| families.iter().map(count).sum();
        SimReport {
            instances: total(|f| f.instances),
            violations: total(|f| f.violations),
            rejected: total(|f| f.rejected),
            failed: total(|f| f.failed),
            griefed: total(|f| f.griefed),
            peak_locked_global,
            peak_in_flight,
            families,
        }
    }

    /// The stats row for `family`, if the workload produced any.
    pub fn family(&self, label: &str) -> Option<&FamilyStats> {
        self.families.iter().find(|f| f.family == label)
    }

    /// True when the money-conservation assertion held everywhere.
    pub fn conserved(&self) -> bool {
        self.violations == 0
    }
}

/// Liquidity-side statistics of one open-system campaign (see
/// [`crate::run_open`]): what the admission controller did, how hard
/// the collateral budgets were driven, and whether the accounting stayed
/// sound.
#[derive(Debug, Clone)]
pub struct LiquidityStats {
    /// Payments offered to the network (every generated instance).
    pub offered: usize,
    /// Payments the admission controller let in.
    pub admitted: usize,
    /// Payments refused (no capacity within the policy's patience).
    pub rejected: usize,
    /// Admitted payments that had to wait at the gate before starting.
    pub queued: usize,
    /// Gate-wait summary over **admitted** queued payments only (ticks),
    /// if any queued. Rejected payments' wasted waits are deliberately
    /// kept out of this summary — mixing served and turned-away delays
    /// would make the admitted-payment wait profile uninterpretable;
    /// they are summarised separately in [`rejected_wait`].
    ///
    /// [`rejected_wait`]: LiquidityStats::rejected_wait
    pub wait: Option<Summary>,
    /// Wasted-wait summary over **rejected** payments (ticks), if any
    /// were rejected: how long each turned-away payer was held before the
    /// refusal. Zero for payments refused on the spot (`Reject` policy,
    /// or a demand no budget could ever satisfy); up to the policy's
    /// patience for payments that queued and expired. This is the
    /// payer-visible delay the admitted-only [`wait`] summary understates.
    ///
    /// [`wait`]: LiquidityStats::wait
    pub rejected_wait: Option<Summary>,
    /// Liquidity shards the discrete-event engine partitioned the venue
    /// set into (connected components of routes sharing a venue). Shards
    /// simulate independently on the worker pool; `1` means every route
    /// contends on one component (e.g. any hub workload).
    pub shards: usize,
    /// Campaign horizon: time zero (campaign start) to the last audited
    /// lock event or admission decision.
    pub horizon: SimDuration,
    /// Per-venue collateral budget the campaign ran under.
    pub budget: u64,
    /// Venues in the network.
    pub venues: usize,
    /// Largest audited locked value any single venue ever held.
    pub peak_locked_venue: u64,
    /// Largest reservation level any single venue ever held.
    pub peak_reserved_venue: u64,
    /// Time-averaged locked value over total network collateral, in ppm
    /// (`None` for unbounded budgets).
    pub utilization_ppm: Option<u64>,
    /// Moments a venue's audited locked value exceeded its budget — the
    /// collateral-conservation assertion; must be zero whenever the
    /// policy is bounded.
    pub budget_violations: usize,
    /// Whether every venue's locked value returned to zero and every
    /// reservation was returned by the end of the campaign.
    pub drained: bool,
    /// Value delivered to payees (sum of successful payments' final-hop
    /// amounts).
    pub goodput_value: u64,
    /// Value offered (sum of all payments' final-hop amounts).
    pub offered_value: u64,
}

impl LiquidityStats {
    /// Delivered value per second of campaign horizon.
    pub fn goodput_per_sec(&self) -> f64 {
        let secs = self.horizon.ticks() as f64 / 1e6;
        if secs <= 0.0 {
            0.0
        } else {
            self.goodput_value as f64 / secs
        }
    }
}

/// What the admission-time pathfinder did over one routed open-system
/// run (see [`protocol::network::Router`]). `None`/absent for static
/// (non-routed) runs; deterministic like everything else in the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Payments admitted over a dynamically chosen path.
    pub routed: u64,
    /// Routed payments whose chosen single path differs from the spec's
    /// static shortest path — liquidity genuinely diverted them.
    pub rerouted: u64,
    /// Routed payments admitted over ≥ 2 venue-disjoint split paths.
    pub split: u64,
    /// Admission attempts for which no feasible path (single or split)
    /// existed at that instant.
    pub no_path: u64,
    /// Pathfinder searches executed (single-path and split searches).
    /// Re-polls the admission gate elides — the head already failed
    /// against a book whose venue loads have not moved since — are not
    /// counted: no search ran.
    pub pathfind_calls: u64,
    /// Rebalancing flows executed.
    pub rebalances: u64,
    /// Total spent liquidity the rebalancing flows restored.
    pub restored_value: u64,
}

impl RoutingStats {
    /// Fold another counter set into this one (element-wise add).
    pub fn absorb(&mut self, other: &RoutingStats) {
        self.routed += other.routed;
        self.rerouted += other.rerouted;
        self.split += other.split;
        self.no_path += other.no_path;
        self.pathfind_calls += other.pathfind_calls;
        self.rebalances += other.rebalances;
        self.restored_value += other.restored_value;
    }
}

/// The full result of an open-system (finite-liquidity) campaign: the
/// usual outcome aggregation plus the liquidity ledger.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// Outcome/latency/locked aggregation, with admission rejections
    /// folded in as [`InstanceOutcome::Rejected`].
    pub sim: SimReport,
    /// Admission and collateral accounting.
    pub liquidity: LiquidityStats,
    /// Pathfinder counters, for routed runs only.
    pub routing: Option<RoutingStats>,
}

/// Deterministic telemetry sidecar of one open-system run: the per-venue
/// end-state samples and DES activity counters, in venue-id order.
///
/// Produced next to the [`OpenReport`] by [`crate::run_open`] and by the
/// campaign runner on every open-system epoch. The sidecar is derived from
/// the same merged shard outcomes as the report, so it is bit-identical
/// across thread counts — and it never feeds back into any digest preimage.
#[derive(Debug, Clone, Default)]
pub struct OpenTelemetry {
    /// Per-venue end-of-run samples (utilization, peaks, drain), in
    /// venue-id order. See [`protocol::liquidity::VenueSample`].
    pub venues: Vec<protocol::VenueSample>,
    /// Per-venue DES counters of every venue the run touched, in
    /// venue-id order ([`protocol::LiquidityBook::venue_events`]).
    pub venue_events: Vec<(u32, VenueEvents)>,
    /// Pathfinder counters, for routed runs only.
    pub routing: Option<RoutingStats>,
}

impl OpenTelemetry {
    /// Emit the sidecar as structured events: one `venue` event per sample
    /// (see [`protocol::liquidity::VenueSample::to_event`] for the
    /// schema), one `venue_des` event per counter row, and — for
    /// routed runs — the `route`/`rebalance` events of
    /// [`OpenTelemetry::emit_routing`], each prefixed with the caller's
    /// `scope` fields (e.g. `epoch`, `cell`).
    pub fn emit(&self, scope: &[(&str, u64)], sink: &mut dyn telemetry::TelemetrySink) {
        for sample in &self.venues {
            sink.emit(&sample.to_event(scope));
        }
        for (venue, ev) in &self.venue_events {
            let mut e = telemetry::Event::new("venue_des");
            for (k, v) in scope {
                e = e.with_u64(k, *v);
            }
            sink.emit(
                &e.with_u64("venue", u64::from(*venue))
                    .with_u64("admitted", ev.admitted)
                    .with_u64("rejected", ev.rejected)
                    .with_u64("queued", ev.queued)
                    .with_u64("expired", ev.expired)
                    .with_u64("locks", ev.locks)
                    .with_u64("releases", ev.releases),
            );
        }
        self.emit_routing(scope, sink);
    }

    /// Emit only the routing counters (no per-venue series): one `route`
    /// event carrying the pathfinder counters and one `rebalance` event
    /// carrying the rebalancing totals. No-op for non-routed runs. The
    /// grid experiments call this per cell and reserve the full
    /// per-venue series for a subset of cells, keeping stream sizes sane
    /// on 4k-venue networks.
    pub fn emit_routing(&self, scope: &[(&str, u64)], sink: &mut dyn telemetry::TelemetrySink) {
        let Some(rs) = &self.routing else {
            return;
        };
        let scoped = |kind: &str| {
            let mut e = telemetry::Event::new(kind);
            for (k, v) in scope {
                e = e.with_u64(k, *v);
            }
            e
        };
        sink.emit(
            &scoped("route")
                .with_u64("routed", rs.routed)
                .with_u64("rerouted", rs.rerouted)
                .with_u64("split", rs.split)
                .with_u64("no_path", rs.no_path)
                .with_u64("pathfind_calls", rs.pathfind_calls),
        );
        sink.emit(
            &scoped("rebalance")
                .with_u64("count", rs.rebalances)
                .with_u64("restored_value", rs.restored_value),
        );
    }
}

/// Latency percentile helper over a success-latency summary: renders
/// `p50/p99/max` in milliseconds.
pub fn render_latency_ms(s: &Option<Summary>) -> String {
    match s {
        None => "-".to_owned(),
        Some(s) => format!(
            "{:.1}/{:.1}/{:.1}",
            s.p50 as f64 / 1_000.0,
            s.p99 as f64 / 1_000.0,
            s.max as f64 / 1_000.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::InstanceFaults;
    use crate::workload::{self, TopologyFamily, WorkloadConfig};

    /// One row and the spec it came from.
    fn res(
        id: u64,
        family: &'static str,
        outcome: InstanceOutcome,
        latency: u64,
        peak: u64,
        packet: Option<(u64, usize)>,
    ) -> (PaymentSpec, HarnessRun) {
        let wl = WorkloadConfig::new(TopologyFamily::Linear { n: 1 }, 1, id);
        let spec = PaymentSpec {
            id,
            family,
            packet,
            ..workload::generate(&wl).remove(0)
        };
        let mut run = HarnessRun::never_ran(
            outcome,
            InstanceFaults::NONE,
            SimDuration::from_ticks(latency),
        );
        run.peak_locked = peak;
        run.events = 10;
        (spec, run)
    }

    fn merge(rows: &[(PaymentSpec, HarnessRun)], with_lock_profile: bool) -> SimReport {
        SimReport::merge(rows.iter().map(|(s, r)| (s, r)), with_lock_profile)
    }

    #[test]
    fn merge_groups_by_family_and_counts() {
        let a = vec![
            res(0, "linear", InstanceOutcome::Success, 100, 50, None),
            res(1, "hub", InstanceOutcome::Refund, 200, 60, None),
        ];
        let b = vec![
            res(2, "linear", InstanceOutcome::Stuck, 300, 70, None),
            res(3, "linear", InstanceOutcome::Violation, 400, 80, None),
        ];
        let report = merge(&[a, b].concat(), false);
        assert_eq!(report.instances, 4);
        assert_eq!(report.violations, 1);
        assert!(!report.conserved());
        let lin = report.family("linear").unwrap();
        assert_eq!(lin.instances, 3);
        assert_eq!(lin.success.hits, 1);
        assert_eq!(lin.stuck, 1);
        assert_eq!(lin.violations, 1);
        assert_eq!(lin.latency.as_ref().unwrap().max, 100, "success only");
        let hub = report.family("hub").unwrap();
        assert_eq!(hub.refunds, 1);
        assert!(report.family("tree").is_none());
    }

    #[test]
    fn griefed_instances_are_counted_per_family_and_globally() {
        let mut a = res(0, "linear", InstanceOutcome::Refund, 100, 50, None);
        a.1.griefed = true;
        let mut b = res(1, "linear", InstanceOutcome::Stuck, 100, 50, None);
        b.1.griefed = true;
        let c = res(2, "linear", InstanceOutcome::Success, 100, 50, None);
        let report = merge(&[a, b, c], false);
        assert_eq!(report.families[0].griefed, 2);
        assert_eq!(report.griefed, 2);
    }

    #[test]
    fn latency_edge_cases_empty_and_single_sample() {
        // A family with zero successes has no latency summary at all —
        // the percentile pipeline must not be fed an empty vector.
        let none = vec![
            res(0, "linear", InstanceOutcome::Refund, 500, 1, None),
            res(1, "linear", InstanceOutcome::Stuck, 600, 1, None),
        ];
        let report = merge(&none, false);
        let f = report.family("linear").unwrap();
        assert!(f.latency.is_none());
        assert_eq!(render_latency_ms(&f.latency), "-");

        // Exactly one success: every percentile collapses onto the sample
        // (nearest-rank p99 of a singleton is the sample, not a panic or
        // an out-of-range index).
        let one = vec![
            res(0, "hub", InstanceOutcome::Success, 7_000, 1, None),
            res(1, "hub", InstanceOutcome::Refund, 9_000, 1, None),
        ];
        let report = merge(&one, false);
        let s = report.family("hub").unwrap().latency.as_ref().unwrap();
        assert_eq!(
            (s.n, s.min, s.p50, s.p99, s.max),
            (1, 7_000, 7_000, 7_000, 7_000)
        );
        assert_eq!(render_latency_ms(&Some(s.clone())), "7.0/7.0/7.0");
    }

    #[test]
    fn packet_accounting_complete_vs_partial() {
        // Packet 0: both paths succeed; packet 1: one of two; packet 2: none.
        let m: Vec<_> = [
            (0, InstanceOutcome::Success),
            (0, InstanceOutcome::Success),
            (1, InstanceOutcome::Success),
            (1, InstanceOutcome::Refund),
            (2, InstanceOutcome::Refund),
            (2, InstanceOutcome::Stuck),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (packet, outcome))| {
            res(id as u64, "packetized", outcome, 1, 1, Some((packet, 2)))
        })
        .collect();
        let report = merge(&m, false);
        let p = report.family("packetized").unwrap().packets.unwrap();
        assert_eq!(
            p,
            PacketStats {
                total: 3,
                complete: 1,
                partial: 1
            }
        );
    }

    #[test]
    fn global_lock_profile_peaks() {
        let t = SimTime::from_ticks;
        let mut r1 = res(0, "hub", InstanceOutcome::Success, 10, 100, None);
        r1.1.lock_profile = vec![(t(0), 0, 100), (t(10), 0, -100)];
        let mut r2 = res(1, "hub", InstanceOutcome::Success, 10, 70, None);
        r2.1.lock_profile = vec![(t(5), 0, 70), (t(15), 0, -70)];
        let report = merge(&[r1, r2], true);
        assert_eq!(report.peak_locked_global, Some(170), "overlap at t=5..10");
        assert_eq!(report.peak_in_flight, 2);
        // Unlock-before-lock at equal instants: back-to-back runs don't
        // double-count.
        let mut r3 = res(0, "hub", InstanceOutcome::Success, 10, 100, None);
        r3.1.lock_profile = vec![(t(0), 0, 100), (t(10), 0, -100)];
        let mut r4 = res(1, "hub", InstanceOutcome::Success, 10, 100, None);
        r4.1.lock_profile = vec![(t(10), 0, 100), (t(20), 0, -100)];
        let report2 = merge(&[r3, r4], true);
        assert_eq!(report2.peak_locked_global, Some(100));
    }

    #[test]
    fn spoke_load_counts_both_endpoints() {
        let mut a = res(0, "hub", InstanceOutcome::Success, 1, 1, None);
        a.0.route = Some((0, 1));
        let mut b = res(1, "hub", InstanceOutcome::Success, 1, 1, None);
        b.0.route = Some((1, 2));
        let report = merge(&[a, b], false);
        let load = report.family("hub").unwrap().spoke_load.clone().unwrap();
        // Spoke 1 served both payments; spokes 0 and 2 one each.
        assert_eq!((load.min, load.max, load.n), (1, 2, 3));
        // Routeless families have no spoke summary.
        let routeless = vec![res(0, "linear", InstanceOutcome::Success, 1, 1, None)];
        assert!(merge(&routeless, false).families[0].spoke_load.is_none());
    }

    #[test]
    fn latency_rendering() {
        assert!(render_latency_ms(&None).contains('-'));
        let s = Summary::of(&[1_000, 2_000, 3_000]);
        assert_eq!(render_latency_ms(&s), "2.0/3.0/3.0");
    }
}
