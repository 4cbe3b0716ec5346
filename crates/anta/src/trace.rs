//! Execution traces.
//!
//! Every run records a totally ordered sequence of [`TraceEvent`]s. The
//! property checkers in the payment crate (C, T, ES, CS1–CS3, L, CC of
//! Definitions 1 and 2) are functions over these traces plus final ledger
//! and process states; the trace is the executable counterpart of the
//! paper's "upon termination / eventually" quantifiers.

use crate::fingerprint::Fnv64;
use crate::process::Pid;
use crate::time::SimTime;
use std::hash::Hasher;

/// How much of a run the engine records.
///
/// Exhaustive exploration and Monte-Carlo sweeps execute millions of runs
/// whose traces are read only through aggregate counters and the
/// payload-free events (halts, timers, marks). [`TraceMode::CountersOnly`]
/// skips storing the message events entirely — no payload is ever cloned
/// into the trace — while keeping every query of [`Trace`] answerable in
/// O(1) where it used to be O(events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record every event including full message payloads (the default;
    /// required by trace-structural checkers and the MSC renderer).
    #[default]
    Full,
    /// Keep only sent/delivered/dropped counters for message traffic, plus
    /// the payload-free events (timers, halts, marks) the outcome
    /// extractors need. Message payloads are never cloned.
    CountersOnly,
}

/// One observable step of a run. `real` is global simulation time (for
/// engine-level analysis); `local` is the acting process's clock reading
/// (what the process itself could know).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent<M> {
    /// Real (global) simulation time of the event.
    pub real: SimTime,
    /// What happened.
    pub kind: TraceKind<M>,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind<M> {
    /// `from` executed a send of `msg` to `to`.
    Sent {
        /// Sender process id.
        from: Pid,
        /// Recipient process id.
        to: Pid,
        /// The message payload.
        msg: M,
    },
    /// `msg` from `from` was handed to `to`'s handler.
    Delivered {
        /// Sender process id.
        from: Pid,
        /// Recipient process id.
        to: Pid,
        /// The message payload.
        msg: M,
    },
    /// Message dropped by the network model.
    Dropped {
        /// Sender process id.
        from: Pid,
        /// Recipient process id.
        to: Pid,
        /// The message payload.
        msg: M,
    },
    /// Timer `id` fired at `pid`.
    TimerFired {
        /// The acting process.
        pid: Pid,
        /// The timer's id.
        id: u64,
    },
    /// `pid` halted (terminated its protocol role).
    Halted {
        /// The acting process.
        pid: Pid,
        /// Local-clock reading at the event.
        local: SimTime,
    },
    /// Protocol-level annotation from `pid` (see `Ctx::mark`).
    Mark {
        /// The acting process.
        pid: Pid,
        /// Local-clock reading at the event.
        local: SimTime,
        /// Static annotation label.
        label: &'static str,
        /// The annotation's value.
        value: i64,
    },
}

/// A full run trace.
#[derive(Debug, Clone)]
pub struct Trace<M> {
    /// The events, in dispatch order. Empty of message events in
    /// [`TraceMode::CountersOnly`].
    pub events: Vec<TraceEvent<M>>,
    mode: TraceMode,
    sent: usize,
    delivered: usize,
    dropped: usize,
    /// Deliveries per recipient pid (grown on demand).
    delivered_to: Vec<usize>,
    /// Real time of the most recently recorded event (including events
    /// skipped by `CountersOnly`).
    end: SimTime,
    /// Rolling digest of every recorded event (kind, pids, times, mark
    /// labels/values) in order, maintained only when the engine enabled
    /// state fingerprinting. `None` ⇒ disabled (zero overhead).
    obs_digest: Option<Fnv64>,
}

impl<M> Default for Trace<M> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            mode: TraceMode::Full,
            sent: 0,
            delivered: 0,
            dropped: 0,
            delivered_to: Vec::new(),
            end: SimTime::ZERO,
            obs_digest: None,
        }
    }
}

impl<M> Trace<M> {
    /// Empty trace recording everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace with the given recording mode.
    pub fn with_mode(mode: TraceMode) -> Self {
        Trace {
            mode,
            ..Self::default()
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Pre-sizes the event buffer (a no-op gain in `CountersOnly` mode).
    pub(crate) fn reserve(&mut self, events: usize) {
        if self.mode == TraceMode::Full {
            self.events
                .reserve(events.saturating_sub(self.events.len()));
        }
    }

    /// Turns on the rolling observable digest (reduced-explorer support).
    /// Must be called before any event is recorded.
    pub(crate) fn enable_digest(&mut self) {
        debug_assert!(self.events.is_empty() && self.end == SimTime::ZERO);
        self.obs_digest = Some(Fnv64::new());
    }

    /// The rolling digest of recorded events, when enabled. Covers kind,
    /// pids and mark labels/values — the *time-free* part of everything the
    /// outcome extractors read from a counters-only trace. Deliberately
    /// **not** covered here:
    ///
    /// * **event timestamps** — folding times (even relative ones) would
    ///   make the state fingerprint distinguish runs that differ only in
    ///   *when* the same events happened, defeating deduplication across
    ///   σ-delay choices. Merged runs therefore agree on the order of
    ///   events but not on their timestamps: a checker combined with
    ///   state-hash deduplication must be *time-robust* — its verdict may
    ///   read trace times only through predicates that hold (or fail)
    ///   uniformly across all schedules of the instance (see
    ///   [`Engine::enable_fingerprints`](crate::engine::Engine::enable_fingerprints)
    ///   for the full contract, and the differential explorer mode that
    ///   validates it per instance);
    /// * **stored message payloads** — in-flight payloads are digested by
    ///   the engine's queue hash; checkers that read payload bytes out of a
    ///   `Full` trace must not be combined with state-hash deduplication.
    pub fn obs_digest(&self) -> Option<u64> {
        self.obs_digest.map(|h| h.finish())
    }

    fn digest_event(&mut self, kind: &TraceKind<M>) {
        let Some(h) = self.obs_digest.as_mut() else {
            return;
        };
        match kind {
            TraceKind::Sent { from, to, .. } => {
                h.write_u64(1);
                h.write_usize(*from);
                h.write_usize(*to);
            }
            TraceKind::Delivered { from, to, .. } => {
                h.write_u64(2);
                h.write_usize(*from);
                h.write_usize(*to);
            }
            TraceKind::Dropped { from, to, .. } => {
                h.write_u64(3);
                h.write_usize(*from);
                h.write_usize(*to);
            }
            TraceKind::TimerFired { pid, id } => {
                h.write_u64(4);
                h.write_usize(*pid);
                h.write_u64(*id);
            }
            TraceKind::Halted { pid, .. } => {
                h.write_u64(5);
                h.write_usize(*pid);
            }
            TraceKind::Mark {
                pid, label, value, ..
            } => {
                h.write_u64(6);
                h.write_usize(*pid);
                h.write_usize(label.len());
                h.write(label.as_bytes());
                h.write_i64(*value);
            }
        }
    }

    pub(crate) fn push(&mut self, real: SimTime, kind: TraceKind<M>) {
        match &kind {
            TraceKind::Sent { .. } => self.sent += 1,
            TraceKind::Delivered { to, .. } => self.count_delivery(*to),
            TraceKind::Dropped { .. } => self.dropped += 1,
            _ => {}
        }
        self.digest_event(&kind);
        self.end = real;
        self.events.push(TraceEvent { real, kind });
    }

    fn count_delivery(&mut self, to: Pid) {
        self.delivered += 1;
        if to >= self.delivered_to.len() {
            self.delivered_to.resize(to + 1, 0);
        }
        self.delivered_to[to] += 1;
    }

    /// Records a send; clones the payload into the trace only in
    /// [`TraceMode::Full`].
    pub(crate) fn record_sent(&mut self, real: SimTime, from: Pid, to: Pid, msg: &M)
    where
        M: Clone,
    {
        match self.mode {
            TraceMode::Full => self.push(
                real,
                TraceKind::Sent {
                    from,
                    to,
                    msg: msg.clone(),
                },
            ),
            TraceMode::CountersOnly => {
                self.sent += 1;
                self.end = real;
            }
        }
    }

    /// Records a delivery; clones the payload only in [`TraceMode::Full`].
    pub(crate) fn record_delivered(&mut self, real: SimTime, from: Pid, to: Pid, msg: &M)
    where
        M: Clone,
    {
        match self.mode {
            TraceMode::Full => self.push(
                real,
                TraceKind::Delivered {
                    from,
                    to,
                    msg: msg.clone(),
                },
            ),
            TraceMode::CountersOnly => {
                self.count_delivery(to);
                self.end = real;
            }
        }
    }

    /// Records a drop, storing the payload only in [`TraceMode::Full`].
    pub(crate) fn record_dropped(&mut self, real: SimTime, from: Pid, to: Pid, msg: M) {
        match self.mode {
            TraceMode::Full => self.push(real, TraceKind::Dropped { from, to, msg }),
            TraceMode::CountersOnly => {
                self.dropped += 1;
                self.end = real;
            }
        }
    }

    /// All `Mark` events with the given label, as `(pid, real, local, value)`.
    pub fn marks<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = (Pid, SimTime, SimTime, i64)> + 'a {
        self.events.iter().filter_map(move |e| match &e.kind {
            TraceKind::Mark {
                pid,
                local,
                label: l,
                value,
            } if *l == label => Some((*pid, e.real, *local, *value)),
            _ => None,
        })
    }

    /// First real time a mark with `label` was emitted by `pid`.
    pub fn first_mark(&self, pid: Pid, label: &str) -> Option<SimTime> {
        self.marks(label)
            .find(|(p, _, _, _)| *p == pid)
            .map(|(_, real, _, _)| real)
    }

    /// Real halt time of `pid`, if it halted.
    pub fn halt_time(&self, pid: Pid) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e.kind {
            TraceKind::Halted { pid: p, .. } if p == pid => Some(e.real),
            _ => None,
        })
    }

    /// Local clock reading at which `pid` halted.
    pub fn halt_local_time(&self, pid: Pid) -> Option<SimTime> {
        self.events.iter().find_map(|e| match e.kind {
            TraceKind::Halted { pid: p, local } if p == pid => Some(local),
            _ => None,
        })
    }

    /// Number of messages delivered to `to` (any sender). O(1): maintained
    /// as a per-recipient counter.
    pub fn delivered_count(&self, to: Pid) -> usize {
        self.delivered_to.get(to).copied().unwrap_or(0)
    }

    /// Total messages delivered in the run (any recipient). O(1).
    pub fn delivered_total(&self) -> usize {
        self.delivered
    }

    /// Total messages sent in the run. O(1): maintained as a counter.
    pub fn sent_count(&self) -> usize {
        self.sent
    }

    /// Total messages dropped by the network. O(1).
    pub fn dropped_count(&self) -> usize {
        self.dropped
    }

    /// The real time of the last recorded event (including events elided by
    /// [`TraceMode::CountersOnly`]), or zero for an empty trace.
    pub fn end_time(&self) -> SimTime {
        self.end
    }
}

impl<M: std::fmt::Debug> Trace<M> {
    /// Renders the run as an ASCII message-sequence chart: one column per
    /// process, one row per delivery/halt/timer event, in dispatch order.
    /// `names[p]` labels process `p`; message payloads are shown via a
    /// caller-supplied formatter so domain crates can print `G`/`P`/`$`/χ
    /// instead of debug dumps.
    pub fn render_msc(&self, names: &[&str], mut label: impl FnMut(&M) -> String) -> String {
        use std::fmt::Write as _;
        let width = 14usize;
        let cols = names.len();
        let mut out = String::new();
        for name in names {
            let _ = write!(out, "{name:^width$}");
        }
        out.push('\n');
        for _ in 0..cols {
            let _ = write!(out, "{:^width$}", "|");
        }
        out.push('\n');
        for ev in &self.events {
            match &ev.kind {
                TraceKind::Delivered { from, to, msg } => {
                    let (a, b) = (*from.min(to), *from.max(to));
                    if a >= cols || b >= cols {
                        continue;
                    }
                    let text = label(msg);
                    let mut line = String::new();
                    for c in 0..cols {
                        if c < a || c > b || a == b {
                            let _ = write!(line, "{:^width$}", "|");
                        } else if c == a {
                            let arrow = if *from == a { "+--" } else { "<--" };
                            let _ = write!(line, "{arrow:-<width$}");
                        } else if c == b {
                            let arrow = if *to == b {
                                format!("->{text}")
                            } else {
                                format!("--+{text}")
                            };
                            let _ = write!(line, "{arrow:<width$}");
                        } else {
                            let _ = write!(line, "{:-<width$}", "-");
                        }
                    }
                    let _ = writeln!(out, "{}  t={}", line.trim_end(), ev.real);
                }
                TraceKind::Halted { pid, .. } if *pid < cols => {
                    let mut line = String::new();
                    for c in 0..cols {
                        let cell = if c == *pid { "X" } else { "|" };
                        let _ = write!(line, "{cell:^width$}");
                    }
                    let _ = writeln!(out, "{}  t={} (halt)", line.trim_end(), ev.real);
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn mark_queries() {
        let mut tr: Trace<u32> = Trace::new();
        tr.push(
            t(5),
            TraceKind::Mark {
                pid: 1,
                local: t(6),
                label: "paid",
                value: 10,
            },
        );
        tr.push(
            t(9),
            TraceKind::Mark {
                pid: 2,
                local: t(9),
                label: "paid",
                value: 20,
            },
        );
        tr.push(
            t(11),
            TraceKind::Mark {
                pid: 1,
                local: t(12),
                label: "refund",
                value: 10,
            },
        );
        assert_eq!(tr.marks("paid").count(), 2);
        assert_eq!(tr.first_mark(1, "paid"), Some(t(5)));
        assert_eq!(tr.first_mark(1, "refund"), Some(t(11)));
        assert_eq!(tr.first_mark(3, "paid"), None);
    }

    /// Two mark streams that feed the same bytes when a label is fed
    /// without its length: the second label spells out the first mark's
    /// label, its value, the next mark's tag and pid, and its label.
    #[test]
    fn mark_labels_feed_their_length_first() {
        let digest = |marks: &[(&'static str, i64)]| {
            let mut tr: Trace<u32> = Trace::new();
            tr.enable_digest();
            for (pid, &(label, value)) in marks.iter().enumerate() {
                let local = SimTime::ZERO;
                tr.push(
                    SimTime::ZERO,
                    TraceKind::Mark {
                        pid,
                        local,
                        label,
                        value,
                    },
                );
            }
            tr.obs_digest().expect("digest enabled")
        };
        let split = digest(&[("a", i64::from_le_bytes(*b"bcdefghi")), ("j", 7)]);
        let joined = digest(&[("abcdefghi\u{6}\0\0\0\0\0\0\0\u{1}\0\0\0\0\0\0\0j", 7)]);
        assert_ne!(split, joined);
    }

    #[test]
    fn halt_and_counts() {
        let mut tr: Trace<u32> = Trace::new();
        tr.push(
            t(1),
            TraceKind::Sent {
                from: 0,
                to: 1,
                msg: 7,
            },
        );
        tr.push(
            t(2),
            TraceKind::Delivered {
                from: 0,
                to: 1,
                msg: 7,
            },
        );
        tr.push(
            t(2),
            TraceKind::Dropped {
                from: 1,
                to: 0,
                msg: 8,
            },
        );
        tr.push(
            t(3),
            TraceKind::Halted {
                pid: 1,
                local: t(4),
            },
        );
        assert_eq!(tr.sent_count(), 1);
        assert_eq!(tr.delivered_count(1), 1);
        assert_eq!(tr.delivered_count(0), 0);
        assert_eq!(tr.dropped_count(), 1);
        assert_eq!(tr.halt_time(1), Some(t(3)));
        assert_eq!(tr.halt_local_time(1), Some(t(4)));
        assert_eq!(tr.halt_time(0), None);
        assert_eq!(tr.end_time(), t(3));
    }

    #[test]
    fn msc_renders_deliveries_and_halts() {
        let mut tr: Trace<u32> = Trace::new();
        tr.push(
            t(5),
            TraceKind::Delivered {
                from: 0,
                to: 2,
                msg: 7,
            },
        );
        tr.push(
            t(9),
            TraceKind::Delivered {
                from: 2,
                to: 1,
                msg: 8,
            },
        );
        tr.push(
            t(12),
            TraceKind::Halted {
                pid: 1,
                local: t(12),
            },
        );
        tr.push(t(13), TraceKind::TimerFired { pid: 0, id: 1 }); // not drawn
        let msc = tr.render_msc(&["alice", "escrow", "bob"], |m| format!("m{m}"));
        assert!(msc.contains("alice"));
        assert!(msc.contains("->m7"));
        assert!(msc.contains("m8"));
        assert!(msc.contains("(halt)"));
        // Right number of event rows: header(2) + 3 drawn events.
        assert_eq!(msc.trim_end().lines().count(), 5, "{msc}");
    }

    #[test]
    fn msc_ignores_out_of_range_pids() {
        let mut tr: Trace<u32> = Trace::new();
        tr.push(
            t(1),
            TraceKind::Delivered {
                from: 0,
                to: 9,
                msg: 1,
            },
        );
        let msc = tr.render_msc(&["a", "b"], |m| m.to_string());
        assert_eq!(msc.trim_end().lines().count(), 2, "only the header: {msc}");
    }

    #[test]
    fn empty_trace() {
        let tr: Trace<u32> = Trace::new();
        assert_eq!(tr.end_time(), SimTime::ZERO);
        assert_eq!(tr.sent_count(), 0);
    }

    #[test]
    fn counters_only_elides_message_events_but_keeps_counts() {
        let mut tr: Trace<u32> = Trace::with_mode(TraceMode::CountersOnly);
        tr.record_sent(t(1), 0, 1, &7);
        tr.record_delivered(t(2), 0, 1, &7);
        tr.record_sent(t(2), 1, 0, &8);
        tr.record_dropped(t(3), 1, 0, 8);
        tr.push(
            t(4),
            TraceKind::Mark {
                pid: 1,
                local: t(4),
                label: "paid",
                value: 1,
            },
        );
        tr.push(
            t(5),
            TraceKind::Halted {
                pid: 1,
                local: t(5),
            },
        );
        // Message events elided, payload-free events retained.
        assert_eq!(tr.events.len(), 2);
        // Counters identical to what Full mode would report.
        assert_eq!(tr.sent_count(), 2);
        assert_eq!(tr.delivered_total(), 1);
        assert_eq!(tr.delivered_count(1), 1);
        assert_eq!(tr.delivered_count(0), 0);
        assert_eq!(tr.dropped_count(), 1);
        assert_eq!(tr.end_time(), t(5));
        assert_eq!(tr.marks("paid").count(), 1);
        assert_eq!(tr.halt_time(1), Some(t(5)));
    }

    #[test]
    fn full_mode_counters_match_event_scan() {
        let mut tr: Trace<u32> = Trace::new();
        assert_eq!(tr.mode(), TraceMode::Full);
        tr.record_sent(t(1), 0, 1, &7);
        tr.record_delivered(t(2), 0, 1, &7);
        tr.record_dropped(t(3), 1, 0, 9);
        assert_eq!(tr.events.len(), 3);
        assert_eq!(tr.sent_count(), 1);
        assert_eq!(tr.delivered_count(1), 1);
        assert_eq!(tr.dropped_count(), 1);
        assert_eq!(tr.end_time(), t(3));
    }
}
