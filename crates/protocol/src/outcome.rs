//! The shared outcome vocabulary every protocol harness reports in.
//!
//! [`ProtocolOutcome`] is the five-way classification the simulator
//! aggregates (`sim::metrics::InstanceOutcome` is a re-export of it), and
//! [`LockProfile`] is the locked-value time series each harness extracts
//! from its protocol-specific escrow marks. Since the shared-liquidity
//! layer, every lock event names the **hop** (local escrow index) it
//! occurred at, so the liquidity book can charge it against the right
//! venue of the instance's [`payment::VenueRoute`].

use anta::time::SimTime;
use ledger::Small;

/// How one payment instance ended, in protocol-neutral terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolOutcome {
    /// The payee terminated paid (Bob paid, both swap legs claimed, the
    /// deal fully committed — per protocol).
    Success,
    /// The instance unwound cleanly: no compliant participant is left
    /// waiting and nobody was paid (refunds, refusals, aborts, or a
    /// payment that never engaged).
    Refund,
    /// A compliant participant is still pending when the run drained, or
    /// the run hit its horizon — liveness lost (expected under message
    /// drops and some Byzantine faults, never under none).
    Stuck,
    /// Money conservation failed: an auditable escrow book is out of
    /// balance, known net positions do not sum to zero, or a compliant
    /// participant ended strictly worse off than an honest refund would
    /// leave them. Must never happen for the time-bounded protocol; the
    /// baselines exhibit it under their documented defects.
    Violation,
    /// The admission controller refused the payment before any value
    /// locked: the escrows on its route could not set aside the requested
    /// collateral within the policy's patience. Produced only by the
    /// finite-liquidity simulator (`sim::run_open`), never by a
    /// harness's `classify` — a rejected payment has no run to classify.
    Rejected,
    /// The harness itself panicked while running this instance (a run is
    /// a pure function of its spec, so it is not retried). The
    /// instance is counted (never silently dropped) but measured nothing:
    /// a `Failed` row carries zero latency, zero locked value and no lock
    /// profile. Produced only by the simulator's panic isolation
    /// (`sim`'s isolated instance runner), never by a `classify`.
    Failed,
}

impl ProtocolOutcome {
    /// The worse of two outcomes, `self` on a tie: Violation, Failed,
    /// Stuck, Refund, then Success and Rejected. A split payment's legs
    /// join on it ([`crate::HarnessRun::join`]).
    pub fn worst(self, other: ProtocolOutcome) -> ProtocolOutcome {
        use ProtocolOutcome::*;
        let rank = |o| {
            [Refund, Stuck, Failed, Violation]
                .iter()
                .position(|&w| w == o)
        };
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

/// The locked-value event series of one run: `(time, hop, delta)` triples
/// where `hop` is the local escrow index the value moved at and `delta`
/// is the signed change in simultaneously locked value. Times are
/// run-relative; [`LockProfile::shifted`] rebases them onto the
/// instance's arrival time for workload-wide concurrency accounting. A
/// run of up to four hops, each locking and settling once, keeps its
/// profile inline.
#[derive(Debug, Clone, Default)]
pub struct LockProfile {
    /// Lock (+) and unlock (−) deltas in run-relative real time, in event
    /// order, each tagged with the local escrow (hop) index it hit.
    pub deltas: Small<(SimTime, u32, i64), 8>,
}

impl LockProfile {
    /// An empty profile (nothing was ever locked).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one signed locked-value change at run-relative time `at`,
    /// against local escrow `hop`.
    pub fn push(&mut self, at: SimTime, hop: u32, delta: i64) {
        self.deltas.push((at, hop, delta));
    }

    /// Peak value simultaneously locked over the run, across all hops.
    pub fn peak(&self) -> u64 {
        let mut locked = 0i64;
        let mut peak = 0i64;
        for &(_, _, delta) in &self.deltas {
            locked += delta;
            peak = peak.max(locked);
        }
        peak.max(0) as u64
    }

    /// The deltas rebased onto absolute time by the instance's `arrival`.
    pub fn shifted(&self, arrival: SimTime) -> Vec<(SimTime, u32, i64)> {
        self.deltas
            .iter()
            .map(|&(t, hop, delta)| (arrival + t.saturating_since(SimTime::ZERO), hop, delta))
            .collect()
    }

    /// True when nothing was ever locked.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::time::SimDuration;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn peak_tracks_running_maximum() {
        let mut p = LockProfile::new();
        assert_eq!(p.peak(), 0);
        p.push(t(0), 0, 100);
        p.push(t(5), 1, 70);
        p.push(t(10), 0, -100);
        p.push(t(20), 1, -70);
        assert_eq!(p.peak(), 170);
        assert!(!p.is_empty());
    }

    #[test]
    fn peak_never_negative() {
        let mut p = LockProfile::new();
        p.push(t(0), 0, -50);
        assert_eq!(p.peak(), 0);
    }

    #[test]
    fn shifted_rebases_times() {
        let mut p = LockProfile::new();
        p.push(t(3), 2, 10);
        let arrival = SimTime::ZERO + SimDuration::from_ticks(100);
        assert_eq!(p.shifted(arrival), vec![(t(103), 2, 10)]);
    }
}
