//! The Interledger **atomic** protocol baseline.
//!
//! In atomic mode \[4\], participants appoint notaries; transfers commit or
//! roll back based on whether the receiver's receipt reached the notaries
//! *before a deadline on the notaries' clock*. Unlike the paper's weak
//! protocol (Definition 2), the deadline is baked in: nobody "waits as
//! long as they like", so under partial synchrony an honest run whose
//! receipt is slow simply aborts — safety holds, but there are **no
//! success guarantees** (the criticism in §1).
//!
//! Implementation: the weak-protocol participants are reused unchanged,
//! and so is Theorem 3's manager. [`DeadlineTm`] wraps a
//! [`TrustedTm`] and writes down only the difference — a clock in the
//! decision rule: it drops abort requests, so the manager commits iff the
//! full evidence (all locks + acceptance) arrives, and when its local
//! deadline passes first it has the manager decide χa.

use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use payment::msg::{PMsg, TmInputKind};
use payment::weak::{TrustedTm, WeakSetup};
use xcrypto::Verdict;

const DEADLINE_TIMER: TimerId = 99;

/// Theorem 3's trusted manager with a receipt deadline (the atomic-mode
/// notary, collapsed to a single trusted process; the committee version
/// composes the same rule with the consensus crate exactly as `NotaryTm`
/// does).
#[derive(Debug, Clone)]
pub struct DeadlineTm {
    tm: TrustedTm,
    /// Local-clock deadline for the complete evidence (the pending deadline
    /// is a queued timer).
    deadline: SimDuration,
}

impl DeadlineTm {
    /// The deadline manager for `setup`'s payment, in place of its manager
    /// process 0: `setup`'s own [`TrustedTm`] — same key, evidence and
    /// recipients — under the deadline rule.
    pub fn new(setup: &WeakSetup, deadline: SimDuration) -> Self {
        DeadlineTm {
            tm: TrustedTm::new(setup),
            deadline,
        }
    }

    /// The decision, if made.
    pub fn decided(&self) -> Option<Verdict> {
        self.tm.decided()
    }
}

impl Process<PMsg> for DeadlineTm {
    fn on_start(&mut self, ctx: &mut Ctx<PMsg>) {
        ctx.set_timer_after(DEADLINE_TIMER, self.deadline);
    }

    fn on_message(&mut self, from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        // Nobody may ask out: only the deadline aborts.
        if !matches!(&msg, PMsg::TmInput(input) if input.kind == TmInputKind::AbortRequest) {
            self.tm.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        if id == DEADLINE_TIMER {
            // Deadline passed without complete evidence: roll back.
            self.tm.decide(Verdict::Abort, ctx);
        }
    }

    fn fp_digest(&self) -> u64 {
        self.tm.fp_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::net::{PartialSyncNet, SyncNet};
    use anta::oracle::RandomOracle;
    use anta::time::SimTime;
    use payment::weak::{TmKind, WeakOutcome, WeakSetup};
    use payment::ValuePlan;

    /// Builds a weak-protocol chain but swaps the manager for a
    /// DeadlineTm with the given deadline.
    fn run_atomic(
        n: usize,
        deadline: SimDuration,
        net: Box<dyn anta::net::NetModel<PMsg>>,
        seed: u64,
    ) -> (WeakOutcome, WeakSetup) {
        let s = WeakSetup::new(n, ValuePlan::uniform(n, 100), TmKind::Trusted, 50 + seed);
        let mut eng = s.build_engine_with(
            net,
            Box::new(RandomOracle::seeded(seed)),
            |_| None,
            |i| (i == 0).then(|| Box::new(DeadlineTm::new(&s, deadline)) as Box<dyn Process<PMsg>>),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &s);
        (o, s)
    }

    #[test]
    fn atomic_commits_when_network_is_fast() {
        let (o, _) = run_atomic(
            2,
            SimDuration::from_millis(500),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            1,
        );
        assert_eq!(o.verdict(), Some(Verdict::Commit), "{o:?}");
        assert!(o.bob_paid);
        assert!(o.cc_ok);
    }

    #[test]
    fn atomic_aborts_spuriously_under_partial_synchrony() {
        // GST after the deadline: every message is held back, the
        // deadline fires, the run aborts — although every party was
        // honest and willing. This is "no success guarantees".
        let (o, _) = run_atomic(
            2,
            SimDuration::from_millis(100),
            Box::new(PartialSyncNet::new(
                SimTime::from_millis(5_000),
                SimDuration::from_millis(2),
            )),
            2,
        );
        assert_eq!(o.verdict(), Some(Verdict::Abort), "{o:?}");
        assert!(!o.bob_paid);
        // …but nobody lost anything: safety holds.
        assert!(o.cc_ok);
        for p in o.net_positions.iter().flatten() {
            assert_eq!(*p, 0);
        }
    }

    #[test]
    fn atomic_safety_is_preserved_in_both_outcomes() {
        for seed in 0..6u64 {
            let gst = SimTime::from_millis(if seed % 2 == 0 { 10 } else { 2_000 });
            let (o, _) = run_atomic(
                3,
                SimDuration::from_millis(300),
                Box::new(PartialSyncNet::randomized(
                    gst,
                    SimDuration::from_millis(3),
                    8,
                )),
                seed,
            );
            assert!(o.cc_ok, "seed {seed}: {o:?}");
            assert!(o.conservation.iter().all(|c| *c == Some(true)));
            match o.verdict() {
                Some(Verdict::Commit) => assert!(o.bob_paid, "seed {seed}"),
                Some(Verdict::Abort) => {
                    assert!(
                        o.net_positions.iter().flatten().all(|p| *p == 0),
                        "seed {seed}"
                    )
                }
                None => panic!("seed {seed}: deadline TM always decides"),
            }
        }
    }
}
