//! The HLS **timelock commit protocol** — the synchronous deal protocol
//! of \[3\] — as its rule: an arc escrow releases once it holds every
//! party's commit vote, and returns its asset when its local timelock
//! runs out first. Parties send their votes to every escrow.
//!
//! Under synchrony (and a timelock large enough for deposit, announce and
//! vote plus drift) every compliant run commits — Safety, Termination and
//! Strong liveness all hold, as \[3\] proves. Under partial synchrony the
//! deadline can split the escrows — some see the votes in time, some do
//! not — and a compliant party's payoff turns unacceptable. The tests
//! exhibit both sides; experiment E7 tabulates them.

use crate::deal::{ArcEscrow, DMsg, DealInstance, DealParty, Rule, VoteCheck, DOM_DEAL_COMMIT};
use crate::matrix::Party;
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use xcrypto::{KeyId, Signer};

impl DealInstance {
    /// Builds the timelock protocol: the parties (signing with `signers`,
    /// in party order), then one [`TimelockEscrow`] per arc with a
    /// `timelock` of local patience after its deposit, all on perfect
    /// clocks. `party(p, compliant)` turns the compliant party into the
    /// process registered at its pid: the party itself, or a withholding
    /// or silent process in its place.
    pub fn timelock_engine(
        &self,
        signers: &[Signer],
        timelock: SimDuration,
        net: Box<dyn NetModel<DMsg>>,
        oracle: Box<dyn Oracle>,
        cfg: EngineConfig,
        mut party: impl FnMut(Party, TimelockParty) -> Box<dyn Process<DMsg>>,
    ) -> Engine<DMsg> {
        let mut eng = Engine::new(net, oracle, cfg);
        let escrows: Vec<Pid> = (self.escrow_pid(0)..self.next_free_pid()).collect();
        for (p, signer) in signers.iter().enumerate() {
            let compliant = TimelockParty(DealParty::new(self, p, signer.clone(), escrows.clone()));
            eng.add_process(party(p, compliant), DriftClock::perfect());
        }
        let rule = TimelockRule {
            timelock,
            check: self.vote_check(),
        };
        for k in 0..self.deal.arcs().len() {
            let escrow = ArcEscrow::new(self, k, rule.clone());
            eng.add_process(Box::new(escrow), DriftClock::perfect());
        }
        eng
    }
}

const TIMER_DEADLINE: TimerId = 1;

/// The timelock rule: release on every party's commit vote, return when
/// the timelock, armed at the lock, runs out first.
#[derive(Debug, Clone)]
pub struct TimelockRule {
    /// Local-clock patience after the deposit (the pending deadline is a
    /// queued timer).
    timelock: SimDuration,
    check: VoteCheck,
}

impl Rule for TimelockRule {
    /// The parties whose commit votes arrived.
    type State = Vec<KeyId>;

    fn on_lock(&self, ctx: &mut Ctx<DMsg>) {
        ctx.set_timer_after(TIMER_DEADLINE, self.timelock);
    }

    fn on_message(&self, voted: &mut Vec<KeyId>, locked: bool, _: Pid, msg: DMsg) -> Option<bool> {
        let DMsg::CommitVote { sig } = msg else {
            return None;
        };
        if voted.contains(&sig.signer) || !self.check.accepts(&sig, DOM_DEAL_COMMIT) {
            return None;
        }
        voted.push(sig.signer);
        (locked && voted.len() == self.check.parties()).then_some(true)
    }

    fn on_timer(&self, id: TimerId) -> Option<bool> {
        (id == TIMER_DEADLINE).then_some(false)
    }
}

/// The escrow (asset chain) for one arc under the timelock protocol.
pub type TimelockEscrow = ArcEscrow<TimelockRule>;

/// A compliant party under the timelock protocol: it votes to every
/// escrow.
#[derive(Debug, Clone)]
pub struct TimelockParty(DealParty);

impl Process<DMsg> for TimelockParty {
    fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
        self.0.fund(ctx);
        // Every escrow needs every party's vote, so a party with no
        // outgoing arcs still waits to vote. Only a deal with no arcs at
        // all has nothing to vote on.
        if self.0.no_arcs() {
            ctx.halt();
        }
    }

    fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        if let DMsg::Escrowed { arc } = msg {
            self.0.escrowed(from, arc, ctx);
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}

    fn fp_digest(&self) -> u64 {
        self.0.fp_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DealMatrix;
    use anta::net::{AdversarialNet, Delivery, EnvelopeMeta, SyncNet};
    use anta::oracle::RandomOracle;
    use anta::process::InertProcess;
    use anta::time::SimTime;
    use ledger::{Asset, CurrencyId};

    fn swap_deal() -> DealMatrix {
        let mut d = DealMatrix::new(2);
        d.add(0, 1, Asset::new(CurrencyId(0), 5));
        d.add(1, 0, Asset::new(CurrencyId(1), 7));
        d
    }

    fn three_cycle() -> DealMatrix {
        let mut d = DealMatrix::new(3);
        d.add(0, 1, Asset::new(CurrencyId(0), 1));
        d.add(1, 2, Asset::new(CurrencyId(1), 2));
        d.add(2, 0, Asset::new(CurrencyId(2), 3));
        d
    }

    fn compliant(_: Party, party: TimelockParty) -> Box<dyn Process<DMsg>> {
        Box::new(party)
    }

    /// A silent voter: deposits its one arc at its escrow, then never votes.
    struct DepositsOnly {
        arc: usize,
        escrow: Pid,
    }

    impl Process<DMsg> for DepositsOnly {
        fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
            ctx.send(self.escrow, DMsg::Deposit { arc: self.arc });
        }
        fn on_message(&mut self, _from: Pid, _msg: DMsg, _ctx: &mut Ctx<DMsg>) {}
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    fn build(
        deal: DealMatrix,
        timelock_ms: u64,
        net: Box<dyn anta::net::NetModel<DMsg>>,
        party: impl FnMut(Party, TimelockParty) -> Box<dyn Process<DMsg>>,
    ) -> (Engine<DMsg>, DealInstance) {
        let (inst, signers) = DealInstance::generate(deal, 9);
        let mut eng = inst.timelock_engine(
            &signers,
            SimDuration::from_millis(timelock_ms),
            net,
            Box::new(RandomOracle::seeded(4)),
            EngineConfig::default(),
            party,
        );
        eng.run_until(SimTime::from_secs(60));
        (eng, inst)
    }

    #[test]
    fn synchronous_swap_commits_fully() {
        let (eng, inst) = build(
            swap_deal(),
            200,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            compliant,
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_commit(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0, 1]));
    }

    #[test]
    fn synchronous_three_cycle_commits() {
        let (eng, inst) = build(
            three_cycle(),
            200,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            compliant,
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_commit(), "{o:?}");
    }

    #[test]
    fn withholding_party_aborts_everything_safely() {
        // Party 1 never deposits: nobody can assemble a full escrow view,
        // nobody votes, all timelocks return. Everyone compliant is safe.
        let (eng, inst) = build(
            three_cycle(),
            100,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, party| -> Box<dyn Process<DMsg>> {
                if p == 1 {
                    return Box::new(InertProcess);
                }
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0, 2]));
    }

    #[test]
    fn silent_voter_aborts_everything_safely() {
        let (eng, inst) = build(
            swap_deal(),
            100,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, party| -> Box<dyn Process<DMsg>> {
                if p == 0 {
                    // Party 0 funds arc 0, whose escrow is pid 2.
                    return Box::new(DepositsOnly { arc: 0, escrow: 2 });
                }
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[1]));
    }

    #[test]
    fn partial_synchrony_breaks_timelock_safety() {
        // The adversary delays party 1's commit vote to escrow 1 (the
        // 1→0 arc) past the deadline, while escrow 0 (the 0→1 arc) gets
        // every vote promptly: arc 0 releases, arc 1 returns. Party 0
        // sent its asset and received nothing — an unacceptable payoff
        // for a compliant party, which is impossible under synchrony and
        // exactly why [3]'s timelock protocol *requires* synchrony.
        let target_escrow: Pid = 2 + 1; // parties 0,1; escrows start at 2
        let net = AdversarialNet::new(move |m: &EnvelopeMeta, msg: &DMsg, _o| {
            let base = SimDuration::from_millis(2);
            let late = SimDuration::from_millis(100_000);
            match msg {
                DMsg::CommitVote { .. } if m.to == target_escrow => Delivery::At(m.sent_at + late),
                _ => Delivery::At(m.sent_at + base),
            }
        });
        let (eng, inst) = build(swap_deal(), 200, Box::new(net), compliant);
        let o = inst.outcome(&eng);
        assert_eq!(o.executed, vec![true, false], "{o:?}");
        assert!(
            !o.acceptable_for(&inst.deal, 0),
            "compliant party 0 was robbed"
        );
        assert!(!o.safe_for(&inst.deal, &[0, 1]));
    }

    #[test]
    fn escrow_conservation_in_all_tests() {
        let (eng, inst) = build(
            three_cycle(),
            200,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            compliant,
        );
        for k in 0..3 {
            let e = eng
                .process_as::<TimelockEscrow>(inst.escrow_pid(k))
                .unwrap();
            e.ledger().check_conservation().unwrap();
        }
    }

    /// Funds nothing, tells party 0 that arc 1 is escrowed, and otherwise
    /// votes as the compliant party would.
    struct ClaimsArcOne(TimelockParty);

    impl Process<DMsg> for ClaimsArcOne {
        fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
            ctx.send(0, DMsg::Escrowed { arc: 1 });
            // Arc 1's escrow is pid 3: the forger believes itself.
            self.0.on_message(3, DMsg::Escrowed { arc: 1 }, ctx);
        }
        fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
            self.0.on_message(from, msg, ctx);
        }
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_party_believes_only_the_arcs_own_escrow() {
        let (eng, inst) = build(
            swap_deal(),
            100,
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, party| -> Box<dyn Process<DMsg>> {
                if p == 1 {
                    return Box::new(ClaimsArcOne(party));
                }
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0]));
    }
}
