//! The HLS **certified blockchain commit protocol** — the partially
//! synchronous deal protocol of \[3\] — as its rule: parties send their
//! votes to a designated *certified blockchain* (CBC), and every arc
//! escrow settles on the CBC's verdict alone.
//!
//! The CBC totally orders the votes: once it has recorded a commit vote
//! from **every** party, it certifies COMMIT; if any party's signed abort
//! vote arrives first, it certifies ABORT. No clocks sit in the decision
//! path, so safety and termination survive partial synchrony. What is
//! lost is strong liveness: an impatient (or slow-looking) party can push
//! an honest run into ABORT — the same trade the paper's Theorem 3 makes,
//! which is why §5 calls the two lines of work related.

use crate::deal::{ArcEscrow, DMsg, DealInstance, DealParty, Rule, VoteCheck, DOM_DEAL_COMMIT};
use crate::matrix::Party;
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::fingerprint::fingerprint;
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use ledger::SimChain;
use xcrypto::{KeyId, Signer};

impl DealInstance {
    /// Builds the certified protocol: the parties (signing with `signers`,
    /// in party order), then one [`CertifiedEscrow`] per arc, then the
    /// certified blockchain at [`DealInstance::next_free_pid`], which sends
    /// its verdict to every party and escrow. Party `p` runs on
    /// `party_clock(p)` — patience is a local policy — while escrows and
    /// the chain settle on messages and keep perfect clocks. `party(p,
    /// compliant)` turns the compliant party into the process registered
    /// at its pid: it may set the party's patience, or replace it outright.
    pub fn certified_engine(
        &self,
        signers: &[Signer],
        net: Box<dyn NetModel<DMsg>>,
        oracle: Box<dyn Oracle>,
        cfg: EngineConfig,
        mut party_clock: impl FnMut(Party) -> DriftClock,
        mut party: impl FnMut(Party, CertifiedParty) -> Box<dyn Process<DMsg>>,
    ) -> Engine<DMsg> {
        let mut eng = Engine::new(net, oracle, cfg);
        let cbc = self.next_free_pid();
        for (p, signer) in signers.iter().enumerate() {
            let clock = party_clock(p);
            let compliant = CertifiedParty {
                party: DealParty::new(self, p, signer.clone(), vec![cbc]),
                cbc,
                patience: None,
            };
            eng.add_process(party(p, compliant), clock);
        }
        for k in 0..self.deal.arcs().len() {
            let escrow = ArcEscrow::new(self, k, CertifiedRule { cbc });
            eng.add_process(Box::new(escrow), DriftClock::perfect());
        }
        let chain = CertifiedChain {
            check: self.vote_check(),
            subscribers: (0..cbc).collect(),
            st: CertifiedChainState::default(),
        };
        eng.add_process(Box::new(chain), DriftClock::perfect());
        eng
    }
}

/// Domain label for abort votes on deals.
pub const DOM_DEAL_ABORT: &[u8] = b"xchain/deals/abort";

/// The certified blockchain: orders votes, certifies one verdict, and
/// keeps a hash-linked public log of everything it saw.
#[derive(Debug, Clone)]
pub struct CertifiedChain {
    check: VoteCheck,
    /// Escrows and parties that follow the verdict.
    subscribers: Vec<Pid>,
    st: CertifiedChainState,
}

/// The chain's run state: the votes, the verdict and the public log
/// (hashed through its head hash, which chains every entry). The rest of
/// [`CertifiedChain`] is setup (the vote check, subscribers).
#[derive(Debug, Clone, Default, Hash)]
struct CertifiedChainState {
    votes: Vec<KeyId>,
    verdict: Option<bool>,
    log: SimChain,
}

impl CertifiedChain {
    /// The recorded verdict, if any (`true` = commit).
    pub fn verdict(&self) -> Option<bool> {
        self.st.verdict
    }

    /// The public log (integrity-checkable).
    pub fn log(&self) -> &SimChain {
        &self.st.log
    }

    /// Records and announces the verdict, and halts: the chain certifies
    /// once.
    fn certify(&mut self, commit: bool, ctx: &mut Ctx<DMsg>) {
        self.st.verdict = Some(commit);
        self.st.log.append(vec![if commit { 1 } else { 0 }]);
        ctx.mark(if commit { "cbc_commit" } else { "cbc_abort" }, 0);
        for &s in &self.subscribers {
            ctx.send(s, DMsg::CbcDecision { commit });
        }
        ctx.halt();
    }
}

impl Process<DMsg> for CertifiedChain {
    fn on_start(&mut self, _ctx: &mut Ctx<DMsg>) {}

    fn on_message(&mut self, _from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            DMsg::CommitVote { sig } => {
                if self.st.votes.contains(&sig.signer) || !self.check.accepts(&sig, DOM_DEAL_COMMIT)
                {
                    return;
                }
                self.st.votes.push(sig.signer);
                self.st.log.append(sig.signer.0.to_be_bytes().to_vec());
                if self.st.votes.len() == self.check.parties() {
                    self.certify(true, ctx);
                }
            }
            DMsg::AbortVote { sig } => {
                if !self.check.accepts(&sig, DOM_DEAL_ABORT) {
                    return;
                }
                self.certify(false, ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// The certified rule: settle on the verdict of the chain at `cbc`, and
/// on no one else's word.
#[derive(Debug, Clone)]
pub struct CertifiedRule {
    cbc: Pid,
}

impl Rule for CertifiedRule {
    type State = ();

    fn on_message(&self, _: &mut (), _: bool, from: Pid, msg: DMsg) -> Option<bool> {
        match msg {
            DMsg::CbcDecision { commit } if from == self.cbc => Some(commit),
            _ => None,
        }
    }
}

/// An arc escrow under the certified protocol: no deadline — it settles
/// exclusively on the CBC verdict.
pub type CertifiedEscrow = ArcEscrow<CertifiedRule>;

const TIMER_PATIENCE: TimerId = 5;

/// A party under the certified protocol: deposits, votes commit to the
/// CBC once everything is escrowed, and (optionally) votes abort when its
/// patience runs out. A withholding party is not a setting of this one: it
/// is a different process (`anta::process::InertProcess`) registered in its
/// place through [`DealInstance::certified_engine`]'s `party` hook.
#[derive(Debug, Clone)]
pub struct CertifiedParty {
    party: DealParty,
    cbc: Pid,
    /// `None`: infinitely patient (a pending patience expiry is a queued
    /// timer).
    pub patience: Option<SimDuration>,
}

impl Process<DMsg> for CertifiedParty {
    fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
        self.party.fund(ctx);
        if let Some(p) = self.patience {
            ctx.set_timer_after(TIMER_PATIENCE, p);
        }
    }

    fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            DMsg::Escrowed { arc } => self.party.escrowed(from, arc, ctx),
            // The verdict ends the party's run (a halted process receives
            // nothing more).
            DMsg::CbcDecision { .. } if from == self.cbc => ctx.halt(),
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<DMsg>) {
        if id == TIMER_PATIENCE {
            let sig = self.party.sign(DOM_DEAL_ABORT);
            ctx.send(self.cbc, DMsg::AbortVote { sig });
            ctx.mark("party_aborted", self.party.me as i64);
        }
    }

    fn fp_digest(&self) -> u64 {
        self.party.fp_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DealMatrix;
    use anta::net::{PartialSyncNet, SyncNet};
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

    /// Runs `deal`; party `p` gets the given patience, if any.
    fn build(
        deal: DealMatrix,
        net: Box<dyn anta::net::NetModel<DMsg>>,
        patience: impl Fn(Party) -> Option<SimDuration>,
    ) -> (Engine<DMsg>, DealInstance) {
        build_with(deal, net, |p, mut party| {
            party.patience = patience(p);
            Box::new(party)
        })
    }

    fn build_with(
        deal: DealMatrix,
        net: Box<dyn anta::net::NetModel<DMsg>>,
        party: impl FnMut(Party, CertifiedParty) -> Box<dyn Process<DMsg>>,
    ) -> (Engine<DMsg>, DealInstance) {
        let (inst, signers) = DealInstance::generate(deal, 17);
        let mut eng = inst.certified_engine(
            &signers,
            net,
            Box::new(RandomOracle::seeded(2)),
            EngineConfig::default(),
            |_| DriftClock::perfect(),
            party,
        );
        eng.run_until(SimTime::from_secs(120));
        (eng, inst)
    }

    #[test]
    fn certified_swap_commits_synchronously() {
        let (eng, inst) = build(
            swap_deal(),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |_| None,
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_commit(), "{o:?}");
        let cbc = eng
            .process_as::<CertifiedChain>(inst.next_free_pid())
            .unwrap();
        assert_eq!(cbc.verdict(), Some(true));
        assert!(cbc.log().verify_integrity().is_ok());
    }

    #[test]
    fn certified_survives_partial_synchrony() {
        // The very case that breaks the timelock protocol: messages held
        // until a late GST. The certified protocol just waits — safety
        // and (post-GST) termination hold, full commit since everyone is
        // patient.
        let (eng, inst) = build(
            swap_deal(),
            Box::new(PartialSyncNet::new(
                SimTime::from_millis(2_000),
                SimDuration::from_millis(2),
            )),
            |_| None,
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_commit(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0, 1]));
    }

    #[test]
    fn impatient_party_forces_safe_abort() {
        // Party 1 aborts quickly under a slow network: no strong
        // liveness, but the outcome is the all-return one — safe.
        let (eng, inst) = build(
            swap_deal(),
            Box::new(PartialSyncNet::new(
                SimTime::from_millis(5_000),
                SimDuration::from_millis(2),
            )),
            |p| (p == 1).then(|| SimDuration::from_millis(100)),
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0, 1]));
        let cbc = eng
            .process_as::<CertifiedChain>(inst.next_free_pid())
            .unwrap();
        assert_eq!(cbc.verdict(), Some(false));
    }

    #[test]
    fn withholding_party_plus_patience_aborts_safely() {
        // Party 0 crashed before depositing: it never votes either.
        let (eng, inst) = build_with(
            swap_deal(),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, mut party| -> Box<dyn Process<DMsg>> {
                if p == 0 {
                    return Box::new(InertProcess);
                }
                party.patience = Some(SimDuration::from_millis(300));
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[1]));
    }

    #[test]
    fn conservation_holds_either_way() {
        for impatient in [false, true] {
            let (eng, inst) = build(
                swap_deal(),
                Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
                |p| (impatient && p == 0).then(|| SimDuration::from_ticks(1)),
            );
            for k in 0..2 {
                let e = eng
                    .process_as::<CertifiedEscrow>(inst.escrow_pid(k))
                    .unwrap();
                e.ledger().check_conservation().unwrap();
            }
        }
    }

    /// A party that deposits nothing and, once party 0's arc is escrowed,
    /// tells that arc's escrow the CBC committed.
    struct ForgesVerdict;

    impl Process<DMsg> for ForgesVerdict {
        fn on_start(&mut self, _ctx: &mut Ctx<DMsg>) {}
        fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
            if msg == (DMsg::Escrowed { arc: 0 }) {
                ctx.send(from, DMsg::CbcDecision { commit: true });
            }
        }
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    #[test]
    fn an_escrow_ignores_a_verdict_the_chain_did_not_send() {
        let (eng, inst) = build_with(
            swap_deal(),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, mut party| -> Box<dyn Process<DMsg>> {
                if p == 1 {
                    return Box::new(ForgesVerdict);
                }
                party.patience = Some(SimDuration::from_millis(300));
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0]));
    }

    /// Funds nothing, tells party 0 that arc 1 is escrowed, and otherwise
    /// votes as the compliant party would.
    struct ClaimsArcOne(CertifiedParty);

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
        let (eng, inst) = build_with(
            swap_deal(),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, mut party| -> Box<dyn Process<DMsg>> {
                if p == 1 {
                    return Box::new(ClaimsArcOne(party));
                }
                party.patience = Some(SimDuration::from_millis(300));
                Box::new(party)
            },
        );
        let o = inst.outcome(&eng);
        assert!(o.is_full_abort(), "{o:?}");
        assert!(o.safe_for(&inst.deal, &[0]));
    }

    /// Tells party 0, as it starts, that the CBC aborted.
    struct ClaimsAbort;

    impl Process<DMsg> for ClaimsAbort {
        fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
            ctx.send(0, DMsg::CbcDecision { commit: false });
        }
        fn on_message(&mut self, _from: Pid, _msg: DMsg, _ctx: &mut Ctx<DMsg>) {}
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}
        fn fp_digest(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_party_waits_for_the_chains_own_verdict() {
        // Had party 0 halted on the forged verdict, its patience would
        // never fire, the chain would never decide and arc 0 would stay
        // locked: no termination.
        let (eng, inst) = build_with(
            swap_deal(),
            Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
            |p, mut party| -> Box<dyn Process<DMsg>> {
                if p == 1 {
                    return Box::new(ClaimsAbort);
                }
                party.patience = Some(SimDuration::from_millis(300));
                Box::new(party)
            },
        );
        let escrow = eng
            .process_as::<CertifiedEscrow>(inst.escrow_pid(0))
            .unwrap();
        assert_eq!(escrow.settled(), Some(false));
        let cbc = eng
            .process_as::<CertifiedChain>(inst.next_free_pid())
            .unwrap();
        assert_eq!(cbc.verdict(), Some(false));
    }
}
