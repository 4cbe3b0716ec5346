//! The HLS **timelock commit protocol** — the synchronous deal protocol
//! of \[3\].
//!
//! Each arc's asset lives on its own chain, modelled as one escrow process
//! per arc. The flow:
//!
//! 1. every party deposits all its outgoing assets; each escrow announces
//!    `Escrowed(arc)` publicly;
//! 2. a party that sees *every* arc of the deal escrowed signs a commit
//!    vote on the deal and sends it to every escrow;
//! 3. an escrow that assembles the **full signature set** (all parties)
//!    before its local timelock `D` releases its asset to the
//!    beneficiary; at `D` without a full set it returns the asset.
//!
//! Under synchrony (and a `D` large enough for two hops plus drift) every
//! compliant run commits — Safety, Termination and Strong liveness all
//! hold, as \[3\] proves. Under partial synchrony the deadline can split
//! the escrows — some see the proof in time, some do not — and a
//! compliant party's payoff turns unacceptable. The tests exhibit both
//! sides; experiment E7 tabulates them.

use crate::matrix::{DealMatrix, DealOutcome, Party};
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::fingerprint::fingerprint;
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use ledger::{DealId, Ledger};
use std::sync::Arc as StdArc;
use xcrypto::wire::WireWriter;
use xcrypto::{KeyId, PaymentId, Pki, Signature, Signer};

/// Domain label for deal-commit votes.
pub const DOM_DEAL_COMMIT: &[u8] = b"xchain/deals/commit";

/// Canonical payload of a commit vote on a deal.
pub fn commit_payload(deal_id: &PaymentId) -> Vec<u8> {
    let mut w = WireWriter::new(DOM_DEAL_COMMIT);
    w.put_bytes(&deal_id.0);
    w.finish()
}

/// Messages of the deal protocols.
#[derive(Debug, Clone, PartialEq, Hash)]
#[repr(u8)]
pub enum DMsg {
    /// Depositor asks arc-escrow to lock its asset.
    Deposit {
        /// Index of the arc within the deal.
        arc: usize,
    },
    /// Public chain event: arc's asset is escrowed.
    Escrowed {
        /// Index of the arc within the deal.
        arc: usize,
    },
    /// A party's signed commit vote, broadcast to escrows (timelock) or
    /// the certified chain (certified variant).
    CommitVote {
        /// The issuer's signature.
        sig: Signature,
    },
    /// Certified variant: a party's signed abort request.
    AbortVote {
        /// The issuer's signature.
        sig: Signature,
    },
    /// Certified variant: the chain's recorded verdict.
    CbcDecision {
        /// True for COMMIT, false for ABORT.
        commit: bool,
    },
}

/// Shared immutable description of a deal instance.
pub struct DealInstance {
    /// The deal matrix: who pays whom what.
    pub deal: DealMatrix,
    /// Canonical identifier of this deal instance.
    pub deal_id: PaymentId,
    /// Shared verification registry.
    pub pki: StdArc<Pki>,
    /// One key per party.
    pub party_keys: Vec<KeyId>,
}

impl DealInstance {
    /// Builds keys and an id for `deal`, deterministically from `seed`.
    pub fn generate(deal: DealMatrix, seed: u64) -> (Self, Vec<Signer>) {
        let mut pki = Pki::new(seed);
        let signers: Vec<Signer> = (0..deal.parties()).map(|_| pki.register().1).collect();
        let party_keys: Vec<KeyId> = signers.iter().map(|s| s.id()).collect();
        let deal_id = PaymentId::derive(seed, &party_keys);
        (
            DealInstance {
                deal,
                deal_id,
                pki: StdArc::new(pki),
                party_keys,
            },
            signers,
        )
    }

    /// Engine pid of party `p` (parties come first).
    pub fn party_pid(&self, p: Party) -> Pid {
        p
    }

    /// Engine pid of the escrow for arc `k`.
    pub fn escrow_pid(&self, k: usize) -> Pid {
        self.deal.parties() + k
    }

    /// First pid after parties and arc escrows (the certified chain).
    pub fn next_free_pid(&self) -> Pid {
        self.deal.parties() + self.deal.arcs().len()
    }

    /// Arc `k`'s escrow book: accounts for its depositor and beneficiary,
    /// with the arc's asset minted to the depositor.
    pub(crate) fn arc_book(&self, k: usize) -> Ledger {
        let a = self.deal.arcs()[k];
        let (from, to) = (self.party_keys[a.from], self.party_keys[a.to]);
        Ledger::funded(&[from, to], from, a.asset)
    }

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
        for (p, signer) in signers.iter().enumerate() {
            let compliant = TimelockParty::new(self, p, signer.clone());
            eng.add_process(party(p, compliant), DriftClock::perfect());
        }
        for k in 0..self.deal.arcs().len() {
            eng.add_process(
                Box::new(TimelockEscrow::new(self, k, timelock)),
                DriftClock::perfect(),
            );
        }
        eng
    }
}

const TIMER_DEADLINE: TimerId = 1;

/// The escrow (asset chain) for one arc under the timelock protocol.
#[derive(Debug, Clone)]
pub struct TimelockEscrow {
    arc: usize,
    asset: ledger::Asset,
    depositor_key: KeyId,
    beneficiary_key: KeyId,
    party_pids: Vec<Pid>,
    party_keys: Vec<KeyId>,
    pki: StdArc<Pki>,
    deal_id: PaymentId,
    /// Local-clock patience after the deposit (the pending deadline is a
    /// queued timer).
    timelock: SimDuration,
    st: TimelockEscrowState,
}

/// An arc escrow's run state: the book, the deal, the votes and the
/// settlement. The rest of [`TimelockEscrow`] is setup (arc, keys, pids,
/// timelock).
#[derive(Debug, Clone, Hash)]
struct TimelockEscrowState {
    ledger: Ledger,
    deal: Option<DealId>,
    votes: Vec<KeyId>,
    /// `Some(true)` released, `Some(false)` returned.
    settled: Option<bool>,
}

impl TimelockEscrow {
    /// Builds the escrow for `arc` of `inst`, funding the depositor.
    pub fn new(inst: &DealInstance, arc: usize, timelock: SimDuration) -> Self {
        let a = inst.deal.arcs()[arc];
        let depositor_key = inst.party_keys[a.from];
        let beneficiary_key = inst.party_keys[a.to];
        let ledger = inst.arc_book(arc);
        TimelockEscrow {
            arc,
            asset: a.asset,
            depositor_key,
            beneficiary_key,
            party_pids: (0..inst.deal.parties()).collect(),
            party_keys: inst.party_keys.clone(),
            pki: inst.pki.clone(),
            deal_id: inst.deal_id,
            timelock,
            st: TimelockEscrowState {
                ledger,
                deal: None,
                votes: Vec::new(),
                settled: None,
            },
        }
    }

    /// The escrow's book.
    pub fn ledger(&self) -> &Ledger {
        &self.st.ledger
    }

    /// `Some(true)` released, `Some(false)` returned, `None` unsettled.
    pub fn settled(&self) -> Option<bool> {
        self.st.settled
    }

    fn maybe_release(&mut self, ctx: &mut Ctx<DMsg>) {
        if self.st.settled.is_some() || self.st.deal.is_none() {
            return;
        }
        if self.st.votes.len() == self.party_keys.len() {
            self.st
                .ledger
                .release(self.st.deal.expect("checked"))
                .expect("locked releases once");
            self.st.settled = Some(true);
            ctx.mark("arc_released", self.arc as i64);
            ctx.halt();
        }
    }
}

impl Process<DMsg> for TimelockEscrow {
    fn on_start(&mut self, _ctx: &mut Ctx<DMsg>) {}

    fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            DMsg::Deposit { arc } if arc == self.arc && self.st.deal.is_none() => {
                // Only the depositor party may lock, and only with cover.
                let depositor_pid = self
                    .party_keys
                    .iter()
                    .position(|k| *k == self.depositor_key)
                    .expect("depositor is a party");
                if from != self.party_pids[depositor_pid] {
                    return;
                }
                match self
                    .st
                    .ledger
                    .lock(self.depositor_key, self.beneficiary_key, self.asset)
                {
                    Ok(deal) => {
                        self.st.deal = Some(deal);
                        ctx.set_timer_after(TIMER_DEADLINE, self.timelock);
                        ctx.mark("arc_escrowed", self.arc as i64);
                        for &p in &self.party_pids {
                            ctx.send(p, DMsg::Escrowed { arc: self.arc });
                        }
                    }
                    Err(_) => ctx.mark("arc_lock_rejected", self.arc as i64),
                }
            }
            DMsg::CommitVote { sig } => {
                if self.st.settled.is_some() {
                    return;
                }
                if !self.party_keys.contains(&sig.signer) || self.st.votes.contains(&sig.signer) {
                    return;
                }
                if !self
                    .pki
                    .verify(&sig, DOM_DEAL_COMMIT, &commit_payload(&self.deal_id))
                {
                    return;
                }
                self.st.votes.push(sig.signer);
                self.maybe_release(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<DMsg>) {
        if id == TIMER_DEADLINE && self.st.settled.is_none() {
            if let Some(deal) = self.st.deal {
                self.st.ledger.refund(deal).expect("locked refunds once");
                self.st.settled = Some(false);
                ctx.mark("arc_returned", self.arc as i64);
                ctx.halt();
            }
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// A compliant party under the timelock protocol.
#[derive(Debug, Clone)]
pub struct TimelockParty {
    me: Party,
    signer: Signer,
    deal_id: PaymentId,
    /// Arc indices I must fund, with their escrow pids.
    my_deposits: Vec<(usize, Pid)>,
    /// All escrow pids (votes go everywhere).
    all_escrows: Vec<Pid>,
    n_arcs: usize,
    st: TimelockPartyState,
}

/// A party's run state: which arcs it has seen escrowed and whether it
/// voted. The rest of [`TimelockParty`] — identity and pids — is setup.
#[derive(Debug, Clone, Hash)]
struct TimelockPartyState {
    escrowed_seen: Vec<bool>,
    voted: bool,
}

impl TimelockParty {
    /// Builds party `me` of `inst`.
    pub fn new(inst: &DealInstance, me: Party, signer: Signer) -> Self {
        let my_deposits: Vec<(usize, Pid)> = inst
            .deal
            .outgoing(me)
            .map(|k| (k, inst.escrow_pid(k)))
            .collect();
        let all_escrows: Vec<Pid> = (0..inst.deal.arcs().len())
            .map(|k| inst.escrow_pid(k))
            .collect();
        TimelockParty {
            me,
            signer,
            deal_id: inst.deal_id,
            my_deposits,
            all_escrows,
            n_arcs: inst.deal.arcs().len(),
            st: TimelockPartyState {
                escrowed_seen: vec![false; inst.deal.arcs().len()],
                voted: false,
            },
        }
    }
}

impl Process<DMsg> for TimelockParty {
    fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
        for &(arc, escrow) in &self.my_deposits {
            ctx.send(escrow, DMsg::Deposit { arc });
        }
        // A party with no outgoing arcs can be fully escrowed already.
        if self.n_arcs == 0 {
            ctx.halt();
        }
    }

    fn on_message(&mut self, _from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        if let DMsg::Escrowed { arc } = msg {
            self.st.escrowed_seen[arc] = true;
            if !self.st.voted && self.st.escrowed_seen.iter().all(|&e| e) {
                self.st.voted = true;
                let sig = self
                    .signer
                    .sign(DOM_DEAL_COMMIT, &commit_payload(&self.deal_id));
                for &e in &self.all_escrows {
                    ctx.send(e, DMsg::CommitVote { sig });
                }
                ctx.mark("party_voted", self.me as i64);
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// Extracts the [`DealOutcome`] from a finished timelock run.
pub fn extract_timelock_outcome(
    eng: &anta::engine::Engine<DMsg>,
    inst: &DealInstance,
) -> DealOutcome {
    let executed = (0..inst.deal.arcs().len())
        .map(|k| {
            eng.process_as::<TimelockEscrow>(inst.escrow_pid(k))
                .and_then(TimelockEscrow::settled)
                .unwrap_or(false)
        })
        .collect();
    DealOutcome { executed }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let o = extract_timelock_outcome(&eng, &inst);
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
        let o = extract_timelock_outcome(&eng, &inst);
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
        let o = extract_timelock_outcome(&eng, &inst);
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
        let o = extract_timelock_outcome(&eng, &inst);
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
        let o = extract_timelock_outcome(&eng, &inst);
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
}
