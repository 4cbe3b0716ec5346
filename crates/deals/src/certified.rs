//! The HLS **certified blockchain commit protocol** — the partially
//! synchronous deal protocol of \[3\].
//!
//! Instead of per-escrow deadlines, a designated *certified blockchain*
//! (CBC) totally orders the parties' votes: once it has recorded a commit
//! vote from **every** party, it certifies COMMIT; if any party's signed
//! abort vote arrives first, it certifies ABORT. Every arc escrow settles
//! solely on the CBC's verdict — no clocks in the decision path, so
//! safety and termination survive partial synchrony. What is lost is
//! strong liveness: an impatient (or slow-looking) party can push an
//! honest run into ABORT — the same trade the paper's Theorem 3 makes,
//! which is why §5 calls the two lines of work related.

use crate::matrix::{DealOutcome, Party};
use crate::timelock::{commit_payload, DMsg, DealInstance, DOM_DEAL_COMMIT};
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::fingerprint::fingerprint;
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use ledger::{DealId, Ledger, SimChain};
use std::sync::Arc as StdArc;
use xcrypto::wire::WireWriter;
use xcrypto::{KeyId, PaymentId, Pki, Signer};

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
        for (p, signer) in signers.iter().enumerate() {
            let clock = party_clock(p);
            let compliant = CertifiedParty::new(self, p, signer.clone());
            eng.add_process(party(p, compliant), clock);
        }
        for k in 0..self.deal.arcs().len() {
            eng.add_process(
                Box::new(CertifiedEscrow::new(self, k)),
                DriftClock::perfect(),
            );
        }
        eng.add_process(Box::new(CertifiedChain::new(self)), DriftClock::perfect());
        eng
    }
}

/// Domain label for abort votes on deals.
pub const DOM_DEAL_ABORT: &[u8] = b"xchain/deals/abort";

/// Canonical payload of an abort vote.
pub fn abort_payload(deal_id: &PaymentId) -> Vec<u8> {
    let mut w = WireWriter::new(DOM_DEAL_ABORT);
    w.put_bytes(&deal_id.0);
    w.finish()
}

/// The certified blockchain: orders votes, certifies one verdict, and
/// keeps a hash-linked public log of everything it saw.
#[derive(Debug, Clone)]
pub struct CertifiedChain {
    deal_id: PaymentId,
    pki: StdArc<Pki>,
    party_keys: Vec<KeyId>,
    /// Escrows and parties that follow the verdict.
    subscribers: Vec<Pid>,
    st: CertifiedChainState,
}

/// The chain's run state: the votes, the verdict and the public log
/// (hashed through its head hash, which chains every entry). The rest of
/// [`CertifiedChain`] is setup (deal id, keys, subscribers).
#[derive(Debug, Clone, Hash)]
struct CertifiedChainState {
    votes: Vec<KeyId>,
    verdict: Option<bool>,
    log: SimChain,
}

impl CertifiedChain {
    /// Builds the CBC for a deal instance; every party and escrow learns
    /// the verdict.
    pub fn new(inst: &DealInstance) -> Self {
        CertifiedChain {
            deal_id: inst.deal_id,
            pki: inst.pki.clone(),
            party_keys: inst.party_keys.clone(),
            subscribers: (0..inst.next_free_pid()).collect(),
            st: CertifiedChainState {
                votes: Vec::new(),
                verdict: None,
                log: SimChain::new(),
            },
        }
    }

    /// The recorded verdict, if any (`true` = commit).
    pub fn verdict(&self) -> Option<bool> {
        self.st.verdict
    }

    /// The public log (integrity-checkable).
    pub fn log(&self) -> &SimChain {
        &self.st.log
    }

    fn certify(&mut self, commit: bool, ctx: &mut Ctx<DMsg>) {
        if self.st.verdict.is_some() {
            return;
        }
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
                if self.st.verdict.is_some()
                    || !self.party_keys.contains(&sig.signer)
                    || self.st.votes.contains(&sig.signer)
                    || !self
                        .pki
                        .verify(&sig, DOM_DEAL_COMMIT, &commit_payload(&self.deal_id))
                {
                    return;
                }
                self.st.votes.push(sig.signer);
                self.st.log.append(sig.signer.0.to_be_bytes().to_vec());
                if self.st.votes.len() == self.party_keys.len() {
                    self.certify(true, ctx);
                }
            }
            DMsg::AbortVote { sig } => {
                if self.st.verdict.is_some()
                    || !self.party_keys.contains(&sig.signer)
                    || !self
                        .pki
                        .verify(&sig, DOM_DEAL_ABORT, &abort_payload(&self.deal_id))
                {
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

/// An arc escrow under the certified protocol: no deadline — it settles
/// exclusively on the CBC verdict.
#[derive(Debug, Clone)]
pub struct CertifiedEscrow {
    arc: usize,
    asset: ledger::Asset,
    depositor_key: KeyId,
    beneficiary_key: KeyId,
    depositor_pid: Pid,
    party_pids: Vec<Pid>,
    st: CertifiedEscrowState,
}

/// An arc escrow's run state: the book, the deal and the settlement. The
/// rest of [`CertifiedEscrow`] is setup (arc, keys, pids).
#[derive(Debug, Clone, Hash)]
struct CertifiedEscrowState {
    ledger: Ledger,
    deal: Option<DealId>,
    /// `Some(true)` released, `Some(false)` returned.
    settled: Option<bool>,
}

impl CertifiedEscrow {
    /// Builds the escrow for `arc` of `inst`, funding the depositor.
    pub fn new(inst: &DealInstance, arc: usize) -> Self {
        let a = inst.deal.arcs()[arc];
        CertifiedEscrow {
            arc,
            asset: a.asset,
            depositor_key: inst.party_keys[a.from],
            beneficiary_key: inst.party_keys[a.to],
            depositor_pid: inst.party_pid(a.from),
            party_pids: (0..inst.deal.parties()).collect(),
            st: CertifiedEscrowState {
                ledger: inst.arc_book(arc),
                deal: None,
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
}

impl Process<DMsg> for CertifiedEscrow {
    fn on_start(&mut self, _ctx: &mut Ctx<DMsg>) {}

    fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            DMsg::Deposit { arc } if arc == self.arc && self.st.deal.is_none() => {
                if from != self.depositor_pid {
                    return;
                }
                match self
                    .st
                    .ledger
                    .lock(self.depositor_key, self.beneficiary_key, self.asset)
                {
                    Ok(deal) => {
                        self.st.deal = Some(deal);
                        ctx.mark("arc_escrowed", self.arc as i64);
                        for &p in &self.party_pids {
                            ctx.send(p, DMsg::Escrowed { arc: self.arc });
                        }
                    }
                    Err(_) => ctx.mark("arc_lock_rejected", self.arc as i64),
                }
            }
            DMsg::CbcDecision { commit } if self.st.settled.is_none() => {
                let Some(deal) = self.st.deal else {
                    // Nothing locked here: the verdict costs nothing.
                    self.st.settled = Some(false);
                    ctx.halt();
                    return;
                };
                if commit {
                    self.st.ledger.release(deal).expect("locked releases once");
                    self.st.settled = Some(true);
                    ctx.mark("arc_released", self.arc as i64);
                } else {
                    self.st.ledger.refund(deal).expect("locked refunds once");
                    self.st.settled = Some(false);
                    ctx.mark("arc_returned", self.arc as i64);
                }
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<DMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

const TIMER_PATIENCE: TimerId = 5;

/// A party under the certified protocol: deposits, votes commit to the
/// CBC once everything is escrowed, and (optionally) votes abort when its
/// patience runs out. A withholding party is not a setting of this one: it
/// is a different process (`anta::process::InertProcess`) registered in its
/// place through [`DealInstance::certified_engine`]'s `party` hook.
#[derive(Debug, Clone)]
pub struct CertifiedParty {
    me: Party,
    signer: Signer,
    deal_id: PaymentId,
    my_deposits: Vec<(usize, Pid)>,
    cbc: Pid,
    /// `None`: infinitely patient (a pending patience expiry is a queued
    /// timer).
    pub patience: Option<SimDuration>,
    st: CertifiedPartyState,
}

/// A party's run state: what it has seen, voted and learnt. The rest of
/// [`CertifiedParty`] — identity, pids and its `patience` — is setup.
#[derive(Debug, Clone, Hash)]
struct CertifiedPartyState {
    escrowed_seen: Vec<bool>,
    voted: bool,
    decided: bool,
}

impl CertifiedParty {
    /// Builds party `me`, who votes to the certified chain at
    /// [`DealInstance::next_free_pid`].
    pub fn new(inst: &DealInstance, me: Party, signer: Signer) -> Self {
        let my_deposits: Vec<(usize, Pid)> = inst
            .deal
            .outgoing(me)
            .map(|k| (k, inst.escrow_pid(k)))
            .collect();
        CertifiedParty {
            me,
            signer,
            deal_id: inst.deal_id,
            my_deposits,
            cbc: inst.next_free_pid(),
            patience: None,
            st: CertifiedPartyState {
                escrowed_seen: vec![false; inst.deal.arcs().len()],
                voted: false,
                decided: false,
            },
        }
    }
}

impl Process<DMsg> for CertifiedParty {
    fn on_start(&mut self, ctx: &mut Ctx<DMsg>) {
        for &(arc, escrow) in &self.my_deposits {
            ctx.send(escrow, DMsg::Deposit { arc });
        }
        if let Some(p) = self.patience {
            ctx.set_timer_after(TIMER_PATIENCE, p);
        }
    }

    fn on_message(&mut self, _from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            DMsg::Escrowed { arc } => {
                self.st.escrowed_seen[arc] = true;
                if !self.st.voted && self.st.escrowed_seen.iter().all(|&e| e) {
                    self.st.voted = true;
                    let sig = self
                        .signer
                        .sign(DOM_DEAL_COMMIT, &commit_payload(&self.deal_id));
                    ctx.send(self.cbc, DMsg::CommitVote { sig });
                    ctx.mark("party_voted", self.me as i64);
                }
            }
            DMsg::CbcDecision { .. } if !self.st.decided => {
                self.st.decided = true;
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<DMsg>) {
        if id == TIMER_PATIENCE && !self.st.decided {
            let sig = self
                .signer
                .sign(DOM_DEAL_ABORT, &abort_payload(&self.deal_id));
            ctx.send(self.cbc, DMsg::AbortVote { sig });
            ctx.mark("party_aborted", self.me as i64);
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// Extracts the [`DealOutcome`] from a finished certified run.
pub fn extract_certified_outcome(
    eng: &anta::engine::Engine<DMsg>,
    inst: &DealInstance,
) -> DealOutcome {
    let executed = (0..inst.deal.arcs().len())
        .map(|k| {
            eng.process_as::<CertifiedEscrow>(inst.escrow_pid(k))
                .and_then(CertifiedEscrow::settled)
                .unwrap_or(false)
        })
        .collect();
    DealOutcome { executed }
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
        let o = extract_certified_outcome(&eng, &inst);
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
        let o = extract_certified_outcome(&eng, &inst);
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
        let o = extract_certified_outcome(&eng, &inst);
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
        let o = extract_certified_outcome(&eng, &inst);
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
}
