//! What the two HLS commit protocols share: the messages, the instance,
//! the signed vote and its check, and two cores. An [`ArcEscrow`] locks
//! its arc's asset on the depositor's [`DMsg::Deposit`], announces the
//! lock to every party and settles once, when its [`Rule`] says so. A
//! deal party deposits what it owes and, once every arc is escrowed,
//! signs one commit vote and sends it to a list of voters. Each protocol
//! module adds only its rule and where the votes go.

use crate::matrix::{DealMatrix, DealOutcome, Party};
use anta::engine::Engine;
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use ledger::{Asset, DealId, Ledger, Marks};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc as StdArc;
use xcrypto::wire::Payload;
use xcrypto::{KeyId, PaymentId, Pki, Signature, Signer};

/// An arc escrow's lifecycle labels; each mark's value is the arc index.
pub const ESCROW_MARKS: Marks = Marks {
    locked: "arc_escrowed",
    lock_rejected: "arc_lock_rejected",
    released: "arc_released",
    refunded: "arc_returned",
};

/// Domain label for deal-commit votes.
pub const DOM_DEAL_COMMIT: &[u8] = b"xchain/deals/commit";

/// Canonical payload of a vote under `domain` on deal `deal_id`.
pub fn vote_payload(domain: &[u8], deal_id: &PaymentId) -> Payload {
    let mut w = Payload::new(domain);
    w.put_bytes(&deal_id.0);
    w
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

/// Shared immutable description of a deal instance. Parties are pids
/// `0..parties`, arc `k`'s escrow is [`DealInstance::escrow_pid`]`(k)`.
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

    /// Engine pid of the escrow for arc `k`.
    pub fn escrow_pid(&self, k: usize) -> Pid {
        self.deal.parties() + k
    }

    /// First pid after parties and arc escrows (the certified chain).
    pub fn next_free_pid(&self) -> Pid {
        self.deal.parties() + self.deal.arcs().len()
    }

    /// The outcome of a finished run of either protocol: arc `k` executed
    /// iff its escrow marked `ESCROW_MARKS.released` with `k`.
    pub fn outcome(&self, eng: &Engine<DMsg>) -> DealOutcome {
        let mut executed = vec![false; self.deal.arcs().len()];
        for (_, _, _, arc) in eng.trace().marks(ESCROW_MARKS.released) {
            executed[arc as usize] = true;
        }
        DealOutcome { executed }
    }

    /// The check every vote of this deal passes.
    pub(crate) fn vote_check(&self) -> VoteCheck {
        VoteCheck {
            deal_id: self.deal_id,
            pki: self.pki.clone(),
            party_keys: self.party_keys.clone(),
        }
    }
}

/// Checks that a vote is a party's signature on this deal.
#[derive(Debug, Clone)]
pub(crate) struct VoteCheck {
    deal_id: PaymentId,
    pki: StdArc<Pki>,
    party_keys: Vec<KeyId>,
}

impl VoteCheck {
    /// How many parties vote.
    pub(crate) fn parties(&self) -> usize {
        self.party_keys.len()
    }

    /// Whether `sig` is a party's vote under `domain` on this deal.
    pub(crate) fn accepts(&self, sig: &Signature, domain: &[u8]) -> bool {
        self.party_keys.contains(&sig.signer)
            && self
                .pki
                .verify(sig, domain, &vote_payload(domain, &self.deal_id))
    }
}

/// What settles an arc escrow: the one rule in which the two protocols
/// differ. An escrow halts once it settles, so it settles once.
pub trait Rule: Debug + Clone + 'static {
    /// What the rule remembers of the run; part of the escrow's state.
    type State: Debug + Clone + Hash + Default;

    /// Runs when the asset locks, before the escrow marks and announces
    /// the lock.
    fn on_lock(&self, _ctx: &mut Ctx<DMsg>) {}

    /// How `msg` from `from` settles the escrow, if it does: `Some(true)`
    /// releases, `Some(false)` returns. `locked` says whether the asset
    /// is locked yet.
    fn on_message(&self, st: &mut Self::State, locked: bool, from: Pid, msg: DMsg) -> Option<bool>;

    /// How timer `id` settles the escrow, if it does.
    fn on_timer(&self, _id: TimerId) -> Option<bool> {
        None
    }
}

/// The escrow (asset chain) of one arc, settling by rule `R`.
#[derive(Debug, Clone)]
pub struct ArcEscrow<R: Rule> {
    arc: usize,
    asset: Asset,
    depositor: Pid,
    depositor_key: KeyId,
    beneficiary_key: KeyId,
    parties: usize,
    rule: R,
    st: EscrowState<R::State>,
}

/// An arc escrow's run state: the book, the deal, the rule's state and
/// the settlement. The rest of [`ArcEscrow`] is setup (arc, keys, pids,
/// the rule).
#[derive(Debug, Clone, Hash)]
struct EscrowState<S> {
    ledger: Ledger,
    deal: Option<DealId>,
    rule: S,
    /// `Some(true)` released, `Some(false)` returned.
    settled: Option<bool>,
}

impl<R: Rule> ArcEscrow<R> {
    /// The escrow for `arc` of `inst`, with the arc's asset minted to its
    /// depositor.
    pub(crate) fn new(inst: &DealInstance, arc: usize, rule: R) -> Self {
        let a = inst.deal.arcs()[arc];
        let (depositor_key, beneficiary_key) = (inst.party_keys[a.from], inst.party_keys[a.to]);
        ArcEscrow {
            arc,
            asset: a.asset,
            depositor: a.from,
            depositor_key,
            beneficiary_key,
            parties: inst.deal.parties(),
            rule,
            st: EscrowState {
                ledger: Ledger::funded(&[depositor_key, beneficiary_key], depositor_key, a.asset),
                deal: None,
                rule: R::State::default(),
                settled: None,
            },
        }
    }

    /// The escrow's book.
    pub fn ledger(&self) -> &Ledger {
        &self.st.ledger
    }

    /// Whether the arc's asset was locked here.
    pub fn escrowed(&self) -> bool {
        self.st.deal.is_some()
    }

    /// `Some(true)` released, `Some(false)` returned, `None` unsettled.
    pub fn settled(&self) -> Option<bool> {
        self.st.settled
    }

    /// Releases (`commit`) or returns a locked asset, and halts. An escrow
    /// with nothing locked has nothing to move: it just halts, returned.
    fn settle(&mut self, commit: bool, ctx: &mut Ctx<DMsg>) {
        if let Some(deal) = self.st.deal {
            if commit {
                self.st.ledger.release(deal).expect("locked releases once");
                ctx.mark(ESCROW_MARKS.released, self.arc as i64);
            } else {
                self.st.ledger.refund(deal).expect("locked refunds once");
                ctx.mark(ESCROW_MARKS.refunded, self.arc as i64);
            }
        }
        self.st.settled = Some(commit && self.st.deal.is_some());
        ctx.halt();
    }
}

impl<R: Rule> Process<DMsg> for ArcEscrow<R> {
    fn on_start(&mut self, _ctx: &mut Ctx<DMsg>) {}

    fn on_message(&mut self, from: Pid, msg: DMsg, ctx: &mut Ctx<DMsg>) {
        match msg {
            // Only the depositor may lock, and only with cover.
            DMsg::Deposit { arc }
                if arc == self.arc && self.st.deal.is_none() && from == self.depositor =>
            {
                match self
                    .st
                    .ledger
                    .lock(self.depositor_key, self.beneficiary_key, self.asset)
                {
                    Ok(deal) => {
                        self.st.deal = Some(deal);
                        self.rule.on_lock(ctx);
                        ctx.mark(ESCROW_MARKS.locked, self.arc as i64);
                        for p in 0..self.parties {
                            ctx.send(p, DMsg::Escrowed { arc: self.arc });
                        }
                    }
                    Err(_) => ctx.mark(ESCROW_MARKS.lock_rejected, self.arc as i64),
                }
            }
            msg => {
                let locked = self.st.deal.is_some();
                if let Some(commit) = self.rule.on_message(&mut self.st.rule, locked, from, msg) {
                    self.settle(commit, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<DMsg>) {
        if let Some(commit) = self.rule.on_timer(id) {
            self.settle(commit, ctx);
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// A deal party's common part: it deposits what it owes and, once every
/// arc is escrowed, signs one commit vote and sends it to `voters`.
#[derive(Debug, Clone)]
pub(crate) struct DealParty {
    pub(crate) me: Party,
    signer: Signer,
    deal_id: PaymentId,
    /// The arcs I must fund.
    deposits: Vec<usize>,
    /// Arc `k`'s escrow is pid `first_escrow + k`.
    first_escrow: Pid,
    /// Where my commit vote goes.
    voters: Vec<Pid>,
    st: PartyState,
}

/// A party's run state: which arcs it has seen escrowed and whether it
/// voted. The rest of [`DealParty`] — identity and pids — is setup.
#[derive(Debug, Clone, Hash)]
struct PartyState {
    escrowed_seen: Vec<bool>,
    voted: bool,
}

impl DealParty {
    /// Party `me` of `inst`, signing with `signer` and voting to `voters`.
    pub(crate) fn new(inst: &DealInstance, me: Party, signer: Signer, voters: Vec<Pid>) -> Self {
        DealParty {
            me,
            signer,
            deal_id: inst.deal_id,
            deposits: inst.deal.outgoing(me).collect(),
            first_escrow: inst.escrow_pid(0),
            voters,
            st: PartyState {
                escrowed_seen: vec![false; inst.deal.arcs().len()],
                voted: false,
            },
        }
    }

    /// Whether the deal has no arcs at all.
    pub(crate) fn no_arcs(&self) -> bool {
        self.st.escrowed_seen.is_empty()
    }

    /// Asks the escrow of every arc I fund to lock it.
    pub(crate) fn fund(&self, ctx: &mut Ctx<DMsg>) {
        for &arc in &self.deposits {
            ctx.send(self.first_escrow + arc, DMsg::Deposit { arc });
        }
    }

    /// Notes that `arc` is escrowed, on its own escrow's word only; once
    /// every arc is, votes commit.
    pub(crate) fn escrowed(&mut self, from: Pid, arc: usize, ctx: &mut Ctx<DMsg>) {
        if from != self.first_escrow + arc {
            return;
        }
        self.st.escrowed_seen[arc] = true;
        if !self.st.voted && self.st.escrowed_seen.iter().all(|&e| e) {
            self.st.voted = true;
            let sig = self.sign(DOM_DEAL_COMMIT);
            for &v in &self.voters {
                ctx.send(v, DMsg::CommitVote { sig });
            }
            ctx.mark("party_voted", self.me as i64);
        }
    }

    /// My vote under `domain` on this deal.
    pub(crate) fn sign(&self, domain: &[u8]) -> Signature {
        self.signer
            .sign(domain, &vote_payload(domain, &self.deal_id))
    }

    pub(crate) fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}
