//! The transaction manager of the weak-liveness protocol — all three
//! instantiations the paper lists: *"a single external party trusted by
//! all, or a smart contract running on a permissionless blockchain shared
//! by every customer. It can also be a collection of notaries … of which
//! less than one-third is assumed to be unreliable … running a consensus
//! algorithm for partial synchrony."*
//!
//! All variants implement the same decision rule over *signed evidence*:
//!
//! * **χc (commit)** — once all `n` lock reports (one per escrow) and
//!   Bob's signed acceptance are verified;
//! * **χa (abort)** — as soon as any customer's signed abort request
//!   arrives before a commit;
//! * at most one certificate is ever issued (property **CC**).

use super::scenario::{TmKind, WeakSetup};
use crate::msg::{PMsg, TmInput, TmInputKind};
use crate::topology::Chain;
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimDuration;
use consensus::{Config as ConsConfig, ConsMsg, NotaryCore, Output as ConsOutput};
use ledger::SimChain;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use xcrypto::{DecisionCert, KeyId, PaymentId, Pki, Receipt, Signer, Verdict};

/// Verified evidence gathered from the participants. The payment and the
/// keys are setup; what has been gathered so far is state, and is all its
/// `Hash` feeds.
#[derive(Debug, Clone)]
pub struct Evidence {
    payment: PaymentId,
    escrow_keys: Vec<KeyId>,
    customer_keys: Vec<KeyId>,
    bob_key: KeyId,
    st: EvidenceState,
}

#[derive(Debug, Clone, Hash)]
struct EvidenceState {
    locks: Vec<bool>,
    accept: bool,
    abort: bool,
}

impl Hash for Evidence {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.st.hash(state);
    }
}

impl Evidence {
    /// Fresh evidence tracker for `chain`'s payment — what every manager,
    /// including a baseline's substitute, decides on.
    pub fn new(chain: &Chain) -> Self {
        let n = chain.n();
        Evidence {
            payment: chain.payment,
            escrow_keys: (0..n).map(|i| chain.escrow_signer(i).id()).collect(),
            customer_keys: (0..=n).map(|i| chain.customer_signer(i).id()).collect(),
            bob_key: chain.bob_key(),
            st: EvidenceState {
                locks: vec![false; n],
                accept: false,
                abort: false,
            },
        }
    }

    /// The payment this evidence is about.
    pub fn payment(&self) -> PaymentId {
        self.payment
    }

    /// Ingests a signed TM input; ignores anything that fails
    /// verification. Returns whether the input verified and counts.
    pub fn ingest_input(&mut self, input: &TmInput, pki: &Pki) -> bool {
        let i = input.index as usize;
        let keys = match input.kind {
            TmInputKind::Locked => &self.escrow_keys,
            TmInputKind::AbortRequest => &self.customer_keys,
        };
        let counts = input.payment == self.payment && i < keys.len() && input.verify(pki, keys[i]);
        if counts {
            match input.kind {
                TmInputKind::Locked => self.st.locks[i] = true,
                TmInputKind::AbortRequest => self.st.abort = true,
            }
        }
        counts
    }

    /// Ingests Bob's acceptance. Returns whether it verified and counts.
    pub fn ingest_accept(&mut self, chi: &Receipt, pki: &Pki) -> bool {
        let counts = chi.payment == self.payment && chi.verify(pki, self.bob_key);
        self.st.accept |= counts;
        counts
    }

    /// All locks plus Bob's acceptance.
    pub fn commit_ready(&self) -> bool {
        self.st.accept && self.st.locks.iter().all(|&l| l)
    }

    /// Some verified abort request exists.
    pub fn abort_ready(&self) -> bool {
        self.st.abort
    }

    /// The verdict this evidence justifies right now, preferring the abort
    /// (a customer already asked out) — either order would be correct.
    pub fn verdict(&self) -> Option<Verdict> {
        if self.abort_ready() {
            Some(Verdict::Abort)
        } else if self.commit_ready() {
            Some(Verdict::Commit)
        } else {
            None
        }
    }
}

/// A single trusted transaction manager.
#[derive(Debug, Clone)]
pub struct TrustedTm {
    signer: Signer,
    pki: Arc<Pki>,
    /// Everyone who must learn the decision (customers + escrows).
    participants: std::ops::Range<Pid>,
    st: TrustedTmState,
}

/// The manager's run state; the signer, key registry and participant list
/// are setup. The contract log is hashed through its head hash, which
/// chains every entry.
#[derive(Debug, Clone, Hash)]
struct TrustedTmState {
    evidence: Evidence,
    decided: Option<Verdict>,
    /// Optional hash-linked public log (the "smart contract on a
    /// blockchain" variant records everything here).
    chain: Option<SimChain>,
}

impl TrustedTm {
    /// `setup`'s manager process 0. Under [`TmKind::Contract`] it is the
    /// smart-contract variant: identical logic, but every input and the
    /// decision are published on a verifiable chain log.
    pub fn new(setup: &WeakSetup) -> Self {
        TrustedTm {
            signer: setup.tm_signer(0).clone(),
            pki: setup.chain.pki.clone(),
            participants: setup.participant_pids(),
            st: TrustedTmState {
                evidence: Evidence::new(&setup.chain),
                decided: None,
                chain: (setup.tm_kind == TmKind::Contract).then(SimChain::new),
            },
        }
    }

    /// The decision, if made.
    pub fn decided(&self) -> Option<Verdict> {
        self.st.decided
    }

    /// The contract's public log (contract variant only).
    pub fn chain(&self) -> Option<&SimChain> {
        self.st.chain.as_ref()
    }

    /// Appends a copy of `payload` to the contract's log.
    fn record(&mut self, payload: &[u8]) {
        if let Some(chain) = &mut self.st.chain {
            chain.append(payload.to_vec());
        }
    }

    fn try_decide(&mut self, ctx: &mut Ctx<PMsg>) {
        if let Some(v) = self.st.evidence.verdict() {
            self.decide(v, ctx);
        }
    }

    /// Issues `v` unless a decision exists: signs χc or χa, logs it, sends
    /// it to every participant and halts. A baseline with another decision
    /// rule (Interledger's deadline notary) calls this itself.
    pub fn decide(&mut self, v: Verdict, ctx: &mut Ctx<PMsg>) {
        if self.st.decided.is_some() {
            return;
        }
        self.st.decided = Some(v);
        let cert = Arc::new(DecisionCert::issue_single(
            &self.signer,
            self.st.evidence.payment,
            v,
        ));
        self.record(&DecisionCert::payload(&self.st.evidence.payment, v));
        ctx.mark(
            match v {
                Verdict::Commit => "tm_commit",
                Verdict::Abort => "tm_abort",
            },
            0,
        );
        for p in self.participants.start..self.participants.end {
            ctx.send(p, PMsg::Decision(cert.clone()));
        }
        ctx.halt();
    }
}

impl Process<PMsg> for TrustedTm {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, _from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        match msg {
            // The contract logs only evidence that verified.
            PMsg::TmInput(input) => {
                if self.st.evidence.ingest_input(&input, &self.pki) {
                    self.record(&[
                        match input.kind {
                            TmInputKind::Locked => 1u8,
                            TmInputKind::AbortRequest => 2,
                        },
                        input.index as u8,
                    ]);
                }
            }
            PMsg::Accept(chi) => {
                if self.st.evidence.ingest_accept(&chi, &self.pki) {
                    self.record(&[3u8]);
                }
            }
            _ => return,
        }
        self.try_decide(ctx);
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<PMsg>) {}

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// The committee's base consensus timeout: round `r` waits `(r+1)·50 ms`
/// per phase.
const CONS_BASE_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// One member of the notary-committee transaction manager. Gathers the
/// same evidence as [`TrustedTm`]; once its evidence justifies a verdict it
/// activates an embedded [`NotaryCore`] consensus instance with that
/// verdict as input. When consensus decides, the notary signs a decision
/// certificate *share*; participants accept once a quorum of distinct shares
/// verify (see `CertCollector`).
///
/// External validity lives here, not in the core: the notary's gate holds
/// every consensus message until the core runs, and a proposal without a
/// proof-of-lock until the evidence justifies its value. A proposal with
/// one passes, and the core accepts it only if the proof verifies: a
/// prevote quorum means some honest notary's evidence justified the value.
/// So an honest notary never prevotes χc before χc is justified by every
/// lock and Bob's acceptance, nor χa before a signed abort request.
#[derive(Debug, Clone)]
pub struct NotaryTm {
    signer: Signer,
    pki: Arc<Pki>,
    participants: std::ops::Range<Pid>,
    /// Other notaries (engine pids).
    peers: Vec<Pid>,
    cons_cfg: ConsConfig,
    st: NotaryTmState,
}

/// A notary's run state; the signer, key registry, pid lists and consensus
/// configuration are setup.
#[derive(Debug, Clone, Hash)]
struct NotaryTmState {
    evidence: Evidence,
    /// The consensus instance, once the evidence justifies an input; it
    /// alone records the decision.
    core: Option<NotaryCore>,
    /// Consensus traffic the gate holds, in arrival order.
    held: Vec<ConsMsg>,
}

impl NotaryTm {
    /// Builds notary `i` of `setup`'s committee: its consensus instance
    /// spans every manager process and tolerates `f = ⌊(k−1)/3⌋` of them.
    pub fn new(setup: &WeakSetup, i: usize) -> Self {
        let pids = setup.tm_pids();
        let (k, own) = (pids.len(), pids.start + i);
        NotaryTm {
            signer: setup.tm_signer(i).clone(),
            pki: setup.chain.pki.clone(),
            participants: setup.participant_pids(),
            peers: pids.filter(|&p| p != own).collect(),
            cons_cfg: ConsConfig {
                instance: 0,
                members: (0..k).map(|j| setup.tm_signer(j).id()).collect(),
                f: k.saturating_sub(1) / 3,
                base_timeout: CONS_BASE_TIMEOUT,
            },
            st: NotaryTmState {
                evidence: Evidence::new(&setup.chain),
                core: None,
                held: Vec::new(),
            },
        }
    }

    /// The verdict this notary's consensus instance decided, if any.
    pub fn decided(&self) -> Option<Verdict> {
        self.st.core.as_ref().and_then(NotaryCore::decided)
    }

    fn maybe_activate(&mut self, ctx: &mut Ctx<PMsg>) {
        if self.st.core.is_some() {
            return;
        }
        let Some(input) = self.st.evidence.verdict() else {
            return;
        };
        let mut core = NotaryCore::new(
            self.cons_cfg.clone(),
            self.signer.clone(),
            self.pki.clone(),
            input,
        );
        let outputs = core.start();
        self.st.core = Some(core);
        self.apply(outputs, ctx);
    }

    /// The gate: nothing reaches the core before it runs, and a proposal
    /// without a proof-of-lock only once the evidence justifies its value
    /// (the core verifies a proof-of-lock itself).
    fn admits(&self, msg: &ConsMsg) -> bool {
        self.st.core.is_some()
            && match msg {
                ConsMsg::Propose { value, pol, .. } => {
                    pol.is_some()
                        || match value {
                            Verdict::Commit => self.st.evidence.commit_ready(),
                            Verdict::Abort => self.st.evidence.abort_ready(),
                        }
                }
                _ => true,
            }
    }

    /// Hands the core every held message the gate admits, in arrival
    /// order; the rest stay held.
    fn release(&mut self, ctx: &mut Ctx<PMsg>) {
        let mut outputs = Vec::new();
        for msg in std::mem::take(&mut self.st.held) {
            if self.admits(&msg) {
                let core = self
                    .st
                    .core
                    .as_mut()
                    .expect("the gate admits once the core runs");
                outputs.extend(core.on_message(msg));
            } else {
                self.st.held.push(msg);
            }
        }
        self.apply(outputs, ctx);
    }

    fn apply(&mut self, outputs: Vec<ConsOutput>, ctx: &mut Ctx<PMsg>) {
        for o in outputs {
            match o {
                ConsOutput::Broadcast(m) => {
                    for &p in &self.peers {
                        ctx.send(p, PMsg::Cons(m.clone()));
                    }
                }
                ConsOutput::Schedule { token, after } => ctx.set_timer_after(token, after),
                // The core decides once: sign a certificate share for the
                // participants.
                ConsOutput::Decide { value, .. } => {
                    ctx.mark(
                        match value {
                            Verdict::Commit => "notary_commit",
                            Verdict::Abort => "notary_abort",
                        },
                        0,
                    );
                    let payload = DecisionCert::payload(&self.st.evidence.payment, value);
                    let share = Arc::new(DecisionCert::assemble(
                        self.st.evidence.payment,
                        value,
                        vec![self.signer.sign(xcrypto::cert::DOM_DECISION, &payload)],
                    ));
                    for p in self.participants.start..self.participants.end {
                        ctx.send(p, PMsg::Decision(share.clone()));
                    }
                }
            }
        }
    }
}

impl Process<PMsg> for NotaryTm {
    fn on_start(&mut self, _ctx: &mut Ctx<PMsg>) {}

    fn on_message(&mut self, _from: Pid, msg: PMsg, ctx: &mut Ctx<PMsg>) {
        match msg {
            PMsg::TmInput(input) => {
                self.st.evidence.ingest_input(&input, &self.pki);
                self.maybe_activate(ctx);
            }
            PMsg::Accept(chi) => {
                self.st.evidence.ingest_accept(&chi, &self.pki);
                self.maybe_activate(ctx);
            }
            PMsg::Cons(m) => self.st.held.push(m),
            _ => return,
        }
        self.release(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<PMsg>) {
        if let Some(core) = self.st.core.as_mut() {
            let out = core.on_timeout(id);
            self.apply(out, ctx);
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ValuePlan;

    fn evidence_rig() -> (Chain, Evidence) {
        let (chain, _) = Chain::new(2, ValuePlan::uniform(2, 1), 4, 0);
        let ev = Evidence::new(&chain);
        (chain, ev)
    }

    #[test]
    fn evidence_commit_requires_all_locks_and_accept() {
        let (c, mut ev) = evidence_rig();
        assert_eq!(ev.verdict(), None);
        let payment = ev.payment();
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(0), TmInputKind::Locked, payment, 0),
            &c.pki,
        );
        assert!(!ev.commit_ready());
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(1), TmInputKind::Locked, payment, 1),
            &c.pki,
        );
        assert!(!ev.commit_ready(), "needs Bob's acceptance too");
        ev.ingest_accept(&Receipt::issue(c.customer_signer(2), payment), &c.pki);
        assert!(ev.commit_ready());
        assert_eq!(ev.verdict(), Some(Verdict::Commit));
    }

    #[test]
    fn evidence_rejects_forged_inputs() {
        let (c, mut ev) = evidence_rig();
        let payment = ev.payment();
        // A customer signing a Locked notice is not an escrow.
        ev.ingest_input(
            &TmInput::issue(c.customer_signer(0), TmInputKind::Locked, payment, 0),
            &c.pki,
        );
        assert!(!ev.commit_ready());
        // Wrong escrow index.
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(1), TmInputKind::Locked, payment, 0),
            &c.pki,
        );
        assert_eq!(ev.verdict(), None);
        // Accept signed by a non-Bob key.
        ev.ingest_accept(&Receipt::issue(c.customer_signer(0), payment), &c.pki);
        assert!(!ev.st.accept);
        // Out-of-range indices are ignored.
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(0), TmInputKind::Locked, payment, 99),
            &c.pki,
        );
        assert_eq!(ev.verdict(), None);
    }

    #[test]
    fn evidence_abort_from_any_customer() {
        let (c, mut ev) = evidence_rig();
        let payment = ev.payment();
        ev.ingest_input(
            &TmInput::issue(c.customer_signer(1), TmInputKind::AbortRequest, payment, 1),
            &c.pki,
        );
        assert!(ev.abort_ready());
        assert_eq!(ev.verdict(), Some(Verdict::Abort));
    }

    #[test]
    fn evidence_prefers_abort_when_both_ready() {
        let (c, mut ev) = evidence_rig();
        let payment = ev.payment();
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(0), TmInputKind::Locked, payment, 0),
            &c.pki,
        );
        ev.ingest_input(
            &TmInput::issue(c.escrow_signer(1), TmInputKind::Locked, payment, 1),
            &c.pki,
        );
        ev.ingest_accept(&Receipt::issue(c.customer_signer(2), payment), &c.pki);
        ev.ingest_input(
            &TmInput::issue(c.customer_signer(0), TmInputKind::AbortRequest, payment, 0),
            &c.pki,
        );
        assert_eq!(ev.verdict(), Some(Verdict::Abort));
    }
}
