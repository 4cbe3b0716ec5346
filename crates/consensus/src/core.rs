//! The notary state machine — sans-IO.
//!
//! A round-rotating, locking Byzantine consensus in the Dwork–Lynch–
//! Stockmeyer partial-synchrony tradition (round structure and growing
//! timeouts from \[1\]; the lock/proof-of-lock discipline follows the
//! Tendermint lineage of DLS-style protocols). The paper's Theorem 3
//! construction runs "a collection of notaries appointed by the
//! participants, of which less than one-third is assumed to be unreliable
//! … running a consensus algorithm for partial synchrony such as the one
//! from Dwork, Lynch & Stockmeyer" — this module is that algorithm.
//!
//! Guarantees (exercised by the tests in `process.rs` and the E3
//! experiments):
//!
//! * **Agreement** — no two honest notaries decide differently, under any
//!   message timing and up to `f < n/3` Byzantine members. Quorum size is
//!   `n − f` ([`xcrypto::committee_quorum`]); two quorums intersect in an
//!   honest notary, and re-proposals
//!   must carry a verifiable proof-of-lock, so a decided value can never
//!   lose its lock.
//! * **Validity** — the core itself accepts any authentic proposal whose
//!   proof-of-lock, if attached, verifies and which its lock allows.
//!   External validity (χc only with all locks + Bob's acceptance in
//!   evidence) is enforced by the payment crate's `NotaryTm`: its gate
//!   holds back every fresh proposal its evidence does not justify and
//!   hands it to the core only once the evidence arrives, so an unjustified
//!   value never gathers an honest prevote.
//! * **Termination after GST** — timeouts grow linearly with the round
//!   number, so once the network stabilises, the first honest leader's
//!   round completes within its timeouts and every honest notary decides.
//!
//! The state machine is deliberately IO-free: it consumes messages and
//! timeout tokens and emits [`Output`]s. The engine adapter in
//! [`crate::process`] and the transaction-manager embedding in the payment
//! crate both drive this same core — one implementation, two transports.

use crate::msg::{
    propose_payload, sign_propose, sign_vote, vote_payload, ConsMsg, ProofOfLock, VoteKind,
    DOM_VOTE,
};
use anta::time::SimDuration;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use xcrypto::{KeyId, Pki, Signature, Signer, Verdict};

/// Static configuration of one consensus instance.
#[derive(Debug, Clone)]
pub struct Config {
    /// Distinguishes concurrent instances (e.g. one per payment).
    pub instance: u64,
    /// Committee member keys, in index order. `members.len() = n ≥ 3f+1`.
    pub members: Vec<KeyId>,
    /// Assumed maximum number of Byzantine members.
    pub f: usize,
    /// Base timeout unit; round `r` waits `(r+1)·base` per phase.
    pub base_timeout: SimDuration,
}

impl Config {
    /// Quorum size `n − f`: [`xcrypto::committee_quorum`], the threshold
    /// the committee's decision certificates verify under too.
    pub fn quorum(&self) -> usize {
        xcrypto::committee_quorum(self.n(), self.f)
    }

    /// Committee size.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// The leader of round `r` (round-robin rotation).
    pub fn leader(&self, round: u32) -> KeyId {
        self.members[round as usize % self.members.len()]
    }
}

/// Effects requested by the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Send to every committee member (the core already self-applied it).
    Broadcast(ConsMsg),
    /// Ask for `on_timeout(token)` after `after` of local time.
    Schedule {
        /// Timeout token handed back via on_timeout.
        token: u64,
        /// Local-time delay until the timeout fires.
        after: SimDuration,
    },
    /// The instance has decided (fires exactly once). The justifying
    /// precommit quorum travels in the `Decided` broadcast that follows.
    Decide {
        /// Consensus round number.
        round: u32,
        /// The decided value.
        value: Verdict,
    },
}

/// Phase markers inside a round, encoded into timeout tokens.
const PHASE_PROPOSE: u64 = 0;
const PHASE_PREVOTE: u64 = 1;
const PHASE_PRECOMMIT: u64 = 2;

fn token(round: u32, phase: u64) -> u64 {
    (round as u64) << 2 | phase
}

fn token_round(token: u64) -> u32 {
    (token >> 2) as u32
}

fn token_phase(token: u64) -> u64 {
    token & 0b11
}

#[derive(Debug, Clone, Hash)]
struct VoteRec {
    round: u32,
    signer: KeyId,
    value: Option<Verdict>,
    sig: Signature,
}

#[derive(Debug, Clone, Hash)]
struct Lock {
    round: u32,
    value: Verdict,
    /// The prevote quorum that justified this lock (becomes the PoL when
    /// this notary later leads a round).
    sigs: Vec<Signature>,
}

/// The notary core: decides χc or χa. The configuration, signer and key
/// registry are setup; everything else is run state, in `CoreState`, which
/// alone records the decision.
#[derive(Clone)]
pub struct NotaryCore {
    cfg: Config,
    signer: Signer,
    pki: Arc<Pki>,
    st: CoreState,
}

#[derive(Debug, Clone, Hash)]
struct CoreState {
    input: Verdict,
    round: u32,
    locked: Option<Lock>,
    /// Accepted proposal per round (leader-signed, lock-consistent).
    proposals: Vec<(u32, Verdict)>,
    prevotes: Vec<VoteRec>,
    precommits: Vec<VoteRec>,
    prevoted_rounds: Vec<u32>,
    precommitted_rounds: Vec<u32>,
    decided: Option<(u32, Verdict)>,
}

/// Manual impl: `signer` holds a secret key, so only the run state is
/// rendered — secrets must never reach a Debug rendering.
impl std::fmt::Debug for NotaryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotaryCore")
            .field("state", &self.st)
            .finish_non_exhaustive()
    }
}

/// The setup is fixed from construction on; the run state is hashed.
impl Hash for NotaryCore {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.st.hash(state);
    }
}

impl NotaryCore {
    /// Creates a notary with the given input value (its vote if nothing is
    /// locked yet).
    pub fn new(cfg: Config, signer: Signer, pki: Arc<Pki>, input: Verdict) -> Self {
        assert!(
            cfg.n() > 3 * cfg.f,
            "committee of {} cannot tolerate f = {}",
            cfg.n(),
            cfg.f
        );
        assert!(
            cfg.members.contains(&signer.id()),
            "signer must be a committee member"
        );
        NotaryCore {
            cfg,
            signer,
            pki,
            st: CoreState {
                input,
                round: 0,
                locked: None,
                proposals: Vec::new(),
                prevotes: Vec::new(),
                precommits: Vec::new(),
                prevoted_rounds: Vec::new(),
                precommitted_rounds: Vec::new(),
                decided: None,
            },
        }
    }

    /// The decided value, once any.
    pub fn decided(&self) -> Option<Verdict> {
        self.st.decided.map(|(_, v)| v)
    }

    /// The decision and the round it was decided in, once any.
    pub fn decision(&self) -> Option<(u32, Verdict)> {
        self.st.decided
    }

    /// Begins the instance (enters round 0).
    pub fn start(&mut self) -> Vec<Output> {
        let mut out = Vec::new();
        self.enter_round(0, &mut out);
        out
    }

    /// Handles a consensus message (sender identity comes from signatures,
    /// not transport).
    pub fn on_message(&mut self, msg: ConsMsg) -> Vec<Output> {
        let mut out = Vec::new();
        self.handle(msg, &mut out);
        out
    }

    /// Handles a timeout token previously scheduled.
    pub fn on_timeout(&mut self, tok: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if self.st.decided.is_some() {
            return out;
        }
        let r = token_round(tok);
        if r != self.st.round {
            return out; // stale timer from an earlier round
        }
        match token_phase(tok) {
            PHASE_PROPOSE => {
                // No acceptable proposal in time → prevote nil.
                if !self.st.prevoted_rounds.contains(&r) {
                    self.cast_prevote(r, None, &mut out);
                }
            }
            PHASE_PREVOTE => {
                // No prevote quorum in time → precommit nil.
                if !self.st.precommitted_rounds.contains(&r) {
                    self.cast_precommit(r, None, &mut out);
                }
            }
            PHASE_PRECOMMIT => {
                // Round expired without a decision → next round.
                self.enter_round(r + 1, &mut out);
            }
            _ => unreachable!("two-bit phase"),
        }
        out
    }

    fn phase_timeout(&self, round: u32, phase: u64) -> SimDuration {
        // Linearly growing timeouts: phase k of round r expires after
        // (k+1)·(r+1)·base — eventually exceeding any post-GST δ.
        self.cfg
            .base_timeout
            .saturating_mul((phase + 1) * (round as u64 + 1))
    }

    fn enter_round(&mut self, round: u32, out: &mut Vec<Output>) {
        self.st.round = round;
        for phase in [PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT] {
            out.push(Output::Schedule {
                token: token(round, phase),
                after: self.phase_timeout(round, phase),
            });
        }
        if self.cfg.leader(round) == self.signer.id() {
            // Propose the locked value if any (with its PoL), else my input.
            let (value, pol) = match &self.st.locked {
                Some(l) => (
                    l.value,
                    Some(ProofOfLock {
                        round: l.round,
                        value: l.value,
                        sigs: l.sigs.clone(),
                    }),
                ),
                None => (self.st.input, None),
            };
            let sig = sign_propose(
                &self.signer,
                self.cfg.instance,
                round,
                value,
                pol.as_ref().map(|p| p.round),
            );
            self.emit(
                ConsMsg::Propose {
                    round,
                    value,
                    pol,
                    sig,
                },
                out,
            );
        }
        // A proposal for this round may have arrived while we were in an
        // earlier round — buffered in `proposals`; prevote for it now.
        self.maybe_prevote_current(out);
        self.try_progress(out);
    }

    /// Broadcasts a message and applies it to self (committee semantics:
    /// a notary counts its own votes).
    fn emit(&mut self, msg: ConsMsg, out: &mut Vec<Output>) {
        out.push(Output::Broadcast(msg.clone()));
        self.handle(msg, out);
    }

    fn handle(&mut self, msg: ConsMsg, out: &mut Vec<Output>) {
        match msg {
            ConsMsg::Propose {
                round,
                value,
                pol,
                sig,
            } => self.on_propose(round, value, pol, sig, out),
            ConsMsg::Prevote { round, value, sig } => {
                self.on_vote(VoteKind::Prevote, round, value, sig, out)
            }
            ConsMsg::Precommit { round, value, sig } => {
                self.on_vote(VoteKind::Precommit, round, value, sig, out)
            }
            ConsMsg::Decided { round, value, sigs } => self.on_decided(round, value, sigs, out),
        }
    }

    fn on_propose(
        &mut self,
        round: u32,
        value: Verdict,
        pol: Option<ProofOfLock>,
        sig: Signature,
        out: &mut Vec<Output>,
    ) {
        if self.st.decided.is_some() || self.st.proposals.iter().any(|(r, _)| *r == round) {
            return;
        }
        // Authentic, from the right leader?
        if sig.signer != self.cfg.leader(round) {
            return;
        }
        let payload = propose_payload(
            self.cfg.instance,
            round,
            value,
            pol.as_ref().map(|p| p.round),
        );
        if !self.pki.verify(&sig, DOM_VOTE, &payload) {
            return;
        }
        // Acceptable w.r.t. my lock? An attached proof-of-lock must verify
        // even when I hold no lock: the transaction manager's validity gate
        // lets a proposal that carries one through.
        let acceptable = match (&self.st.locked, &pol) {
            (Some(l), _) if l.value == value => true,
            (None, None) => true,
            (None, Some(p)) => self.pol_valid(p, value),
            (Some(l), Some(p)) => p.round > l.round && self.pol_valid(p, value),
            (Some(_), None) => false,
        };
        if !acceptable {
            return;
        }
        self.st.proposals.push((round, value));
        self.maybe_prevote_current(out);
        self.try_progress(out);
    }

    /// Prevote for the current round's accepted proposal, if we have one
    /// and have not voted yet.
    fn maybe_prevote_current(&mut self, out: &mut Vec<Output>) {
        if self.st.decided.is_some() || self.st.prevoted_rounds.contains(&self.st.round) {
            return;
        }
        let Some(&(_, v)) = self.st.proposals.iter().find(|(r, _)| *r == self.st.round) else {
            return;
        };
        let round = self.st.round;
        self.cast_prevote(round, Some(v), out);
    }

    fn pol_valid(&self, pol: &ProofOfLock, proposed: Verdict) -> bool {
        if pol.value != proposed {
            return false;
        }
        let payload = vote_payload(
            self.cfg.instance,
            VoteKind::Prevote,
            pol.round,
            Some(pol.value),
        );
        self.pki.verify_quorum(
            &pol.sigs,
            DOM_VOTE,
            &payload,
            &self.cfg.members,
            self.cfg.quorum(),
        )
    }

    fn cast_prevote(&mut self, round: u32, value: Option<Verdict>, out: &mut Vec<Output>) {
        self.st.prevoted_rounds.push(round);
        let sig = sign_vote(
            &self.signer,
            self.cfg.instance,
            VoteKind::Prevote,
            round,
            value,
        );
        self.emit(ConsMsg::Prevote { round, value, sig }, out);
    }

    fn cast_precommit(&mut self, round: u32, value: Option<Verdict>, out: &mut Vec<Output>) {
        self.st.precommitted_rounds.push(round);
        let sig = sign_vote(
            &self.signer,
            self.cfg.instance,
            VoteKind::Precommit,
            round,
            value,
        );
        self.emit(ConsMsg::Precommit { round, value, sig }, out);
    }

    fn on_vote(
        &mut self,
        kind: VoteKind,
        round: u32,
        value: Option<Verdict>,
        sig: Signature,
        out: &mut Vec<Output>,
    ) {
        if self.st.decided.is_some() {
            return;
        }
        if !self.cfg.members.contains(&sig.signer) {
            return;
        }
        let store = match kind {
            VoteKind::Prevote => &self.st.prevotes,
            VoteKind::Precommit => &self.st.precommits,
        };
        // One vote per (kind, round, signer): equivocation is simply not
        // double-counted (first vote wins; cheap Byzantine containment).
        if store
            .iter()
            .any(|v| v.round == round && v.signer == sig.signer)
        {
            return;
        }
        let payload = vote_payload(self.cfg.instance, kind, round, value);
        if !self.pki.verify(&sig, DOM_VOTE, &payload) {
            return;
        }
        let rec = VoteRec {
            round,
            signer: sig.signer,
            value,
            sig,
        };
        match kind {
            VoteKind::Prevote => self.st.prevotes.push(rec),
            VoteKind::Precommit => self.st.precommits.push(rec),
        }
        self.try_progress(out);
    }

    fn on_decided(
        &mut self,
        round: u32,
        value: Verdict,
        sigs: Vec<Signature>,
        out: &mut Vec<Output>,
    ) {
        if self.st.decided.is_some() {
            return;
        }
        let payload = vote_payload(self.cfg.instance, VoteKind::Precommit, round, Some(value));
        if self.pki.verify_quorum(
            &sigs,
            DOM_VOTE,
            &payload,
            &self.cfg.members,
            self.cfg.quorum(),
        ) {
            self.decide(round, value, sigs, out);
        }
    }

    /// Checks all quorum conditions after any state change.
    fn try_progress(&mut self, out: &mut Vec<Output>) {
        if self.st.decided.is_some() {
            return;
        }
        // 1. A precommit quorum for a value at any round decides.
        if let Some((r, v, sigs)) = self.find_value_quorum(&self.st.precommits) {
            self.decide(r, v, sigs, out);
            return;
        }
        // 2. A prevote quorum for a value at my current round: lock it and
        //    precommit (once per round).
        if !self.st.precommitted_rounds.contains(&self.st.round) {
            if let Some((r, v, sigs)) = self.find_value_quorum_at(&self.st.prevotes, self.st.round)
            {
                let better = self.st.locked.as_ref().map_or(true, |l| r >= l.round);
                if better {
                    self.st.locked = Some(Lock {
                        round: r,
                        value: v,
                        sigs,
                    });
                }
                let round = self.st.round;
                self.cast_precommit(round, Some(v), out);
            }
        }
        // 3. A full quorum of precommits at my round (mixed values / nils)
        //    without a decision: the round is dead — advance early.
        let at_round = self
            .st
            .precommits
            .iter()
            .filter(|p| p.round == self.st.round)
            .count();
        if at_round >= self.cfg.quorum() && self.st.precommitted_rounds.contains(&self.st.round) {
            let next = self.st.round + 1;
            self.enter_round(next, out);
            return;
        }
        // 4. f+1 distinct voters in a higher round: they can't all be lying
        //    — jump forward (catch-up after partition).
        let mut higher: Vec<(u32, KeyId)> = self
            .st
            .prevotes
            .iter()
            .chain(self.st.precommits.iter())
            .filter(|v| v.round > self.st.round)
            .map(|v| (v.round, v.signer))
            .collect();
        higher.sort();
        higher.dedup();
        if higher.len() > self.cfg.f {
            let target = higher.iter().map(|(r, _)| *r).min().expect("nonempty");
            self.enter_round(target, out);
        }
    }

    /// Finds a same-value quorum at any round (highest round wins).
    fn find_value_quorum(&self, votes: &[VoteRec]) -> Option<(u32, Verdict, Vec<Signature>)> {
        let mut rounds: Vec<u32> = votes.iter().map(|v| v.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        for &r in rounds.iter().rev() {
            if let Some(hit) = self.find_value_quorum_at(votes, r) {
                return Some(hit);
            }
        }
        None
    }

    fn find_value_quorum_at(
        &self,
        votes: &[VoteRec],
        round: u32,
    ) -> Option<(u32, Verdict, Vec<Signature>)> {
        let at: Vec<&VoteRec> = votes
            .iter()
            .filter(|v| v.round == round && v.value.is_some())
            .collect();
        for candidate in &at {
            let sigs: Vec<Signature> = at
                .iter()
                .filter(|rec| rec.value == candidate.value)
                .map(|rec| rec.sig)
                .collect();
            if sigs.len() >= self.cfg.quorum() {
                return Some((round, candidate.value.expect("filtered"), sigs));
            }
        }
        None
    }

    /// Runs once: every caller returns early once `decided` is set.
    fn decide(&mut self, round: u32, value: Verdict, sigs: Vec<Signature>, out: &mut Vec<Output>) {
        self.st.decided = Some((round, value));
        out.push(Output::Decide { round, value });
        out.push(Output::Broadcast(ConsMsg::Decided { round, value, sigs }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, f: usize) -> (Arc<Pki>, Vec<Signer>, Config) {
        let mut pki = Pki::new(99);
        let pairs = pki.register_many(n);
        let members: Vec<KeyId> = pairs.iter().map(|(k, _)| *k).collect();
        let signers: Vec<Signer> = pairs.into_iter().map(|(_, s)| s).collect();
        let cfg = Config {
            instance: 1,
            members,
            f,
            base_timeout: SimDuration::from_millis(10),
        };
        (Arc::new(pki), signers, cfg)
    }

    /// Drives a set of cores to quiescence by synchronously delivering all
    /// broadcasts (no timeouts fire). Returns outputs count processed.
    fn pump(cores: &mut [NotaryCore], mut inbox: Vec<(usize, ConsMsg)>) {
        let mut guard = 0;
        while let Some((origin, msg)) = inbox.pop() {
            guard += 1;
            assert!(guard < 100_000, "message storm");
            for (i, core) in cores.iter_mut().enumerate() {
                if i == origin {
                    continue;
                }
                for o in core.on_message(msg.clone()) {
                    if let Output::Broadcast(m) = o {
                        inbox.push((i, m));
                    }
                }
            }
        }
    }

    fn start_all(cores: &mut [NotaryCore]) -> Vec<(usize, ConsMsg)> {
        let mut inbox = Vec::new();
        for (i, core) in cores.iter_mut().enumerate() {
            for o in core.start() {
                if let Output::Broadcast(m) = o {
                    inbox.push((i, m));
                }
            }
        }
        inbox
    }

    #[test]
    fn unanimous_committee_decides_leader_value() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut cores: Vec<NotaryCore> = signers
            .iter()
            .map(|s| NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), Verdict::Commit))
            .collect();
        let inbox = start_all(&mut cores);
        pump(&mut cores, inbox);
        for (i, c) in cores.iter().enumerate() {
            assert_eq!(c.decided(), Some(Verdict::Commit), "notary {i} undecided");
        }
    }

    #[test]
    fn split_inputs_still_agree() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut cores: Vec<NotaryCore> = signers
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let input = [Verdict::Commit, Verdict::Abort][i % 2];
                NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), input)
            })
            .collect();
        let inbox = start_all(&mut cores);
        pump(&mut cores, inbox);
        let decisions: Vec<Option<Verdict>> = cores.iter().map(|c| c.decided()).collect();
        let first = decisions[0].expect("decided");
        for d in &decisions {
            assert_eq!(d.unwrap(), first, "agreement violated: {decisions:?}");
        }
    }

    #[test]
    fn stale_timeouts_ignored() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg, signers[1].clone(), pki, Verdict::Commit);
        let _ = core.start();
        // Round advances to 2 via catch-up; then an old round-0 token fires.
        let out = core.on_timeout(token(5, PHASE_PRECOMMIT));
        assert!(out.is_empty(), "stale round token must be inert");
    }

    #[test]
    fn equivocating_votes_not_double_counted() {
        let (pki, signers, cfg) = setup(4, 1);
        // Core 3 receives two conflicting prevotes from signer 0 at round 0;
        // only the first is stored.
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, Verdict::Commit);
        let _ = core.start();
        let s0 = &signers[0];
        let v1 = ConsMsg::Prevote {
            round: 0,
            value: Some(Verdict::Commit),
            sig: sign_vote(
                s0,
                cfg.instance,
                VoteKind::Prevote,
                0,
                Some(Verdict::Commit),
            ),
        };
        let v2 = ConsMsg::Prevote {
            round: 0,
            value: Some(Verdict::Abort),
            sig: sign_vote(s0, cfg.instance, VoteKind::Prevote, 0, Some(Verdict::Abort)),
        };
        let _ = core.on_message(v1);
        let _ = core.on_message(v2);
        assert_eq!(
            core.st
                .prevotes
                .iter()
                .filter(|v| v.signer == s0.id())
                .count(),
            1
        );
    }

    #[test]
    fn forged_votes_rejected() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(
            cfg.clone(),
            signers[3].clone(),
            pki.clone(),
            Verdict::Commit,
        );
        let _ = core.start();
        // Signature over a different value than claimed.
        let bad = ConsMsg::Prevote {
            round: 0,
            value: Some(Verdict::Commit),
            sig: sign_vote(
                &signers[0],
                cfg.instance,
                VoteKind::Prevote,
                0,
                Some(Verdict::Abort),
            ),
        };
        let _ = core.on_message(bad);
        assert!(core.st.prevotes.iter().all(|v| v.signer != signers[0].id()));
        // Outsider key.
        let mut pki2 = Pki::new(1234);
        let (_, outsider) = pki2.register();
        let alien = ConsMsg::Prevote {
            round: 0,
            value: Some(Verdict::Commit),
            sig: sign_vote(
                &outsider,
                cfg.instance,
                VoteKind::Prevote,
                0,
                Some(Verdict::Commit),
            ),
        };
        let _ = core.on_message(alien);
        assert!(core.st.prevotes.iter().all(|v| v.signer != outsider.id()));
    }

    /// A committee of `k` whose round-0 leader (member 0) is Byzantine and
    /// whose honest members are cut into two groups that do not hear each
    /// other: the leader proposes, prevotes and precommits χc to `group_c`
    /// and χa to the rest. Returns each honest member's decision.
    fn split_by_a_byzantine_leader(k: usize, group_c: usize) -> Vec<Option<Verdict>> {
        let f = (k - 1) / 3;
        let (pki, signers, cfg) = setup(k, f);
        let leader = &signers[0];
        let mut cores: Vec<NotaryCore> = signers[1..]
            .iter()
            .map(|s| NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), Verdict::Commit))
            .collect();
        let group = |i: usize| i < group_c;
        let mut inbox = start_all(&mut cores);
        for (i, core) in cores.iter_mut().enumerate() {
            let value = if group(i) {
                Verdict::Commit
            } else {
                Verdict::Abort
            };
            let vote = |kind| sign_vote(leader, cfg.instance, kind, 0, Some(value));
            let from_leader = [
                ConsMsg::Propose {
                    round: 0,
                    value,
                    pol: None,
                    sig: sign_propose(leader, cfg.instance, 0, value, None),
                },
                ConsMsg::Prevote {
                    round: 0,
                    value: Some(value),
                    sig: vote(VoteKind::Prevote),
                },
                ConsMsg::Precommit {
                    round: 0,
                    value: Some(value),
                    sig: vote(VoteKind::Precommit),
                },
            ];
            for msg in from_leader {
                for o in core.on_message(msg) {
                    if let Output::Broadcast(m) = o {
                        inbox.push((i, m));
                    }
                }
            }
        }
        // Deliver every honest broadcast within its sender's group only.
        while let Some((origin, msg)) = inbox.pop() {
            for (i, core) in cores.iter_mut().enumerate() {
                if i == origin || group(i) != group(origin) {
                    continue;
                }
                for o in core.on_message(msg.clone()) {
                    if let Output::Broadcast(m) = o {
                        inbox.push((i, m));
                    }
                }
            }
        }
        cores.iter().map(NotaryCore::decided).collect()
    }

    #[test]
    fn a_byzantine_leader_cannot_split_a_committee() {
        for (k, group_c) in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)] {
            let decided = split_by_a_byzantine_leader(k, group_c);
            let both = [Verdict::Commit, Verdict::Abort]
                .iter()
                .all(|v| decided.contains(&Some(*v)));
            assert!(!both, "k = {k}: honest notaries decided {decided:?}");
        }
    }

    #[test]
    fn decided_message_with_quorum_convinces() {
        let (pki, signers, cfg) = setup(4, 1);
        // The quorum's value is not the core's input: the core adopts it.
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, Verdict::Abort);
        let _ = core.start();
        let payload_val = Verdict::Commit;
        let sigs: Vec<Signature> = signers
            .iter()
            .take(3)
            .map(|s| sign_vote(s, cfg.instance, VoteKind::Precommit, 5, Some(payload_val)))
            .collect();
        let out = core.on_message(ConsMsg::Decided {
            round: 5,
            value: payload_val,
            sigs,
        });
        assert_eq!(core.decided(), Some(Verdict::Commit));
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Decide {
                value: Verdict::Commit,
                ..
            }
        )));
    }

    #[test]
    fn decided_message_without_quorum_ignored() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, Verdict::Abort);
        let _ = core.start();
        let sigs: Vec<Signature> = signers
            .iter()
            .take(2) // below the quorum, 3
            .map(|s| {
                sign_vote(
                    s,
                    cfg.instance,
                    VoteKind::Precommit,
                    5,
                    Some(Verdict::Commit),
                )
            })
            .collect();
        let _ = core.on_message(ConsMsg::Decided {
            round: 5,
            value: Verdict::Commit,
            sigs,
        });
        assert_eq!(core.decided(), None);
    }

    #[test]
    #[should_panic(expected = "cannot tolerate")]
    fn undersized_committee_rejected() {
        let (pki, signers, mut cfg) = setup(4, 1);
        cfg.f = 2; // would need n ≥ 7
        let _ = NotaryCore::new(cfg, signers[0].clone(), pki, Verdict::Commit);
    }

    #[test]
    fn forged_proof_of_lock_rejected() {
        // A Byzantine leader of round 1 proposes a value with a PoL built
        // from too few / invalid signatures; a follower locked on a
        // different value must not accept it.
        let (pki, signers, cfg) = setup(4, 1);
        let (commit, abort) = (Verdict::Commit, Verdict::Abort);
        let mut core = NotaryCore::new(cfg.clone(), signers[2].clone(), pki.clone(), commit);
        let _ = core.start();
        // Lock core on χc at round 0 via a genuine prevote quorum.
        for s in signers.iter().take(3) {
            let _ = core.on_message(ConsMsg::Prevote {
                round: 0,
                value: Some(commit),
                sig: sign_vote(s, cfg.instance, VoteKind::Prevote, 0, Some(commit)),
            });
        }
        assert!(core.st.locked.is_some(), "prevote quorum must lock");
        // Round 1 leader (member 1) proposes χa with a bogus PoL: only one
        // signature, and over the wrong value.
        let bogus_pol = crate::msg::ProofOfLock {
            round: 2,
            value: abort,
            sigs: vec![sign_vote(
                &signers[0],
                cfg.instance,
                VoteKind::Prevote,
                2,
                Some(commit),
            )],
        };
        let sig = crate::msg::sign_propose(&signers[1], cfg.instance, 1, abort, Some(2));
        let bogus = ConsMsg::Propose {
            round: 1,
            value: abort,
            pol: Some(bogus_pol),
            sig,
        };
        let _ = core.on_message(bogus.clone());
        assert!(
            core.st.proposals.iter().all(|(r, _)| *r != 1),
            "proposal with forged PoL must be rejected"
        );
        // A follower with no lock rejects it too.
        let mut unlocked = NotaryCore::new(cfg.clone(), signers[3].clone(), pki.clone(), commit);
        let _ = unlocked.start();
        let _ = unlocked.on_message(bogus);
        assert!(
            unlocked.st.proposals.iter().all(|(r, _)| *r != 1),
            "an unlocked follower must reject a forged PoL"
        );
        // A genuine PoL for χa at a higher round IS accepted.
        let payload_sigs: Vec<Signature> = signers
            .iter()
            .take(3)
            .map(|s| sign_vote(s, cfg.instance, VoteKind::Prevote, 2, Some(abort)))
            .collect();
        let good_pol = crate::msg::ProofOfLock {
            round: 2,
            value: abort,
            sigs: payload_sigs,
        };
        // Jump the core to round 3 so member 3 leads… simpler: leader of
        // round 1 re-proposes with the valid PoL.
        let sig2 = crate::msg::sign_propose(&signers[1], cfg.instance, 1, abort, Some(2));
        let _ = core.on_message(ConsMsg::Propose {
            round: 1,
            value: abort,
            pol: Some(good_pol),
            sig: sig2,
        });
        assert!(
            core.st
                .proposals
                .iter()
                .any(|(r, v)| *r == 1 && *v == abort),
            "valid higher-round PoL must unlock acceptance"
        );
    }

    #[test]
    fn token_encoding_roundtrips() {
        for r in [0u32, 1, 77, 10_000] {
            for p in [PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT] {
                let t = token(r, p);
                assert_eq!(token_round(t), r);
                assert_eq!(token_phase(t), p);
            }
        }
    }
}
