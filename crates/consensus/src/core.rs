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
//!   `2f+1`; two quorums intersect in an honest notary, and re-proposals
//!   must carry a verifiable proof-of-lock, so a decided value can never
//!   lose its lock.
//! * **Validity** — honest notaries only prevote values passing the
//!   pluggable validity predicate, so only valid values can gather a
//!   quorum (external validity, which is what the transaction manager
//!   needs: χc only with all locks + Bob's acceptance in evidence).
//! * **Termination after GST** — timeouts grow linearly with the round
//!   number, so once the network stabilises, the first honest leader's
//!   round completes within its timeouts and every honest notary decides.
//!
//! The state machine is deliberately IO-free: it consumes messages and
//! timeout tokens and emits [`Output`]s. The engine adapter in
//! [`crate::process`] and the transaction-manager embedding in the payment
//! crate both drive this same core — one implementation, two transports.

use crate::msg::{
    fingerprint_sigs, propose_payload, sign_propose, sign_vote, vote_payload, ConsMsg,
    ConsensusValue, ProofOfLock, VoteKind, DOM_VOTE,
};
use anta::fingerprint::{fingerprint_seq, Fingerprint, Fnv64};
use anta::time::SimDuration;
use std::sync::Arc;
use xcrypto::{KeyId, Pki, Signature, Signer};

/// Static configuration of one consensus instance.
#[derive(Clone)]
pub struct Config<V> {
    /// Distinguishes concurrent instances (e.g. one per payment).
    pub instance: u64,
    /// Committee member keys, in index order. `members.len() = n ≥ 3f+1`.
    pub members: Vec<KeyId>,
    /// Assumed maximum number of Byzantine members.
    pub f: usize,
    /// Base timeout unit; round `r` waits `(r+1)·base` per phase.
    pub base_timeout: SimDuration,
    /// External validity predicate: honest notaries only prevote values
    /// satisfying it.
    pub validity: Arc<dyn Fn(&V) -> bool + Send + Sync>,
}

/// Manual impl: the external validity predicate is a closure and is elided
/// — configuration is immutable, so nothing behaviour-relevant to the
/// engine's fingerprinting contract is lost.
impl<V> std::fmt::Debug for Config<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Config")
            .field("instance", &self.instance)
            .field("members", &self.members)
            .field("f", &self.f)
            .field("base_timeout", &self.base_timeout)
            .finish_non_exhaustive()
    }
}

impl<V> Config<V> {
    /// Quorum size `2f+1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
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
pub enum Output<V> {
    /// Send to every committee member (the core already self-applied it).
    Broadcast(ConsMsg<V>),
    /// Ask for `on_timeout(token)` after `after` of local time.
    Schedule {
        /// Timeout token handed back via on_timeout.
        token: u64,
        /// Local-time delay until the timeout fires.
        after: SimDuration,
    },
    /// The instance has decided (fires exactly once).
    Decide {
        /// Consensus round number.
        round: u32,
        /// Annotation value / voted value, per context.
        value: V,
        /// Justifying signatures.
        sigs: Vec<Signature>,
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

#[derive(Debug, Clone)]
struct VoteRec<V> {
    round: u32,
    signer: KeyId,
    value: Option<V>,
    sig: Signature,
}

#[derive(Debug, Clone)]
struct Lock<V> {
    round: u32,
    value: V,
    /// The prevote quorum that justified this lock (becomes the PoL when
    /// this notary later leads a round).
    sigs: Vec<Signature>,
}

/// The notary core. Generic over the decided value type.
#[derive(Clone)]
pub struct NotaryCore<V> {
    cfg: Config<V>,
    signer: Signer,
    pki: Arc<Pki>,
    input: V,
    round: u32,
    locked: Option<Lock<V>>,
    /// Accepted proposal per round (leader-signed, validity-checked).
    proposals: Vec<(u32, V)>,
    prevotes: Vec<VoteRec<V>>,
    precommits: Vec<VoteRec<V>>,
    prevoted_rounds: Vec<u32>,
    precommitted_rounds: Vec<u32>,
    decided: Option<(u32, V)>,
    decision_broadcast: bool,
}

/// Manual impl: all mutable protocol state is rendered; `cfg`, `signer`,
/// and `pki` are shared immutable configuration (and hold closures/secret
/// keys) so they are elided — secrets must never reach a Debug rendering.
impl<V: ConsensusValue> std::fmt::Debug for NotaryCore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotaryCore")
            .field("input", &self.input)
            .field("round", &self.round)
            .field("locked", &self.locked)
            .field("proposals", &self.proposals)
            .field("prevotes", &self.prevotes)
            .field("precommits", &self.precommits)
            .field("prevoted_rounds", &self.prevoted_rounds)
            .field("precommitted_rounds", &self.precommitted_rounds)
            .field("decided", &self.decided)
            .field("decision_broadcast", &self.decision_broadcast)
            .finish()
    }
}

impl<V: ConsensusValue> Fingerprint for VoteRec<V> {
    fn fingerprint(&self, h: &mut Fnv64) {
        let VoteRec {
            round,
            signer,
            value,
            sig,
        } = self;
        let value = value.as_ref().map(V::encode);
        (round, signer.0, value, sig.signer.0, sig.tag).fingerprint(h);
    }
}

impl<V: ConsensusValue> Fingerprint for Lock<V> {
    fn fingerprint(&self, h: &mut Fnv64) {
        let Lock { round, value, sigs } = self;
        (round, value.encode()).fingerprint(h);
        fingerprint_sigs(sigs, h);
    }
}

/// The configuration, signer and key registry are wiring; every other
/// field is protocol state. Values enter through their canonical
/// [`ConsensusValue::encode`] bytes.
impl<V: ConsensusValue> Fingerprint for NotaryCore<V> {
    fn fingerprint(&self, h: &mut Fnv64) {
        let NotaryCore {
            cfg: _,
            signer: _,
            pki: _,
            input,
            round,
            locked,
            proposals,
            prevotes,
            precommits,
            prevoted_rounds,
            precommitted_rounds,
            decided,
            decision_broadcast,
        } = self;
        (input.encode(), round, locked, prevotes, precommits).fingerprint(h);
        fingerprint_seq(proposals.iter().map(|(r, v)| (r, v.encode())), h);
        let decided = decided.as_ref().map(|(r, v)| (r, v.encode()));
        (
            prevoted_rounds,
            precommitted_rounds,
            decided,
            decision_broadcast,
        )
            .fingerprint(h);
    }
}

impl<V: ConsensusValue> NotaryCore<V> {
    /// Creates a notary with the given input value (its vote if nothing is
    /// locked yet).
    pub fn new(cfg: Config<V>, signer: Signer, pki: Arc<Pki>, input: V) -> Self {
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
            input,
            round: 0,
            locked: None,
            proposals: Vec::new(),
            prevotes: Vec::new(),
            precommits: Vec::new(),
            prevoted_rounds: Vec::new(),
            precommitted_rounds: Vec::new(),
            decided: None,
            decision_broadcast: false,
        }
    }

    /// The decided value, once any.
    pub fn decided(&self) -> Option<&V> {
        self.decided.as_ref().map(|(_, v)| v)
    }

    /// Current round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Begins the instance (enters round 0).
    pub fn start(&mut self) -> Vec<Output<V>> {
        let mut out = Vec::new();
        self.enter_round(0, &mut out);
        out
    }

    /// Handles a consensus message (sender identity comes from signatures,
    /// not transport).
    pub fn on_message(&mut self, msg: ConsMsg<V>) -> Vec<Output<V>> {
        let mut out = Vec::new();
        self.handle(msg, &mut out);
        out
    }

    /// Handles a timeout token previously scheduled.
    pub fn on_timeout(&mut self, tok: u64) -> Vec<Output<V>> {
        let mut out = Vec::new();
        if self.decided.is_some() {
            return out;
        }
        let r = token_round(tok);
        if r != self.round {
            return out; // stale timer from an earlier round
        }
        match token_phase(tok) {
            PHASE_PROPOSE => {
                // No acceptable proposal in time → prevote nil.
                if !self.prevoted_rounds.contains(&r) {
                    self.cast_prevote(r, None, &mut out);
                }
            }
            PHASE_PREVOTE => {
                // No prevote quorum in time → precommit nil.
                if !self.precommitted_rounds.contains(&r) {
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

    fn enter_round(&mut self, round: u32, out: &mut Vec<Output<V>>) {
        self.round = round;
        for phase in [PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT] {
            out.push(Output::Schedule {
                token: token(round, phase),
                after: self.phase_timeout(round, phase),
            });
        }
        if self.cfg.leader(round) == self.signer.id() {
            // Propose the locked value if any (with its PoL), else my input.
            let (value, pol) = match &self.locked {
                Some(l) => (
                    l.value.clone(),
                    Some(ProofOfLock {
                        round: l.round,
                        value: l.value.clone(),
                        sigs: l.sigs.clone(),
                    }),
                ),
                None => (self.input.clone(), None),
            };
            let sig = sign_propose(
                &self.signer,
                self.cfg.instance,
                round,
                &value,
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
    fn emit(&mut self, msg: ConsMsg<V>, out: &mut Vec<Output<V>>) {
        out.push(Output::Broadcast(msg.clone()));
        self.handle(msg, out);
    }

    fn handle(&mut self, msg: ConsMsg<V>, out: &mut Vec<Output<V>>) {
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
        value: V,
        pol: Option<ProofOfLock<V>>,
        sig: Signature,
        out: &mut Vec<Output<V>>,
    ) {
        if self.decided.is_some() || self.proposals.iter().any(|(r, _)| *r == round) {
            return;
        }
        // Authentic, from the right leader?
        if sig.signer != self.cfg.leader(round) {
            return;
        }
        let payload = propose_payload(
            self.cfg.instance,
            round,
            &value,
            pol.as_ref().map(|p| p.round),
        );
        if !self.pki.verify(&sig, DOM_VOTE, &payload) {
            return;
        }
        // Externally valid?
        if !(self.cfg.validity)(&value) {
            return;
        }
        // Acceptable w.r.t. my lock?
        let acceptable = match (&self.locked, &pol) {
            (None, _) => true,
            (Some(l), _) if l.value == value => true,
            (Some(l), Some(p)) => p.round > l.round && self.pol_valid(p, &value),
            (Some(_), None) => false,
        };
        if !acceptable {
            return;
        }
        self.proposals.push((round, value));
        self.maybe_prevote_current(out);
        self.try_progress(out);
    }

    /// Prevote for the current round's accepted proposal, if we have one
    /// and have not voted yet.
    fn maybe_prevote_current(&mut self, out: &mut Vec<Output<V>>) {
        if self.decided.is_some() || self.prevoted_rounds.contains(&self.round) {
            return;
        }
        let Some((_, v)) = self.proposals.iter().find(|(r, _)| *r == self.round) else {
            return;
        };
        let v = v.clone();
        let round = self.round;
        self.cast_prevote(round, Some(v), out);
    }

    fn pol_valid(&self, pol: &ProofOfLock<V>, proposed: &V) -> bool {
        if pol.value != *proposed {
            return false;
        }
        let payload = vote_payload(
            self.cfg.instance,
            VoteKind::Prevote,
            pol.round,
            Some(&pol.value),
        );
        self.pki.verify_quorum(
            &pol.sigs,
            DOM_VOTE,
            &payload,
            &self.cfg.members,
            self.cfg.quorum(),
        )
    }

    fn cast_prevote(&mut self, round: u32, value: Option<V>, out: &mut Vec<Output<V>>) {
        self.prevoted_rounds.push(round);
        let sig = sign_vote(
            &self.signer,
            self.cfg.instance,
            VoteKind::Prevote,
            round,
            value.as_ref(),
        );
        self.emit(ConsMsg::Prevote { round, value, sig }, out);
    }

    fn cast_precommit(&mut self, round: u32, value: Option<V>, out: &mut Vec<Output<V>>) {
        self.precommitted_rounds.push(round);
        let sig = sign_vote(
            &self.signer,
            self.cfg.instance,
            VoteKind::Precommit,
            round,
            value.as_ref(),
        );
        self.emit(ConsMsg::Precommit { round, value, sig }, out);
    }

    fn on_vote(
        &mut self,
        kind: VoteKind,
        round: u32,
        value: Option<V>,
        sig: Signature,
        out: &mut Vec<Output<V>>,
    ) {
        if self.decided.is_some() {
            return;
        }
        if !self.cfg.members.contains(&sig.signer) {
            return;
        }
        let store = match kind {
            VoteKind::Prevote => &self.prevotes,
            VoteKind::Precommit => &self.precommits,
        };
        // One vote per (kind, round, signer): equivocation is simply not
        // double-counted (first vote wins; cheap Byzantine containment).
        if store
            .iter()
            .any(|v| v.round == round && v.signer == sig.signer)
        {
            return;
        }
        let payload = vote_payload(self.cfg.instance, kind, round, value.as_ref());
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
            VoteKind::Prevote => self.prevotes.push(rec),
            VoteKind::Precommit => self.precommits.push(rec),
        }
        self.try_progress(out);
    }

    fn on_decided(&mut self, round: u32, value: V, sigs: Vec<Signature>, out: &mut Vec<Output<V>>) {
        if self.decided.is_some() {
            return;
        }
        let payload = vote_payload(self.cfg.instance, VoteKind::Precommit, round, Some(&value));
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
    fn try_progress(&mut self, out: &mut Vec<Output<V>>) {
        if self.decided.is_some() {
            return;
        }
        // 1. A precommit quorum for a value at any round decides.
        if let Some((r, v, sigs)) = self.find_value_quorum(&self.precommits) {
            self.decide(r, v, sigs, out);
            return;
        }
        // 2. A prevote quorum for a value at my current round: lock it and
        //    precommit (once per round).
        if !self.precommitted_rounds.contains(&self.round) {
            if let Some((r, v, sigs)) = self.find_value_quorum_at(&self.prevotes, self.round) {
                let better = self.locked.as_ref().map_or(true, |l| r >= l.round);
                if better {
                    self.locked = Some(Lock {
                        round: r,
                        value: v.clone(),
                        sigs,
                    });
                }
                let round = self.round;
                self.cast_precommit(round, Some(v), out);
            }
        }
        // 3. A full quorum of precommits at my round (mixed values / nils)
        //    without a decision: the round is dead — advance early.
        let at_round = self
            .precommits
            .iter()
            .filter(|p| p.round == self.round)
            .count();
        if at_round >= self.cfg.quorum() && self.precommitted_rounds.contains(&self.round) {
            let next = self.round + 1;
            self.enter_round(next, out);
            return;
        }
        // 4. f+1 distinct voters in a higher round: they can't all be lying
        //    — jump forward (catch-up after partition).
        let mut higher: Vec<(u32, KeyId)> = self
            .prevotes
            .iter()
            .chain(self.precommits.iter())
            .filter(|v| v.round > self.round)
            .map(|v| (v.round, v.signer))
            .collect();
        higher.sort();
        higher.dedup();
        if higher.len() > self.cfg.f {
            let target = higher.iter().map(|(r, _)| *r).min().expect("nonempty");
            self.enter_round(target, out);
        }
    }

    /// Finds a `2f+1` same-value quorum at any round (highest round wins).
    fn find_value_quorum(&self, votes: &[VoteRec<V>]) -> Option<(u32, V, Vec<Signature>)> {
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
        votes: &[VoteRec<V>],
        round: u32,
    ) -> Option<(u32, V, Vec<Signature>)> {
        let at: Vec<&VoteRec<V>> = votes
            .iter()
            .filter(|v| v.round == round && v.value.is_some())
            .collect();
        for candidate in &at {
            let v = candidate.value.as_ref().expect("filtered");
            let sigs: Vec<Signature> = at
                .iter()
                .filter(|rec| rec.value.as_ref() == Some(v))
                .map(|rec| rec.sig)
                .collect();
            if sigs.len() >= self.cfg.quorum() {
                return Some((round, v.clone(), sigs));
            }
        }
        None
    }

    fn decide(&mut self, round: u32, value: V, sigs: Vec<Signature>, out: &mut Vec<Output<V>>) {
        self.decided = Some((round, value.clone()));
        out.push(Output::Decide {
            round,
            value: value.clone(),
            sigs: sigs.clone(),
        });
        if !self.decision_broadcast {
            self.decision_broadcast = true;
            out.push(Output::Broadcast(ConsMsg::Decided { round, value, sigs }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, f: usize) -> (Arc<Pki>, Vec<Signer>, Config<u64>) {
        let mut pki = Pki::new(99);
        let pairs = pki.register_many(n);
        let members: Vec<KeyId> = pairs.iter().map(|(k, _)| *k).collect();
        let signers: Vec<Signer> = pairs.into_iter().map(|(_, s)| s).collect();
        let cfg = Config {
            instance: 1,
            members,
            f,
            base_timeout: SimDuration::from_millis(10),
            validity: Arc::new(|_| true),
        };
        (Arc::new(pki), signers, cfg)
    }

    /// Drives a set of cores to quiescence by synchronously delivering all
    /// broadcasts (no timeouts fire). Returns outputs count processed.
    fn pump(cores: &mut [NotaryCore<u64>], mut inbox: Vec<(usize, ConsMsg<u64>)>) {
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

    fn start_all(cores: &mut [NotaryCore<u64>]) -> Vec<(usize, ConsMsg<u64>)> {
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
        let mut cores: Vec<NotaryCore<u64>> = signers
            .iter()
            .map(|s| NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), 7))
            .collect();
        let inbox = start_all(&mut cores);
        pump(&mut cores, inbox);
        for (i, c) in cores.iter().enumerate() {
            assert_eq!(c.decided(), Some(&7), "notary {i} undecided");
        }
    }

    #[test]
    fn split_inputs_still_agree() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut cores: Vec<NotaryCore<u64>> = signers
            .iter()
            .enumerate()
            .map(|(i, s)| NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), i as u64 % 2))
            .collect();
        let inbox = start_all(&mut cores);
        pump(&mut cores, inbox);
        let decisions: Vec<Option<&u64>> = cores.iter().map(|c| c.decided()).collect();
        let first = decisions[0].expect("decided");
        for d in &decisions {
            assert_eq!(d.unwrap(), first, "agreement violated: {decisions:?}");
        }
    }

    #[test]
    fn validity_predicate_blocks_invalid_values() {
        let (pki, signers, mut cfg) = setup(4, 1);
        cfg.validity = Arc::new(|v: &u64| *v < 100);
        // Leader of round 0 proposes an invalid value (input 500); nobody
        // prevotes it, the round times out, round 1's leader (input 7) wins.
        let inputs = [500u64, 7, 7, 7];
        let mut cores: Vec<NotaryCore<u64>> = signers
            .iter()
            .zip(inputs)
            .map(|(s, inp)| NotaryCore::new(cfg.clone(), s.clone(), pki.clone(), inp))
            .collect();
        let inbox = start_all(&mut cores);
        pump(&mut cores, inbox);
        // Nobody decided yet (round 0 stalls without timeouts firing).
        assert!(cores.iter().all(|c| c.decided().is_none()));
        // Fire round-0 timeouts on everyone: propose, prevote, precommit.
        let mut inbox = Vec::new();
        for phase in [PHASE_PROPOSE, PHASE_PREVOTE, PHASE_PRECOMMIT] {
            for (i, core) in cores.iter_mut().enumerate() {
                for o in core.on_timeout(token(0, phase)) {
                    if let Output::Broadcast(m) = o {
                        inbox.push((i, m));
                    }
                }
            }
            pump(&mut cores, std::mem::take(&mut inbox));
        }
        for c in &cores {
            assert_eq!(c.decided(), Some(&7), "decided an invalid value or stalled");
        }
    }

    #[test]
    fn stale_timeouts_ignored() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg, signers[1].clone(), pki, 3);
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
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, 9);
        let _ = core.start();
        let s0 = &signers[0];
        let v1 = ConsMsg::Prevote {
            round: 0,
            value: Some(1u64),
            sig: sign_vote(s0, cfg.instance, VoteKind::Prevote, 0, Some(&1u64)),
        };
        let v2 = ConsMsg::Prevote {
            round: 0,
            value: Some(2u64),
            sig: sign_vote(s0, cfg.instance, VoteKind::Prevote, 0, Some(&2u64)),
        };
        let _ = core.on_message(v1);
        let _ = core.on_message(v2);
        assert_eq!(
            core.prevotes.iter().filter(|v| v.signer == s0.id()).count(),
            1
        );
    }

    #[test]
    fn forged_votes_rejected() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki.clone(), 9);
        let _ = core.start();
        // Signature over a different value than claimed.
        let bad = ConsMsg::Prevote {
            round: 0,
            value: Some(1u64),
            sig: sign_vote(&signers[0], cfg.instance, VoteKind::Prevote, 0, Some(&2u64)),
        };
        let _ = core.on_message(bad);
        assert!(core.prevotes.iter().all(|v| v.signer != signers[0].id()));
        // Outsider key.
        let mut pki2 = Pki::new(1234);
        let (_, outsider) = pki2.register();
        let alien = ConsMsg::Prevote {
            round: 0,
            value: Some(1u64),
            sig: sign_vote(&outsider, cfg.instance, VoteKind::Prevote, 0, Some(&1u64)),
        };
        let _ = core.on_message(alien);
        assert!(core.prevotes.iter().all(|v| v.signer != outsider.id()));
    }

    #[test]
    fn decided_message_with_quorum_convinces() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, 9);
        let _ = core.start();
        let payload_val = 42u64;
        let sigs: Vec<Signature> = signers
            .iter()
            .take(3)
            .map(|s| sign_vote(s, cfg.instance, VoteKind::Precommit, 5, Some(&payload_val)))
            .collect();
        let out = core.on_message(ConsMsg::Decided {
            round: 5,
            value: payload_val,
            sigs,
        });
        assert_eq!(core.decided(), Some(&42));
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Decide { value: 42, .. })));
    }

    #[test]
    fn decided_message_without_quorum_ignored() {
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg.clone(), signers[3].clone(), pki, 9);
        let _ = core.start();
        let sigs: Vec<Signature> = signers
            .iter()
            .take(2) // below 2f+1 = 3
            .map(|s| sign_vote(s, cfg.instance, VoteKind::Precommit, 5, Some(&42u64)))
            .collect();
        let _ = core.on_message(ConsMsg::Decided {
            round: 5,
            value: 42u64,
            sigs,
        });
        assert_eq!(core.decided(), None);
    }

    #[test]
    #[should_panic(expected = "cannot tolerate")]
    fn undersized_committee_rejected() {
        let (pki, signers, mut cfg) = setup(4, 1);
        cfg.f = 2; // would need n ≥ 7
        let _ = NotaryCore::new(cfg, signers[0].clone(), pki, 0);
    }

    #[test]
    fn forged_proof_of_lock_rejected() {
        // A Byzantine leader of round 1 proposes a value with a PoL built
        // from too few / invalid signatures; a follower locked on a
        // different value must not accept it.
        let (pki, signers, cfg) = setup(4, 1);
        let mut core = NotaryCore::new(cfg.clone(), signers[2].clone(), pki, 7);
        let _ = core.start();
        // Lock core on value 7 at round 0 via a genuine prevote quorum.
        for s in signers.iter().take(3) {
            let _ = core.on_message(ConsMsg::Prevote {
                round: 0,
                value: Some(7u64),
                sig: sign_vote(s, cfg.instance, VoteKind::Prevote, 0, Some(&7u64)),
            });
        }
        assert!(core.locked.is_some(), "prevote quorum must lock");
        // Round 1 leader (member 1) proposes 9 with a bogus PoL: only one
        // signature, and over the wrong value.
        let bogus_pol = crate::msg::ProofOfLock {
            round: 2,
            value: 9u64,
            sigs: vec![sign_vote(
                &signers[0],
                cfg.instance,
                VoteKind::Prevote,
                2,
                Some(&8u64),
            )],
        };
        let sig = crate::msg::sign_propose(&signers[1], cfg.instance, 1, &9u64, Some(2));
        let _ = core.on_message(ConsMsg::Propose {
            round: 1,
            value: 9,
            pol: Some(bogus_pol),
            sig,
        });
        assert!(
            core.proposals.iter().all(|(r, _)| *r != 1),
            "proposal with forged PoL must be rejected"
        );
        // A genuine PoL for 9 at a higher round IS accepted.
        let payload_sigs: Vec<Signature> = signers
            .iter()
            .take(3)
            .map(|s| sign_vote(s, cfg.instance, VoteKind::Prevote, 2, Some(&9u64)))
            .collect();
        let good_pol = crate::msg::ProofOfLock {
            round: 2,
            value: 9u64,
            sigs: payload_sigs,
        };
        // Jump the core to round 3 so member 3 leads… simpler: leader of
        // round 1 re-proposes with the valid PoL.
        let sig2 = crate::msg::sign_propose(&signers[1], cfg.instance, 1, &9u64, Some(2));
        let _ = core.on_message(ConsMsg::Propose {
            round: 1,
            value: 9,
            pol: Some(good_pol),
            sig: sig2,
        });
        assert!(
            core.proposals.iter().any(|(r, v)| *r == 1 && *v == 9),
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
