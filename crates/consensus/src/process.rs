//! Engine adapter: runs a [`NotaryCore`] as an ANTA process.
//!
//! The committee members broadcast to each other over whatever network
//! model the engine is configured with — synchronous for sanity tests,
//! partially synchronous (the protocol's design point) for the Theorem 3
//! experiments, adversarial for failure injection.

use crate::core::{NotaryCore, Output};
use crate::msg::{sign_vote, ConsMsg, VoteKind};
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use xcrypto::Verdict;

/// A committee notary on the simulation engine. The peer list is setup;
/// the core, which records the decision, is the whole run state.
#[derive(Clone)]
pub struct NotaryProcess {
    /// Engine pids of the *other* committee members.
    peers: Vec<Pid>,
    core: NotaryCore,
}

impl NotaryProcess {
    /// Wraps a core; `peers` are the engine pids of the other members.
    pub fn new(core: NotaryCore, peers: Vec<Pid>) -> Self {
        NotaryProcess { peers, core }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<Verdict> {
        self.core.decided()
    }

    /// The decision and the round it was decided in, if any.
    pub fn decision(&self) -> Option<(u32, Verdict)> {
        self.core.decision()
    }

    fn apply(&mut self, outputs: Vec<Output>, ctx: &mut Ctx<ConsMsg>) {
        for o in outputs {
            match o {
                Output::Broadcast(msg) => {
                    for &p in &self.peers {
                        ctx.send(p, msg.clone());
                    }
                }
                Output::Schedule { token, after } => ctx.set_timer_after(token, after),
                Output::Decide { round, .. } => ctx.mark("decided", round as i64),
            }
        }
    }
}

impl Process<ConsMsg> for NotaryProcess {
    fn on_start(&mut self, ctx: &mut Ctx<ConsMsg>) {
        let out = self.core.start();
        self.apply(out, ctx);
    }

    fn on_message(&mut self, _from: Pid, msg: ConsMsg, ctx: &mut Ctx<ConsMsg>) {
        // Sender identity is taken from signatures, not transport.
        let out = self.core.on_message(msg);
        self.apply(out, ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<ConsMsg>) {
        let out = self.core.on_timeout(id);
        self.apply(out, ctx);
    }

    /// The core's digest: it holds all the run state.
    fn fp_digest(&self) -> u64 {
        fingerprint(&self.core)
    }
}

/// An equivocating Byzantine notary: sends conflicting prevotes and
/// precommits for the first rounds to different halves of the committee,
/// χc to the even-indexed peers and χa to the odd. Counts towards `f`; with
/// honest quorums of `2f+1` its double votes can never both reach a quorum.
#[derive(Clone)]
pub struct EquivocatorNotary {
    signer: xcrypto::Signer,
    instance: u64,
    peers: Vec<Pid>,
    rounds: u32,
}

impl EquivocatorNotary {
    /// Builds an equivocator for rounds `0..rounds`.
    pub fn new(signer: xcrypto::Signer, instance: u64, peers: Vec<Pid>, rounds: u32) -> Self {
        EquivocatorNotary {
            signer,
            instance,
            peers,
            rounds,
        }
    }
}

impl Process<ConsMsg> for EquivocatorNotary {
    fn on_start(&mut self, ctx: &mut Ctx<ConsMsg>) {
        for round in 0..self.rounds {
            for (i, &p) in self.peers.iter().enumerate() {
                let v = Some([Verdict::Commit, Verdict::Abort][i % 2]);
                let sign = |kind| sign_vote(&self.signer, self.instance, kind, round, v);
                let pv = ConsMsg::Prevote {
                    round,
                    value: v,
                    sig: sign(VoteKind::Prevote),
                };
                ctx.send(p, pv);
                let pc = ConsMsg::Precommit {
                    round,
                    value: v,
                    sig: sign(VoteKind::Precommit),
                };
                ctx.send(p, pc);
            }
        }
    }
    fn on_message(&mut self, _f: Pid, _m: ConsMsg, _c: &mut Ctx<ConsMsg>) {}
    fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<ConsMsg>) {}

    /// Stateless after `on_start`: every field is setup.
    fn fp_digest(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::Config;
    use anta::clock::DriftClock;
    use anta::engine::{Engine, EngineConfig};
    use anta::net::{PartialSyncNet, SyncNet};
    use anta::oracle::RandomOracle;
    use anta::process::InertProcess;
    use anta::time::{SimDuration, SimTime};
    use std::sync::Arc;
    use xcrypto::{KeyId, Pki, Signer};

    struct Committee {
        pki: Arc<Pki>,
        signers: Vec<Signer>,
        members: Vec<KeyId>,
    }

    fn committee(n: usize) -> Committee {
        let mut pki = Pki::new(7);
        let pairs = pki.register_many(n);
        let members = pairs.iter().map(|(k, _)| *k).collect();
        let signers = pairs.into_iter().map(|(_, s)| s).collect();
        Committee {
            pki: Arc::new(pki),
            signers,
            members,
        }
    }

    fn config(c: &Committee, f: usize) -> Config {
        Config {
            instance: 1,
            members: c.members.clone(),
            f,
            base_timeout: SimDuration::from_millis(50),
        }
    }

    fn peers(n: usize, me: usize) -> Vec<Pid> {
        (0..n).filter(|&i| i != me).collect()
    }

    /// Member `i`'s input when only round `round`'s leader holds χc: every
    /// other member holds χa, so a χc decision is the leader's value.
    fn leader_commits(i: usize, round: usize) -> Verdict {
        if i == round {
            Verdict::Commit
        } else {
            Verdict::Abort
        }
    }

    /// All-honest committee over a synchronous network.
    #[test]
    fn engine_all_honest_agree_on_leader_value() {
        let c = committee(4);
        let cfg = config(&c, 1);
        let mut eng: Engine<ConsMsg> = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_millis(1), 8)),
            Box::new(RandomOracle::seeded(11)),
            EngineConfig::default(),
        );
        for i in 0..4 {
            let core = NotaryCore::new(
                cfg.clone(),
                c.signers[i].clone(),
                c.pki.clone(),
                leader_commits(i, 0),
            );
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        let report = eng.run();
        assert!(report.quiescent || report.truncated);
        for i in 0..4 {
            let p = eng.process_as::<NotaryProcess>(i).unwrap();
            assert_eq!(
                p.decided(),
                Some(Verdict::Commit),
                "round-0 leader's value wins"
            );
        }
    }

    #[test]
    fn engine_crashed_leader_recovers_next_round() {
        let c = committee(4);
        let cfg = config(&c, 1);
        let mut eng: Engine<ConsMsg> = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_millis(1), 4)),
            Box::new(RandomOracle::seeded(3)),
            EngineConfig::default(),
        );
        // pid 0 (round-0 leader) is crashed.
        eng.add_process(Box::new(InertProcess), DriftClock::perfect());
        for i in 1..4 {
            let core = NotaryCore::new(
                cfg.clone(),
                c.signers[i].clone(),
                c.pki.clone(),
                leader_commits(i, 1),
            );
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        eng.run();
        let mut decisions = Vec::new();
        for i in 1..4 {
            let p = eng.process_as::<NotaryProcess>(i).unwrap();
            decisions.push(p.decided().expect("liveness despite crashed leader"));
        }
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
        assert_eq!(decisions[0], Verdict::Commit, "round-1 leader's value");
    }

    #[test]
    fn engine_equivocator_cannot_break_agreement() {
        let c = committee(4);
        let cfg = config(&c, 1);
        for seed in 0..10u64 {
            let mut eng: Engine<ConsMsg> = Engine::new(
                Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
                Box::new(RandomOracle::seeded(seed)),
                EngineConfig::default(),
            );
            // pid 3 (committee member 3) equivocates between χc and χa.
            for i in 0..3 {
                let core = NotaryCore::new(
                    cfg.clone(),
                    c.signers[i].clone(),
                    c.pki.clone(),
                    Verdict::Abort,
                );
                eng.add_process(
                    Box::new(NotaryProcess::new(core, peers(4, i))),
                    DriftClock::perfect(),
                );
            }
            eng.add_process(
                Box::new(EquivocatorNotary::new(
                    c.signers[3].clone(),
                    cfg.instance,
                    peers(4, 3),
                    3,
                )),
                DriftClock::perfect(),
            );
            eng.run();
            let mut decided = Vec::new();
            for i in 0..3 {
                let p = eng.process_as::<NotaryProcess>(i).unwrap();
                if let Some(v) = p.decided() {
                    decided.push(v);
                }
            }
            assert!(!decided.is_empty(), "seed {seed}: nobody decided");
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: agreement broken: {decided:?}"
            );
        }
    }

    #[test]
    fn engine_partial_synchrony_decides_after_gst() {
        let c = committee(4);
        let cfg = config(&c, 1);
        let gst = SimTime::from_millis(400);
        let mut eng: Engine<ConsMsg> = Engine::new(
            Box::new(PartialSyncNet::new(gst, SimDuration::from_millis(1))),
            Box::new(RandomOracle::seeded(5)),
            EngineConfig::default(),
        );
        for i in 0..4 {
            let core = NotaryCore::new(
                cfg.clone(),
                c.signers[i].clone(),
                c.pki.clone(),
                Verdict::Commit,
            );
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        eng.run_until(SimTime::from_secs(60));
        for i in 0..4 {
            let p = eng.process_as::<NotaryProcess>(i).unwrap();
            assert_eq!(
                p.decided(),
                Some(Verdict::Commit),
                "notary {i} undecided after GST"
            );
        }
        // At least one notary could only decide after GST.
        let any_decide_mark = eng
            .trace()
            .marks("decided")
            .map(|(_, real, _, _)| real)
            .max()
            .expect("decided marks exist");
        assert!(
            any_decide_mark >= gst,
            "pre-GST decision under MaxDelay adversary?"
        );
    }

    #[test]
    fn engine_randomized_schedules_agreement_sweep() {
        let c = committee(4);
        let cfg = config(&c, 1);
        for seed in 0..25u64 {
            let mut eng: Engine<ConsMsg> = Engine::new(
                Box::new(SyncNet::new(SimDuration::from_millis(40), 16)),
                Box::new(RandomOracle::seeded(seed)),
                EngineConfig::default(),
            );
            for i in 0..4 {
                let core = NotaryCore::new(
                    cfg.clone(),
                    c.signers[i].clone(),
                    c.pki.clone(),
                    [Verdict::Commit, Verdict::Abort][(seed as usize + i) % 2],
                );
                eng.add_process(
                    Box::new(NotaryProcess::new(core, peers(4, i))),
                    DriftClock::perfect(),
                );
            }
            eng.run_until(SimTime::from_secs(120));
            let mut decided = Vec::new();
            for i in 0..4 {
                let p = eng.process_as::<NotaryProcess>(i).unwrap();
                decided.push(
                    p.decided()
                        .unwrap_or_else(|| panic!("seed {seed}: notary {i} stalled")),
                );
            }
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: disagreement {decided:?}"
            );
        }
    }

    #[test]
    fn engine_larger_committee_with_drifting_clocks() {
        let c = committee(7);
        let cfg = Config {
            instance: 2,
            members: c.members.clone(),
            f: 2,
            base_timeout: SimDuration::from_millis(50),
        };
        let mut eng: Engine<ConsMsg> = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_millis(3), 8)),
            Box::new(RandomOracle::seeded(21)),
            EngineConfig::default(),
        );
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for i in 0..7 {
            let core = NotaryCore::new(
                cfg.clone(),
                c.signers[i].clone(),
                c.pki.clone(),
                Verdict::Abort,
            );
            let clock = DriftClock::sample(20_000, SimDuration::from_millis(1), &mut rng);
            eng.add_process(Box::new(NotaryProcess::new(core, peers(7, i))), clock);
        }
        eng.run();
        for i in 0..7 {
            let p = eng.process_as::<NotaryProcess>(i).unwrap();
            assert_eq!(p.decided(), Some(Verdict::Abort));
        }
    }
}
