//! Engine adapter: runs a [`NotaryCore`] as an ANTA process.
//!
//! The committee members broadcast to each other over whatever network
//! model the engine is configured with — synchronous for sanity tests,
//! partially synchronous (the protocol's design point) for the Theorem 3
//! experiments, adversarial for failure injection.

use crate::core::{NotaryCore, Output};
use crate::msg::{ConsMsg, ConsensusValue};
use anta::fingerprint::fingerprint;
use anta::process::{Ctx, Pid, Process, TimerId};
use xcrypto::Signature;

/// A committee notary on the simulation engine. The peer list is setup;
/// the core and the decision record are run state.
#[derive(Clone)]
pub struct NotaryProcess<V> {
    /// Engine pids of the *other* committee members.
    peers: Vec<Pid>,
    st: NotaryState<V>,
}

#[derive(Clone, Hash)]
struct NotaryState<V> {
    core: NotaryCore<V>,
    /// The decision, once reached: `(round, value, justifying sigs)`.
    decision: Option<(u32, V, Vec<Signature>)>,
}

impl<V: ConsensusValue> NotaryProcess<V> {
    /// Wraps a core; `peers` are the engine pids of the other members.
    pub fn new(core: NotaryCore<V>, peers: Vec<Pid>) -> Self {
        NotaryProcess {
            peers,
            st: NotaryState {
                core,
                decision: None,
            },
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&V> {
        self.st.decision.as_ref().map(|(_, v, _)| v)
    }

    /// The full decision record, if any.
    pub fn decision(&self) -> Option<&(u32, V, Vec<Signature>)> {
        self.st.decision.as_ref()
    }

    /// Current round of the underlying core.
    pub fn round(&self) -> u32 {
        self.st.core.round()
    }

    fn apply(&mut self, outputs: Vec<Output<V>>, ctx: &mut Ctx<ConsMsg<V>>) {
        for o in outputs {
            match o {
                Output::Broadcast(msg) => {
                    for &p in &self.peers {
                        ctx.send(p, msg.clone());
                    }
                }
                Output::Schedule { token, after } => ctx.set_timer_after(token, after),
                Output::Decide { round, value, sigs } => {
                    if self.st.decision.is_none() {
                        ctx.mark("decided", round as i64);
                        self.st.decision = Some((round, value, sigs));
                    }
                }
            }
        }
    }
}

impl<V: ConsensusValue> Process<ConsMsg<V>> for NotaryProcess<V> {
    fn on_start(&mut self, ctx: &mut Ctx<ConsMsg<V>>) {
        let out = self.st.core.start();
        self.apply(out, ctx);
    }

    fn on_message(&mut self, _from: Pid, msg: ConsMsg<V>, ctx: &mut Ctx<ConsMsg<V>>) {
        // Sender identity is taken from signatures, not transport.
        let out = self.st.core.on_message(msg);
        self.apply(out, ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<ConsMsg<V>>) {
        let out = self.st.core.on_timeout(id);
        self.apply(out, ctx);
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// An equivocating Byzantine notary: sends conflicting prevotes and
/// precommits for the first rounds to different halves of the committee.
/// Counts towards `f`; with honest quorums of `2f+1` its double votes can
/// never both reach a quorum.
#[derive(Clone)]
pub struct EquivocatorNotary<V> {
    signer: xcrypto::Signer,
    instance: u64,
    peers: Vec<Pid>,
    value_a: V,
    value_b: V,
    rounds: u32,
}

impl<V: ConsensusValue> EquivocatorNotary<V> {
    /// Builds an equivocator pushing `value_a` to one half and `value_b` to
    /// the other, for rounds `0..rounds`.
    pub fn new(
        signer: xcrypto::Signer,
        instance: u64,
        peers: Vec<Pid>,
        value_a: V,
        value_b: V,
        rounds: u32,
    ) -> Self {
        EquivocatorNotary {
            signer,
            instance,
            peers,
            value_a,
            value_b,
            rounds,
        }
    }
}

impl<V: ConsensusValue> Process<ConsMsg<V>> for EquivocatorNotary<V> {
    fn on_start(&mut self, ctx: &mut Ctx<ConsMsg<V>>) {
        use crate::msg::{sign_vote, VoteKind};
        for round in 0..self.rounds {
            for (i, &p) in self.peers.iter().enumerate() {
                let v = if i % 2 == 0 {
                    self.value_a.clone()
                } else {
                    self.value_b.clone()
                };
                let pv = ConsMsg::Prevote {
                    round,
                    value: Some(v.clone()),
                    sig: sign_vote(
                        &self.signer,
                        self.instance,
                        VoteKind::Prevote,
                        round,
                        Some(&v),
                    ),
                };
                ctx.send(p, pv);
                let pc = ConsMsg::Precommit {
                    round,
                    value: Some(v.clone()),
                    sig: sign_vote(
                        &self.signer,
                        self.instance,
                        VoteKind::Precommit,
                        round,
                        Some(&v),
                    ),
                };
                ctx.send(p, pc);
            }
        }
    }
    fn on_message(&mut self, _f: Pid, _m: ConsMsg<V>, _c: &mut Ctx<ConsMsg<V>>) {}
    fn on_timer(&mut self, _i: TimerId, _c: &mut Ctx<ConsMsg<V>>) {}

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

    /// All-honest committee over a synchronous network.
    #[test]
    fn engine_all_honest_agree_on_leader_value() {
        let c = committee(4);
        let cfg = config(&c, 1);
        let mut eng: Engine<ConsMsg<u64>> = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_millis(1), 8)),
            Box::new(RandomOracle::seeded(11)),
            EngineConfig::default(),
        );
        for i in 0..4 {
            let core = NotaryCore::new(
                cfg.clone(),
                c.signers[i].clone(),
                c.pki.clone(),
                100 + i as u64,
            );
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        let report = eng.run();
        assert!(report.quiescent || report.truncated);
        for i in 0..4 {
            let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
            assert_eq!(p.decided(), Some(&100), "round-0 leader's value wins");
        }
    }

    #[test]
    fn engine_crashed_leader_recovers_next_round() {
        let c = committee(4);
        let cfg = config(&c, 1);
        let mut eng: Engine<ConsMsg<u64>> = Engine::new(
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
                100 + i as u64,
            );
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        eng.run();
        let mut decisions = Vec::new();
        for i in 1..4 {
            let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
            decisions.push(*p.decided().expect("liveness despite crashed leader"));
        }
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
        assert_eq!(decisions[0], 101, "round-1 leader's value");
    }

    #[test]
    fn engine_equivocator_cannot_break_agreement() {
        let c = committee(4);
        let cfg = config(&c, 1);
        for seed in 0..10u64 {
            let mut eng: Engine<ConsMsg<u64>> = Engine::new(
                Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
                Box::new(RandomOracle::seeded(seed)),
                EngineConfig::default(),
            );
            // pid 3 (committee member 3) equivocates between 666 and 667.
            for i in 0..3 {
                let core = NotaryCore::new(cfg.clone(), c.signers[i].clone(), c.pki.clone(), 7);
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
                    666u64,
                    667u64,
                    3,
                )),
                DriftClock::perfect(),
            );
            eng.run();
            let mut decided = Vec::new();
            for i in 0..3 {
                let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
                if let Some(v) = p.decided() {
                    decided.push(*v);
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
        let mut eng: Engine<ConsMsg<u64>> = Engine::new(
            Box::new(PartialSyncNet::new(gst, SimDuration::from_millis(1))),
            Box::new(RandomOracle::seeded(5)),
            EngineConfig::default(),
        );
        for i in 0..4 {
            let core = NotaryCore::new(cfg.clone(), c.signers[i].clone(), c.pki.clone(), 9);
            eng.add_process(
                Box::new(NotaryProcess::new(core, peers(4, i))),
                DriftClock::perfect(),
            );
        }
        eng.run_until(SimTime::from_secs(60));
        for i in 0..4 {
            let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
            assert_eq!(p.decided(), Some(&9), "notary {i} undecided after GST");
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
            let mut eng: Engine<ConsMsg<u64>> = Engine::new(
                Box::new(SyncNet::new(SimDuration::from_millis(40), 16)),
                Box::new(RandomOracle::seeded(seed)),
                EngineConfig::default(),
            );
            for i in 0..4 {
                let core = NotaryCore::new(
                    cfg.clone(),
                    c.signers[i].clone(),
                    c.pki.clone(),
                    (seed % 3) + i as u64 % 2,
                );
                eng.add_process(
                    Box::new(NotaryProcess::new(core, peers(4, i))),
                    DriftClock::perfect(),
                );
            }
            eng.run_until(SimTime::from_secs(120));
            let mut decided = Vec::new();
            for i in 0..4 {
                let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
                decided.push(
                    *p.decided()
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
        let mut eng: Engine<ConsMsg<u64>> = Engine::new(
            Box::new(SyncNet::new(SimDuration::from_millis(3), 8)),
            Box::new(RandomOracle::seeded(21)),
            EngineConfig::default(),
        );
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for i in 0..7 {
            let core = NotaryCore::new(cfg.clone(), c.signers[i].clone(), c.pki.clone(), 55);
            let clock = DriftClock::sample(20_000, SimDuration::from_millis(1), &mut rng);
            eng.add_process(Box::new(NotaryProcess::new(core, peers(7, i))), clock);
        }
        eng.run();
        for i in 0..7 {
            let p = eng.process_as::<NotaryProcess<u64>>(i).unwrap();
            assert_eq!(p.decided(), Some(&55));
        }
    }
}
