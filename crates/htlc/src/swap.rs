//! Two-chain atomic swap over HTLCs — the deployed-OSS baseline protocol.
//!
//! The classic construction: Alice knows a secret `s`. She locks her asset
//! on chain A under `H = SHA-256(s)` with timelock `2T`; Bob, seeing that
//! lock, locks his asset on chain B under the same `H` with timelock `T`;
//! Alice claims on B before `T`, revealing `s` on-chain; Bob replays `s`
//! on A before `2T`. Safety comes from the timelock gap; *success* is
//! never guaranteed — either side can stop and grief the other into
//! waiting out a timelock with capital frozen. Experiment E5 measures
//! those locked-capital windows against the paper's protocols.

use crate::contract::HtlcChain;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimTime;
use ledger::Asset;
use xcrypto::sha256::{sha256, Digest};
use xcrypto::KeyId;

/// Messages between swap parties and chains. Chain events are broadcast to
/// both parties, modelling public on-chain state.
#[derive(Debug, Clone, PartialEq)]
pub enum HMsg {
    /// Customer asks the chain to open an HTLC.
    Open {
        /// Who funded the contract.
        depositor: KeyId,
        /// Who may claim it.
        beneficiary: KeyId,
        /// The value at stake.
        asset: Asset,
        /// SHA-256 digest the preimage must match.
        hashlock: Digest,
        /// Chain-local expiry time.
        timelock: SimTime,
    },
    /// Chain event: contract `id` opened.
    Opened {
        /// Identifier (contract/timer id, per context).
        id: usize,
        /// SHA-256 digest the preimage must match.
        hashlock: Digest,
        /// Chain-local expiry time.
        timelock: SimTime,
    },
    /// Customer claims with a preimage.
    Claim {
        /// Identifier (contract/timer id, per context).
        id: usize,
        /// The revealed hashlock preimage.
        preimage: Vec<u8>,
    },
    /// Chain event: contract `id` claimed; the preimage is now public.
    Claimed {
        /// Identifier (contract/timer id, per context).
        id: usize,
        /// The revealed hashlock preimage.
        preimage: Vec<u8>,
    },
    /// Customer reclaims after expiry.
    Reclaim {
        /// Identifier (contract/timer id, per context).
        id: usize,
    },
    /// Chain event: contract `id` reclaimed by its depositor.
    Reclaimed {
        /// Identifier (contract/timer id, per context).
        id: usize,
    },
}

/// A chain process: executes HTLC operations on its own clock and
/// broadcasts resulting events to the watchers.
#[derive(Debug, Clone)]
pub struct ChainProcess {
    chain: HtlcChain,
    watchers: Vec<Pid>,
}

impl ChainProcess {
    /// Wraps a funded [`HtlcChain`]; `watchers` receive all events.
    pub fn new(chain: HtlcChain, watchers: Vec<Pid>) -> Self {
        ChainProcess { chain, watchers }
    }

    /// The chain state (for assertions).
    pub fn chain(&self) -> &HtlcChain {
        &self.chain
    }

    fn broadcast(&self, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        for &w in &self.watchers {
            ctx.send(w, msg.clone());
        }
    }
}

impl Process<HMsg> for ChainProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<HMsg>) {}

    // Collapsing these ifs into match guards would put the funds-moving
    // claim/reclaim calls inside pattern dispatch; guards must stay
    // side-effect-free.
    #[allow(clippy::collapsible_match)]
    fn on_message(&mut self, _from: Pid, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        let now = ctx.now();
        match msg {
            HMsg::Open {
                depositor,
                beneficiary,
                asset,
                hashlock,
                timelock,
            } => {
                if let Ok(id) = self
                    .chain
                    .open(depositor, beneficiary, asset, hashlock, timelock)
                {
                    ctx.mark("htlc_opened", id as i64);
                    self.broadcast(
                        HMsg::Opened {
                            id,
                            hashlock,
                            timelock,
                        },
                        ctx,
                    );
                }
            }
            HMsg::Claim { id, preimage } => {
                // The ledger mutation stays in the arm body: guards must
                // remain side-effect-free around funds movement.
                if self.chain.claim(id, &preimage, now).is_ok() {
                    ctx.mark("htlc_claimed", id as i64);
                    self.broadcast(HMsg::Claimed { id, preimage }, ctx);
                }
            }
            HMsg::Reclaim { id } => {
                if self.chain.reclaim(id, now).is_ok() {
                    ctx.mark("htlc_reclaimed", id as i64);
                    self.broadcast(HMsg::Reclaimed { id }, ctx);
                }
            }
            // Chain events sent to us by mistake are ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<HMsg>) {}
}

const TIMER_RECLAIM: TimerId = 1;

/// Alice (initiator): locks on chain A with `2T`, claims on chain B.
#[derive(Debug, Clone)]
pub struct SwapInitiator {
    key: KeyId,
    counterparty: KeyId,
    chain_a: Pid,
    chain_b: Pid,
    offer: Asset,
    secret: Vec<u8>,
    timelock_a: SimTime,
    my_contract: Option<usize>,
    claimed_b: bool,
    done: bool,
}

impl SwapInitiator {
    /// Builds Alice with her secret.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        key: KeyId,
        counterparty: KeyId,
        chain_a: Pid,
        chain_b: Pid,
        offer: Asset,
        secret: Vec<u8>,
        timelock_a: SimTime,
    ) -> Self {
        SwapInitiator {
            key,
            counterparty,
            chain_a,
            chain_b,
            offer,
            secret,
            timelock_a,
            my_contract: None,
            claimed_b: false,
            done: false,
        }
    }

    /// The hashlock `H = SHA-256(s)`.
    pub fn hashlock(&self) -> Digest {
        sha256(&self.secret)
    }
}

impl Process<HMsg> for SwapInitiator {
    fn on_start(&mut self, ctx: &mut Ctx<HMsg>) {
        ctx.send(
            self.chain_a,
            HMsg::Open {
                depositor: self.key,
                beneficiary: self.counterparty,
                asset: self.offer,
                hashlock: self.hashlock(),
                timelock: self.timelock_a,
            },
        );
        ctx.set_timer_at(TIMER_RECLAIM, self.timelock_a);
    }

    fn on_message(&mut self, from: Pid, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        match msg {
            HMsg::Opened { id, hashlock, .. }
                if from == self.chain_a
                    && self.my_contract.is_none()
                    && hashlock == self.hashlock() =>
            {
                self.my_contract = Some(id);
            }
            HMsg::Opened { id, hashlock, .. }
                if from == self.chain_b
                // Bob's counter-lock under my hash: claim it (revealing s).
                && !self.claimed_b && hashlock == self.hashlock() =>
            {
                self.claimed_b = true;
                ctx.send(
                    self.chain_b,
                    HMsg::Claim {
                        id,
                        preimage: self.secret.clone(),
                    },
                );
                ctx.mark("alice_claimed_b", id as i64);
            }
            HMsg::Claimed { .. } if from == self.chain_b && !self.done => {
                self.done = true;
                ctx.mark("alice_swap_done", 0);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        if id == TIMER_RECLAIM && !self.done {
            if let Some(cid) = self.my_contract {
                ctx.send(self.chain_a, HMsg::Reclaim { id: cid });
                ctx.mark("alice_reclaimed", cid as i64);
            }
            ctx.halt();
        }
    }
}

/// An initiator who locks on chain A and then abandons the swap: she
/// tracks her own contract (to reclaim at `2T`) but never claims Bob's
/// counter-lock, so `s` is never revealed — the crash-fault interpretation
/// for Alice.
#[derive(Debug, Clone)]
pub struct LockOnlyInitiator(
    /// The initiator whose chain-B reactions are suppressed.
    pub SwapInitiator,
);

impl Process<HMsg> for LockOnlyInitiator {
    fn on_start(&mut self, ctx: &mut Ctx<HMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: Pid, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        // Only observe her own chain (to learn the contract id); never
        // react to chain B.
        if from == self.0.chain_a && matches!(msg, HMsg::Opened { .. }) {
            self.0.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        self.0.on_timer(id, ctx);
    }
}

/// Bob (responder): counter-locks on chain B with `T < 2T`, learns `s`
/// from Alice's claim, replays it on chain A.
#[derive(Debug, Clone)]
pub struct SwapResponder {
    key: KeyId,
    counterparty: KeyId,
    chain_a: Pid,
    chain_b: Pid,
    offer: Asset,
    timelock_b: SimTime,
    my_contract: Option<usize>,
    their_contract: Option<usize>,
    claimed_a: bool,
    done: bool,
    /// A griefing responder never counter-locks.
    pub participate: bool,
}

impl SwapResponder {
    /// Builds Bob.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        key: KeyId,
        counterparty: KeyId,
        chain_a: Pid,
        chain_b: Pid,
        offer: Asset,
        timelock_b: SimTime,
    ) -> Self {
        SwapResponder {
            key,
            counterparty,
            chain_a,
            chain_b,
            offer,
            timelock_b,
            my_contract: None,
            their_contract: None,
            claimed_a: false,
            done: false,
            participate: true,
        }
    }
}

impl Process<HMsg> for SwapResponder {
    fn on_start(&mut self, ctx: &mut Ctx<HMsg>) {
        ctx.set_timer_at(TIMER_RECLAIM, self.timelock_b);
    }

    fn on_message(&mut self, from: Pid, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        match msg {
            HMsg::Opened { id, hashlock, .. }
                if from == self.chain_a
                // Alice's lock appeared: counter-lock under the same hash.
                && self.their_contract.is_none() && self.participate =>
            {
                self.their_contract = Some(id);
                ctx.send(
                    self.chain_b,
                    HMsg::Open {
                        depositor: self.key,
                        beneficiary: self.counterparty,
                        asset: self.offer,
                        hashlock,
                        timelock: self.timelock_b,
                    },
                );
            }
            HMsg::Opened { id, .. } if from == self.chain_b && self.my_contract.is_none() => {
                self.my_contract = Some(id);
            }
            HMsg::Claimed { preimage, .. } if from == self.chain_b && !self.claimed_a => {
                // Alice revealed s: replay it on chain A.
                if let Some(their) = self.their_contract {
                    self.claimed_a = true;
                    ctx.send(
                        self.chain_a,
                        HMsg::Claim {
                            id: their,
                            preimage,
                        },
                    );
                    ctx.mark("bob_claimed_a", their as i64);
                }
            }
            HMsg::Claimed { .. } if from == self.chain_a && self.claimed_a && !self.done => {
                self.done = true;
                ctx.mark("bob_swap_done", 0);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        if id == TIMER_RECLAIM && !self.done && !self.claimed_a {
            if let Some(cid) = self.my_contract {
                ctx.send(self.chain_b, HMsg::Reclaim { id: cid });
                ctx.mark("bob_reclaimed", cid as i64);
            }
            // Keep listening: Alice might still claim late-ish within our
            // observation of chain A (we can replay any time before 2T).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::HtlcState;
    use anta::clock::DriftClock;
    use anta::engine::{Engine, EngineConfig};
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::time::SimDuration;
    use ledger::CurrencyId;

    const CUR_A: CurrencyId = CurrencyId(0);
    const CUR_B: CurrencyId = CurrencyId(1);
    const ALICE: KeyId = KeyId(0);
    const BOB: KeyId = KeyId(1);

    /// pids: 0 = Alice, 1 = Bob, 2 = chain A, 3 = chain B.
    fn build(t: u64, participate: bool, alice_secret: Option<Vec<u8>>) -> Engine<HMsg> {
        let mut chain_a = HtlcChain::new();
        chain_a.ledger_mut().open_account(ALICE).unwrap();
        chain_a.ledger_mut().open_account(BOB).unwrap();
        chain_a
            .ledger_mut()
            .mint(ALICE, Asset::new(CUR_A, 100))
            .unwrap();
        let mut chain_b = HtlcChain::new();
        chain_b.ledger_mut().open_account(ALICE).unwrap();
        chain_b.ledger_mut().open_account(BOB).unwrap();
        chain_b
            .ledger_mut()
            .mint(BOB, Asset::new(CUR_B, 200))
            .unwrap();

        let mut eng = Engine::new(
            Box::new(SyncNet::worst_case(SimDuration::from_millis(2))),
            Box::new(RandomOracle::seeded(1)),
            EngineConfig::default(),
        );
        match alice_secret {
            Some(secret) => {
                let alice = SwapInitiator::new(
                    ALICE,
                    BOB,
                    2,
                    3,
                    Asset::new(CUR_A, 100),
                    secret,
                    SimTime::from_millis(2 * t),
                );
                eng.add_process(Box::new(alice), DriftClock::perfect());
            }
            None => {
                // Alice locks but never claims (crashes after locking).
                let alice = SwapInitiator::new(
                    ALICE,
                    BOB,
                    2,
                    3,
                    Asset::new(CUR_A, 100),
                    b"never-revealed".to_vec(),
                    SimTime::from_millis(2 * t),
                );
                eng.add_process(Box::new(LockOnlyInitiator(alice)), DriftClock::perfect());
            }
        }
        let mut bob = SwapResponder::new(
            BOB,
            ALICE,
            2,
            3,
            Asset::new(CUR_B, 200),
            SimTime::from_millis(t),
        );
        bob.participate = participate;
        eng.add_process(Box::new(bob), DriftClock::perfect());
        eng.add_process(
            Box::new(ChainProcess::new(chain_a, vec![0, 1])),
            DriftClock::perfect(),
        );
        eng.add_process(
            Box::new(ChainProcess::new(chain_b, vec![0, 1])),
            DriftClock::perfect(),
        );
        eng
    }

    #[test]
    fn happy_swap_exchanges_both_assets() {
        let mut eng = build(1_000, true, Some(b"swap-secret".to_vec()));
        eng.run_until(SimTime::from_secs(10));
        let a = eng.process_as::<ChainProcess>(2).unwrap().chain();
        let b = eng.process_as::<ChainProcess>(3).unwrap().chain();
        assert_eq!(a.ledger().balance(BOB, CUR_A), 100, "Bob got Alice's asset");
        assert_eq!(
            b.ledger().balance(ALICE, CUR_B),
            200,
            "Alice got Bob's asset"
        );
        a.ledger().check_conservation().unwrap();
        b.ledger().check_conservation().unwrap();
        assert_eq!(a.contract(0).unwrap().state, HtlcState::Claimed);
        assert_eq!(b.contract(0).unwrap().state, HtlcState::Claimed);
    }

    #[test]
    fn griefing_responder_strands_alice_capital_until_2t() {
        let t = 500u64;
        let mut eng = build(t, false, Some(b"secret".to_vec()));
        eng.run_until(SimTime::from_secs(10));
        let a = eng.process_as::<ChainProcess>(2).unwrap().chain();
        // Alice reclaimed, but only after 2T.
        assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(a.ledger().balance(ALICE, CUR_A), 100);
        let reclaim_time = eng
            .trace()
            .marks("alice_reclaimed")
            .next()
            .map(|(_, real, _, _)| real)
            .expect("reclaim happened");
        assert!(
            reclaim_time >= SimTime::from_millis(2 * t),
            "capital locked for the full griefing window: {reclaim_time}"
        );
    }

    #[test]
    fn unrevealing_initiator_both_reclaim() {
        let t = 500u64;
        let mut eng = build(t, true, None);
        eng.run_until(SimTime::from_secs(10));
        let a = eng.process_as::<ChainProcess>(2).unwrap().chain();
        let b = eng.process_as::<ChainProcess>(3).unwrap().chain();
        assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(b.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(a.ledger().balance(ALICE, CUR_A), 100);
        assert_eq!(b.ledger().balance(BOB, CUR_B), 200);
    }
}
