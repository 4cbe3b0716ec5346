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
//!
//! [`SwapSetup::build_engine`] is the one place a swap is assembled: the
//! registration order that puts each process at its pid constant, the
//! funded books and the parties' behaviour are decided there and nowhere
//! else.

use crate::contract::HtlcChain;
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::fingerprint::fingerprint;
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Ctx, Pid, Process, TimerId};
use anta::time::SimTime;
use ledger::{Asset, Ledger};
use xcrypto::sha256::{sha256, Digest};
use xcrypto::KeyId;

/// The label a chain marks a contract's opening with (value: its id).
pub const MARK_OPENED: &str = "htlc_opened";
/// The label a chain marks a claimed contract with.
pub const MARK_CLAIMED: &str = "htlc_claimed";
/// The label a chain marks a reclaimed contract with.
pub const MARK_RECLAIMED: &str = "htlc_reclaimed";

// The swap processes address each other and name their accounts by these
// constants; `SwapSetup::build_engine` registers them to match.

/// Alice's process id in every swap engine.
pub const ALICE_PID: Pid = 0;
/// Bob's process id.
pub const BOB_PID: Pid = 1;
/// Chain A's process id (holds Alice's lock).
pub const CHAIN_A_PID: Pid = 2;
/// Chain B's process id (holds Bob's counter-lock).
pub const CHAIN_B_PID: Pid = 3;
/// Alice's account on both chains.
pub const ALICE_KEY: KeyId = KeyId(0);
/// Bob's account on both chains.
pub const BOB_KEY: KeyId = KeyId(1);
/// The pid that speaks for each account: the only one whose `Open` a chain takes.
const ACCOUNTS: [(KeyId, Pid); 2] = [(ALICE_KEY, ALICE_PID), (BOB_KEY, BOB_PID)];

/// How the two parties behave in a swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapBehaviour {
    /// Everyone follows the protocol.
    Honest,
    /// Alice locks on chain A but never claims on chain B — both sides
    /// wait out their timelocks.
    AliceAbandons,
    /// Bob never counter-locks — Alice's capital is stranded until `2T`.
    BobGriefs,
}

/// One two-chain swap: what each side offers, Alice's secret, and both
/// timelocks.
#[derive(Debug, Clone)]
pub struct SwapSetup {
    /// Alice's offer, locked on chain A.
    pub offer_a: Asset,
    /// Bob's offer, locked on chain B.
    pub offer_b: Asset,
    /// Alice's secret `s`; the hashlock is `SHA-256(s)`.
    pub secret: Vec<u8>,
    /// Alice's timelock `2T` (chain-local).
    pub timelock_a: SimTime,
    /// Bob's timelock `T` (chain-local).
    pub timelock_b: SimTime,
}

impl SwapSetup {
    /// Builds the swap: Alice, Bob, chain A and chain B, registered at
    /// [`ALICE_PID`]…[`CHAIN_B_PID`] in that order, all on `clock`. Each
    /// chain's book opens accounts for [`ALICE_KEY`] and [`BOB_KEY`] and
    /// holds its owner's offer; both parties watch both chains.
    pub fn build_engine(
        &self,
        net: Box<dyn NetModel<HMsg>>,
        oracle: Box<dyn Oracle>,
        cfg: EngineConfig,
        clock: DriftClock,
        behaviour: SwapBehaviour,
    ) -> Engine<HMsg> {
        let mut alice = SwapInitiator::new(self.offer_a, self.secret.clone(), self.timelock_a);
        alice.abandons = behaviour == SwapBehaviour::AliceAbandons;
        let mut bob = SwapResponder::new(self.offer_b, self.timelock_b);
        bob.participate = behaviour != SwapBehaviour::BobGriefs;
        let chain = |holder: KeyId, offer: Asset| -> Box<dyn Process<HMsg>> {
            let book = Ledger::funded(&[ALICE_KEY, BOB_KEY], holder, offer);
            Box::new(ChainProcess::new(HtlcChain::new(book)))
        };
        let mut eng = Engine::new(net, oracle, cfg);
        eng.add_process(Box::new(alice), clock);
        eng.add_process(Box::new(bob), clock);
        eng.add_process(chain(ALICE_KEY, self.offer_a), clock);
        eng.add_process(chain(BOB_KEY, self.offer_b), clock);
        eng
    }
}

/// Messages between swap parties and chains. Chain events are broadcast to
/// both parties, modelling public on-chain state.
#[derive(Debug, Clone, PartialEq, Hash)]
#[repr(u8)]
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
        /// The contract's id on its chain.
        id: usize,
        /// SHA-256 digest the preimage must match.
        hashlock: Digest,
        /// Chain-local expiry time.
        timelock: SimTime,
    },
    /// Customer claims with a preimage.
    Claim {
        /// The contract's id on its chain.
        id: usize,
        /// The revealed hashlock preimage.
        preimage: Vec<u8>,
    },
    /// Chain event: contract `id` claimed; the preimage is now public.
    Claimed {
        /// The contract's id on its chain.
        id: usize,
        /// The revealed hashlock preimage.
        preimage: Vec<u8>,
    },
    /// Customer reclaims after expiry.
    Reclaim {
        /// The contract's id on its chain.
        id: usize,
    },
    /// Chain event: contract `id` reclaimed by its depositor.
    Reclaimed {
        /// The contract's id on its chain.
        id: usize,
    },
}

/// A chain process: executes HTLC operations on its own clock and
/// broadcasts resulting events to both parties. It takes an `Open` only
/// from the depositor's own pid, lest Bob lock Alice's asset for himself;
/// anyone may `Claim` or `Reclaim` (see [`HtlcChain::claim`]).
#[derive(Debug, Clone)]
pub struct ChainProcess {
    chain: HtlcChain,
}

impl ChainProcess {
    /// Wraps a funded [`HtlcChain`].
    pub fn new(chain: HtlcChain) -> Self {
        ChainProcess { chain }
    }

    /// The chain state (for assertions).
    pub fn chain(&self) -> &HtlcChain {
        &self.chain
    }

    fn broadcast(&self, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        for watcher in [ALICE_PID, BOB_PID] {
            ctx.send(watcher, msg.clone());
        }
    }
}

impl Process<HMsg> for ChainProcess {
    fn on_start(&mut self, _ctx: &mut Ctx<HMsg>) {}

    // Collapsing these ifs into match guards would put the funds-moving
    // claim/reclaim calls inside pattern dispatch; guards must stay
    // side-effect-free.
    #[allow(clippy::collapsible_match)]
    fn on_message(&mut self, from: Pid, msg: HMsg, ctx: &mut Ctx<HMsg>) {
        let now = ctx.now();
        match msg {
            HMsg::Open {
                depositor,
                beneficiary,
                asset,
                hashlock,
                timelock,
            } if ACCOUNTS.contains(&(depositor, from)) => {
                if let Ok(id) = self
                    .chain
                    .open(depositor, beneficiary, asset, hashlock, timelock)
                {
                    ctx.mark(MARK_OPENED, id as i64);
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
                    ctx.mark(MARK_CLAIMED, id as i64);
                    self.broadcast(HMsg::Claimed { id, preimage }, ctx);
                }
            }
            HMsg::Reclaim { id } => {
                if self.chain.reclaim(id, now).is_ok() {
                    ctx.mark(MARK_RECLAIMED, id as i64);
                    self.broadcast(HMsg::Reclaimed { id }, ctx);
                }
            }
            // Chain events sent to us by mistake, and others' opens, are ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Ctx<HMsg>) {}

    /// The chain is the whole process, and all of it is run state.
    fn fp_digest(&self) -> u64 {
        fingerprint(&self.chain)
    }
}

const TIMER_RECLAIM: TimerId = 1;

/// Alice (initiator): locks on chain A with `2T`, claims on chain B.
#[derive(Debug, Clone)]
pub struct SwapInitiator {
    offer: Asset,
    secret: Vec<u8>,
    /// The pending reclaim is a queued timer.
    timelock_a: SimTime,
    /// An abandoning initiator locks on chain A (and reclaims at `2T`) but
    /// never claims Bob's counter-lock, so `s` is never revealed — the
    /// crash-fault interpretation for Alice.
    abandons: bool,
    st: InitiatorState,
}

/// Alice's progress; her offer, secret, timelock and behaviour are setup.
#[derive(Debug, Clone, Hash)]
struct InitiatorState {
    my_contract: Option<usize>,
    claimed_b: bool,
    done: bool,
}

impl SwapInitiator {
    /// Builds Alice with her offer, her secret and her timelock.
    pub fn new(offer: Asset, secret: Vec<u8>, timelock_a: SimTime) -> Self {
        SwapInitiator {
            offer,
            secret,
            timelock_a,
            abandons: false,
            st: InitiatorState {
                my_contract: None,
                claimed_b: false,
                done: false,
            },
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
            CHAIN_A_PID,
            HMsg::Open {
                depositor: ALICE_KEY,
                beneficiary: BOB_KEY,
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
                if from == CHAIN_A_PID
                    && self.st.my_contract.is_none()
                    && hashlock == self.hashlock() =>
            {
                self.st.my_contract = Some(id);
            }
            HMsg::Opened { id, hashlock, .. }
                if from == CHAIN_B_PID && !self.abandons
                // Bob's counter-lock under my hash: claim it (revealing s).
                && !self.st.claimed_b && hashlock == self.hashlock() =>
            {
                self.st.claimed_b = true;
                ctx.send(
                    CHAIN_B_PID,
                    HMsg::Claim {
                        id,
                        preimage: self.secret.clone(),
                    },
                );
                ctx.mark("alice_claimed_b", id as i64);
            }
            HMsg::Claimed { .. } if from == CHAIN_B_PID && !self.abandons && !self.st.done => {
                self.st.done = true;
                ctx.mark("alice_swap_done", 0);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        if id == TIMER_RECLAIM && !self.st.done {
            if let Some(cid) = self.st.my_contract {
                ctx.send(CHAIN_A_PID, HMsg::Reclaim { id: cid });
                ctx.mark("alice_reclaimed", cid as i64);
            }
            ctx.halt();
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

/// Bob (responder): counter-locks on chain B with `T < 2T`, learns `s`
/// from Alice's claim, replays it on chain A.
#[derive(Debug, Clone)]
pub struct SwapResponder {
    offer: Asset,
    /// The pending reclaim is a queued timer.
    timelock_b: SimTime,
    /// A griefing responder never counter-locks.
    participate: bool,
    st: ResponderState,
}

/// Bob's progress; his offer, timelock and behaviour are setup.
#[derive(Debug, Clone, Hash)]
struct ResponderState {
    my_contract: Option<usize>,
    their_contract: Option<usize>,
    claimed_a: bool,
    done: bool,
}

impl SwapResponder {
    /// Builds Bob with his offer and his timelock.
    pub fn new(offer: Asset, timelock_b: SimTime) -> Self {
        SwapResponder {
            offer,
            timelock_b,
            participate: true,
            st: ResponderState {
                my_contract: None,
                their_contract: None,
                claimed_a: false,
                done: false,
            },
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
                if from == CHAIN_A_PID
                // Alice's lock appeared: counter-lock under the same hash.
                && self.st.their_contract.is_none() && self.participate =>
            {
                self.st.their_contract = Some(id);
                ctx.send(
                    CHAIN_B_PID,
                    HMsg::Open {
                        depositor: BOB_KEY,
                        beneficiary: ALICE_KEY,
                        asset: self.offer,
                        hashlock,
                        timelock: self.timelock_b,
                    },
                );
            }
            HMsg::Opened { id, .. } if from == CHAIN_B_PID && self.st.my_contract.is_none() => {
                self.st.my_contract = Some(id);
            }
            HMsg::Claimed { preimage, .. } if from == CHAIN_B_PID && !self.st.claimed_a => {
                // Alice revealed s: replay it on chain A.
                if let Some(their) = self.st.their_contract {
                    self.st.claimed_a = true;
                    ctx.send(
                        CHAIN_A_PID,
                        HMsg::Claim {
                            id: their,
                            preimage,
                        },
                    );
                    ctx.mark("bob_claimed_a", their as i64);
                }
            }
            HMsg::Claimed { .. } if from == CHAIN_A_PID && self.st.claimed_a && !self.st.done => {
                self.st.done = true;
                ctx.mark("bob_swap_done", 0);
                ctx.halt();
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        if id == TIMER_RECLAIM && !self.st.done && !self.st.claimed_a {
            if let Some(cid) = self.st.my_contract {
                ctx.send(CHAIN_B_PID, HMsg::Reclaim { id: cid });
                ctx.mark("bob_reclaimed", cid as i64);
            }
            // Keep listening: Alice might still claim late-ish within our
            // observation of chain A (we can replay any time before 2T).
        }
    }

    fn fp_digest(&self) -> u64 {
        fingerprint(&self.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::HtlcState;
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;
    use anta::time::SimDuration;
    use ledger::CurrencyId;

    const CUR_A: CurrencyId = CurrencyId(0);
    const CUR_B: CurrencyId = CurrencyId(1);

    /// Alice's 100 A against Bob's 200 B, with timelocks `2t` / `t` ms.
    fn build(t: u64, secret: &[u8], behaviour: SwapBehaviour) -> Engine<HMsg> {
        SwapSetup {
            offer_a: Asset::new(CUR_A, 100),
            offer_b: Asset::new(CUR_B, 200),
            secret: secret.to_vec(),
            timelock_a: SimTime::from_millis(2 * t),
            timelock_b: SimTime::from_millis(t),
        }
        .build_engine(
            Box::new(SyncNet::worst_case(SimDuration::from_millis(2))),
            Box::new(RandomOracle::seeded(1)),
            EngineConfig::default(),
            DriftClock::perfect(),
            behaviour,
        )
    }

    fn chains(eng: &Engine<HMsg>) -> (&HtlcChain, &HtlcChain) {
        let chain = |pid| eng.process_as::<ChainProcess>(pid).unwrap().chain();
        (chain(CHAIN_A_PID), chain(CHAIN_B_PID))
    }

    #[test]
    fn happy_swap_exchanges_both_assets() {
        let mut eng = build(1_000, b"swap-secret", SwapBehaviour::Honest);
        eng.run_until(SimTime::from_secs(10));
        let (a, b) = chains(&eng);
        assert_eq!(
            a.ledger().balance(BOB_KEY, CUR_A),
            100,
            "Bob got Alice's asset"
        );
        assert_eq!(
            b.ledger().balance(ALICE_KEY, CUR_B),
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
        let mut eng = build(t, b"secret", SwapBehaviour::BobGriefs);
        eng.run_until(SimTime::from_secs(10));
        let (a, _) = chains(&eng);
        // Alice reclaimed, but only after 2T.
        assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(a.ledger().balance(ALICE_KEY, CUR_A), 100);
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
        // Alice locks but never claims (crashes after locking).
        let mut eng = build(t, b"never-revealed", SwapBehaviour::AliceAbandons);
        eng.run_until(SimTime::from_secs(10));
        let (a, b) = chains(&eng);
        assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(b.contract(0).unwrap().state, HtlcState::Reclaimed);
        assert_eq!(a.ledger().balance(ALICE_KEY, CUR_A), 100);
        assert_eq!(b.ledger().balance(BOB_KEY, CUR_B), 200);
    }
}
