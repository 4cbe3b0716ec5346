//! Workspace-level tests for the baseline crates the paper positions
//! itself against — `htlc` (atomic swaps), `interledger` (the
//! Thomas–Schwartz universal/atomic protocols) and `deals`
//! (Herlihy–Liskov–Shrira cross-chain deals) — exercised through the
//! `crosschain` umbrella exactly as the comparison experiments use them.

use crosschain::anta::clock::DriftClock;
use crosschain::anta::engine::{Engine, EngineConfig};
use crosschain::anta::net::{NetModel, PartialSyncNet, SyncNet};
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::{Ctx, Pid, Process, TimerId};
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::htlc::contract::{HtlcChain, HtlcState};
use crosschain::htlc::swap::{
    ChainProcess, HMsg, SwapBehaviour, SwapSetup, ALICE_KEY, BOB_KEY, CHAIN_A_PID, CHAIN_B_PID,
};
use crosschain::interledger::{untuned_schedule, DeadlineTm};
use crosschain::ledger::{Asset, CurrencyId};
use crosschain::payment::msg::PMsg;
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::weak::{TmKind, WeakOutcome, WeakSetup};
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::xcrypto::sha256::sha256;
use crosschain::xcrypto::Verdict;

const CUR_A: CurrencyId = CurrencyId(0);
const CUR_B: CurrencyId = CurrencyId(1);

/// Alice's 100 A against Bob's 200 B with timelocks `2·t_ms` / `t_ms`.
fn swap_engine(t_ms: u64, behaviour: SwapBehaviour) -> Engine<HMsg> {
    SwapSetup {
        offer_a: Asset::new(CUR_A, 100),
        offer_b: Asset::new(CUR_B, 200),
        secret: b"baseline-secret".to_vec(),
        timelock_a: SimTime::from_millis(2 * t_ms),
        timelock_b: SimTime::from_millis(t_ms),
    }
    .build_engine(
        Box::new(SyncNet::worst_case(SimDuration::from_millis(2))),
        Box::new(RandomOracle::seeded(7)),
        EngineConfig::default(),
        DriftClock::perfect(),
        behaviour,
    )
}

fn chains(eng: &Engine<HMsg>) -> (&HtlcChain, &HtlcChain) {
    let chain = |pid| eng.process_as::<ChainProcess>(pid).unwrap().chain();
    (chain(CHAIN_A_PID), chain(CHAIN_B_PID))
}

/// HTLC happy path: both contracts claimed, assets exchanged, both chains
/// conserve value.
#[test]
fn htlc_swap_happy_path() {
    let mut eng = swap_engine(1_000, SwapBehaviour::Honest);
    eng.run_until(SimTime::from_secs(10));
    let (a, b) = chains(&eng);
    assert_eq!(a.contract(0).unwrap().state, HtlcState::Claimed);
    assert_eq!(b.contract(0).unwrap().state, HtlcState::Claimed);
    assert_eq!(
        a.ledger().balance(BOB_KEY, CUR_A),
        100,
        "Bob received Alice's asset"
    );
    assert_eq!(
        b.ledger().balance(ALICE_KEY, CUR_B),
        200,
        "Alice received Bob's asset"
    );
    a.ledger().check_conservation().unwrap();
    b.ledger().check_conservation().unwrap();
}

/// HTLC timeout path: a griefing responder never counter-locks, so Alice
/// waits out the full 2T timelock and reclaims — safety without success,
/// the §1 criticism the comparison experiments quantify.
#[test]
fn htlc_griefing_timeout_refund() {
    let t_ms = 500u64;
    let mut eng = swap_engine(t_ms, SwapBehaviour::BobGriefs);
    eng.run_until(SimTime::from_secs(10));
    let (a, b) = chains(&eng);
    assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
    assert!(b.is_empty(), "the griefer never locked anything");
    assert_eq!(
        a.ledger().balance(ALICE_KEY, CUR_A),
        100,
        "capital came back"
    );
    a.ledger().check_conservation().unwrap();
    let reclaimed_at = eng
        .trace()
        .marks("alice_reclaimed")
        .next()
        .map(|(_, real, _, _)| real)
        .expect("initiator reclaimed");
    assert!(
        reclaimed_at >= SimTime::from_millis(2 * t_ms),
        "capital stayed frozen for the whole griefing window, not until {reclaimed_at}"
    );
}

/// Bob's hand in a process of its own. At `at` it asks chain A to lock
/// Alice's asset for Bob under a hashlock of its own, then claims that
/// contract, the chain's second, with the preimage.
struct HtlcThief {
    secret: Vec<u8>,
    at: SimTime,
}

impl Process<HMsg> for HtlcThief {
    fn on_start(&mut self, ctx: &mut Ctx<HMsg>) {
        ctx.set_timer_at(0, self.at);
        ctx.set_timer_at(1, self.at + SimDuration::from_millis(100));
    }

    fn on_message(&mut self, _from: Pid, _msg: HMsg, _ctx: &mut Ctx<HMsg>) {}

    fn on_timer(&mut self, id: TimerId, ctx: &mut Ctx<HMsg>) {
        let msg = if id == 0 {
            HMsg::Open {
                depositor: ALICE_KEY,
                beneficiary: BOB_KEY,
                asset: Asset::new(CUR_A, 100),
                hashlock: sha256(&self.secret),
                timelock: SimTime::from_secs(5),
            }
        } else {
            let preimage = self.secret.clone();
            HMsg::Claim { id: 1, preimage }
        };
        ctx.send(CHAIN_A_PID, msg);
    }

    fn fp_digest(&self) -> u64 {
        0
    }
}

/// A chain opens a contract only on its depositor's word. A griefing Bob
/// never counter-locks; after Alice has reclaimed her lock at 2T, a
/// process on his side names her as the depositor of a contract for him
/// under its own hashlock. Chain A must not lock her asset for that, so
/// the claim finds nothing to take.
#[test]
fn htlc_chain_opens_only_for_the_depositor() {
    let t_ms = 500u64;
    let mut eng = swap_engine(t_ms, SwapBehaviour::BobGriefs);
    let thief = HtlcThief {
        secret: b"bob's own secret".to_vec(),
        at: SimTime::from_millis(2 * t_ms + 100),
    };
    eng.add_process(Box::new(thief), DriftClock::perfect());
    eng.run_until(SimTime::from_secs(10));
    let (a, _) = chains(&eng);
    assert_eq!(a.len(), 1, "chain A holds only Alice's own lock");
    assert_eq!(a.contract(0).unwrap().state, HtlcState::Reclaimed);
    assert_eq!(a.ledger().balance(ALICE_KEY, CUR_A), 100, "nothing stolen");
    assert_eq!(a.ledger().balance(BOB_KEY, CUR_A), 0);
    a.ledger().check_conservation().unwrap();
}

/// Weak-protocol chain with the transaction manager swapped for the
/// Interledger atomic-mode deadline manager.
fn run_atomic(deadline: SimDuration, net: Box<dyn NetModel<PMsg>>, seed: u64) -> WeakOutcome {
    let s = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, 90 + seed);
    let mut eng = s.build_engine_with(
        net,
        Box::new(RandomOracle::seeded(seed)),
        |_| None,
        |i| (i == 0).then(|| Box::new(DeadlineTm::new(&s, deadline)) as Box<dyn Process<PMsg>>),
    );
    eng.run();
    WeakOutcome::extract(&eng, &s)
}

/// The Interledger atomic baseline: commits when the network cooperates,
/// aborts spuriously under partial synchrony — safe but without success
/// guarantees — while the paper's weak protocol commits in both settings.
#[test]
fn interledger_atomic_run() {
    // Fast synchronous network, generous deadline: commit.
    let fast = run_atomic(
        SimDuration::from_millis(500),
        Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
        1,
    );
    assert_eq!(fast.verdict(), Some(Verdict::Commit), "{fast:?}");
    assert!(fast.bob_paid);
    assert!(fast.cc_ok);

    // GST after the deadline: every honest message is late, the deadline
    // fires, the run aborts although everyone was willing.
    let slow = run_atomic(
        SimDuration::from_millis(100),
        Box::new(PartialSyncNet::new(
            SimTime::from_millis(5_000),
            SimDuration::from_millis(2),
        )),
        2,
    );
    assert_eq!(slow.verdict(), Some(Verdict::Abort), "{slow:?}");
    assert!(!slow.bob_paid);
    assert!(slow.cc_ok, "safety must survive the spurious abort");
    for p in slow.net_positions.iter().flatten() {
        assert_eq!(*p, 0, "abort returns every position to zero");
    }
}

/// The Interledger untuned (drift-oblivious) schedule against the paper's
/// tuned one: same drift, same worst-case network, same seeds — the tuned
/// schedule pays Bob, the untuned one times out.
#[test]
fn interledger_untuned_vs_tuned_schedule() {
    let n = 3usize;
    let params = SyncParams {
        rho_ppm: 150_000,
        ..SyncParams::baseline()
    };
    for (untuned, expect_paid) in [(false, true), (true, false)] {
        let mut setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), params, 0xBA5E);
        if untuned {
            setup = setup.with_schedule(untuned_schedule(n, &params));
        }
        let mut eng = setup.build_engine(
            Box::new(SyncNet::worst_case(params.delta)),
            Box::new(RandomOracle::seeded(3)),
            ClockPlan::Extremes,
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
        assert_eq!(
            o.bob_paid(),
            expect_paid,
            "untuned = {untuned} under {} ppm drift: {o:?}",
            params.rho_ppm
        );
        // Either way the escrows' books must balance.
        for (i, c) in o.conservation.iter().enumerate() {
            assert_eq!(*c, Some(true), "escrow {i} conservation");
        }
    }
}

/// A certified cross-chain deal (Herlihy–Liskov–Shrira) on the two-party
/// swap: full commit under partial synchrony with an intact
/// certified-blockchain log.
#[test]
fn deals_certified_deal_commits() {
    let (outcome, log_intact) = crosschain::experiments::e7::run_certified(true, false);
    assert!(outcome.is_full_commit(), "{outcome:?}");
    assert!(log_intact, "certified-blockchain log must verify");

    // The same deal with an impatient party must still be safe: never a
    // partial commit (that would be a theft), whatever the outcome.
    let (impatient, log_intact) = crosschain::experiments::e7::run_certified(true, true);
    assert!(log_intact);
    assert!(
        impatient.is_full_commit() || impatient.is_full_abort(),
        "no partial settlement: {impatient:?}"
    );
}
