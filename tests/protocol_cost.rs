//! Exact protocol costs. On its success path the time-bounded protocol
//! (Figure 2) sends exactly 6n messages and dispatches exactly 9n + 1
//! engine events for a chain of n escrows, whatever the seed, drift or
//! delay draw. A consensus committee of honest notaries on a synchronous
//! network decides in round 0; its message count varies with the seed,
//! so it is pinned for one configuration, not given as a formula.

use crosschain::anta::clock::DriftClock;
use crosschain::anta::engine::{Engine, EngineConfig};
use crosschain::anta::net::SyncNet;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::time::SimDuration;
use crosschain::consensus::{Config, ConsMsg, NotaryCore, NotaryProcess};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::{SyncParams, ValuePlan};
use crosschain::xcrypto::{KeyId, Pki, Verdict};
use std::sync::Arc;

#[test]
fn time_bounded_success_path_sends_6n_messages_in_9n_plus_1_events() {
    for n in 1..=32usize {
        for (rho_ppm, seed) in [(0u64, 0u64), (1_000, 1), (150_000, 2)] {
            let params = SyncParams {
                rho_ppm,
                ..SyncParams::baseline()
            };
            let setup = ChainSetup::new(n, ValuePlan::with_commission(n, 1_000, 7), params, 0xE1);
            let mut eng = setup.build_engine(
                Box::new(SyncNet::new(params.delta, 64)),
                Box::new(RandomOracle::seeded(seed)),
                ClockPlan::Sampled { seed },
            );
            let report = eng.run();
            let outcome = ChainOutcome::extract(&eng, &setup, report.quiescent);
            assert!(outcome.bob_paid(), "n = {n}, ρ = {rho_ppm}, seed {seed}");
            assert_eq!(
                eng.trace().sent_count(),
                6 * n,
                "messages, n = {n}, seed {seed}"
            );
            assert_eq!(
                report.events,
                9 * n as u64 + 1,
                "events, n = {n}, seed {seed}"
            );
        }
    }
}

/// Runs `k` honest notaries (keys `0xF1`, oracle seed 2, δ = 2 ms) to a
/// decision; returns the highest decision round and the messages sent.
fn committee_run(k: usize) -> (u32, usize) {
    let mut pki = Pki::new(0xF1);
    let pairs = pki.register_many(k);
    let members: Vec<KeyId> = pairs.iter().map(|(id, _)| *id).collect();
    let pki = Arc::new(pki);
    let cfg = Config {
        instance: 1,
        members,
        f: (k - 1) / 3,
        base_timeout: SimDuration::from_millis(50),
    };
    let mut eng: Engine<ConsMsg> = Engine::new(
        Box::new(SyncNet::new(SimDuration::from_millis(2), 8)),
        Box::new(RandomOracle::seeded(2)),
        EngineConfig::default(),
    );
    for (i, (_, signer)) in pairs.iter().enumerate() {
        let peers: Vec<usize> = (0..k).filter(|&p| p != i).collect();
        let core = NotaryCore::new(cfg.clone(), signer.clone(), pki.clone(), Verdict::Commit);
        eng.add_process(
            Box::new(NotaryProcess::new(core, peers)),
            DriftClock::perfect(),
        );
    }
    eng.run();
    let mut round = 0;
    for i in 0..k {
        let p = eng.process_as::<NotaryProcess>(i).expect("notary");
        assert_eq!(p.decided(), Some(Verdict::Commit), "k = {k}, notary {i}");
        round = round.max(p.decision().expect("decided").0);
    }
    (round, eng.trace().sent_count())
}

#[test]
fn honest_synchronous_committee_decides_in_round_zero_with_pinned_messages() {
    for (k, messages) in [(4, 39), (7, 132), (10, 279), (13, 480)] {
        assert_eq!(committee_run(k), (0, messages), "k = {k}");
    }
}
