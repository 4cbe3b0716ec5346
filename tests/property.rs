//! Workspace-level property-based tests: the paper's safety quantifiers
//! ("for every execution", "no matter how malicious") exercised over
//! randomly generated scenarios spanning all crates.
//!
//! Engine runs are comparatively slow in debug builds, so the proptest
//! case counts here are deliberately modest; the exhaustive-schedule
//! sweeps in `tests/exploration.rs` and the experiment binaries provide
//! volume at release speed.

use crosschain::anta::net::{PartialSyncNet, SyncNet};
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::process::InertProcess;
use crosschain::anta::time::{SimDuration, SimTime};
use crosschain::payment::properties::{check_definition1, check_definition2, Compliance};
use crosschain::payment::timebounded::{ChainOutcome, ChainSetup, ClockPlan};
use crosschain::payment::weak::{Patience, TmKind, WeakOutcome, WeakSetup};
use crosschain::payment::{Role, SyncParams, ValuePlan};
use proptest::prelude::*;

fn cases(n: u32) -> ProptestConfig {
    ProptestConfig {
        cases: n,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(cases(24))]

    /// Theorem 1 as a property: any chain length, any drift within the
    /// envelope, any seed — all-compliant synchronous runs satisfy all of
    /// Definition 1.
    #[test]
    fn prop_theorem1_random_instances(
        n in 1usize..6,
        rho in 0u64..150_000,
        amount in 1u64..1_000_000,
        seed in 0u64..10_000,
    ) {
        let params = SyncParams { rho_ppm: rho, ..SyncParams::baseline() };
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, amount), params, seed);
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(params.delta, 16)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
        let v = check_definition1(&o, &setup, &Compliance::all_compliant());
        prop_assert!(v.all_ok(), "{:?}", v.violations());
        prop_assert!(o.bob_paid());
    }

    /// Safety under randomly chosen crashed participants: whichever single
    /// role crashes, everyone else keeps Definition 1.
    #[test]
    fn prop_single_crash_any_role(
        n in 2usize..5,
        victim in 0usize..9,
        seed in 0u64..10_000,
    ) {
        let setup = ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), seed);
        let roles: Vec<Role> = (0..=n)
            .map(Role::Customer)
            .chain((0..n).map(Role::Escrow))
            .collect();
        let role = roles[victim % roles.len()];
        let mut eng = setup.build_engine_with(
            Box::new(SyncNet::new(setup.params.delta, 8)),
            Box::new(RandomOracle::seeded(seed)),
            ClockPlan::Sampled { seed },
            |r| (r == role).then(|| Box::new(InertProcess) as Box<_>),
        );
        let report = eng.run();
        let o = ChainOutcome::extract(&eng, &setup, report.quiescent);
        let v = check_definition1(&o, &setup, &Compliance::with_byzantine(vec![role]));
        prop_assert!(v.all_ok(), "victim {role:?}: {:?}", v.violations());
    }

    /// The weak protocol under random patience vectors: every run decides
    /// at most one verdict, conserves money, and anyone who aborted ends
    /// whole.
    #[test]
    fn prop_weak_random_patience(
        act0 in prop::option::of(0u64..200),
        act1 in prop::option::of(0u64..200),
        abort0 in prop::option::of(0u64..400),
        abort1 in prop::option::of(0u64..400),
        seed in 0u64..10_000,
    ) {
        let mut setup = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, seed);
        setup = setup.with_patience(0, Patience {
            act_at: act0.map(SimDuration::from_millis),
            abort_at: abort0.map(SimDuration::from_millis),
        });
        setup = setup.with_patience(1, Patience {
            act_at: act1.map(SimDuration::from_millis),
            abort_at: abort1.map(SimDuration::from_millis),
        });
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(seed)),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &setup);
        prop_assert!(o.cc_ok, "{o:?}");
        for (i, c) in o.conservation.iter().enumerate() {
            prop_assert_eq!(*c, Some(true), "escrow {} conservation", i);
        }
        match o.verdict() {
            Some(crosschain::xcrypto::Verdict::Abort) => {
                for (i, p) in o.net_positions.iter().enumerate() {
                    prop_assert_eq!(*p, Some(0), "customer {} after abort", i);
                }
            }
            Some(crosschain::xcrypto::Verdict::Commit) => {
                prop_assert!(o.bob_paid, "{o:?}");
            }
            None => {} // nobody impatient enough and someone withheld: legal
        }
        let v = check_definition2(&o, &Compliance::all_compliant(), false);
        prop_assert!(v.all_ok(), "{:?}", v.violations());
    }

    /// Random GST never endangers the weak protocol's guarantees.
    #[test]
    fn prop_weak_random_gst(gst_ms in 0u64..2_000, seed in 0u64..10_000) {
        let setup = WeakSetup::new(2, ValuePlan::uniform(2, 100), TmKind::Trusted, seed);
        let mut eng = setup.build_engine(
            Box::new(PartialSyncNet::randomized(
                SimTime::from_millis(gst_ms),
                SimDuration::from_millis(5),
                8,
            )),
            Box::new(RandomOracle::seeded(seed)),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &setup);
        prop_assert_eq!(o.verdict(), Some(crosschain::xcrypto::Verdict::Commit));
        prop_assert!(o.bob_paid);
        prop_assert!(o.cc_ok);
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// The timeout calculus: untuned (ρ = 0) schedules validate exactly up
    /// to the drift they were derived for — and the tuned schedule always
    /// validates at its own drift (soundness of the derivation, cheap
    /// arithmetic-only property).
    #[test]
    fn prop_schedule_roundtrip(
        n in 1usize..10,
        rho in 0u64..200_000,
        delta_us in 1_000u64..50_000,
    ) {
        use crosschain::payment::TimeoutSchedule;
        let p = SyncParams {
            delta: SimDuration::from_ticks(delta_us),
            sigma: SimDuration::from_ticks(delta_us / 10),
            rho_ppm: rho,
            margin: SimDuration::from_ticks(delta_us / 2),
        };
        let s = TimeoutSchedule::derive(n, &p);
        prop_assert!(s.validate(&p).is_ok());
        // More drift than derived-for must eventually fail validation.
        let harder = SyncParams { rho_ppm: rho + 600_000, ..p };
        if n >= 2 {
            prop_assert!(
                TimeoutSchedule::derive(n, &p).check_chaining(&harder).is_err()
                    || p.margin >= p.delta, // huge margins can absorb it
                "chaining should not survive +60% extra drift"
            );
        }
    }

    /// The hash-linked chain log detects any single-entry tamper.
    #[test]
    fn prop_simchain_tamper_evident(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..20),
        victim in any::<prop::sample::Index>(),
        flip_bit in 0usize..8,
    ) {
        use crosschain::ledger::SimChain;
        let mut chain = SimChain::new();
        for p in &payloads {
            chain.append(p.clone());
        }
        prop_assert!(chain.verify_integrity().is_ok());
        // Tamper via a rebuilt chain sharing all entries but one flipped
        // payload bit (SimChain has no public mutator — clone the entries).
        let idx = victim.index(payloads.len());
        let mut rebuilt = SimChain::new();
        for (i, p) in payloads.iter().enumerate() {
            let mut p = p.clone();
            if i == idx {
                if p.is_empty() {
                    p.push(1);
                } else {
                    p[0] ^= 1 << flip_bit;
                }
            }
            rebuilt.append(p);
        }
        prop_assert_ne!(chain.head(), rebuilt.head(), "any tamper changes the head hash");
    }
}

/// Both χ-race checks are strict: an `a_i` equal to its `need` fails at
/// index `i`, one tick above it passes.
#[test]
fn chaining_and_forward_checks_are_strict_at_need() {
    use crosschain::payment::TimeoutSchedule;
    let p = SyncParams::baseline();
    let n = 4;
    let s = TimeoutSchedule::derive(n, &p);
    let tick = SimDuration::from_ticks(1);
    for i in 0..n - 1 {
        let need = p.inflate(p.inflate(s.a[i + 1]) + p.hop() * 4);
        let mut at = s.clone();
        at.a[i] = need;
        assert_eq!(at.check_chaining(&p), Err(i), "chaining at a[{i}] = need");
        at.a[i] = need + tick;
        assert_eq!(at.check_chaining(&p), Ok(()), "chaining at need + 1");
    }
    for i in 0..n {
        let k = 2 * (n - 1 - i) as u64 + 1;
        let need = p.inflate((p.hop() * 2).saturating_mul(k));
        let mut at = s.clone();
        at.a[i] = need;
        assert_eq!(at.check_forward(&p), Err(i), "forward at a[{i}] = need");
        at.a[i] = need + tick;
        assert_eq!(at.check_forward(&p), Ok(()), "forward at need + 1");
    }
}
