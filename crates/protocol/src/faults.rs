//! Fault-injection plans: Byzantine participant substitutions composed
//! with network-level faults and adversarial clock assignments.
//!
//! A [`FaultPlan`] is a *distribution* over per-instance fault
//! assignments; [`FaultPlan::sample`] draws one [`InstanceFaults`] from an
//! instance's own seeded RNG, so the assignment is a pure function of the
//! payment spec — identical across runs and thread counts. The Byzantine
//! half reuses the adversarial processes of [`payment::byzantine`]; the
//! network half is [`anta::net::NetFaults`] layered over the synchronous
//! model by [`anta::net::FaultyNet`].

use anta::net::NetFaults;
use anta::process::Process;
use anta::time::SimDuration;
use payment::byzantine::{CrashAfter, ForgingChloe, LateBob, ThievingEscrow};
use payment::msg::PMsg;
use payment::timebounded::ChainSetup;
use payment::topology::Role;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-instance fault mix. The four Byzantine probabilities are per-mille
/// and mutually exclusive per instance (their sum must be ≤ 1000): one
/// draw decides which — if any — Byzantine substitution an instance gets,
/// keeping the outcome accounting unambiguous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// ‰ of instances in which one uniformly random participant
    /// (customer or escrow) fail-stops mid-protocol.
    pub crash_permille: u32,
    /// ‰ of instances with a Bob who sits on χ past the deadline.
    pub late_bob_permille: u32,
    /// ‰ of instances with a connector forging χ instead of paying
    /// (downgraded to a crash when the chain has no connector).
    pub forging_chloe_permille: u32,
    /// ‰ of instances with an escrow that takes the money and vanishes.
    pub thieving_escrow_permille: u32,
    /// Message-level faults applied to every message of every instance.
    pub net: NetFaults,
}

impl FaultPlan {
    /// No faults at all.
    pub const NONE: FaultPlan = FaultPlan {
        crash_permille: 0,
        late_bob_permille: 0,
        forging_chloe_permille: 0,
        thieving_escrow_permille: 0,
        net: NetFaults::NONE,
    };

    /// True when no instance can ever be faulted.
    pub fn is_none(&self) -> bool {
        self.byz_is_none() && self.net.is_none()
    }

    /// True when no Byzantine substitution can ever be drawn (the network
    /// layer may still inject faults).
    pub fn byz_is_none(&self) -> bool {
        self.byz_total() == 0
    }

    fn byz_total(&self) -> u32 {
        self.crash_permille
            + self.late_bob_permille
            + self.forging_chloe_permille
            + self.thieving_escrow_permille
    }

    /// Draws the fault assignment for one instance of an `n`-escrow chain.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> InstanceFaults {
        let total = self.byz_total();
        assert!(total <= 1000, "byzantine probabilities exceed 1000‰");
        let byz = if total == 0 {
            ByzFault::None
        } else {
            let r = rng.gen_range(0u32..1000);
            if r < self.crash_permille {
                // Victim uniform over the 2n+1 chain participants.
                let victim = rng.gen_range(0..2 * n + 1);
                if victim <= n {
                    ByzFault::CrashCustomer(victim)
                } else {
                    ByzFault::CrashEscrow(victim - n - 1)
                }
            } else if r < self.crash_permille + self.late_bob_permille {
                ByzFault::LateBob
            } else if r < total - self.thieving_escrow_permille {
                if n >= 2 {
                    ByzFault::ForgingChloe(rng.gen_range(1..n))
                } else {
                    // A 1-escrow chain has no connector to corrupt.
                    ByzFault::CrashCustomer(rng.gen_range(0..2usize))
                }
            } else if r < total {
                ByzFault::ThievingEscrow(rng.gen_range(0..n))
            } else {
                ByzFault::None
            }
        };
        InstanceFaults { byz, net: self.net }
    }
}

/// The `none / byz / byz+net` fault ladder the traffic grids (E8, E9)
/// sweep: no faults; 15% Byzantine substitutions; the same plus message
/// drops and bucketed extra delay.
pub fn ladder() -> [(&'static str, FaultPlan); 3] {
    let byz = FaultPlan {
        crash_permille: 60,
        late_bob_permille: 30,
        forging_chloe_permille: 30,
        thieving_escrow_permille: 30,
        net: NetFaults::NONE,
    };
    let net = NetFaults {
        drop_permille: 20,
        delay_permille: 150,
        extra_delay: SimDuration::from_millis(5),
        delay_buckets: 4,
    };
    [
        ("none", FaultPlan::NONE),
        ("byz", byz),
        ("byz+net", FaultPlan { net, ..byz }),
    ]
}

/// The concrete faults injected into one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceFaults {
    /// Which participant (if any) is substituted.
    pub byz: ByzFault,
    /// Message-level faults for this instance's network.
    pub net: NetFaults,
}

impl InstanceFaults {
    /// A fault-free instance.
    pub const NONE: InstanceFaults = InstanceFaults {
        byz: ByzFault::None,
        net: NetFaults::NONE,
    };
}

/// A Byzantine substitution of one chain participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzFault {
    /// Everyone abides.
    None,
    /// Customer `c_i` fail-stops shortly into the run.
    CrashCustomer(usize),
    /// Escrow `e_i` fail-stops shortly into the run.
    CrashEscrow(usize),
    /// Bob delays χ past `a_{n-1}`.
    LateBob,
    /// Connector `c_i` (`0 < i < n`) forges χ instead of paying.
    ForgingChloe(usize),
    /// Escrow `e_i` keeps the money.
    ThievingEscrow(usize),
}

impl ByzFault {
    /// The substituted role, if any — what the property checkers must mark
    /// as non-compliant.
    pub fn role(&self, n: usize) -> Option<Role> {
        match *self {
            ByzFault::None => None,
            ByzFault::CrashCustomer(i) | ByzFault::ForgingChloe(i) => Some(Role::Customer(i)),
            ByzFault::LateBob => Some(Role::Customer(n)),
            ByzFault::CrashEscrow(i) | ByzFault::ThievingEscrow(i) => Some(Role::Escrow(i)),
        }
    }

    /// Builds the adversarial process substituted for `role`, or `None`
    /// when `role` stays compliant. Crash fuses are set to a quarter of
    /// the first guarantee bound — early enough to hit every protocol
    /// phase across instances, late enough that the run has begun.
    pub fn substitute(&self, setup: &ChainSetup, role: Role) -> Option<Box<dyn Process<PMsg>>> {
        let n = setup.chain.n();
        if self.role(n) != Some(role) {
            return None;
        }
        let crash_at = SimDuration::from_ticks(setup.schedule.d[0].ticks() / 4);
        Some(match *self {
            ByzFault::None => unreachable!("role() returned Some"),
            ByzFault::CrashCustomer(_) | ByzFault::CrashEscrow(_) => {
                Box::new(CrashAfter::new(setup.default_process(role), crash_at))
            }
            ByzFault::LateBob => {
                let delay = setup.schedule.a[n - 1] + setup.params.delta * 4;
                Box::new(LateBob::new(setup, delay))
            }
            ByzFault::ForgingChloe(i) => Box::new(ForgingChloe::new(setup, i)),
            ByzFault::ThievingEscrow(i) => Box::new(ThievingEscrow::new(setup, i)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn heavy() -> FaultPlan {
        FaultPlan {
            crash_permille: 250,
            late_bob_permille: 250,
            forging_chloe_permille: 250,
            thieving_escrow_permille: 250,
            net: NetFaults::NONE,
        }
    }

    #[test]
    fn none_plan_never_faults() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(FaultPlan::NONE.is_none());
        for _ in 0..100 {
            assert_eq!(FaultPlan::NONE.sample(3, &mut rng), InstanceFaults::NONE);
        }
    }

    #[test]
    fn full_plan_always_faults_and_respects_indices() {
        let mut rng = StdRng::seed_from_u64(2);
        let plan = heavy();
        let mut seen = [false; 5];
        for _ in 0..500 {
            let f = plan.sample(3, &mut rng);
            match f.byz {
                ByzFault::None => panic!("1000‰ plan must always fault"),
                ByzFault::CrashCustomer(i) => {
                    assert!(i <= 3);
                    seen[0] = true;
                }
                ByzFault::CrashEscrow(i) => {
                    assert!(i < 3);
                    seen[1] = true;
                }
                ByzFault::LateBob => seen[2] = true,
                ByzFault::ForgingChloe(i) => {
                    assert!((1..3).contains(&i));
                    seen[3] = true;
                }
                ByzFault::ThievingEscrow(i) => {
                    assert!(i < 3);
                    seen[4] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all fault kinds drawn: {seen:?}");
    }

    #[test]
    fn forging_chloe_downgrades_on_single_hop() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = FaultPlan {
            forging_chloe_permille: 1000,
            ..FaultPlan::NONE
        };
        for _ in 0..50 {
            match plan.sample(1, &mut rng).byz {
                ByzFault::CrashCustomer(i) => assert!(i <= 1),
                other => panic!("expected crash downgrade, got {other:?}"),
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let plan = heavy();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| plan.sample(4, &mut rng).byz)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_plan_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = FaultPlan {
            crash_permille: 800,
            late_bob_permille: 300,
            ..FaultPlan::NONE
        }
        .sample(2, &mut rng);
    }

    #[test]
    fn roles_map_to_substituted_participants() {
        use payment::{SyncParams, ValuePlan};
        let setup = ChainSetup::new(3, ValuePlan::uniform(3, 100), SyncParams::baseline(), 5);
        let cases = [
            (ByzFault::CrashCustomer(0), Role::Customer(0)),
            (ByzFault::CrashCustomer(3), Role::Customer(3)),
            (ByzFault::CrashCustomer(2), Role::Customer(2)),
            (ByzFault::CrashEscrow(1), Role::Escrow(1)),
            (ByzFault::LateBob, Role::Customer(3)),
            (ByzFault::ForgingChloe(1), Role::Customer(1)),
            (ByzFault::ThievingEscrow(2), Role::Escrow(2)),
        ];
        for (fault, role) in cases {
            assert_eq!(fault.role(3), Some(role), "{fault:?}");
            assert!(fault.substitute(&setup, role).is_some(), "{fault:?}");
            // Other roles stay compliant.
            assert!(fault.substitute(&setup, Role::Escrow(0)).is_none() || role == Role::Escrow(0));
        }
        assert_eq!(ByzFault::None.role(3), None);
    }
}
