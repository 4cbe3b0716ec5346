//! Assembly of complete time-bounded protocol instances, and outcome
//! extraction for the property checkers.
//!
//! A [`ChainSetup`] owns everything a run needs — the [`Chain`]
//! (topology, keys, value plan), the synchrony parameters and the derived
//! timeout schedule — and builds engines under any network model, clock
//! plan, and set of Byzantine substitutions. Runs are pure functions of
//! `(setup, net, oracle, clocks)`.

use crate::msg::PMsg;
use crate::timebounded::customers::{CustomerOutcome, CustomerProcess};
use crate::timebounded::escrow::{EscrowProcess, EscrowState};
use crate::timing::{SyncParams, TimeoutSchedule};
use crate::topology::{Chain, ChainTopology, Role, ValuePlan};
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Pid, Process};
use anta::time::{SimDuration, SimTime};

/// How local clocks are assigned to participants.
#[derive(Debug, Clone, Copy)]
pub enum ClockPlan {
    /// Everybody keeps perfect time (ρ = 0).
    Perfect,
    /// Each clock sampled uniformly within the drift envelope, offsets up
    /// to one hop.
    Sampled {
        /// Deterministic sampling seed.
        seed: u64,
    },
    /// Adversarial extremes: escrows run maximally fast clocks and
    /// customers maximally slow ones — the worst case for premature
    /// timeouts.
    Extremes,
}

impl ClockPlan {
    fn clock_for(&self, pid: Pid, topo: &ChainTopology, p: &SyncParams) -> DriftClock {
        match self {
            ClockPlan::Perfect => DriftClock::perfect(),
            ClockPlan::Sampled { seed } => DriftClock::seeded(*seed, pid, p.rho_ppm, p.hop()),
            ClockPlan::Extremes => match topo.role_of(pid) {
                Some(Role::Escrow(_)) => DriftClock::fastest(p.rho_ppm),
                _ => DriftClock::slowest(p.rho_ppm),
            },
        }
    }
}

/// One complete payment-instance configuration: the chain, plus the
/// synchrony parameters and the timeout schedule derived from them.
pub struct ChainSetup {
    /// The Figure 1 chain: topology, value plan, payment id and keys.
    pub chain: Chain,
    /// The cell's parameters.
    pub params: SyncParams,
    /// The derived timeout schedule.
    pub schedule: TimeoutSchedule,
}

impl ChainSetup {
    /// Creates a setup for `n` escrows. The schedule is derived from
    /// `params`; use [`ChainSetup::with_schedule`] to override it (e.g. the
    /// E6 ablations run deliberately broken schedules).
    pub fn new(n: usize, plan: ValuePlan, params: SyncParams, seed: u64) -> Self {
        ChainSetup {
            chain: Chain::new(n, plan, seed, 0).0,
            schedule: TimeoutSchedule::derive(n, &params),
            params,
        }
    }

    /// Replaces the timeout schedule (ablation experiments).
    pub fn with_schedule(mut self, schedule: TimeoutSchedule) -> Self {
        assert_eq!(schedule.n(), self.chain.n());
        self.schedule = schedule;
        self
    }

    /// The default (compliant) process for a role.
    pub fn default_process(&self, role: Role) -> Box<dyn Process<PMsg>> {
        match role {
            Role::Customer(i) => Box::new(CustomerProcess::new(self, i)),
            Role::Escrow(i) => Box::new(EscrowProcess::new(self, i, self.chain.escrow_book(i))),
        }
    }

    /// Builds an engine with compliant participants everywhere.
    pub fn build_engine(
        &self,
        net: Box<dyn NetModel<PMsg>>,
        oracle: Box<dyn Oracle>,
        clocks: ClockPlan,
    ) -> Engine<PMsg> {
        self.build_engine_with(net, oracle, clocks, |_| None)
    }

    /// The engine configuration this setup derives
    /// ([`SyncParams::engine_config`]): σ from the cell's parameters,
    /// run until [`ChainSetup::horizon`]. Callers may tweak it (e.g.
    /// counters-only tracing for exhaustive exploration) and pass it to
    /// [`ChainSetup::build_engine_cfg`].
    pub fn engine_config(&self) -> EngineConfig {
        self.params.engine_config(self.horizon())
    }

    /// How long a run of this chain may last: generously beyond every
    /// deadline in the schedule, 8·d₀ + 10 s.
    pub fn horizon(&self) -> SimTime {
        let (d0, slack) = (self.schedule.d.first(), SimDuration::from_secs(10));
        SimTime::ZERO + d0.map_or(slack, |d| d.saturating_mul(8).saturating_add(slack))
    }

    /// Builds an engine, substituting the processes for which `override_for`
    /// returns `Some` (Byzantine strategies, crash faults, baseline
    /// variants).
    pub fn build_engine_with(
        &self,
        net: Box<dyn NetModel<PMsg>>,
        oracle: Box<dyn Oracle>,
        clocks: ClockPlan,
        override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
    ) -> Engine<PMsg> {
        self.build_engine_cfg(net, oracle, clocks, self.engine_config(), override_for)
    }

    /// Builds an engine under an explicit engine configuration. Changing
    /// anything that affects scheduling choices (σ quantisation, horizon)
    /// changes the schedule tree; changing only `trace_mode` does not.
    pub fn build_engine_cfg(
        &self,
        net: Box<dyn NetModel<PMsg>>,
        oracle: Box<dyn Oracle>,
        clocks: ClockPlan,
        cfg: EngineConfig,
        override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
    ) -> Engine<PMsg> {
        let mut eng = Engine::new(net, oracle, cfg);
        self.assemble(&mut eng, clocks, override_for);
        eng
    }

    /// Registers the chain's processes, substituted as in
    /// [`ChainSetup::build_engine_with`], in `eng`: a new engine, or one
    /// [`Engine::reset`] readied for this run.
    pub fn assemble(
        &self,
        eng: &mut Engine<PMsg>,
        clocks: ClockPlan,
        override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
    ) {
        let topo = &self.chain.topo;
        self.chain.assemble(
            eng,
            override_for,
            |role| self.default_process(role),
            |pid| clocks.clock_for(pid, topo, &self.params),
        );
    }
}

/// A customer's extracted end-of-run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomerView {
    /// Terminal protocol outcome.
    pub outcome: CustomerOutcome,
    /// Whether the customer parted with her money.
    pub sent_money: bool,
    /// Real halt time, if halted.
    pub halted_at: Option<SimTime>,
    /// Halt time on the customer's own clock, if halted.
    pub halted_local: Option<SimTime>,
}

/// Everything the property checkers need from a finished run.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// Number of escrows in the chain.
    pub n: usize,
    /// Views for customers `c_0..=c_n`; `None` where the process was
    /// substituted (Byzantine) and exposes no compliant view.
    pub customers: Vec<Option<CustomerView>>,
    /// Final escrow control states (`None` for substituted escrows).
    pub escrow_states: Vec<Option<EscrowState>>,
    /// Per-escrow conservation audit (`None` for substituted escrows).
    pub conservation: Vec<Option<bool>>,
    /// Net value change per customer, summed across both adjacent escrows
    /// in currency units (only meaningful for single-currency plans).
    pub net_positions: Vec<Option<i64>>,
    /// Whether Bob issued χ (also `Some` only for a compliant Bob).
    pub bob_issued_chi: Option<bool>,
    /// Local time at which Alice sent her money (start of her T-bound
    /// clock), when a compliant Alice did.
    pub alice_sent_local: Option<SimTime>,
    /// True when the run ended because the event queue drained.
    pub quiescent: bool,
}

impl ChainOutcome {
    /// Extracts the outcome from a finished engine: one pass over the
    /// trace for every customer's halt, one fold per escrow book.
    pub fn extract(eng: &Engine<PMsg>, setup: &ChainSetup, quiescent: bool) -> Self {
        let (n, topo) = (setup.chain.n(), &setup.chain.topo);
        let customer = |i| eng.process_as::<CustomerProcess>(topo.customer_pid(i));
        let escrow = |i| eng.process_as::<EscrowProcess>(topo.escrow_pid(i));
        let mut customers: Vec<_> = (0..=n)
            .map(|i| {
                customer(i).map(|c| CustomerView {
                    outcome: c.outcome(),
                    sent_money: c.sent_money(),
                    halted_at: None,
                    halted_local: None,
                })
            })
            .collect();
        for (pid, real, local) in eng.trace().halts() {
            let Some(Role::Customer(i)) = topo.role_of(pid) else {
                continue;
            };
            // The engine records one halt per process.
            if let Some(v) = customers[i].as_mut() {
                (v.halted_at, v.halted_local) = (Some(real), Some(local));
            }
        }
        let escrow_states = (0..n)
            .map(|i| escrow(i).map(EscrowProcess::state))
            .collect();
        let (conservation, net_positions) =
            setup.chain.audit(|i| escrow(i).map(EscrowProcess::ledger));
        ChainOutcome {
            n,
            customers,
            escrow_states,
            conservation,
            net_positions,
            bob_issued_chi: customer(n).map(CustomerProcess::forwarded_chi),
            alice_sent_local: customer(0).and_then(CustomerProcess::sent_money_at),
            quiescent,
        }
    }

    /// True when Bob terminated paid.
    pub fn bob_paid(&self) -> bool {
        matches!(
            self.customers.last().and_then(|v| *v),
            Some(CustomerView {
                outcome: CustomerOutcome::Paid,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::net::SyncNet;
    use anta::oracle::RandomOracle;

    fn setup(n: usize) -> ChainSetup {
        ChainSetup::new(n, ValuePlan::uniform(n, 100), SyncParams::baseline(), 42)
    }

    fn run(setup: &ChainSetup, seed: u64, clocks: ClockPlan) -> ChainOutcome {
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(setup.params.delta, 16)),
            Box::new(RandomOracle::seeded(seed)),
            clocks,
        );
        let report = eng.run();
        ChainOutcome::extract(&eng, setup, report.quiescent)
    }

    #[test]
    fn single_hop_payment_succeeds() {
        let s = setup(1);
        let o = run(&s, 1, ClockPlan::Perfect);
        assert!(o.bob_paid(), "{o:?}");
        assert_eq!(o.customers[0].unwrap().outcome, CustomerOutcome::GotReceipt);
        assert_eq!(o.escrow_states[0], Some(EscrowState::Paid));
        assert_eq!(o.conservation[0], Some(true));
        // Alice down 100, Bob up 100.
        assert_eq!(o.net_positions[0], Some(-100));
        assert_eq!(o.net_positions[1], Some(100));
    }

    #[test]
    fn five_hop_payment_succeeds_with_drift() {
        let s = setup(5);
        for seed in 0..5 {
            let o = run(&s, seed, ClockPlan::Sampled { seed });
            assert!(o.bob_paid(), "seed {seed}: {o:?}");
            for i in 1..5 {
                assert_eq!(
                    o.customers[i].unwrap().outcome,
                    CustomerOutcome::Reimbursed,
                    "Chloe{i} (seed {seed})"
                );
                assert_eq!(o.net_positions[i], Some(0), "uniform plan: zero commission");
            }
            assert!(o.conservation.iter().all(|c| *c == Some(true)));
        }
    }

    #[test]
    fn extreme_clocks_still_succeed() {
        // The whole point of the fine-tuned schedule: adversarial drift
        // within the envelope cannot break Theorem 1.
        let s = setup(4);
        let o = run(&s, 7, ClockPlan::Extremes);
        assert!(o.bob_paid(), "{o:?}");
    }

    #[test]
    fn commission_plan_pays_connectors() {
        let n = 3;
        let s = ChainSetup::new(
            n,
            ValuePlan::with_commission(n, 100, 5),
            SyncParams::baseline(),
            9,
        );
        let o = run(&s, 3, ClockPlan::Perfect);
        assert!(o.bob_paid());
        // Chloe1 net +5, Chloe2 net +5; Alice −100; Bob +90.
        assert_eq!(
            o.net_positions,
            vec![Some(-100), Some(5), Some(5), Some(90)]
        );
    }

    #[test]
    fn all_customers_terminate() {
        let s = setup(3);
        let o = run(&s, 11, ClockPlan::Sampled { seed: 2 });
        for (i, c) in o.customers.iter().enumerate() {
            assert!(
                c.unwrap().halted_at.is_some(),
                "customer {i} did not terminate"
            );
        }
        assert!(o.quiescent);
    }
}
