//! Assembly and outcome extraction for weak-liveness protocol instances.

use crate::msg::PMsg;
use crate::timing::SyncParams;
use crate::topology::{Chain, Role, ValuePlan};
use crate::weak::participants::{Patience, WeakCustomer, WeakEscrow};
use crate::weak::tm::{NotaryTm, TrustedTm};
use anta::clock::DriftClock;
use anta::engine::{Engine, EngineConfig};
use anta::net::NetModel;
use anta::oracle::Oracle;
use anta::process::{Pid, Process};
use anta::time::SimTime;
use xcrypto::{Authority, Signer, Verdict};

/// Which transaction manager to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmKind {
    /// A single trusted external party.
    Trusted,
    /// A smart contract on a public chain log (same trust, plus a
    /// verifiable record).
    Contract,
    /// A committee of `k` notaries running consensus; tolerates
    /// `f = ⌊(k−1)/3⌋` unreliable members.
    Committee {
        /// Committee size.
        k: usize,
    },
}

/// One complete weak-protocol configuration: the chain, plus its
/// transaction manager and every customer's patience.
pub struct WeakSetup {
    /// The Figure 1 chain: topology, value plan, payment id and keys.
    pub chain: Chain,
    /// Which transaction manager is deployed.
    pub tm_kind: TmKind,
    /// Who vouches for decision certificates.
    pub authority: Authority,
    /// Per-customer patience, index `0..=n`.
    pub patience: Vec<Patience>,
    tms: Vec<Signer>,
}

impl WeakSetup {
    /// Creates a setup with all customers fully patient.
    pub fn new(n: usize, plan: ValuePlan, tm_kind: TmKind, seed: u64) -> Self {
        let k = match tm_kind {
            TmKind::Trusted | TmKind::Contract => 1,
            TmKind::Committee { k } => k,
        };
        assert!(k >= 1, "empty committee");
        let (chain, tms) = Chain::new(n, plan, seed, k);
        let authority = match tm_kind {
            TmKind::Trusted | TmKind::Contract => Authority::Single(tms[0].id()),
            TmKind::Committee { .. } => Authority::committee(tms.iter().map(Signer::id).collect()),
        };
        WeakSetup {
            chain,
            tm_kind,
            authority,
            patience: vec![Patience::patient(); n + 1],
            tms,
        }
    }

    /// Overrides one customer's patience.
    pub fn with_patience(mut self, customer: usize, p: Patience) -> Self {
        self.patience[customer] = p;
        self
    }

    /// Engine pids of the manager processes.
    pub fn tm_pids(&self) -> std::ops::Range<Pid> {
        let base = self.chain.topo.next_free_pid();
        base..base + self.tms.len()
    }

    /// Signer of manager process `i` — exposed so baseline variants (e.g.
    /// the Interledger atomic manager) can substitute a manager that
    /// still signs under the authority this setup's participants verify.
    pub fn tm_signer(&self, i: usize) -> &Signer {
        &self.tms[i]
    }

    /// Everyone who must learn the decision.
    pub fn participant_pids(&self) -> std::ops::Range<Pid> {
        0..self.chain.topo.participants()
    }

    /// The default (compliant) process for a chain role.
    pub fn default_process(&self, role: Role) -> Box<dyn Process<PMsg>> {
        match role {
            Role::Customer(i) => Box::new(WeakCustomer::new(self, i)),
            Role::Escrow(i) => Box::new(WeakEscrow::new(self, i)),
        }
    }

    /// The default (compliant) manager process `i`.
    pub fn tm_process(&self, i: usize) -> Box<dyn Process<PMsg>> {
        match self.tm_kind {
            TmKind::Trusted | TmKind::Contract => Box::new(TrustedTm::new(self)),
            TmKind::Committee { .. } => Box::new(NotaryTm::new(self, i)),
        }
    }

    /// The engine configuration this setup derives
    /// ([`SyncParams::engine_config`]): the baseline σ, run for an hour.
    /// Callers may tweak it (e.g. counters-only tracing or a tighter
    /// horizon for Monte-Carlo sweeps), pass it to [`Engine::new`] and
    /// [`WeakSetup::assemble`] the processes.
    pub fn engine_config(&self) -> EngineConfig {
        SyncParams::baseline().engine_config(SimTime::from_secs(3_600))
    }

    /// Builds the engine with compliant participants, substituting where
    /// `override_for` returns `Some`. Managers cannot be overridden here —
    /// unreliable notaries are modelled by substituting pids in the
    /// returned engine order via `override_tm`.
    pub fn build_engine_with(
        &self,
        net: Box<dyn NetModel<PMsg>>,
        oracle: Box<dyn Oracle>,
        override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
        override_tm: impl FnMut(usize) -> Option<Box<dyn Process<PMsg>>>,
    ) -> Engine<PMsg> {
        let mut eng = Engine::new(net, oracle, self.engine_config());
        self.assemble(&mut eng, override_for, override_tm);
        eng
    }

    /// Registers the chain's and the managers' processes, substituted as
    /// in [`WeakSetup::build_engine_with`], in `eng`: a new engine, or one
    /// [`Engine::reset`] readied for this run.
    pub fn assemble(
        &self,
        eng: &mut Engine<PMsg>,
        override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
        mut override_tm: impl FnMut(usize) -> Option<Box<dyn Process<PMsg>>>,
    ) {
        self.chain.assemble(
            eng,
            override_for,
            |role| self.default_process(role),
            |_| DriftClock::perfect(),
        );
        for i in 0..self.tms.len() {
            let proc = override_tm(i).unwrap_or_else(|| self.tm_process(i));
            eng.add_process(proc, DriftClock::perfect());
        }
    }

    /// Builds the engine with compliant participants everywhere.
    pub fn build_engine(
        &self,
        net: Box<dyn NetModel<PMsg>>,
        oracle: Box<dyn Oracle>,
    ) -> Engine<PMsg> {
        self.build_engine_with(net, oracle, |_| None, |_| None)
    }
}

/// End-of-run extraction for the weak protocol.
#[derive(Debug, Clone)]
pub struct WeakOutcome {
    /// Number of escrows in the chain.
    pub n: usize,
    /// Verdict each compliant customer accepted (outer `None`: substituted
    /// process; inner `None`: no verdict accepted).
    pub customer_verdicts: Vec<Option<Option<Verdict>>>,
    /// Same for escrows.
    pub escrow_verdicts: Vec<Option<Option<Verdict>>>,
    /// Per-escrow conservation audit.
    pub conservation: Vec<Option<bool>>,
    /// Net value change per customer (single-currency plans).
    pub net_positions: Vec<Option<i64>>,
    /// Which customers requested aborts.
    pub abort_requested: Vec<Option<bool>>,
    /// True iff Bob's account at `e_{n-1}` received the payment.
    pub bob_paid: bool,
    /// Certificate consistency: no two compliant participants accepted
    /// different verdicts.
    pub cc_ok: bool,
    /// All compliant customers halted (they terminate on the decision).
    pub all_customers_terminated: bool,
    /// For the contract manager: chain log integrity check result.
    pub chain_integrity: Option<bool>,
}

impl WeakOutcome {
    /// Extracts the outcome from a finished engine.
    pub fn extract(eng: &Engine<PMsg>, setup: &WeakSetup) -> Self {
        let chain = &setup.chain;
        let (n, topo) = (chain.n(), &chain.topo);
        let customer = |i| eng.process_as::<WeakCustomer>(topo.customer_pid(i));
        let customer_verdicts: Vec<_> = (0..=n)
            .map(|i| customer(i).map(WeakCustomer::verdict))
            .collect();
        let abort_requested = (0..=n)
            .map(|i| customer(i).map(WeakCustomer::abort_requested))
            .collect();
        // The engine records one halt per process, so one pass over the
        // halts counts the compliant customers that terminated.
        let compliant = |pid| match topo.role_of(pid) {
            Some(Role::Customer(i)) => customer_verdicts[i].is_some(),
            _ => false,
        };
        let halted = eng.trace().halts().filter(|&(pid, ..)| compliant(pid));
        let all_terminated = halted.count() == customer_verdicts.iter().flatten().count();
        let escrow = |i| eng.process_as::<WeakEscrow>(topo.escrow_pid(i));
        let escrow_verdicts: Vec<_> = (0..n).map(|i| escrow(i).map(WeakEscrow::verdict)).collect();
        let (conservation, net_positions) = chain.audit(|i| escrow(i).map(WeakEscrow::ledger));
        let last = chain.plan.amounts[n - 1];
        let bob_paid = escrow(n - 1)
            .is_some_and(|e| e.ledger().balance(chain.bob_key(), last.currency) == last.amount);
        // CC: every accepted verdict agrees with the first.
        let mut accepted = customer_verdicts
            .iter()
            .chain(&escrow_verdicts)
            .flatten()
            .flatten();
        let first = accepted.next();
        let cc_ok = accepted.all(|v| Some(v) == first);
        // Contract chain integrity.
        let chain_integrity = eng
            .process_as::<TrustedTm>(topo.next_free_pid())
            .and_then(|tm| tm.chain())
            .map(|c| c.verify_integrity().is_ok());
        WeakOutcome {
            n,
            customer_verdicts,
            escrow_verdicts,
            conservation,
            net_positions,
            abort_requested,
            bob_paid,
            cc_ok,
            all_customers_terminated: all_terminated,
            chain_integrity,
        }
    }

    /// The single verdict of the run, if any compliant participant
    /// accepted one.
    pub fn verdict(&self) -> Option<Verdict> {
        let accepted = self.customer_verdicts.iter().chain(&self.escrow_verdicts);
        accepted.flatten().flatten().copied().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anta::net::{PartialSyncNet, SyncNet};
    use anta::oracle::RandomOracle;
    use anta::time::SimDuration;

    fn run(setup: &WeakSetup, seed: u64) -> WeakOutcome {
        let mut eng = setup.build_engine(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(seed)),
        );
        eng.run();
        WeakOutcome::extract(&eng, setup)
    }

    #[test]
    fn trusted_tm_all_patient_commits() {
        let s = WeakSetup::new(3, ValuePlan::uniform(3, 100), TmKind::Trusted, 1);
        let o = run(&s, 1);
        assert_eq!(o.verdict(), Some(Verdict::Commit), "{o:?}");
        assert!(o.bob_paid);
        assert!(o.cc_ok);
        assert!(o.all_customers_terminated);
        assert!(o.conservation.iter().all(|c| *c == Some(true)));
        assert_eq!(
            o.net_positions,
            vec![Some(-100), Some(0), Some(0), Some(100)]
        );
    }

    #[test]
    fn impatient_alice_aborts_safely() {
        // Alice aborts before even staging money.
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 50), TmKind::Trusted, 2).with_patience(
            0,
            Patience {
                act_at: None,
                abort_at: Some(SimDuration::from_millis(1)),
            },
        );
        let o = run(&s, 2);
        assert_eq!(o.verdict(), Some(Verdict::Abort), "{o:?}");
        assert!(!o.bob_paid);
        assert!(o.cc_ok);
        // Nobody lost anything.
        for (i, npos) in o.net_positions.iter().enumerate() {
            assert_eq!(*npos, Some(0), "customer {i} must be whole");
        }
        assert!(
            o.all_customers_terminated,
            "abort certificate terminates everyone"
        );
    }

    #[test]
    fn impatient_after_staging_gets_refund() {
        // Chloe stages money, then loses patience while Bob never accepts.
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 50), TmKind::Trusted, 3)
            .with_patience(2, Patience::absent()) // Bob never accepts
            .with_patience(1, Patience::until(SimDuration::from_millis(200)));
        let o = run(&s, 3);
        assert_eq!(o.verdict(), Some(Verdict::Abort));
        assert_eq!(o.net_positions[1], Some(0), "Chloe refunded after abort");
        assert_eq!(o.net_positions[0], Some(0), "Alice refunded after abort");
        assert!(o.cc_ok);
    }

    #[test]
    fn contract_tm_produces_verifiable_log() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 10), TmKind::Contract, 4);
        let o = run(&s, 4);
        assert_eq!(o.verdict(), Some(Verdict::Commit));
        assert_eq!(o.chain_integrity, Some(true), "chain log must verify");
    }

    #[test]
    fn committee_tm_all_honest_commits() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 75), TmKind::Committee { k: 4 }, 5);
        let o = run(&s, 5);
        assert_eq!(o.verdict(), Some(Verdict::Commit), "{o:?}");
        assert!(o.bob_paid);
        assert!(o.cc_ok);
        assert!(o.all_customers_terminated);
    }

    #[test]
    fn committee_tm_with_silent_notary_still_commits() {
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 75), TmKind::Committee { k: 4 }, 6);
        let mut eng = s.build_engine_with(
            Box::new(SyncNet::new(SimDuration::from_millis(5), 8)),
            Box::new(RandomOracle::seeded(6)),
            |_| None,
            // Notary 3 has crashed.
            |i| (i == 3).then(|| Box::new(anta::process::InertProcess) as Box<dyn Process<PMsg>>),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &s);
        assert_eq!(o.verdict(), Some(Verdict::Commit), "{o:?}");
        assert!(o.bob_paid);
        assert!(o.cc_ok);
    }

    #[test]
    fn committee_tm_abort_race_keeps_cc() {
        // Bob accepts but Alice aborts at nearly the same moment: whatever
        // the committee decides, everyone must agree (CC) and money must be
        // conserved.
        for seed in 0..10u64 {
            let s = WeakSetup::new(2, ValuePlan::uniform(2, 75), TmKind::Committee { k: 4 }, 7)
                .with_patience(
                    0,
                    Patience {
                        act_at: Some(SimDuration::ZERO),
                        abort_at: Some(SimDuration::from_millis(30)),
                    },
                );
            let o = run(&s, seed);
            assert!(o.cc_ok, "seed {seed}: CC violated: {o:?}");
            assert!(o.verdict().is_some(), "seed {seed}: no decision");
            assert!(o.conservation.iter().all(|c| *c == Some(true)));
            match o.verdict().unwrap() {
                Verdict::Commit => assert!(o.bob_paid, "seed {seed}"),
                Verdict::Abort => {
                    assert!(!o.bob_paid, "seed {seed}");
                    assert!(
                        o.net_positions.iter().all(|p| *p == Some(0)),
                        "seed {seed}: {o:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_synchrony_still_decides() {
        // The whole point of Theorem 3: the weak protocol needs no
        // synchrony bound. A GST adversary delays everything pre-GST.
        let s = WeakSetup::new(2, ValuePlan::uniform(2, 40), TmKind::Trusted, 8);
        let mut eng = s.build_engine(
            Box::new(PartialSyncNet::new(
                SimTime::from_millis(500),
                SimDuration::from_millis(5),
            )),
            Box::new(RandomOracle::seeded(8)),
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &s);
        assert_eq!(o.verdict(), Some(Verdict::Commit));
        assert!(o.bob_paid);

        let s2 = WeakSetup::new(2, ValuePlan::uniform(2, 40), TmKind::Committee { k: 4 }, 9);
        let mut eng2 = s2.build_engine(
            Box::new(PartialSyncNet::new(
                SimTime::from_millis(500),
                SimDuration::from_millis(5),
            )),
            Box::new(RandomOracle::seeded(9)),
        );
        eng2.run();
        let o2 = WeakOutcome::extract(&eng2, &s2);
        assert_eq!(o2.verdict(), Some(Verdict::Commit), "{o2:?}");
        assert!(o2.cc_ok);
    }

    #[test]
    fn commission_preserved_in_weak_commit() {
        let s = WeakSetup::new(
            3,
            ValuePlan::with_commission(3, 100, 10),
            TmKind::Trusted,
            10,
        );
        let o = run(&s, 10);
        assert_eq!(o.verdict(), Some(Verdict::Commit));
        assert_eq!(
            o.net_positions,
            vec![Some(-100), Some(10), Some(10), Some(80)]
        );
    }
}
