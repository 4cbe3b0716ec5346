//! **E2 — Theorem 2**: impossibility under partial synchrony.
//!
//! For every deadline- or patience-based candidate in the repository, an
//! adversary schedule forcing a Definition 1 violation; plus the
//! executable indistinguishability argument (two runs the deciding escrow
//! cannot tell apart, with contradictory obligations).

use crate::table::{check, Table};
use anta::engine::EngineConfig;
use anta::net::{AdversarialNet, Delivery, EnvelopeMeta, NetModel, SyncNet};
use anta::oracle::RandomOracle;
use anta::time::{SimDuration, SimTime};
use deals::timelock::{extract_timelock_outcome, DMsg, DealInstance};
use deals::{DealMatrix, DealOutcome};
use ledger::{Asset, CurrencyId};
use payment::impossibility::{
    cs2_violation_under_partial_synchrony, cs3_violation_under_partial_synchrony,
    indistinguishability_pair, no_timeout_never_terminates, WitnessReport,
};

/// Attacks the HLS timelock deal protocol under partial synchrony (vote
/// delayed to one escrow) — its Safety falls, completing the matrix with
/// a non-payment candidate.
pub fn timelock_deal_violation() -> WitnessReport {
    timelock_deal_witness(|inst| {
        let target = inst.escrow_pid(1);
        Box::new(AdversarialNet::new(
            move |m: &EnvelopeMeta, msg: &DMsg, _o| {
                let base = SimDuration::from_millis(2);
                match msg {
                    DMsg::CommitVote { .. } if m.to == target => {
                        Delivery::At(m.sent_at + SimDuration::from_secs(100))
                    }
                    _ => Delivery::At(m.sent_at + base),
                }
            },
        ))
    })
}

/// Sanity control: the same timelock deal commits under synchrony.
pub fn timelock_deal_control() -> DealOutcome {
    run_timelock_deal(synchronous).1
}

fn synchronous(_: &DealInstance) -> Box<dyn NetModel<DMsg>> {
    Box::new(SyncNet::new(SimDuration::from_millis(2), 8))
}

/// The timelock-deal witness over the network `net` builds for the
/// instance: witnessed iff some compliant party ends with an unacceptable
/// payoff.
fn timelock_deal_witness(
    net: impl FnOnce(&DealInstance) -> Box<dyn NetModel<DMsg>>,
) -> WitnessReport {
    let (inst, outcome) = run_timelock_deal(net);
    let victim = (0..2).find(|&p| !outcome.acceptable_for(&inst.deal, p));
    WitnessReport {
        candidate: "HLS timelock commit (deal protocol)",
        violated: "Safety [3]",
        witnessed: victim.is_some(),
        description: match victim {
            Some(victim) => format!(
                "pre-GST delay of one commit-vote split the escrows ({:?}); compliant \
                 party {victim} ended with an unacceptable payoff",
                outcome.executed
            ),
            None => format!(
                "no witness: every compliant payoff stayed acceptable ({:?})",
                outcome.executed
            ),
        },
    }
}

/// Runs E2's timelock deal — the two-party swap with a 200 ms timelock —
/// over the network `net` builds for the instance.
fn run_timelock_deal(
    net: impl FnOnce(&DealInstance) -> Box<dyn NetModel<DMsg>>,
) -> (DealInstance, DealOutcome) {
    let mut deal = DealMatrix::new(2);
    deal.add(0, 1, Asset::new(CurrencyId(0), 5));
    deal.add(1, 0, Asset::new(CurrencyId(1), 7));
    let (inst, signers) = DealInstance::generate(deal, 0xE2);
    let mut eng = inst.timelock_engine(
        &signers,
        SimDuration::from_millis(200),
        net(&inst),
        Box::new(RandomOracle::seeded(1)),
        EngineConfig::default(),
        |_, _| {},
    );
    eng.run_until(SimTime::from_secs(300));
    let outcome = extract_timelock_outcome(&eng, &inst);
    (inst, outcome)
}

/// The full E2 report.
pub struct E2Report {
    /// The violation matrix rows.
    pub rows: Vec<WitnessReport>,
    /// Both halves of the indistinguishability argument checked out.
    pub indistinguishability_ok: bool,
    /// The deciding escrow's identical view in both runs.
    pub shared_prefix: Vec<String>,
}

/// Runs every witness.
pub fn run() -> E2Report {
    let rows = vec![
        cs2_violation_under_partial_synchrony(2, 100),
        cs3_violation_under_partial_synchrony(3, 100),
        no_timeout_never_terminates(2, 100),
        timelock_deal_violation(),
    ];
    let w = indistinguishability_pair(2, 100);
    E2Report {
        rows,
        indistinguishability_ok: w.run_a_refund_correct && w.run_b_cs2_violated,
        shared_prefix: w.shared_prefix,
    }
}

impl E2Report {
    /// Renders the violation matrix plus the indistinguishability summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E2 — Theorem 2: every candidate fails under partial synchrony",
            &["candidate", "violated", "witness"],
        );
        for r in &self.rows {
            t.push(&[
                r.candidate.to_string(),
                r.violated.to_string(),
                r.description.clone(),
            ]);
        }
        format!(
            "{}\nIndistinguishability pair (e_(n-1)'s view up to its deadline: {:?}):\n  run A (Bob crashed): refund correct — {}\n  run B (χ merely delayed): identical prefix forces the same refund, violating CS2 — {}\n",
            t.render(),
            self.shared_prefix,
            check(self.indistinguishability_ok),
            check(self.indistinguishability_ok),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_witnesses_materialise() {
        let r = run();
        assert_eq!(r.rows.len(), 4);
        assert!(r.rows.iter().all(|row| row.witnessed), "{}", r.render());
        assert!(r.indistinguishability_ok);
        let rendered = r.render();
        assert!(rendered.contains("CS2"));
        assert!(rendered.contains("CS3"));
        assert!(rendered.contains("Safety [3]"));
    }

    #[test]
    fn timelock_control_commits_under_synchrony() {
        assert!(timelock_deal_control().is_full_commit());
    }

    #[test]
    fn timelock_witness_over_synchrony_witnesses_nothing() {
        let row = timelock_deal_witness(synchronous);
        assert!(!row.witnessed, "{row:?}");
    }
}
