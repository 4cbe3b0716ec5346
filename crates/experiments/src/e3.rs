//! **E3 — Theorem 3**: the weak protocol under partial synchrony.
//!
//! Sweeps the three transaction-manager instantiations × patience
//! configurations × seeds under randomized partially synchronous networks
//! (including unreliable notaries for the committee manager). Claims
//! under test: Definition 2 holds in every run; with everyone patient and
//! compliant, Bob is always paid; impatience aborts cleanly, never both
//! certificates (CC).

use crate::stats::Rate;
use crate::sweep::parallel_map;
use crate::table::{check, Table};
use anta::net::PartialSyncNet;
use anta::oracle::RandomOracle;
use anta::time::{SimDuration, SimTime};
use payment::properties::{check_definition2, Compliance};
use payment::weak::{Patience, TmKind, WeakOutcome, WeakSetup};
use payment::ValuePlan;
use xcrypto::Verdict;

/// Patience configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatiencePlan {
    /// Everyone fully patient.
    AllPatient,
    /// One customer loses patience quickly.
    OneImpatient,
    /// One customer never acts (withholds); another has finite patience,
    /// guaranteeing termination via abort.
    WithholderPlusGuard,
}

impl PatiencePlan {
    fn label(&self) -> &'static str {
        match self {
            PatiencePlan::AllPatient => "all patient",
            PatiencePlan::OneImpatient => "one impatient",
            PatiencePlan::WithholderPlusGuard => "withholder + guard",
        }
    }

    fn apply(&self, mut setup: WeakSetup) -> WeakSetup {
        match self {
            PatiencePlan::AllPatient => setup,
            PatiencePlan::OneImpatient => {
                setup = setup.with_patience(0, Patience::until(SimDuration::from_millis(40)));
                setup
            }
            PatiencePlan::WithholderPlusGuard => {
                let n = setup.chain.n();
                setup = setup.with_patience(n, Patience::absent()); // Bob never accepts
                setup = setup.with_patience(0, Patience::until(SimDuration::from_millis(400)));
                setup
            }
        }
    }
}

/// One cell of the E3 grid.
#[derive(Debug, Clone, Copy)]
pub struct E3Params {
    /// Number of escrows in the chain.
    pub n: usize,
    /// Transaction-manager kind under test.
    pub tm: TmKind,
    /// Who is patient and who is not.
    pub plan: PatiencePlan,
    /// Whether one committee notary is crashed.
    pub silent_notary: bool,
    /// Number of seeded runs.
    pub seeds: u64,
}

/// One cell's results.
#[derive(Debug, Clone)]
pub struct E3Cell {
    /// The cell's parameters.
    pub params: E3Params,
    /// Definition 2 all-clauses success rate.
    pub def2_ok: Rate,
    /// Certificate-consistency success rate.
    pub cc_ok: Rate,
    /// Runs that ended in a commit certificate.
    pub commits: usize,
    /// Runs that ended in an abort certificate.
    pub aborts: usize,
    /// Runs with no decision within the horizon.
    pub undecided: usize,
}

/// Runs one cell.
pub fn run_cell(p: &E3Params) -> E3Cell {
    let mut def2_ok = Rate::default();
    let mut cc_ok = Rate::default();
    let (mut commits, mut aborts, mut undecided) = (0usize, 0usize, 0usize);
    for seed in 0..p.seeds {
        let setup = p.plan.apply(WeakSetup::new(
            p.n,
            ValuePlan::with_commission(p.n, 1_000, 3),
            p.tm,
            0xE3 + seed,
        ));
        let gst = SimTime::from_millis(50 + 37 * (seed % 7));
        let net = PartialSyncNet::randomized(gst, SimDuration::from_millis(4), 8);
        let mut eng = setup.build_engine_with(
            Box::new(net),
            Box::new(RandomOracle::seeded(seed)),
            |_| None,
            |i| {
                (p.silent_notary && i == 1).then(|| Box::new(anta::process::InertProcess) as Box<_>)
            },
        );
        eng.run();
        let o = WeakOutcome::extract(&eng, &setup);
        let everyone_patient = p.plan == PatiencePlan::AllPatient;
        // Withholding Bob is modelled via patience, so the compliance map
        // stays all-compliant except conceptually Bob in that plan; we keep
        // checks conservative by treating all roles compliant — the
        // checker's conditional clauses handle the rest.
        let v = check_definition2(&o, &Compliance::all_compliant(), everyone_patient);
        def2_ok.record(v.all_ok());
        cc_ok.record(o.cc_ok);
        match o.verdict() {
            Some(Verdict::Commit) => commits += 1,
            Some(Verdict::Abort) => aborts += 1,
            None => undecided += 1,
        }
    }
    E3Cell {
        params: *p,
        def2_ok,
        cc_ok,
        commits,
        aborts,
        undecided,
    }
}

/// The full E3 report.
pub struct E3Report {
    /// One entry per parameter-grid cell.
    pub cells: Vec<E3Cell>,
}

/// Runs the default grid.
pub fn run(seeds: u64, threads: usize) -> E3Report {
    let mut grid = Vec::new();
    for tm in [
        TmKind::Trusted,
        TmKind::Contract,
        TmKind::Committee { k: 4 },
    ] {
        for plan in [
            PatiencePlan::AllPatient,
            PatiencePlan::OneImpatient,
            PatiencePlan::WithholderPlusGuard,
        ] {
            grid.push(E3Params {
                n: 3,
                tm,
                plan,
                silent_notary: false,
                seeds,
            });
        }
    }
    // Committee resilience: one crashed notary, everyone patient.
    grid.push(E3Params {
        n: 3,
        tm: TmKind::Committee { k: 4 },
        plan: PatiencePlan::AllPatient,
        silent_notary: true,
        seeds,
    });
    let cells = parallel_map(&grid, threads, run_cell);
    E3Report { cells }
}

impl E3Report {
    /// True iff Definition 2 held everywhere, CC never broke, and the
    /// all-patient cells always committed.
    pub fn theorem_holds(&self) -> bool {
        self.cells.iter().all(|c| {
            c.def2_ok.is_perfect()
                && c.cc_ok.is_perfect()
                && (c.params.plan != PatiencePlan::AllPatient
                    || (c.commits == c.def2_ok.total && c.aborts == 0))
        })
    }

    /// Renders the E3 table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "E3 — Theorem 3: weak protocol with a transaction manager",
            &[
                "TM",
                "patience",
                "faulty notary",
                "runs",
                "Def.2 holds",
                "CC",
                "commit/abort/none",
            ],
        );
        for c in &self.cells {
            t.push(&[
                format!("{:?}", c.params.tm),
                c.params.plan.label().to_string(),
                check(c.params.silent_notary),
                c.def2_ok.total.to_string(),
                c.def2_ok.render(),
                c.cc_ok.render(),
                format!("{}/{}/{}", c.commits, c.aborts, c.undecided),
            ]);
        }
        format!(
            "{}\nTheorem 3 empirically holds on this grid: {}\n",
            t.render(),
            check(self.theorem_holds())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trusted_all_patient_commits() {
        let c = run_cell(&E3Params {
            n: 2,
            tm: TmKind::Trusted,
            plan: PatiencePlan::AllPatient,
            silent_notary: false,
            seeds: 5,
        });
        assert!(c.def2_ok.is_perfect(), "{c:?}");
        assert_eq!(c.commits, 5);
    }

    #[test]
    fn committee_with_crashed_notary_still_perfect() {
        let c = run_cell(&E3Params {
            n: 2,
            tm: TmKind::Committee { k: 4 },
            plan: PatiencePlan::AllPatient,
            silent_notary: true,
            seeds: 3,
        });
        assert!(c.def2_ok.is_perfect(), "{c:?}");
        assert!(c.cc_ok.is_perfect());
        assert_eq!(c.commits, 3);
    }

    #[test]
    fn impatient_aborts_cleanly() {
        let c = run_cell(&E3Params {
            n: 2,
            tm: TmKind::Trusted,
            plan: PatiencePlan::OneImpatient,
            silent_notary: false,
            seeds: 4,
        });
        assert!(c.def2_ok.is_perfect(), "{c:?}");
        assert!(c.cc_ok.is_perfect());
        // Early abort wins against the locks racing through a pre-GST net.
        assert!(c.aborts > 0);
    }
}
