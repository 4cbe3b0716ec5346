//! **E7 — §5: relation with cross-chain deals.**
//!
//! Regenerates the section's comparison as data:
//!
//! * the property matrix of the two HLS deal protocols (timelock /
//!   certified) × network assumptions, measured by running them;
//! * the encoding counterexamples: payment chains are not well-formed
//!   deals; swaps/cycles are not payments;
//! * the §5 vocabulary correspondence table.

use crate::e2::{timelock_deal_control, timelock_deal_violation};
use crate::table::{check, Table};
use anta::net::{PartialSyncNet, SyncNet};
use anta::oracle::RandomOracle;
use anta::time::{SimDuration, SimTime};
use deals::relation::{deal_as_payment, payment_as_deal, property_correspondence, NotAPayment};
use deals::{CertifiedChain, DealInstance, DealMatrix, DealOutcome};
use ledger::{Asset, CurrencyId};

fn swap_deal() -> DealMatrix {
    let mut d = DealMatrix::new(2);
    d.add(0, 1, Asset::new(CurrencyId(0), 5));
    d.add(1, 0, Asset::new(CurrencyId(1), 7));
    d
}

/// Runs the certified protocol on the swap under the given network;
/// optionally one party is impatient.
pub fn run_certified(
    partial_sync: bool,
    impatient: bool,
) -> (DealOutcome, bool /* log integrity */) {
    let (inst, signers) = DealInstance::generate(swap_deal(), 0xE7);
    let net: Box<dyn anta::net::NetModel<deals::DMsg>> = if partial_sync {
        Box::new(PartialSyncNet::new(
            SimTime::from_millis(1_500),
            SimDuration::from_millis(2),
        ))
    } else {
        Box::new(SyncNet::new(SimDuration::from_millis(2), 8))
    };
    let mut eng = inst.certified_engine(
        &signers,
        net,
        Box::new(RandomOracle::seeded(3)),
        anta::engine::EngineConfig::default(),
        |_| anta::clock::DriftClock::perfect(),
        |p, mut party| {
            if impatient && p == 0 {
                party.patience = Some(SimDuration::from_millis(50));
            }
            Box::new(party)
        },
    );
    eng.run_until(SimTime::from_secs(120));
    let outcome = inst.outcome(&eng);
    let integrity = eng
        .process_as::<CertifiedChain>(inst.next_free_pid())
        .map(|c| c.log().verify_integrity().is_ok())
        .unwrap_or(false);
    (outcome, integrity)
}

/// One row of the measured deal-protocol property matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// The deal protocol measured.
    pub protocol: &'static str,
    /// Network assumption of the run.
    pub network: &'static str,
    /// Participant behaviour of the run.
    pub scenario: &'static str,
    /// Every compliant payoff acceptable.
    pub safety: bool,
    /// No compliant asset escrowed forever.
    pub termination: bool,
    /// Everything transferred.
    pub strong_liveness: bool,
}

/// The E7 report.
pub struct E7Report {
    /// The measured property matrix.
    pub matrix: Vec<MatrixRow>,
    /// Whether the encoded payment chain is strongly connected.
    pub payment_chain_well_formed: bool,
    /// Result of reading the swap as a payment chain.
    pub swap_as_payment: Result<(), NotAPayment>,
    /// Hash-chain verification of the CBC log.
    pub certified_log_integrity: bool,
}

/// Runs all E7 measurements.
pub fn run() -> E7Report {
    let mut matrix = Vec::new();

    // Timelock, synchrony, all compliant: full commit.
    let tl_sync = timelock_deal_control();
    matrix.push(MatrixRow {
        protocol: "timelock commit [3]",
        network: "synchronous",
        scenario: "all compliant",
        safety: tl_sync.safe_for(&swap_deal(), &[0, 1]),
        termination: true,
        strong_liveness: tl_sync.is_full_commit(),
    });

    // Timelock, partial synchrony: safety falls (E2's witness).
    let tl_psync = timelock_deal_violation();
    matrix.push(MatrixRow {
        protocol: "timelock commit [3]",
        network: "partially synchronous",
        scenario: tl_psync.violated,
        safety: !tl_psync.witnessed,
        termination: true,
        strong_liveness: false,
    });

    // Certified, partial synchrony, patient: safety + termination +
    // (here) even full commit, since everyone waits out GST.
    let (cert_psync, integrity1) = run_certified(true, false);
    matrix.push(MatrixRow {
        protocol: "certified blockchain [3]",
        network: "partially synchronous",
        scenario: "all compliant, patient",
        safety: cert_psync.safe_for(&swap_deal(), &[0, 1]),
        termination: true,
        strong_liveness: cert_psync.is_full_commit(),
    });

    // Certified, partial synchrony, impatient: safe abort — no strong
    // liveness guarantee.
    let (cert_abort, integrity2) = run_certified(true, true);
    matrix.push(MatrixRow {
        protocol: "certified blockchain [3]",
        network: "partially synchronous",
        scenario: "one impatient party",
        safety: cert_abort.safe_for(&swap_deal(), &[0, 1]),
        termination: true,
        strong_liveness: cert_abort.is_full_commit(),
    });

    // Encodings.
    let amounts = vec![
        Asset::new(CurrencyId(0), 100),
        Asset::new(CurrencyId(0), 95),
        Asset::new(CurrencyId(0), 90),
    ];
    let payment_chain_well_formed = payment_as_deal(&amounts).is_well_formed();
    let swap_as_payment = deal_as_payment(&swap_deal()).map(|_| ());

    E7Report {
        matrix,
        payment_chain_well_formed,
        swap_as_payment,
        certified_log_integrity: integrity1 && integrity2,
    }
}

impl E7Report {
    /// The §5 claims, empirically.
    pub fn claims_hold(&self) -> bool {
        let timelock_sync_full = self.matrix.iter().any(|r| {
            r.protocol.starts_with("timelock")
                && r.network == "synchronous"
                && r.strong_liveness
                && r.safety
        });
        let timelock_psync_broken = self
            .matrix
            .iter()
            .any(|r| r.protocol.starts_with("timelock") && r.network != "synchronous" && !r.safety);
        let certified_psync_safe = self
            .matrix
            .iter()
            .filter(|r| r.protocol.starts_with("certified"))
            .all(|r| r.safety && r.termination);
        let no_liveness_promise = self
            .matrix
            .iter()
            .any(|r| r.protocol.starts_with("certified") && !r.strong_liveness);
        timelock_sync_full
            && timelock_psync_broken
            && certified_psync_safe
            && no_liveness_promise
            && !self.payment_chain_well_formed
            && self.swap_as_payment.is_err()
    }

    /// Renders all three tables.
    pub fn render(&self) -> String {
        let mut m = Table::new(
            "E7 — measured property matrix of the HLS deal protocols",
            &[
                "protocol",
                "network",
                "scenario",
                "Safety",
                "Termination",
                "StrongLiveness",
            ],
        );
        for r in &self.matrix {
            m.push(&[
                r.protocol.to_string(),
                r.network.to_string(),
                r.scenario.to_string(),
                check(r.safety),
                check(r.termination),
                check(r.strong_liveness),
            ]);
        }
        let mut c = Table::new(
            "E7 — §5 property correspondence",
            &["deals [3]", "payments (this paper)"],
        );
        for (a, b) in property_correspondence() {
            c.push(&[a.to_string(), b.to_string()]);
        }
        format!(
            "{}\n{}\nEncodings:\n  payment chain as deal is well-formed: {} (payments ⊄ deals)\n  swap as payment: {:?} (deals ⊄ payments)\n  certified chain log integrity: {}\n\n§5 claims hold: {}\n",
            m.render(),
            c.render(),
            check(self.payment_chain_well_formed),
            self.swap_as_payment,
            check(self.certified_log_integrity),
            check(self.claims_hold()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_report_claims_hold() {
        let r = run();
        assert!(r.claims_hold(), "{}", r.render());
        assert!(!r.payment_chain_well_formed);
        assert!(r.swap_as_payment.is_err());
        assert!(r.certified_log_integrity);
    }

    #[test]
    fn certified_impatient_aborts_safely() {
        let (o, _) = run_certified(true, true);
        assert!(o.is_full_abort());
        assert!(o.safe_for(&swap_deal(), &[0, 1]));
    }
}
