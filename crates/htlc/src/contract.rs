//! Hashed-timelock contracts over the ledger substrate.
//!
//! The deployed-OSS baseline for atomic cross-chain activity: funds are
//! locked under `(hashlock H, timelock T, beneficiary)`; the beneficiary
//! claims with a preimage `s` (`SHA-256(s) = H`) before `T` on the chain's
//! clock; after `T` the depositor may reclaim. HTLCs give atomic *swaps*
//! (money-for-money) rather than payments with success guarantees — the
//! comparison experiments quantify the difference (griefing windows,
//! locked-capital time, no χ-style receipt for the payer).

use anta::fingerprint::{fingerprint_seq, Fingerprint, Fnv64};
use anta::time::SimTime;
use ledger::{Asset, AuditEntry, DealId, Ledger, LedgerError};
use xcrypto::sha256::{sha256, Digest};
use xcrypto::KeyId;

/// Status of an HTLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtlcState {
    /// Funds locked, claimable with the preimage until the timelock.
    Open,
    /// Beneficiary claimed with a valid preimage in time.
    Claimed,
    /// Depositor reclaimed after expiry.
    Reclaimed,
}

/// One hashed-timelock contract (wrapping an escrow deal on the ledger).
#[derive(Debug, Clone)]
pub struct Htlc {
    /// The deal matrix / escrow deal id, per context.
    pub deal: DealId,
    /// Who funded the contract.
    pub depositor: KeyId,
    /// Who may claim it.
    pub beneficiary: KeyId,
    /// The value at stake.
    pub asset: Asset,
    /// SHA-256 digest the preimage must match.
    pub hashlock: Digest,
    /// Chain-local expiry time.
    pub timelock: SimTime,
    /// Current lifecycle state.
    pub state: HtlcState,
    /// The preimage revealed by the claim (public once claimed — this is
    /// how the counterparty on the other chain learns it).
    pub revealed: Option<Vec<u8>>,
}

/// Errors for HTLC operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtlcError {
    /// Underlying ledger refused (insufficient funds, unknown account…).
    Ledger(LedgerError),
    /// No such contract.
    Unknown,
    /// The contract is not open.
    NotOpen,
    /// `SHA-256(preimage) ≠ hashlock`.
    WrongPreimage,
    /// Claim attempted at or after the timelock.
    Expired,
    /// Reclaim attempted before the timelock.
    NotYetExpired,
}

impl From<LedgerError> for HtlcError {
    fn from(e: LedgerError) -> Self {
        HtlcError::Ledger(e)
    }
}

/// A chain (ledger) extended with HTLC semantics. Time is supplied by the
/// caller — in the simulation, the chain's escrow process passes its local
/// clock, modelling per-chain clocks that need not agree.
#[derive(Debug, Clone)]
pub struct HtlcChain {
    ledger: Ledger,
    contracts: Vec<Htlc>,
}

impl HtlcChain {
    /// A chain over `ledger`, the book in which the parties' accounts are
    /// already opened and funded.
    pub fn new(ledger: Ledger) -> Self {
        HtlcChain {
            ledger,
            contracts: Vec::new(),
        }
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Opens an HTLC: locks `asset` from `depositor` for `beneficiary`
    /// under `hashlock`, expiring at `timelock`.
    pub fn open(
        &mut self,
        depositor: KeyId,
        beneficiary: KeyId,
        asset: Asset,
        hashlock: Digest,
        timelock: SimTime,
    ) -> Result<usize, HtlcError> {
        let deal = self.ledger.lock(depositor, beneficiary, asset)?;
        self.contracts.push(Htlc {
            deal,
            depositor,
            beneficiary,
            asset,
            hashlock,
            timelock,
            state: HtlcState::Open,
            revealed: None,
        });
        Ok(self.contracts.len() - 1)
    }

    /// Claims contract `id` with `preimage` at chain time `now`.
    pub fn claim(&mut self, id: usize, preimage: &[u8], now: SimTime) -> Result<(), HtlcError> {
        let c = self.contracts.get_mut(id).ok_or(HtlcError::Unknown)?;
        if c.state != HtlcState::Open {
            return Err(HtlcError::NotOpen);
        }
        if now >= c.timelock {
            return Err(HtlcError::Expired);
        }
        if sha256(preimage) != c.hashlock {
            return Err(HtlcError::WrongPreimage);
        }
        self.ledger.release(c.deal)?;
        c.state = HtlcState::Claimed;
        c.revealed = Some(preimage.to_vec());
        Ok(())
    }

    /// Depositor reclaims contract `id` after expiry.
    pub fn reclaim(&mut self, id: usize, now: SimTime) -> Result<(), HtlcError> {
        let c = self.contracts.get_mut(id).ok_or(HtlcError::Unknown)?;
        if c.state != HtlcState::Open {
            return Err(HtlcError::NotOpen);
        }
        if now < c.timelock {
            return Err(HtlcError::NotYetExpired);
        }
        self.ledger.refund(c.deal)?;
        c.state = HtlcState::Reclaimed;
        Ok(())
    }

    /// The contract, if it exists.
    pub fn contract(&self, id: usize) -> Option<&Htlc> {
        self.contracts.get(id)
    }

    /// Number of contracts ever opened.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// True if no contracts were opened.
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }
}

/// The book enters through its audit log, which records every mutation in
/// order; `ledger` and `xcrypto` do not depend on `anta`, so their types
/// are hashed through their public fields.
impl Fingerprint for HtlcChain {
    fn fingerprint(&self, h: &mut Fnv64) {
        let HtlcChain { ledger, contracts } = self;
        fingerprint_seq(ledger.audit().iter().map(AuditEntry::fields), h);
        h.write_usize(contracts.len());
        for c in contracts {
            let Htlc {
                deal,
                depositor,
                beneficiary,
                asset,
                hashlock,
                timelock,
                state,
                revealed,
            } = c;
            let asset = (asset.currency.0, asset.amount);
            let ids = (deal.0, depositor.0, beneficiary.0);
            (ids, asset, hashlock, timelock, *state as u8, revealed).fingerprint(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledger::CurrencyId;
    use proptest::prelude::*;

    const CUR: CurrencyId = CurrencyId(0);

    fn chain_with(alice: KeyId, bob: KeyId, fund: u64) -> HtlcChain {
        HtlcChain::new(Ledger::funded(&[alice, bob], alice, Asset::new(CUR, fund)))
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn claim_with_preimage_before_expiry() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 100);
        let secret = b"s3cret";
        let id = chain
            .open(a, b, Asset::new(CUR, 60), sha256(secret), t(1_000))
            .unwrap();
        chain.claim(id, secret, t(500)).unwrap();
        assert_eq!(chain.contract(id).unwrap().state, HtlcState::Claimed);
        assert_eq!(chain.ledger().balance(b, CUR), 60);
        chain.ledger().check_conservation().unwrap();
    }

    #[test]
    fn wrong_preimage_rejected() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 100);
        let id = chain
            .open(a, b, Asset::new(CUR, 60), sha256(b"right"), t(1_000))
            .unwrap();
        assert_eq!(
            chain.claim(id, b"wrong", t(500)),
            Err(HtlcError::WrongPreimage)
        );
        assert_eq!(chain.contract(id).unwrap().state, HtlcState::Open);
        assert_eq!(chain.ledger().balance(b, CUR), 0);
    }

    #[test]
    fn late_claim_rejected() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 100);
        let secret = b"s";
        let id = chain
            .open(a, b, Asset::new(CUR, 60), sha256(secret), t(1_000))
            .unwrap();
        assert_eq!(chain.claim(id, secret, t(1_000)), Err(HtlcError::Expired));
        assert_eq!(chain.claim(id, secret, t(2_000)), Err(HtlcError::Expired));
        chain.reclaim(id, t(1_000)).unwrap();
        assert_eq!(chain.ledger().balance(a, CUR), 100);
    }

    #[test]
    fn early_reclaim_rejected() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 100);
        let id = chain
            .open(a, b, Asset::new(CUR, 60), sha256(b"x"), t(1_000))
            .unwrap();
        assert_eq!(chain.reclaim(id, t(999)), Err(HtlcError::NotYetExpired));
        chain.reclaim(id, t(1_000)).unwrap();
        assert_eq!(chain.contract(id).unwrap().state, HtlcState::Reclaimed);
    }

    #[test]
    fn double_settlement_rejected() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 100);
        let secret = b"s";
        let id = chain
            .open(a, b, Asset::new(CUR, 60), sha256(secret), t(1_000))
            .unwrap();
        chain.claim(id, secret, t(10)).unwrap();
        assert_eq!(chain.claim(id, secret, t(20)), Err(HtlcError::NotOpen));
        assert_eq!(chain.reclaim(id, t(5_000)), Err(HtlcError::NotOpen));
    }

    #[test]
    fn insufficient_funds_refused() {
        let (a, b) = (KeyId(0), KeyId(1));
        let mut chain = chain_with(a, b, 10);
        assert!(matches!(
            chain.open(a, b, Asset::new(CUR, 60), sha256(b"x"), t(100)),
            Err(HtlcError::Ledger(LedgerError::InsufficientFunds { .. }))
        ));
        assert!(chain.is_empty());
    }

    proptest! {
        /// Conservation and single-settlement hold under arbitrary claim /
        /// reclaim attempts at arbitrary times.
        #[test]
        fn prop_htlc_conservation(
            amount in 1u64..1000,
            timelock in 1u64..10_000,
            attempts in proptest::collection::vec((0u64..20_000, any::<bool>(), any::<bool>()), 1..30),
        ) {
            let (a, b) = (KeyId(0), KeyId(1));
            let mut chain = chain_with(a, b, amount);
            let secret = b"prop-secret";
            let id = chain.open(a, b, Asset::new(CUR, amount), sha256(secret), t(timelock)).unwrap();
            for (at, do_claim, right_preimage) in attempts {
                if do_claim {
                    let pre: &[u8] = if right_preimage { secret } else { b"nope" };
                    let _ = chain.claim(id, pre, t(at));
                } else {
                    let _ = chain.reclaim(id, t(at));
                }
                prop_assert!(chain.ledger().check_conservation().is_ok());
            }
            // Exactly one of the terminal states, or still open.
            let st = chain.contract(id).unwrap().state;
            let (ba, bb) = (chain.ledger().balance(a, CUR), chain.ledger().balance(b, CUR));
            match st {
                HtlcState::Open => prop_assert_eq!((ba, bb), (0, 0)),
                HtlcState::Claimed => prop_assert_eq!((ba, bb), (0, amount)),
                HtlcState::Reclaimed => prop_assert_eq!((ba, bb), (amount, 0)),
            }
        }
    }
}
