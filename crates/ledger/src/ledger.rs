//! The escrow/bank substrate.
//!
//! §2 of the paper: *"An escrow is a specific type of process that can
//! handle values for other parties in a predefined manner. … Two customers
//! may make a deal with an escrow to place value from the first customer 'in
//! escrow', and, after a predefined period, depending on which conditions
//! are met, either complete the transfer to the second customer, or return
//! the value to the first one."*
//!
//! A [`Ledger`] is one escrow's book: customer accounts, escrow deals
//! (locked value), a complete audit log, and a per-currency conservation
//! invariant (`minted = circulating + locked`). The **ES (escrow security)**
//! property of Definition 1 — *an escrow that abides by the protocol does
//! not lose money* — is checked against exactly this invariant plus the
//! at-most-once settlement discipline of [`DealState`].

use crate::asset::{Asset, CurrencyId};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use xcrypto::KeyId;

/// Identifies an escrow deal within one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DealId(pub u64);

/// Lifecycle of escrowed value. Transitions: `Locked → Released` (to the
/// beneficiary) or `Locked → Refunded` (back to the depositor); settled
/// deals never move again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DealState {
    /// Value held by the escrow.
    Locked,
    /// Value paid out to the beneficiary.
    Released,
    /// Value returned to the depositor.
    Refunded,
}

/// The trace labels an escrow family marks its deals' lifecycle with,
/// declared once per family and read by every harness and report.
#[derive(Debug)]
pub struct Marks {
    /// A deal was locked.
    pub locked: &'static str,
    /// A lock was refused (the depositor lacked cover).
    pub lock_rejected: &'static str,
    /// A locked deal was released to the beneficiary.
    pub released: &'static str,
    /// A locked deal went back to the depositor.
    pub refunded: &'static str,
}

/// An escrow deal: `depositor` placed `asset` in escrow for `beneficiary`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscrowDeal {
    /// The deal's index in this ledger.
    pub id: DealId,
    /// Who funded the contract.
    pub depositor: KeyId,
    /// Who may claim it.
    pub beneficiary: KeyId,
    /// The value at stake.
    pub asset: Asset,
    /// Current lifecycle state.
    pub state: DealState,
}

/// Everything that mutates a ledger is recorded here, in order. The
/// explicit discriminants are the tag bytes a ledger's hash feeds, pinned
/// so that removing or adding a variant moves no other variant's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AuditEntry {
    /// A new account was opened.
    OpenAccount {
        /// The account holder.
        owner: KeyId,
    } = 0,
    /// New value entered circulation (scenario setup).
    Mint {
        /// The account credited.
        to: KeyId,
        /// The value at stake.
        asset: Asset,
    } = 1,
    /// Value placed in escrow.
    Lock {
        /// The escrow deal opened.
        deal: DealId,
        /// Who funded the contract.
        depositor: KeyId,
        /// Who may claim it.
        beneficiary: KeyId,
        /// The value at stake.
        asset: Asset,
    } = 3,
    /// Escrowed value paid out to the beneficiary.
    Release {
        /// The escrow deal settled.
        deal: DealId,
    } = 4,
    /// Escrowed value returned to the depositor.
    Refund {
        /// The escrow deal settled.
        deal: DealId,
    } = 5,
}

/// Ledger operation errors. The protocols treat these as *refusals* — an
/// abiding escrow never performs an invalid operation, and a Byzantine
/// customer's invalid request bounces off harmlessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The account does not exist on this ledger.
    UnknownAccount(KeyId),
    /// The account already exists.
    DuplicateAccount(KeyId),
    /// The operation exceeded the account's balance.
    InsufficientFunds {
        /// The account that lacked cover.
        who: KeyId,
        /// What the operation required.
        need: Asset,
        /// What the account actually held.
        have: u64,
    },
    /// No such escrow deal.
    UnknownDeal(DealId),
    /// The deal has already been released or refunded.
    AlreadySettled(DealId),
    /// Balance arithmetic would overflow.
    Overflow,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::UnknownAccount(k) => write!(f, "unknown account {k}"),
            LedgerError::DuplicateAccount(k) => write!(f, "account {k} already exists"),
            LedgerError::InsufficientFunds { who, need, have } => {
                write!(f, "{who} needs {need} but holds {have}")
            }
            LedgerError::UnknownDeal(d) => write!(f, "unknown deal {d:?}"),
            LedgerError::AlreadySettled(d) => write!(f, "deal {d:?} already settled"),
            LedgerError::Overflow => write!(f, "balance overflow"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// One escrow's book of accounts and deals.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Account balances: `(owner, currency) → amount`. BTreeMap keeps audit
    /// output and conservation sums deterministic.
    balances: BTreeMap<(KeyId, CurrencyId), u64>,
    accounts: Vec<KeyId>,
    deals: Vec<EscrowDeal>,
    log: Vec<AuditEntry>,
    /// Total ever minted per currency (the conservation baseline).
    minted: BTreeMap<CurrencyId, u64>,
}

/// A book is hashed through its audit log: the log records every mutation
/// in order, so equal logs mean equal books.
impl Hash for Ledger {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.log.hash(state);
    }
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh book with one account per key of `owners`, opened in that
    /// order, and `asset` minted to `holder` — the funded escrow book every
    /// protocol starts from. Panics if `owners` repeats a key or does not
    /// contain `holder`: both are assembly bugs, not runtime conditions.
    pub fn funded(owners: &[KeyId], holder: KeyId, asset: Asset) -> Self {
        let mut book = Ledger::new();
        for &owner in owners {
            book.open_account(owner)
                .expect("funded book: owners are distinct");
        }
        book.mint(holder, asset)
            .expect("funded book: holder is one of the owners");
        book
    }

    /// Opens an account for `owner`.
    pub fn open_account(&mut self, owner: KeyId) -> Result<(), LedgerError> {
        if self.accounts.contains(&owner) {
            return Err(LedgerError::DuplicateAccount(owner));
        }
        self.accounts.push(owner);
        self.log.push(AuditEntry::OpenAccount { owner });
        Ok(())
    }

    /// True if `owner` has an account here.
    pub fn has_account(&self, owner: KeyId) -> bool {
        self.accounts.contains(&owner)
    }

    /// The account owners, in opening order.
    pub fn accounts(&self) -> &[KeyId] {
        &self.accounts
    }

    /// Balance of `who` in `currency` (zero if none).
    pub fn balance(&self, who: KeyId, currency: CurrencyId) -> u64 {
        self.balances.get(&(who, currency)).copied().unwrap_or(0)
    }

    /// Creates new value in `to`'s account (scenario setup only; audited so
    /// conservation accounting stays exact).
    pub fn mint(&mut self, to: KeyId, asset: Asset) -> Result<(), LedgerError> {
        if !self.has_account(to) {
            return Err(LedgerError::UnknownAccount(to));
        }
        let bal = self.balances.entry((to, asset.currency)).or_insert(0);
        *bal = bal.checked_add(asset.amount).ok_or(LedgerError::Overflow)?;
        let total = self.minted.entry(asset.currency).or_insert(0);
        *total = total
            .checked_add(asset.amount)
            .ok_or(LedgerError::Overflow)?;
        self.log.push(AuditEntry::Mint { to, asset });
        Ok(())
    }

    /// Locks `asset` from `depositor` in escrow for `beneficiary`.
    pub fn lock(
        &mut self,
        depositor: KeyId,
        beneficiary: KeyId,
        asset: Asset,
    ) -> Result<DealId, LedgerError> {
        if !self.has_account(depositor) {
            return Err(LedgerError::UnknownAccount(depositor));
        }
        if !self.has_account(beneficiary) {
            return Err(LedgerError::UnknownAccount(beneficiary));
        }
        self.debit(depositor, asset)?;
        let id = DealId(self.deals.len() as u64);
        self.deals.push(EscrowDeal {
            id,
            depositor,
            beneficiary,
            asset,
            state: DealState::Locked,
        });
        self.log.push(AuditEntry::Lock {
            deal: id,
            depositor,
            beneficiary,
            asset,
        });
        Ok(id)
    }

    /// Completes the transfer to the beneficiary.
    pub fn release(&mut self, deal: DealId) -> Result<(), LedgerError> {
        let (beneficiary, asset) = {
            let d = self.deal_mut(deal)?;
            if d.state != DealState::Locked {
                return Err(LedgerError::AlreadySettled(deal));
            }
            d.state = DealState::Released;
            (d.beneficiary, d.asset)
        };
        self.credit(beneficiary, asset)?;
        self.log.push(AuditEntry::Release { deal });
        Ok(())
    }

    /// Returns the value to the depositor.
    pub fn refund(&mut self, deal: DealId) -> Result<(), LedgerError> {
        let (depositor, asset) = {
            let d = self.deal_mut(deal)?;
            if d.state != DealState::Locked {
                return Err(LedgerError::AlreadySettled(deal));
            }
            d.state = DealState::Refunded;
            (d.depositor, d.asset)
        };
        self.credit(depositor, asset)?;
        self.log.push(AuditEntry::Refund { deal });
        Ok(())
    }

    /// Looks up a deal.
    pub fn deal(&self, deal: DealId) -> Option<&EscrowDeal> {
        self.deals.get(deal.0 as usize)
    }

    /// All deals, in creation order.
    pub fn deals(&self) -> &[EscrowDeal] {
        &self.deals
    }

    /// The audit log, in order.
    pub fn audit(&self) -> &[AuditEntry] {
        &self.log
    }

    /// Value currently locked in unsettled deals, per currency.
    pub fn locked_total(&self, currency: CurrencyId) -> u64 {
        self.deals
            .iter()
            .filter(|d| d.state == DealState::Locked && d.asset.currency == currency)
            .map(|d| d.asset.amount)
            .sum()
    }

    /// Sum of all account balances in `currency`.
    pub fn circulating_total(&self, currency: CurrencyId) -> u64 {
        self.balances
            .iter()
            .filter(|((_, c), _)| *c == currency)
            .map(|(_, amount)| *amount)
            .sum()
    }

    /// The conservation invariant: for every currency,
    /// `minted = circulating + locked`. An escrow that abides by the
    /// protocol maintains this at every step (ES); any discrepancy is a
    /// bug in the escrow, not in a customer.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (&currency, &minted) in &self.minted {
            let circ = self.circulating_total(currency);
            let locked = self.locked_total(currency);
            let have = circ
                .checked_add(locked)
                .ok_or("conservation sum overflow")?;
            if have != minted {
                return Err(format!(
                    "currency {currency}: minted {minted} ≠ circulating {circ} + locked {locked}"
                ));
            }
        }
        Ok(())
    }

    fn deal_mut(&mut self, deal: DealId) -> Result<&mut EscrowDeal, LedgerError> {
        self.deals
            .get_mut(deal.0 as usize)
            .ok_or(LedgerError::UnknownDeal(deal))
    }

    fn debit(&mut self, who: KeyId, asset: Asset) -> Result<(), LedgerError> {
        let bal = self.balances.entry((who, asset.currency)).or_insert(0);
        if *bal < asset.amount {
            return Err(LedgerError::InsufficientFunds {
                who,
                need: asset,
                have: *bal,
            });
        }
        *bal -= asset.amount;
        Ok(())
    }

    fn credit(&mut self, who: KeyId, asset: Asset) -> Result<(), LedgerError> {
        let bal = self.balances.entry((who, asset.currency)).or_insert(0);
        *bal = bal.checked_add(asset.amount).ok_or(LedgerError::Overflow)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CUR: CurrencyId = CurrencyId(0);

    fn setup() -> (Ledger, KeyId, KeyId) {
        let (alice, bob) = (KeyId(0), KeyId(1));
        let l = Ledger::funded(&[alice, bob], alice, Asset::new(CUR, 100));
        (l, alice, bob)
    }

    #[test]
    fn open_and_mint() {
        let (l, alice, bob) = setup();
        assert!(l.has_account(alice));
        assert_eq!(l.balance(alice, CUR), 100);
        assert_eq!(l.balance(bob, CUR), 0);
        assert_eq!(l.accounts(), &[alice, bob]);
        l.check_conservation().unwrap();
    }

    #[test]
    fn duplicate_account_rejected() {
        let (mut l, alice, _) = setup();
        assert_eq!(
            l.open_account(alice),
            Err(LedgerError::DuplicateAccount(alice))
        );
    }

    #[test]
    fn mint_unknown_account_rejected() {
        let mut l = Ledger::new();
        assert_eq!(
            l.mint(KeyId(9), Asset::new(CUR, 1)),
            Err(LedgerError::UnknownAccount(KeyId(9)))
        );
    }

    #[test]
    fn lock_unknown_party() {
        let (mut l, alice, _) = setup();
        assert!(matches!(
            l.lock(alice, KeyId(7), Asset::new(CUR, 1)),
            Err(LedgerError::UnknownAccount(_))
        ));
        assert!(matches!(
            l.lock(KeyId(7), alice, Asset::new(CUR, 1)),
            Err(LedgerError::UnknownAccount(_))
        ));
    }

    #[test]
    fn lock_release_lifecycle() {
        let (mut l, alice, bob) = setup();
        let deal = l.lock(alice, bob, Asset::new(CUR, 40)).unwrap();
        assert_eq!(l.balance(alice, CUR), 60);
        assert_eq!(l.balance(bob, CUR), 0);
        assert_eq!(l.locked_total(CUR), 40);
        l.check_conservation().unwrap();

        l.release(deal).unwrap();
        assert_eq!(l.balance(bob, CUR), 40);
        assert_eq!(l.locked_total(CUR), 0);
        assert_eq!(l.deal(deal).unwrap().state, DealState::Released);
        l.check_conservation().unwrap();
    }

    #[test]
    fn lock_refund_lifecycle() {
        let (mut l, alice, bob) = setup();
        let deal = l.lock(alice, bob, Asset::new(CUR, 40)).unwrap();
        l.refund(deal).unwrap();
        assert_eq!(l.balance(alice, CUR), 100);
        assert_eq!(l.balance(bob, CUR), 0);
        assert_eq!(l.deal(deal).unwrap().state, DealState::Refunded);
        l.check_conservation().unwrap();
    }

    #[test]
    fn double_settlement_rejected() {
        let (mut l, alice, bob) = setup();
        let deal = l.lock(alice, bob, Asset::new(CUR, 40)).unwrap();
        l.release(deal).unwrap();
        assert_eq!(l.release(deal), Err(LedgerError::AlreadySettled(deal)));
        assert_eq!(l.refund(deal), Err(LedgerError::AlreadySettled(deal)));
        // Balances unchanged by the failed attempts.
        assert_eq!(l.balance(bob, CUR), 40);
        assert_eq!(l.balance(alice, CUR), 60);
        l.check_conservation().unwrap();
    }

    #[test]
    fn refund_then_release_rejected() {
        let (mut l, alice, bob) = setup();
        let deal = l.lock(alice, bob, Asset::new(CUR, 40)).unwrap();
        l.refund(deal).unwrap();
        assert_eq!(l.release(deal), Err(LedgerError::AlreadySettled(deal)));
        assert_eq!(l.balance(alice, CUR), 100);
    }

    #[test]
    fn lock_insufficient_funds() {
        let (mut l, alice, bob) = setup();
        assert!(matches!(
            l.lock(alice, bob, Asset::new(CUR, 200)),
            Err(LedgerError::InsufficientFunds { .. })
        ));
        // Nothing moved.
        assert_eq!(l.balance(alice, CUR), 100);
        assert_eq!(l.locked_total(CUR), 0);
        l.check_conservation().unwrap();
    }

    #[test]
    fn unknown_deal() {
        let (mut l, _, _) = setup();
        assert_eq!(
            l.release(DealId(5)),
            Err(LedgerError::UnknownDeal(DealId(5)))
        );
        assert_eq!(
            l.refund(DealId(5)),
            Err(LedgerError::UnknownDeal(DealId(5)))
        );
    }

    #[test]
    fn multi_currency_isolated() {
        let (mut l, alice, bob) = setup();
        let eur = CurrencyId(1);
        l.mint(bob, Asset::new(eur, 50)).unwrap();
        let deal = l.lock(bob, alice, Asset::new(eur, 20)).unwrap();
        l.release(deal).unwrap();
        assert_eq!(l.balance(alice, CUR), 100);
        assert_eq!(l.balance(alice, eur), 20);
        assert_eq!(l.balance(bob, eur), 30);
        l.check_conservation().unwrap();
    }

    #[test]
    fn audit_log_records_everything() {
        let (mut l, alice, bob) = setup();
        let deal = l.lock(alice, bob, Asset::new(CUR, 10)).unwrap();
        l.release(deal).unwrap();
        let kinds: Vec<&'static str> = l
            .audit()
            .iter()
            .map(|e| match e {
                AuditEntry::OpenAccount { .. } => "open",
                AuditEntry::Mint { .. } => "mint",
                AuditEntry::Lock { .. } => "lock",
                AuditEntry::Release { .. } => "release",
                AuditEntry::Refund { .. } => "refund",
            })
            .collect();
        assert_eq!(kinds, vec!["open", "open", "mint", "lock", "release"]);
    }

    #[test]
    fn audit_tags_are_pinned() {
        /// Records the bytes `Hash` feeds.
        struct Bytes(Vec<u8>);
        impl Hasher for Bytes {
            fn write(&mut self, b: &[u8]) {
                self.0.extend_from_slice(b);
            }
            fn finish(&self) -> u64 {
                0
            }
        }
        let tag = |e: AuditEntry| {
            let mut h = Bytes(Vec::new());
            e.hash(&mut h);
            h.0[0]
        };
        let (k, asset, deal) = (KeyId(1), Asset::new(CUR, 1), DealId(0));
        assert_eq!(tag(AuditEntry::OpenAccount { owner: k }), 0);
        assert_eq!(tag(AuditEntry::Mint { to: k, asset }), 1);
        let lock = AuditEntry::Lock {
            deal,
            depositor: k,
            beneficiary: k,
            asset,
        };
        assert_eq!(tag(lock), 3);
        assert_eq!(tag(AuditEntry::Release { deal }), 4);
        assert_eq!(tag(AuditEntry::Refund { deal }), 5);
    }

    /// Random operation sequences preserve conservation and never panic.
    #[derive(Debug, Clone)]
    enum Op {
        Mint(u8, u32),
        Lock(u8, u8, u32),
        Release(u8),
        Refund(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u32>()).prop_map(|(a, v)| Op::Mint(a, v)),
            (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(a, b, v)| Op::Lock(a, b, v)),
            any::<u8>().prop_map(Op::Release),
            any::<u8>().prop_map(Op::Refund),
        ]
    }

    proptest! {
        #[test]
        fn prop_conservation_under_random_ops(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut l = Ledger::new();
            for i in 0..4u32 {
                l.open_account(KeyId(i)).unwrap();
            }
            let acct = |x: u8| KeyId((x % 4) as u32);
            for op in ops {
                // Errors are fine (refusals); panics or conservation breaks are not.
                let _ = match op {
                    Op::Mint(a, v) => l.mint(acct(a), Asset::new(CUR, v as u64)).err(),
                    Op::Lock(a, b, v) => {
                        l.lock(acct(a), acct(b), Asset::new(CUR, v as u64)).err().map(|_| LedgerError::Overflow)
                    }
                    Op::Release(d) => l.release(DealId(d as u64)).err(),
                    Op::Refund(d) => l.refund(DealId(d as u64)).err(),
                };
                prop_assert!(l.check_conservation().is_ok());
            }
        }

        #[test]
        fn prop_settled_deals_are_final(release_first in any::<bool>(), amount in 1u64..1000) {
            let mut l = Ledger::new();
            l.open_account(KeyId(0)).unwrap();
            l.open_account(KeyId(1)).unwrap();
            l.mint(KeyId(0), Asset::new(CUR, amount)).unwrap();
            let deal = l.lock(KeyId(0), KeyId(1), Asset::new(CUR, amount)).unwrap();
            if release_first {
                l.release(deal).unwrap();
            } else {
                l.refund(deal).unwrap();
            }
            let before = (l.balance(KeyId(0), CUR), l.balance(KeyId(1), CUR));
            // Any further settlement attempt is rejected and changes nothing.
            prop_assert!(l.release(deal).is_err());
            prop_assert!(l.refund(deal).is_err());
            prop_assert_eq!(before, (l.balance(KeyId(0), CUR), l.balance(KeyId(1), CUR)));
        }
    }
}
