//! The escrow/bank substrate.
//!
//! §2 of the paper: *"An escrow is a specific type of process that can
//! handle values for other parties in a predefined manner. … Two customers
//! may make a deal with an escrow to place value from the first customer 'in
//! escrow', and, after a predefined period, depending on which conditions
//! are met, either complete the transfer to the second customer, or return
//! the value to the first one."*
//!
//! A [`Ledger`] is one escrow's book, kept as its audit log alone:
//! accounts, mints, escrow deals (locked value) and their settlements are
//! entries. One pass over them, [`Ledger::fold`], yields every balance,
//! deal state and total at once; the book's totals and its conservation
//! check are views of that fold, and the three questions its own
//! mutations ask (a balance, a currency's minted total, a deal) read only
//! the entries they need. The per-currency conservation invariant
//! (`minted = circulating + locked`) sums the accounts' folded balances
//! against the folded mints and locks. The **ES (escrow security)** property of Definition 1 —
//! *an escrow that abides by the protocol does not lose money* — is
//! checked against exactly this invariant plus the at-most-once
//! settlement discipline of [`DealState`].

use crate::asset::{Asset, CurrencyId};
use crate::small::Small;
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

/// One escrow's book of accounts and deals: its audit log and nothing
/// else. Every query folds the log, which a book of a few accounts and one
/// or two deals keeps a handful of entries long: a book of two accounts
/// and one deal keeps its whole log inline.
#[derive(Debug, Clone)]
pub struct Ledger {
    log: Small<AuditEntry, 5>,
}

impl Default for Ledger {
    fn default() -> Self {
        // The filler only occupies the log's unused slots.
        Ledger {
            log: Small::new(AuditEntry::OpenAccount { owner: KeyId(0) }),
        }
    }
}

/// A book is hashed through its audit log: the log records every mutation
/// in order, so equal logs mean equal books.
impl Hash for Ledger {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.audit().hash(state);
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
        if self.has_account(owner) {
            return Err(LedgerError::DuplicateAccount(owner));
        }
        self.log.push(AuditEntry::OpenAccount { owner });
        Ok(())
    }

    /// True if `owner` has an account here.
    pub fn has_account(&self, owner: KeyId) -> bool {
        self.accounts().any(|k| k == owner)
    }

    /// The account owners, in opening order.
    pub fn accounts(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.log.iter().filter_map(|e| match *e {
            AuditEntry::OpenAccount { owner } => Some(owner),
            _ => None,
        })
    }

    /// Every balance, deal and total of the book, from one pass over its
    /// log. A caller asking several questions of a book folds it once.
    pub fn fold(&self) -> Fold {
        let mut f = Fold::new();
        // In log order every partial sum is a balance the book once held,
        // so nothing under- or overflows.
        for e in self.audit() {
            match *e {
                AuditEntry::OpenAccount { .. } => {}
                AuditEntry::Mint { to, asset } => {
                    *row(&mut f.balances, (to, asset.currency)) += asset.amount;
                    *row(&mut f.minted, asset.currency) += asset.amount;
                }
                AuditEntry::Lock {
                    deal,
                    depositor,
                    beneficiary,
                    asset,
                } => {
                    *row(&mut f.balances, (depositor, asset.currency)) -= asset.amount;
                    f.deals.push(EscrowDeal {
                        id: deal,
                        depositor,
                        beneficiary,
                        asset,
                        state: DealState::Locked,
                    });
                }
                AuditEntry::Release { deal } | AuditEntry::Refund { deal } => {
                    let d = f.deals.iter_mut().find(|d| d.id == deal);
                    let d = d.expect("a settlement follows its lock");
                    let payee = if matches!(e, AuditEntry::Release { .. }) {
                        d.state = DealState::Released;
                        d.beneficiary
                    } else {
                        d.state = DealState::Refunded;
                        d.depositor
                    };
                    let asset = d.asset;
                    *row(&mut f.balances, (payee, asset.currency)) += asset.amount;
                }
            }
        }
        f
    }

    /// Balance of `who` in `currency` (zero if none): what was minted to
    /// it, less what it locked, plus what settled to it. Like
    /// [`Ledger::minted_total`] and [`Ledger::deal`], a question the book's
    /// own mutations ask, so it reads only the entries it needs.
    pub fn balance(&self, who: KeyId, currency: CurrencyId) -> u64 {
        // In log order every partial sum is a balance the book once held,
        // so nothing under- or overflows.
        self.log.iter().fold(0, |bal, e| {
            let (to, asset, credit) = match *e {
                AuditEntry::OpenAccount { .. } => return bal,
                AuditEntry::Mint { to, asset } => (to, asset, true),
                AuditEntry::Lock {
                    depositor, asset, ..
                } => (depositor, asset, false),
                AuditEntry::Release { deal } | AuditEntry::Refund { deal } => {
                    let d = self.locked(deal).expect("a settlement follows its lock");
                    let released = matches!(e, AuditEntry::Release { .. });
                    let to = if released { d.beneficiary } else { d.depositor };
                    (to, d.asset, true)
                }
            };
            match (to == who && asset.currency == currency, credit) {
                (false, _) => bal,
                (true, true) => bal + asset.amount,
                (true, false) => bal - asset.amount,
            }
        })
    }

    /// Total ever minted in `currency`: the conservation baseline.
    pub fn minted_total(&self, currency: CurrencyId) -> u64 {
        self.log
            .iter()
            .map(|e| match *e {
                AuditEntry::Mint { asset, .. } if asset.currency == currency => asset.amount,
                _ => 0,
            })
            .sum()
    }

    /// Creates new value in `to`'s account (scenario setup only; audited so
    /// conservation accounting stays exact).
    pub fn mint(&mut self, to: KeyId, asset: Asset) -> Result<(), LedgerError> {
        if !self.has_account(to) {
            return Err(LedgerError::UnknownAccount(to));
        }
        // No balance exceeds its currency's minted total, so this one check
        // covers the credit too.
        self.minted_total(asset.currency)
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
        let have = self.balance(depositor, asset.currency);
        if have < asset.amount {
            return Err(LedgerError::InsufficientFunds {
                who: depositor,
                need: asset,
                have,
            });
        }
        let locks = self
            .log
            .iter()
            .filter(|e| matches!(e, AuditEntry::Lock { .. }));
        let deal = DealId(locks.count() as u64);
        self.log.push(AuditEntry::Lock {
            deal,
            depositor,
            beneficiary,
            asset,
        });
        Ok(deal)
    }

    /// Completes the transfer to the beneficiary.
    pub fn release(&mut self, deal: DealId) -> Result<(), LedgerError> {
        self.settle(deal)?;
        self.log.push(AuditEntry::Release { deal });
        Ok(())
    }

    /// Returns the value to the depositor.
    pub fn refund(&mut self, deal: DealId) -> Result<(), LedgerError> {
        self.settle(deal)?;
        self.log.push(AuditEntry::Refund { deal });
        Ok(())
    }

    /// Checks that `deal` may settle: it exists and is still locked. The
    /// credit that follows cannot overflow: the payee's balance plus the
    /// locked amount is at most the currency's minted total.
    fn settle(&self, deal: DealId) -> Result<(), LedgerError> {
        match self.deal(deal) {
            None => Err(LedgerError::UnknownDeal(deal)),
            Some(d) if d.state != DealState::Locked => Err(LedgerError::AlreadySettled(deal)),
            Some(_) => Ok(()),
        }
    }

    /// `deal` as its lock entry recorded it, still [`DealState::Locked`].
    fn locked(&self, deal: DealId) -> Option<EscrowDeal> {
        self.log.iter().find_map(|e| match *e {
            AuditEntry::Lock {
                deal: id,
                depositor,
                beneficiary,
                asset,
            } if id == deal => Some(EscrowDeal {
                id,
                depositor,
                beneficiary,
                asset,
                state: DealState::Locked,
            }),
            _ => None,
        })
    }

    /// Looks up a deal.
    pub fn deal(&self, deal: DealId) -> Option<EscrowDeal> {
        let mut d = self.locked(deal)?;
        for e in self.audit() {
            match *e {
                AuditEntry::Release { deal: id } if id == deal => d.state = DealState::Released,
                AuditEntry::Refund { deal: id } if id == deal => d.state = DealState::Refunded,
                _ => {}
            }
        }
        Some(d)
    }

    /// All deals, in creation order.
    pub fn deals(&self) -> impl Iterator<Item = EscrowDeal> + '_ {
        let deals = self.fold().deals;
        (0..deals.len()).map(move |i| deals[i])
    }

    /// The audit log, in order.
    pub fn audit(&self) -> &[AuditEntry] {
        &self.log
    }

    /// Value currently locked in unsettled deals, per currency.
    pub fn locked_total(&self, currency: CurrencyId) -> u64 {
        self.fold().locked_total(currency)
    }

    /// Sum of all account balances in `currency`.
    pub fn circulating_total(&self, currency: CurrencyId) -> u64 {
        self.fold().circulating_total(currency)
    }

    /// The conservation invariant: for every currency,
    /// `minted = circulating + locked`. An escrow that abides by the
    /// protocol maintains this at every step (ES); any discrepancy is a
    /// bug in the escrow, not in a customer. Currencies are checked in
    /// ascending order.
    pub fn check_conservation(&self) -> Result<(), String> {
        self.fold().check_conservation()
    }
}

/// One pass over a [`Ledger`]'s log ([`Ledger::fold`]): every account's
/// balance per currency, each currency's minted total, and every deal with
/// its state. The book's totals and its conservation check are views of
/// this fold. Mint and lock refuse keys without an account, so every key
/// the log credits or debits holds one.
#[derive(Debug, Clone)]
pub struct Fold {
    /// One row per (account, currency) pair the log moved value of.
    balances: Small<((KeyId, CurrencyId), u64), 4>,
    /// One row per currency the log minted.
    minted: Small<(CurrencyId, u64), 2>,
    /// In creation order.
    deals: Small<EscrowDeal, 2>,
}

/// The value of `key`'s row, pushed as 0 when it has none.
fn row<K: Copy + PartialEq, const N: usize>(rows: &mut Small<(K, u64), N>, key: K) -> &mut u64 {
    let at = rows.iter().position(|r| r.0 == key).unwrap_or_else(|| {
        rows.push((key, 0));
        rows.len() - 1
    });
    &mut rows[at].1
}

impl Fold {
    fn new() -> Self {
        // Fillers only occupy the unused slots.
        let (key, currency) = (KeyId(0), CurrencyId(0));
        Fold {
            balances: Small::new(((key, currency), 0)),
            minted: Small::new((currency, 0)),
            deals: Small::new(EscrowDeal {
                id: DealId(0),
                depositor: key,
                beneficiary: key,
                asset: Asset::new(currency, 0),
                state: DealState::Locked,
            }),
        }
    }

    /// Balance of `who` in `currency` (zero if none).
    pub fn balance(&self, who: KeyId, currency: CurrencyId) -> u64 {
        let r = self.balances.iter().find(|r| r.0 == (who, currency));
        r.map_or(0, |r| r.1)
    }

    /// Total ever minted in `currency`.
    pub fn minted_total(&self, currency: CurrencyId) -> u64 {
        let r = self.minted.iter().find(|r| r.0 == currency);
        r.map_or(0, |r| r.1)
    }

    /// Value locked in unsettled deals in `currency`.
    pub fn locked_total(&self, currency: CurrencyId) -> u64 {
        let locked = self.deals.iter().filter(|d| d.state == DealState::Locked);
        let locked = locked.filter(|d| d.asset.currency == currency);
        locked.map(|d| d.asset.amount).sum()
    }

    /// Sum of all account balances in `currency`.
    pub fn circulating_total(&self, currency: CurrencyId) -> u64 {
        let rows = self.balances.iter().filter(|r| r.0 .1 == currency);
        rows.map(|r| r.1).sum()
    }

    /// A deal and its state.
    pub fn deal(&self, deal: DealId) -> Option<EscrowDeal> {
        self.deals.iter().find(|d| d.id == deal).copied()
    }

    /// [`Ledger::check_conservation`]: `minted = circulating + locked` for
    /// every minted currency, the lowest failing currency reported.
    pub fn check_conservation(&self) -> Result<(), String> {
        let check = |&(currency, minted): &(CurrencyId, u64)| {
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
            Ok(())
        };
        let failing = self.minted.iter().filter(|r| check(r).is_err());
        failing.min_by_key(|r| r.0).map_or(Ok(()), check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        assert_eq!(l.accounts().collect::<Vec<_>>(), [alice, bob]);
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

    #[test]
    fn a_refused_mint_moves_nothing() {
        let (mut l, alice, bob) = setup();
        l.mint(bob, Asset::new(CUR, u64::MAX - 100)).unwrap();
        // Alice's balance would fit, the currency's minted total would not.
        let before = l.audit().len();
        assert_eq!(
            l.mint(alice, Asset::new(CUR, 1)),
            Err(LedgerError::Overflow)
        );
        assert_eq!(l.audit().len(), before);
        assert_eq!(l.balance(alice, CUR), 100);
        l.check_conservation().unwrap();
    }

    /// The book as maps: balances and mints in `BTreeMap`s, accounts and
    /// deals in `Vec`s, updated in place by each operation. The reference
    /// [`Ledger`]'s log folds are checked against. A refused mint moves
    /// nothing here either: both overflow checks come before any update.
    #[derive(Default)]
    struct MapBook {
        balances: BTreeMap<(KeyId, CurrencyId), u64>,
        accounts: Vec<KeyId>,
        deals: Vec<EscrowDeal>,
        minted: BTreeMap<CurrencyId, u64>,
    }

    impl MapBook {
        fn open_account(&mut self, owner: KeyId) -> Result<(), LedgerError> {
            if self.accounts.contains(&owner) {
                return Err(LedgerError::DuplicateAccount(owner));
            }
            self.accounts.push(owner);
            Ok(())
        }

        fn balance(&self, who: KeyId, currency: CurrencyId) -> u64 {
            self.balances.get(&(who, currency)).copied().unwrap_or(0)
        }

        fn mint(&mut self, to: KeyId, asset: Asset) -> Result<(), LedgerError> {
            if !self.accounts.contains(&to) {
                return Err(LedgerError::UnknownAccount(to));
            }
            let bal = self.balance(to, asset.currency).checked_add(asset.amount);
            let total = self.minted.get(&asset.currency).copied().unwrap_or(0);
            let total = total.checked_add(asset.amount);
            let (Some(bal), Some(total)) = (bal, total) else {
                return Err(LedgerError::Overflow);
            };
            self.balances.insert((to, asset.currency), bal);
            self.minted.insert(asset.currency, total);
            Ok(())
        }

        fn lock(&mut self, from: KeyId, to: KeyId, asset: Asset) -> Result<DealId, LedgerError> {
            for k in [from, to] {
                if !self.accounts.contains(&k) {
                    return Err(LedgerError::UnknownAccount(k));
                }
            }
            let bal = self.balances.entry((from, asset.currency)).or_insert(0);
            if *bal < asset.amount {
                return Err(LedgerError::InsufficientFunds {
                    who: from,
                    need: asset,
                    have: *bal,
                });
            }
            *bal -= asset.amount;
            let id = DealId(self.deals.len() as u64);
            self.deals.push(EscrowDeal {
                id,
                depositor: from,
                beneficiary: to,
                asset,
                state: DealState::Locked,
            });
            Ok(id)
        }

        fn settle(&mut self, deal: DealId, release: bool) -> Result<(), LedgerError> {
            let d = self
                .deals
                .get_mut(deal.0 as usize)
                .ok_or(LedgerError::UnknownDeal(deal))?;
            if d.state != DealState::Locked {
                return Err(LedgerError::AlreadySettled(deal));
            }
            let (state, payee) = if release {
                (DealState::Released, d.beneficiary)
            } else {
                (DealState::Refunded, d.depositor)
            };
            d.state = state;
            let asset = d.asset;
            let bal = self.balances.entry((payee, asset.currency)).or_insert(0);
            *bal = bal.checked_add(asset.amount).ok_or(LedgerError::Overflow)?;
            Ok(())
        }

        fn locked_total(&self, currency: CurrencyId) -> u64 {
            let locked = self.deals.iter().filter(|d| d.state == DealState::Locked);
            locked
                .filter(|d| d.asset.currency == currency)
                .map(|d| d.asset.amount)
                .sum()
        }
    }

    /// An operation on a book of up to six keys and three currencies.
    #[derive(Debug, Clone)]
    enum BookOp {
        Open(u8),
        Mint(u8, u8, u64),
        Lock(u8, u8, u8, u64),
        Release(u8),
        Refund(u8),
    }

    /// Amounts mostly small, sometimes near `u64::MAX`, so refused mints
    /// (overflow) and refused locks (insufficient funds) both happen.
    fn amount() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..1_000).prop_map(|v| v),
            any::<u32>().prop_map(u64::from),
            (0u64..1_000).prop_map(|v| u64::MAX - v),
        ]
    }

    fn book_op() -> impl Strategy<Value = BookOp> {
        prop_oneof![
            any::<u8>().prop_map(BookOp::Open),
            (any::<u8>(), any::<u8>(), amount()).prop_map(|(a, c, v)| BookOp::Mint(a, c, v)),
            (any::<u8>(), any::<u8>(), any::<u8>(), amount())
                .prop_map(|(a, b, c, v)| BookOp::Lock(a, b, c, v)),
            any::<u8>().prop_map(BookOp::Release),
            any::<u8>().prop_map(BookOp::Refund),
        ]
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
        fn prop_log_folds_agree_with_the_map_book(ops in proptest::collection::vec(book_op(), 1..120)) {
            let (mut l, mut m) = (Ledger::new(), MapBook::default());
            let key = |x: u8| KeyId((x % 6) as u32);
            let cur = |x: u8| CurrencyId((x % 3) as u32);
            for op in ops {
                let (got, want) = match op {
                    BookOp::Open(a) => (l.open_account(key(a)), m.open_account(key(a))),
                    BookOp::Mint(a, c, v) => {
                        let asset = Asset::new(cur(c), v);
                        (l.mint(key(a), asset), m.mint(key(a), asset))
                    }
                    BookOp::Lock(a, b, c, v) => {
                        let asset = Asset::new(cur(c), v);
                        let got = l.lock(key(a), key(b), asset);
                        let want = m.lock(key(a), key(b), asset);
                        prop_assert_eq!(got, want);
                        (Ok(()), Ok(()))
                    }
                    BookOp::Release(d) => {
                        let d = DealId(u64::from(d % 8));
                        (l.release(d), m.settle(d, true))
                    }
                    BookOp::Refund(d) => {
                        let d = DealId(u64::from(d % 8));
                        (l.refund(d), m.settle(d, false))
                    }
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(l.accounts().collect::<Vec<_>>(), m.accounts.clone());
                prop_assert_eq!(l.deals().collect::<Vec<_>>(), m.deals.clone());
                for c in (0..3).map(CurrencyId) {
                    for k in (0..6).map(KeyId) {
                        prop_assert_eq!(l.balance(k, c), m.balance(k, c));
                    }
                    prop_assert_eq!(l.minted_total(c), m.minted.get(&c).copied().unwrap_or(0));
                    prop_assert_eq!(l.locked_total(c), m.locked_total(c));
                    let circ: u64 = m.balances.iter().filter(|((_, cc), _)| *cc == c).map(|(_, v)| v).sum();
                    prop_assert_eq!(l.circulating_total(c), circ);
                }
                prop_assert!(l.check_conservation().is_ok());
            }
        }

        #[test]
        fn prop_one_fold_agrees_with_the_map_book(ops in proptest::collection::vec(book_op(), 1..120)) {
            let (mut l, mut m) = (Ledger::new(), MapBook::default());
            let key = |x: u8| KeyId((x % 6) as u32);
            let cur = |x: u8| CurrencyId((x % 3) as u32);
            for op in ops {
                let (got, want) = match op {
                    BookOp::Open(a) => (l.open_account(key(a)).is_ok(), m.open_account(key(a)).is_ok()),
                    BookOp::Mint(a, c, v) => {
                        let asset = Asset::new(cur(c), v);
                        (l.mint(key(a), asset).is_ok(), m.mint(key(a), asset).is_ok())
                    }
                    BookOp::Lock(a, b, c, v) => {
                        let asset = Asset::new(cur(c), v);
                        (l.lock(key(a), key(b), asset).is_ok(), m.lock(key(a), key(b), asset).is_ok())
                    }
                    BookOp::Release(d) => {
                        let d = DealId(u64::from(d % 8));
                        (l.release(d).is_ok(), m.settle(d, true).is_ok())
                    }
                    BookOp::Refund(d) => {
                        let d = DealId(u64::from(d % 8));
                        (l.refund(d).is_ok(), m.settle(d, false).is_ok())
                    }
                };
                prop_assert_eq!(got, want);
                let fold = l.fold();
                // The fold agrees with the map book and with the book's own
                // single-question passes.
                for (i, d) in m.deals.iter().enumerate() {
                    prop_assert_eq!(fold.deal(DealId(i as u64)), Some(*d));
                    prop_assert_eq!(l.deal(DealId(i as u64)), Some(*d));
                }
                prop_assert_eq!(fold.deal(DealId(m.deals.len() as u64)), None);
                for c in (0..3).map(CurrencyId) {
                    for k in (0..6).map(KeyId) {
                        prop_assert_eq!(fold.balance(k, c), m.balance(k, c));
                        prop_assert_eq!(l.balance(k, c), m.balance(k, c));
                    }
                    prop_assert_eq!(fold.minted_total(c), m.minted.get(&c).copied().unwrap_or(0));
                    prop_assert_eq!(l.minted_total(c), fold.minted_total(c));
                    prop_assert_eq!(fold.locked_total(c), m.locked_total(c));
                    let circ: u64 = m.balances.iter().filter(|((_, cc), _)| *cc == c).map(|(_, v)| v).sum();
                    prop_assert_eq!(fold.circulating_total(c), circ);
                }
                prop_assert!(fold.check_conservation().is_ok());
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
