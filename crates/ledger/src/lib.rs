//! # xchain-ledger — the escrow/bank substrate
//!
//! The paper's escrows are "banks or blockchain smart contracts" that hold
//! value in a predefined manner. This crate is that substrate:
//!
//! * [`asset`] — currencies and checked amounts (commissions mean the
//!   values differ hop by hop, possibly in different currencies);
//! * [`ledger`] — one escrow's book, which is its audit log: accounts,
//!   mints and escrow deals with `Locked → Released | Refunded` lifecycle
//!   are log entries. One pass over the log ([`Ledger::fold`], a [`Fold`])
//!   yields every balance, deal state and total, and the conservation
//!   verdict, so a caller asking several questions folds the book once;
//!   the book's totals and conservation check are views of that fold. The
//!   per-currency conservation invariant backs the **ES** (escrow
//!   security) property;
//! * [`small`] — the inline vector a book's log and fold are kept in;
//! * [`chain`] — a SHA-256 hash-linked append-only log modelling the
//!   "permissionless blockchain" on which the smart-contract transaction
//!   manager of Theorem 3 publishes its decision.
//!
//! ## Example
//!
//! ```
//! use ledger::{Ledger, Asset, CurrencyId};
//! use xcrypto::KeyId;
//!
//! let mut book = Ledger::new();
//! let (alice, bob) = (KeyId(0), KeyId(1));
//! book.open_account(alice).unwrap();
//! book.open_account(bob).unwrap();
//! book.mint(alice, Asset::new(CurrencyId(0), 100)).unwrap();
//!
//! let deal = book.lock(alice, bob, Asset::new(CurrencyId(0), 40)).unwrap();
//! book.release(deal).unwrap();
//! assert_eq!(book.balance(bob, CurrencyId(0)), 40);
//! book.check_conservation().unwrap();
//!
//! // Several questions, one pass over the log.
//! let fold = book.fold();
//! assert_eq!((fold.balance(alice, CurrencyId(0)), fold.locked_total(CurrencyId(0))), (60, 0));
//! fold.check_conservation().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asset;
pub mod chain;
pub mod ledger;
pub mod small;

pub use asset::{Asset, CurrencyId};
pub use chain::{ChainEntry, SimChain};
pub use ledger::{AuditEntry, DealId, DealState, EscrowDeal, Fold, Ledger, LedgerError, Marks};
pub use small::Small;
