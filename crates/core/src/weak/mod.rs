//! The weak-liveness cross-chain payment protocol (Definition 2,
//! Theorem 3).
//!
//! Solvable under partial synchrony with Byzantine failures: no step
//! depends on a wall-clock deadline; instead an external transaction
//! manager issues a single commit (χc) or abort (χa) certificate, and
//! every customer may lose patience at any time without risking her funds.
//! It runs on the same [`Chain`](crate::Chain) as Theorem 1's protocol,
//! with the manager's keys registered after the chain's.
//!
//! * [`participants`] — customers with patience policies, escrows (the
//!   escrow core both protocols share, plus settling on the certificate)
//!   and the certificate-share collector;
//! * [`tm`] — the three manager instantiations: trusted party, smart
//!   contract on a public log, notary committee over consensus;
//! * [`scenario`] — assembly and outcome extraction.
//!
//! ## Speakers
//!
//! Who each compliant process accepts a message kind from. Certificates,
//! reports and votes are relayed by design, so most rows accept any pid
//! and authenticate the signature instead.
//!
//! | receiver | message | accepted from |
//! |---|---|---|
//! | `e_i` | `$` (this payment, `v_i`, once) | `c_i` |
//! | `e_i`, `c_i` | decision certificate (share) | any, signed by the authority |
//! | manager, notary | `Locked(i)` | any, signed by `e_i` |
//! | manager, notary | abort request for `c_i` | any, signed by `c_i` |
//! | manager, notary | acceptance χ | any, signed by Bob |
//! | notary | consensus message | any, verified by the consensus core |

pub mod participants;
pub mod scenario;
pub mod tm;

pub use participants::{CertCollector, Patience, WeakCustomer, WeakEscrow, ESCROW_MARKS};
pub use scenario::{TmKind, WeakOutcome, WeakSetup};
pub use tm::{Evidence, NotaryTm, TrustedTm};
