//! # xchain-consensus — partial-synchrony Byzantine consensus
//!
//! Theorem 3's transaction manager "can also be a collection of notaries
//! appointed by the participants in the protocol, of which less than
//! one-third is assumed to be unreliable. They would run a consensus
//! algorithm for partial synchrony such as the one from Dwork, Lynch &
//! Stockmeyer." This crate is that component:
//!
//! * [`msg`] — signed votes, proposals with proofs-of-lock, decision
//!   certificates (quorums of precommit signatures);
//! * [`core`] — the sans-IO notary state machine: rotating leaders, growing
//!   round timeouts (the DLS recipe for unknown GST), value locking with
//!   verifiable proof-of-lock re-proposals; safety for `f < n/3` under any
//!   timing, liveness once the network stabilises;
//! * [`process`] — the ANTA engine adapter plus an equivocating Byzantine
//!   notary (a crashed notary is `anta::process::InertProcess`).
//!
//! The committee decides an [`xcrypto::Verdict`]: the manager only ever
//! outputs χc or χa, and every consensus payload signs the verdict's
//! [`wire_tag`](xcrypto::Verdict::wire_tag), the byte a decision
//! certificate signs. The same [`core::NotaryCore`] is embedded by the
//! payment crate's notary-committee transaction manager; here it is
//! exercised in isolation. The core alone records the decision, and
//! decides any verdict an authentic leader proposes consistently with its
//! lock and with the proof-of-lock it attaches. External validity
//! — χc only once every lock and Bob's acceptance are in evidence — is the
//! manager's (`NotaryTm`'s) gate: it holds each fresh proposal its
//! evidence does not yet justify and hands it to the core when the
//! evidence arrives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod msg;
pub mod process;

pub use crate::core::{Config, NotaryCore, Output};
pub use msg::{ConsMsg, ProofOfLock, VoteKind};
pub use process::{EquivocatorNotary, NotaryProcess};
