//! # xchain-telemetry — deterministic observability primitives
//!
//! The workspace's load-bearing invariant is that every report is
//! **bit-identical across thread counts, interruptions and resumes**.
//! This crate provides observability that is structurally incapable of
//! breaking that invariant:
//!
//! * [`sketch::MergeableSketch`] — the fixed-comb constant-memory
//!   quantile sketch; merging is commutative and associative, so
//!   per-worker sketches collapse to the same bytes whatever the thread
//!   count. It serialises as one event (`to_event` / `from_event`).
//! * [`event::Event`] + [`sink`] — structured events with a versioned
//!   JSONL wire format ([`event::EVENT_SCHEMA_VERSION`]; a `u128` rides
//!   as a decimal string, [`event::Event::with_u128`]) and three
//!   sinks: [`sink::NullSink`] (off, free), [`sink::RingSink`]
//!   (bounded memory), [`sink::JsonlSink`] (buffered file) — the repo
//!   benchmark prices the latter two as `telemetry.*_ns_per_event`.
//! * [`json::JsonObject`] — the one writer behind every `--json`
//!   artifact, sharing the event layer's scalar encoding and escaping.
//! * [`timer::PhaseProfile`] / [`timer::TimerGuard`] — scoped wall-clock
//!   phase timers whose readings flow only into events and artifacts,
//!   never into digests.
//!
//! The discipline that makes this deterministic: **sinks live on the
//! orchestrating thread**. Parallel workers return plain merged-in-order
//! data; events are rendered from the merged result. Wall-clock and RSS
//! readings ride along in event fields but are never folded into any
//! digest preimage.
//!
//! This crate is deliberately dependency-free (std only): it sits below
//! `anta`, `protocol` and `sim` in the crate graph, all of which emit
//! through it. Its one binary, `telemetry_check`, validates the JSONL
//! streams the format and parser here define.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod sink;
pub mod sketch;
pub mod timer;

pub use event::{parse_jsonl, parse_jsonl_with_header, Event, FieldValue, EVENT_SCHEMA_VERSION};
pub use json::{Json, JsonObject};
pub use sink::{JsonlSink, NullSink, RingSink, TelemetrySink};
pub use sketch::{MergeableSketch, SketchSummary};
pub use timer::{PhaseProfile, PhaseStat, TimerGuard};
