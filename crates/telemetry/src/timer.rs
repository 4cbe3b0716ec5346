//! Scoped phase timers: where did the wall-clock go?
//!
//! A [`PhaseProfile`] accumulates `(count, total wall time)` per named
//! phase; [`PhaseProfile::time`] returns a [`TimerGuard`] that adds the
//! elapsed time when it drops, so instrumenting a block is one line:
//!
//! ```
//! use telemetry::timer::PhaseProfile;
//!
//! let profile = PhaseProfile::new();
//! {
//!     let _t = profile.time("generation");
//!     // ... generate the workload ...
//! }
//! assert_eq!(profile.snapshot()[0].0, "generation");
//! ```
//!
//! Wall-clock readings are inherently nondeterministic, so phase times
//! flow **only** into telemetry events and JSON artifacts — never into
//! report digests or checkpoint payloads.

use crate::event::Event;
use crate::json::{round_to, JsonObject};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Accumulated timings of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub count: u64,
    /// Total wall time across runs.
    pub total: Duration,
}

/// Accumulates per-phase wall time, in first-seen phase order. Interior
/// mutability (`RefCell`) lets many sequential guards share one profile;
/// the profile is single-threaded by construction — workers never touch
/// it, only the orchestrating loop does.
#[derive(Debug, Default)]
pub struct PhaseProfile {
    phases: RefCell<Vec<(String, PhaseStat)>>,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts timing `phase`; the returned guard records on drop.
    pub fn time<'a>(&'a self, phase: &str) -> TimerGuard<'a> {
        TimerGuard {
            profile: self,
            phase: phase.to_owned(),
            start: Instant::now(),
        }
    }

    /// Adds one observation of `phase` taking `elapsed`.
    pub fn add(&self, phase: &str, elapsed: Duration) {
        let mut phases = self.phases.borrow_mut();
        match phases.iter_mut().find(|(name, _)| name == phase) {
            Some((_, stat)) => {
                stat.count += 1;
                stat.total += elapsed;
            }
            None => phases.push((
                phase.to_owned(),
                PhaseStat {
                    count: 1,
                    total: elapsed,
                },
            )),
        }
    }

    /// The accumulated phases, in first-seen order.
    pub fn snapshot(&self) -> Vec<(String, PhaseStat)> {
        self.phases.borrow().clone()
    }

    /// Total wall time of one phase (zero if never timed).
    pub fn total(&self, phase: &str) -> Duration {
        self.phases
            .borrow()
            .iter()
            .find(|(name, _)| name == phase)
            .map(|(_, s)| s.total)
            .unwrap_or_default()
    }

    /// Renders the profile as one `phase_profile` telemetry event with
    /// `<phase>_ms` / `<phase>_count` field pairs, in first-seen order.
    pub fn to_event(&self) -> Event {
        let mut e = Event::new("phase_profile");
        for (name, stat) in self.phases.borrow().iter() {
            e = e
                .with_f64(&format!("{name}_ms"), stat.total.as_secs_f64() * 1e3)
                .with_u64(&format!("{name}_count"), stat.count);
        }
        e
    }

    /// Renders the profile as a JSON object (`{"generation_ms": 1.2,
    /// ...}`, milliseconds to three decimals) for embedding into campaign
    /// artifacts.
    pub fn to_json_object(&self) -> JsonObject {
        self.phases
            .borrow()
            .iter()
            .fold(JsonObject::new(), |object, (name, stat)| {
                let ms = round_to(stat.total.as_secs_f64() * 1e3, 3);
                object.with(&format!("{name}_ms"), ms)
            })
    }
}

/// Scoped timer: times from construction to drop, then folds the
/// elapsed wall time into its [`PhaseProfile`].
#[derive(Debug)]
pub struct TimerGuard<'a> {
    profile: &'a PhaseProfile,
    phase: String,
    start: Instant,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        self.profile.add(&self.phase, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop_in_first_seen_order() {
        let profile = PhaseProfile::new();
        {
            let _g = profile.time("simulate");
        }
        {
            let _g = profile.time("checkpoint");
        }
        {
            let _g = profile.time("simulate");
        }
        let snap = profile.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "simulate");
        assert_eq!(snap[0].1.count, 2);
        assert_eq!(snap[1].0, "checkpoint");
        assert_eq!(snap[1].1.count, 1);
    }

    #[test]
    fn profile_renders_event_and_json() {
        let profile = PhaseProfile::new();
        profile.add("generation", Duration::from_millis(5));
        profile.add("generation", Duration::from_millis(7));
        profile.add("merge", Duration::from_micros(250));
        let e = profile.to_event();
        assert_eq!(e.kind(), "phase_profile");
        assert_eq!(e.u64_field("generation_count"), Some(2));
        assert!((e.f64_field("generation_ms").unwrap() - 12.0).abs() < 1e-6);
        assert_eq!(
            profile.to_json_object().render(),
            "{\n  \"generation_ms\": 12.0,\n  \"merge_ms\": 0.25\n}\n"
        );
        assert_eq!(profile.total("merge"), Duration::from_micros(250));
        assert_eq!(profile.total("absent"), Duration::ZERO);
    }
}
