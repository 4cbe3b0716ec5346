//! Drifting local clocks.
//!
//! Each ANTA automaton "keeps an internal clock, whose value … is stored in
//! the variable `now`" (§4). The paper's Theorem 1 protocol is explicitly
//! *fine-tuned to work correctly in the presence of clock drift* — the very
//! deficiency it identifies in the synchronous solutions of Interledger \[4\]
//! and Herlihy–Liskov–Shrira \[3\]. This module models that drift.
//!
//! A [`DriftClock`] maps real (simulation) time `t` to local time
//!
//! ```text
//! C(t) = offset + t · rate_num / rate_den
//! ```
//!
//! with `rate_num/rate_den ∈ [1/(1+ρ), 1+ρ]` for drift bound ρ. A fixed rate
//! within the envelope is the adversary's strongest choice for the timeout
//! analysis (a clock that is maximally fast or slow for the whole run), and
//! keeps the map invertible, which the engine uses to convert local-time
//! deadlines (`now ≥ u + a_i`) into real-time events.
//!
//! Rates are exact rationals in parts-per-million, so the clock arithmetic —
//! like everything else in the simulator — is deterministic integer math.

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parts-per-million denominator for clock rates.
pub const PPM: u64 = 1_000_000;

/// A local clock with a fixed rational rate and an initial offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftClock {
    /// Local ticks advanced per `rate_den` real ticks.
    rate_num: u64,
    rate_den: u64,
    /// Local time at real time zero.
    offset: SimDuration,
}

impl Default for DriftClock {
    fn default() -> Self {
        Self::perfect()
    }
}

impl DriftClock {
    /// A perfect clock: `C(t) = t`.
    pub fn perfect() -> Self {
        DriftClock {
            rate_num: 1,
            rate_den: 1,
            offset: SimDuration::ZERO,
        }
    }

    /// A clock running at `(PPM + drift_ppm) / PPM` real speed with a start
    /// offset. `drift_ppm` may be negative (slow clock); it must satisfy
    /// `drift_ppm > -PPM` (a clock cannot stop or run backwards).
    pub fn with_drift_ppm(drift_ppm: i64, offset: SimDuration) -> Self {
        assert!(
            drift_ppm > -(PPM as i64),
            "clock rate must stay positive (drift_ppm = {drift_ppm})"
        );
        let rate_num = (PPM as i64 + drift_ppm) as u64;
        DriftClock {
            rate_num,
            rate_den: PPM,
            offset,
        }
    }

    /// Samples a clock uniformly within the drift envelope `ρ` (given in
    /// ppm): rate ∈ [PPM − rho_ppm, PPM + rho_ppm], offset ∈ [0, max_offset].
    ///
    /// Within-envelope sampling matches the synchrony assumption of
    /// Theorem 1: drift is bounded but otherwise arbitrary.
    pub fn sample<R: Rng>(rho_ppm: u64, max_offset: SimDuration, rng: &mut R) -> Self {
        assert!(rho_ppm < PPM, "rho must be < 100%");
        let drift = rng.gen_range(-(rho_ppm as i64)..=(rho_ppm as i64));
        let offset = if max_offset.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_ticks(rng.gen_range(0..=max_offset.ticks()))
        };
        Self::with_drift_ppm(drift, offset)
    }

    /// The clock [`DriftClock::sample`] draws for participant `index` of
    /// the run seeded `seed`. Each participant gets its own generator,
    /// seeded with `seed · 0x9E37_79B9 + index`, so its clock does not
    /// depend on the order in which clocks are built.
    pub fn seeded(seed: u64, index: usize, rho_ppm: u64, max_offset: SimDuration) -> Self {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(index as u64));
        Self::sample(rho_ppm, max_offset, &mut rng)
    }

    /// The extreme clocks of the envelope — the adversary's best choices.
    pub fn fastest(rho_ppm: u64) -> Self {
        Self::with_drift_ppm(rho_ppm as i64, SimDuration::ZERO)
    }

    /// See [`DriftClock::fastest`].
    pub fn slowest(rho_ppm: u64) -> Self {
        Self::with_drift_ppm(-(rho_ppm as i64), SimDuration::ZERO)
    }

    /// Local clock reading at real time `t` (rounded down).
    pub fn local_at(&self, real: SimTime) -> SimTime {
        let scaled =
            SimDuration::from_ticks(real.ticks()).scale_floor(self.rate_num, self.rate_den);
        SimTime::ZERO + scaled + self.offset
    }

    /// Earliest real time at which the local clock reads **at least**
    /// `local`. Returns `None` if the local value precedes the clock's
    /// offset (it already read more than that at real time zero) — the
    /// deadline is then due immediately.
    pub fn real_when_local(&self, local: SimTime) -> Option<SimTime> {
        let past_offset = local.checked_since(SimTime::ZERO + self.offset)?;
        // Smallest t with floor(t·num/den) ≥ past_offset  ⇒  t = ceil(p·den/num).
        let t = past_offset.scale_ceil(self.rate_den, self.rate_num);
        Some(SimTime::ZERO + t)
    }

    /// The clock's rate as (numerator, denominator).
    pub fn rate(&self) -> (u64, u64) {
        (self.rate_num, self.rate_den)
    }

    /// The clock's offset (local time at real zero).
    pub fn offset(&self) -> SimDuration {
        self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_clock_is_identity() {
        let c = DriftClock::perfect();
        for t in [0u64, 1, 17, 1_000_000] {
            assert_eq!(c.local_at(SimTime::from_ticks(t)), SimTime::from_ticks(t));
            assert_eq!(
                c.real_when_local(SimTime::from_ticks(t)),
                Some(SimTime::from_ticks(t))
            );
        }
    }

    #[test]
    fn fast_clock_reads_ahead() {
        let c = DriftClock::with_drift_ppm(100_000, SimDuration::ZERO); // +10%
        assert_eq!(
            c.local_at(SimTime::from_ticks(1_000_000)),
            SimTime::from_ticks(1_100_000)
        );
        // A fast clock reaches a local deadline sooner in real time.
        let real = c.real_when_local(SimTime::from_ticks(1_100_000)).unwrap();
        assert_eq!(real, SimTime::from_ticks(1_000_000));
    }

    #[test]
    fn slow_clock_reads_behind() {
        let c = DriftClock::with_drift_ppm(-200_000, SimDuration::ZERO); // −20%
        assert_eq!(
            c.local_at(SimTime::from_ticks(1_000_000)),
            SimTime::from_ticks(800_000)
        );
        let real = c.real_when_local(SimTime::from_ticks(800_000)).unwrap();
        assert_eq!(real, SimTime::from_ticks(1_000_000));
    }

    #[test]
    fn offset_applies() {
        let c = DriftClock::with_drift_ppm(0, SimDuration::from_ticks(500));
        assert_eq!(c.local_at(SimTime::ZERO), SimTime::from_ticks(500));
        assert_eq!(
            c.real_when_local(SimTime::from_ticks(700)),
            Some(SimTime::from_ticks(200))
        );
        // Local time before the offset was already passed at real zero.
        assert_eq!(c.real_when_local(SimTime::from_ticks(400)), None);
    }

    #[test]
    #[should_panic(expected = "rate must stay positive")]
    fn stopping_clock_rejected() {
        let _ = DriftClock::with_drift_ppm(-(PPM as i64), SimDuration::ZERO);
    }

    #[test]
    fn extremes_bracket_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        let rho = 50_000; // 5%
        let fast = DriftClock::fastest(rho);
        let slow = DriftClock::slowest(rho);
        for _ in 0..100 {
            let c = DriftClock::sample(rho, SimDuration::ZERO, &mut rng);
            let t = SimTime::from_secs(10);
            assert!(c.local_at(t) <= fast.local_at(t));
            assert!(c.local_at(t) >= slow.local_at(t));
        }
    }

    #[test]
    fn slow_clock_reaches_a_local_deadline_late() {
        let slow = DriftClock::slowest(100_000); // -10%: local d takes d/0.9 real
        let local = SimTime::from_ticks(900_000);
        assert_eq!(
            slow.real_when_local(local),
            Some(SimTime::from_ticks(1_000_000))
        );
    }

    proptest! {
        #[test]
        fn prop_local_monotone(drift in -500_000i64..500_000, a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
            let c = DriftClock::with_drift_ppm(drift, SimDuration::ZERO);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.local_at(SimTime::from_ticks(lo)) <= c.local_at(SimTime::from_ticks(hi)));
        }

        #[test]
        fn prop_inverse_is_earliest(drift in -500_000i64..500_000, offset in 0u64..1_000_000, local in 0u64..1u64<<40) {
            let c = DriftClock::with_drift_ppm(drift, SimDuration::from_ticks(offset));
            let local_t = SimTime::from_ticks(local);
            if let Some(real) = c.real_when_local(local_t) {
                // At the returned real time the deadline has passed…
                prop_assert!(c.local_at(real) >= local_t);
                // …and one tick earlier it had not (earliest such time).
                if real.ticks() > 0 {
                    prop_assert!(c.local_at(real - SimDuration::from_ticks(1)) < local_t);
                }
            } else {
                // None ⇒ deadline was already met at real zero.
                prop_assert!(c.local_at(SimTime::ZERO) >= local_t);
            }
        }

        #[test]
        fn prop_drift_envelope(drift in -100_000i64..100_000, t in 1u64..1u64<<40) {
            // |C(t) − t| ≤ |drift|·t/PPM + 1 for zero-offset clocks.
            let c = DriftClock::with_drift_ppm(drift, SimDuration::ZERO);
            let local = c.local_at(SimTime::from_ticks(t)).ticks() as i128;
            let ideal = t as i128;
            let bound = (drift.unsigned_abs() as i128 * t as i128) / PPM as i128 + 1;
            prop_assert!((local - ideal).abs() <= bound);
        }
    }
}
