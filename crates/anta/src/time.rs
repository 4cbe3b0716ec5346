//! Fixed-point simulated time.
//!
//! All timing in the workspace uses integer *ticks* (1 tick ≡ 1 simulated
//! microsecond). Integer fixed-point keeps every simulation bit-for-bit
//! deterministic across platforms — a prerequisite for the seeded
//! reproducibility of the experiments and for the schedule explorer — and
//! avoids float accumulation error in the timeout calculus, where the paper's
//! correctness argument hinges on exact inequalities between deadlines.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time (ticks since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// Ticks per simulated millisecond.
pub const MILLI: u64 = 1_000;
/// Ticks per simulated second.
pub const SECOND: u64 = 1_000_000;

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from raw ticks (µs).
    pub const fn from_ticks(t: u64) -> Self {
        SimTime(t)
    }

    /// Constructs from whole simulated milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MILLI)
    }

    /// Constructs from whole simulated seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * SECOND)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// The duration from `earlier` to `self`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` when `earlier > self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating addition of a duration (caps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Longest representable span; used as "forever".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs from raw ticks (µs).
    pub const fn from_ticks(t: u64) -> Self {
        SimDuration(t)
    }

    /// Constructs from whole simulated milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MILLI)
    }

    /// Constructs from whole simulated seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * SECOND)
    }

    /// Raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// True iff zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a rational factor `num/den`, rounding **up**.
    ///
    /// Deadline arithmetic always rounds pessimistically: a deadline scaled
    /// by a drift factor must never come out shorter than the true bound.
    /// Exact for every input, saturating at `u64::MAX`: the product is a
    /// `u64` when it fits (every drift clock's case, and no 128-bit
    /// division) and a `u128` past that.
    pub fn scale_ceil(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "scale_ceil: zero denominator");
        match self.0.checked_mul(num) {
            Some(prod) => SimDuration(prod.div_ceil(den)),
            None => {
                let out = (self.0 as u128 * num as u128).div_ceil(den as u128);
                SimDuration(u64::try_from(out).unwrap_or(u64::MAX))
            }
        }
    }

    /// Multiplies by `num/den`, rounding **down** (for lower bounds). Exact
    /// and saturating, as [`SimDuration::scale_ceil`].
    pub fn scale_floor(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "scale_floor: zero denominator");
        match self.0.checked_mul(num) {
            Some(prod) => SimDuration(prod / den),
            None => {
                let out = self.0 as u128 * num as u128 / den as u128;
                SimDuration(u64::try_from(out).unwrap_or(u64::MAX))
            }
        }
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating multiplication by an integer.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

/// Shared pretty-printer: `1.250s`, `37ms`, `512µs`.
fn fmt_ticks(t: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if t >= SECOND && t % MILLI == 0 {
        write!(f, "{}.{:03}s", t / SECOND, (t % SECOND) / MILLI)
    } else if t >= MILLI && t % MILLI == 0 {
        write!(f, "{}ms", t / MILLI)
    } else {
        write!(f, "{}µs", t)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ticks(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ticks(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_millis(3).ticks(), 3_000);
        assert_eq!(SimTime::from_secs(2).ticks(), 2_000_000);
        assert_eq!(SimDuration::from_millis(5).ticks(), 5_000);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_ticks(1).is_zero());
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ticks(100);
        let d = SimDuration::from_ticks(40);
        assert_eq!(t + d, SimTime::from_ticks(140));
        assert_eq!((t + d) - d, t);
        assert_eq!(SimTime::from_ticks(140) - t, d);
        assert_eq!(d * 3, SimDuration::from_ticks(120));
        assert_eq!(d / 4, SimDuration::from_ticks(10));
        assert_eq!(d + d, SimDuration::from_ticks(80));
        assert_eq!(d - SimDuration::from_ticks(15), SimDuration::from_ticks(25));
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_ticks(1) - SimTime::from_ticks(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::from_ticks(5).saturating_since(SimTime::from_ticks(9)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_ticks(9).checked_since(SimTime::from_ticks(5)),
            Some(SimDuration(4))
        );
        assert_eq!(
            SimTime::from_ticks(5).checked_since(SimTime::from_ticks(9)),
            None
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ticks(10)),
            SimTime::MAX
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration(1)),
            SimDuration::MAX
        );
    }

    #[test]
    fn scale_rounding_directions() {
        let d = SimDuration::from_ticks(10);
        // 10 * 1/3 = 3.33… → ceil 4, floor 3.
        assert_eq!(d.scale_ceil(1, 3), SimDuration::from_ticks(4));
        assert_eq!(d.scale_floor(1, 3), SimDuration::from_ticks(3));
        // Exact division: both agree.
        assert_eq!(d.scale_ceil(1, 2), d.scale_floor(1, 2));
    }

    #[test]
    fn scale_no_overflow_at_large_values() {
        let d = SimDuration::from_ticks(u64::MAX / 2);
        // (1+ρ) with ρ = 200ppm — must not overflow.
        let scaled = d.scale_ceil(1_000_200, 1_000_000);
        assert!(scaled.ticks() > d.ticks());
    }

    /// `scale_floor` / `scale_ceil` as one 128-bit formula, saturating.
    fn scaled_u128(t: u64, num: u64, den: u64, ceil: bool) -> u64 {
        let prod = t as u128 * num as u128;
        let q = if ceil {
            prod.div_ceil(den as u128)
        } else {
            prod / den as u128
        };
        u64::try_from(q).unwrap_or(u64::MAX)
    }

    fn assert_scales_as_u128(t: u64, num: u64, den: u64) {
        let d = SimDuration::from_ticks(t);
        assert_eq!(
            d.scale_floor(num, den).ticks(),
            scaled_u128(t, num, den, false),
            "floor({t} × {num} / {den})"
        );
        assert_eq!(
            d.scale_ceil(num, den).ticks(),
            scaled_u128(t, num, den, true),
            "ceil({t} × {num} / {den})"
        );
    }

    /// Products at the edge of the `u64` path: 2^64 − 1 (the largest that
    /// takes it), 2^64 and 2^64 + 1 (the smallest that do not), at 0, 1 and
    /// `u64::MAX` on either side.
    #[test]
    fn scaling_equals_the_u128_formula_at_the_u64_edge() {
        const M: u64 = u64::MAX;
        // 2^64 − 1 = 3 · 5 · 17 · 257 · 641 · 65537 · 6700417, and
        // 2^64 + 1 = 274177 · 67280421310721.
        let pairs = [
            (0, 0),
            (0, M),
            (M, 0),
            (1, 1),
            (1, M),
            (M, 1),
            (M, M),
            (3, M / 3),
            (641, M / 641),
            (65537, M / 65537),
            (1 << 32, 1 << 32),
            (2, 1 << 63),
            (274177, 67280421310721),
            (1 << 32, (1 << 32) + 1),
        ];
        for (t, num) in pairs {
            for (a, b) in [(t, num), (num, t)] {
                for den in [1, 2, 3, 7, 1_000_000, 1 << 32, M - 1, M] {
                    assert_scales_as_u128(a, b, den);
                }
            }
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(SimDuration::from_ticks(512).to_string(), "512µs");
        assert_eq!(SimDuration::from_millis(37).to_string(), "37ms");
        assert_eq!(SimTime::from_ticks(1_250_000).to_string(), "1.250s");
    }

    proptest! {
        #[test]
        fn prop_scale_ceil_geq_floor(t in 0u64..1u64 << 40, num in 1u64..2_000_000, den in 1u64..2_000_000) {
            let d = SimDuration::from_ticks(t);
            prop_assert!(d.scale_ceil(num, den) >= d.scale_floor(num, den));
            // They differ by at most one tick.
            prop_assert!(d.scale_ceil(num, den).ticks() - d.scale_floor(num, den).ticks() <= 1);
        }

        #[test]
        fn prop_scale_monotone_in_input(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, num in 1u64..2_000_000u64) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                SimDuration::from_ticks(lo).scale_ceil(num, 1_000_000)
                    <= SimDuration::from_ticks(hi).scale_ceil(num, 1_000_000)
            );
        }

        #[test]
        fn prop_scale_equals_the_u128_formula(t in any::<u64>(), num in any::<u64>(), den in 1u64..u64::MAX, shift in 0u32..64) {
            // Shifts spread the magnitudes, so both paths are drawn.
            assert_scales_as_u128(t >> shift, num >> (63 - shift), den);
            assert_scales_as_u128(t >> shift, num, den >> shift | 1);
        }

        #[test]
        fn prop_scale_identity(t in 0u64..1u64 << 50) {
            let d = SimDuration::from_ticks(t);
            prop_assert_eq!(d.scale_ceil(1, 1), d);
            prop_assert_eq!(d.scale_floor(7, 7), d);
        }

        #[test]
        fn prop_add_sub_roundtrip(t in 0u64..1u64 << 60, d in 0u64..1u64 << 60) {
            let time = SimTime::from_ticks(t);
            let dur = SimDuration::from_ticks(d);
            prop_assert_eq!((time + dur) - dur, time);
            prop_assert_eq!((time + dur) - time, dur);
        }
    }
}
