//! The timeout calculus — the "precise values of d_i calculated in \[5\]".
//!
//! The brief announcement treats the promise bounds `a_i` (escrow `e_i`'s
//! patience for χ) and `d_i` (its resolution guarantee to the upstream
//! customer) as parameters and defers their calculation to the full paper.
//! This module reconstructs that calculation from the synchrony model
//! (the bullets below derive the inequalities):
//!
//! * `δ` — maximum message delay; `σ` — maximum grey-state computation
//!   time; `ρ` — clock-rate drift bound; `h = δ + σ` is one hop.
//! * **Base case (Bob's round trip).** `e_{n-1}` must keep its deal open
//!   long enough for `P(a_{n-1})` to reach Bob and χ to return:
//!   real time ≤ 2h, measured on a drifting clock ≤ `(1+ρ)·2h`, so
//!
//!   `a_{n-1} = (1+ρ)·2h + margin`.
//!
//! * **Chaining (CS3 for Chloe).** When `e_{i+1}` accepts χ at the last
//!   admissible instant, χ still has to climb one level and be accepted at
//!   `e_i`: the real-time lag is at most `(1+ρ)·a_{i+1}` (slow clock at
//!   `e_{i+1}`) plus `4h` (money hop down between the two promise
//!   issuances + χ hop up), read on `e_i`'s possibly fast clock:
//!
//!   `a_i = (1+ρ)·((1+ρ)·a_{i+1} + 4h) + margin`.
//!
//!   This choice simultaneously covers the forward condition (money still
//!   travelling down plus χ all the way back — see the inequality test
//!   below), because both recurrences add `≥ 4h` per level from the same
//!   base.
//! * `d_i = a_i + (1+ρ)·2h + margin` — after receiving $, the escrow
//!   computes, waits out at most `a_i`, and delivers $ or χ.
//! * `ε = (1+ρ)·h + margin` — payout latency after an in-time χ.
//!
//! Every run of experiment E1 checks the resulting schedule empirically
//! (success under all drifts/delays within the envelope); experiment E6
//! shortens every `a_i` by a growing cut ([`TimeoutSchedule::shortened`]),
//! past the margin, to exhibit the failure crossover, which is exactly the
//! gap between the paper's fine-tuned protocol (Theorem 1) and the
//! drift-oblivious Interledger universal protocol it repairs.

use anta::clock::PPM;
use anta::engine::EngineConfig;
use anta::time::{SimDuration, SimTime};

/// How many values a sending handler's computation time takes in
/// `[0, σ]` in every payment engine the setups and protocol harnesses
/// build (the engine's `sigma_buckets`; read only by
/// [`SyncParams::engine_config`]).
pub const SIGMA_BUCKETS: usize = 4;

/// The synchrony-model parameters of Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncParams {
    /// Maximum message delay δ.
    pub delta: SimDuration,
    /// Maximum computation time per grey state σ.
    pub sigma: SimDuration,
    /// Clock-rate drift bound ρ, in parts-per-million.
    pub rho_ppm: u64,
    /// Safety slack added to every derived bound. The default of one hop
    /// absorbs quantisation. It cannot go below zero; experiment E6
    /// under-provisions a schedule by shortening every `a_i` instead
    /// ([`TimeoutSchedule::shortened`]).
    pub margin: SimDuration,
}

impl SyncParams {
    /// A convenient baseline: δ = 10 ms, σ = 1 ms, ρ = 100 ppm,
    /// margin = one hop.
    pub fn baseline() -> Self {
        let delta = SimDuration::from_millis(10);
        let sigma = SimDuration::from_millis(1);
        SyncParams {
            delta,
            sigma,
            rho_ppm: 100,
            margin: delta + sigma,
        }
    }

    /// One hop: `h = δ + σ`.
    pub fn hop(&self) -> SimDuration {
        self.delta + self.sigma
    }

    /// Scales a duration by `(1+ρ)`, rounding up (pessimistic for
    /// deadlines).
    pub fn inflate(&self, d: SimDuration) -> SimDuration {
        d.scale_ceil(PPM + self.rho_ppm, PPM)
    }

    /// The engine configuration of a payment under these parameters that
    /// runs until `horizon`: a sending handler's computation time takes
    /// one of [`SIGMA_BUCKETS`] values in `[0, σ]`. Every payment engine
    /// the setups and protocol harnesses build starts here.
    pub fn engine_config(&self, horizon: SimTime) -> EngineConfig {
        EngineConfig {
            max_real_time: horizon,
            sigma_max: self.sigma,
            sigma_buckets: SIGMA_BUCKETS,
            ..EngineConfig::default()
        }
    }
}

/// The derived per-escrow deadlines for a chain of `n` escrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutSchedule {
    /// `a[i]`: how long `e_i` waits for χ after issuing `P(a_i)` (local).
    pub a: Vec<SimDuration>,
    /// `d[i]`: `e_i`'s promised resolution bound after receiving $ (local).
    pub d: Vec<SimDuration>,
    /// Payout latency promised in `P(a)`.
    pub epsilon: SimDuration,
    /// A-priori bound on Alice's local time between sending $ and
    /// terminating (the "known period" of property T).
    pub alice_bound: SimDuration,
}

impl TimeoutSchedule {
    /// Computes the schedule for `n` escrows under `p`.
    pub fn derive(n: usize, p: &SyncParams) -> Self {
        assert!(n >= 1);
        let h = p.hop();
        let two_h = h * 2;
        let four_h = h * 4;
        let mut a = vec![SimDuration::ZERO; n];
        a[n - 1] = p.inflate(two_h) + p.margin;
        for i in (0..n.saturating_sub(1)).rev() {
            let inner = p.inflate(a[i + 1]) + four_h;
            a[i] = p.inflate(inner) + p.margin;
        }
        let d: Vec<SimDuration> = a
            .iter()
            .map(|&ai| ai + p.inflate(two_h) + p.margin)
            .collect();
        let epsilon = p.inflate(h) + p.margin;
        // Alice sends $, e_0 resolves within d_0 on ITS clock — up to
        // (1+ρ)²·d_0 on Alice's clock (both drifting apart) — plus one
        // delivery hop.
        let alice_bound = p.inflate(p.inflate(d[0])) + p.inflate(h) + p.margin;
        TimeoutSchedule {
            a,
            d,
            epsilon,
            alice_bound,
        }
    }

    /// Number of escrows covered.
    pub fn n(&self) -> usize {
        self.a.len()
    }

    /// The CS3 chaining inequality: a χ accepted at the last admissible
    /// moment by `e_{i+1}` must still be acceptable at `e_i`:
    /// `a_i > (1+ρ)·((1+ρ)·a_{i+1} + 4h)`. Strict, because an escrow
    /// accepts χ only at local times `v < u + a_i` — a χ whose worst-case
    /// local arrival lands exactly on the deadline loses the race against
    /// the refund timer. Returns the first violating index, if any.
    pub fn check_chaining(&self, p: &SyncParams) -> Result<(), usize> {
        let four_h = p.hop() * 4;
        for i in 0..self.n().saturating_sub(1) {
            let need = p.inflate(p.inflate(self.a[i + 1]) + four_h);
            if self.a[i] <= need {
                return Err(i);
            }
        }
        Ok(())
    }

    /// The forward condition: `e_i`'s patience must cover the remaining
    /// money descent and χ's full climb back:
    /// `a_i > (1+ρ)·2h·(2(n−1−i)+1)`. Strict for the same reason as
    /// [`Self::check_chaining`]: acceptance is `v < u + a_i`, so a χ whose
    /// worst-case local arrival equals `a_i` is refused. The root test
    /// `tests/property.rs::chaining_and_forward_checks_are_strict_at_need`
    /// holds both checks to this boundary. Returns the first violating
    /// index.
    pub fn check_forward(&self, p: &SyncParams) -> Result<(), usize> {
        let two_h = p.hop() * 2;
        let n = self.n();
        for i in 0..n {
            let k = 2 * (n - 1 - i) as u64 + 1;
            let need = p.inflate(two_h.saturating_mul(k));
            if self.a[i] <= need {
                return Err(i);
            }
        }
        Ok(())
    }

    /// The guarantee condition: `d_i ≥ a_i + (1+ρ)·2h` so `G(d_i)` can be
    /// honoured on the refund path.
    pub fn check_guarantee(&self, p: &SyncParams) -> Result<(), usize> {
        let two_h = p.hop() * 2;
        for i in 0..self.n() {
            if self.d[i] < self.a[i] + p.inflate(two_h) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Runs every static validity check.
    pub fn validate(&self, p: &SyncParams) -> Result<(), String> {
        self.check_chaining(p)
            .map_err(|i| format!("chaining violated at a[{i}]"))?;
        self.check_forward(p)
            .map_err(|i| format!("forward condition violated at a[{i}]"))?;
        self.check_guarantee(p)
            .map_err(|i| format!("guarantee condition violated at d[{i}]"))?;
        Ok(())
    }

    /// A deliberately broken schedule: every `a_i` shortened by `cut`
    /// (saturating at zero). Used by the E6 ablation to locate the failure
    /// crossover.
    pub fn shortened(&self, cut: SimDuration) -> TimeoutSchedule {
        TimeoutSchedule {
            a: self
                .a
                .iter()
                .map(|&x| SimDuration::from_ticks(x.ticks().saturating_sub(cut.ticks())))
                .collect(),
            d: self.d.clone(),
            epsilon: self.epsilon,
            alice_bound: self.alice_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(delta_ms: u64, sigma_ms: u64, rho_ppm: u64) -> SyncParams {
        let delta = SimDuration::from_millis(delta_ms);
        let sigma = SimDuration::from_millis(sigma_ms);
        SyncParams {
            delta,
            sigma,
            rho_ppm,
            margin: delta + sigma,
        }
    }

    #[test]
    fn baseline_schedule_is_valid() {
        let p = SyncParams::baseline();
        for n in 1..=10 {
            let s = TimeoutSchedule::derive(n, &p);
            s.validate(&p).unwrap();
            assert_eq!(s.n(), n);
        }
    }

    #[test]
    fn deadlines_decrease_downstream() {
        let p = SyncParams::baseline();
        let s = TimeoutSchedule::derive(6, &p);
        for i in 0..5 {
            assert!(
                s.a[i] > s.a[i + 1],
                "a must shrink towards Bob: a[{i}] = {:?}, a[{}] = {:?}",
                s.a[i],
                i + 1,
                s.a[i + 1]
            );
            assert!(s.d[i] > s.a[i], "d must exceed a");
        }
    }

    #[test]
    fn zero_drift_reduces_to_plain_bounds() {
        let p = params(10, 0, 0);
        let s = TimeoutSchedule::derive(1, &p);
        // n = 1: a_0 = 2h + margin = 20ms + 10ms.
        assert_eq!(s.a[0], SimDuration::from_millis(30));
        assert_eq!(s.d[0], s.a[0] + SimDuration::from_millis(30));
    }

    #[test]
    fn inflate_scales_by_one_plus_rho_rounding_up() {
        let p = params(10, 1, 50_000); // 5% drift
        assert_eq!(
            p.inflate(SimDuration::from_millis(100)),
            SimDuration::from_millis(105)
        );
        assert_eq!(
            p.inflate(SimDuration::from_ticks(1)),
            SimDuration::from_ticks(2)
        );
    }

    #[test]
    fn shortened_schedule_fails_validation_eventually() {
        let p = SyncParams::baseline();
        let s = TimeoutSchedule::derive(3, &p);
        // Cutting more than the margin must break a check.
        let broken = s.shortened(p.margin * 3);
        assert!(broken.validate(&p).is_err());
        // Cutting nothing keeps it valid.
        assert!(s.shortened(SimDuration::ZERO).validate(&p).is_ok());
    }

    #[test]
    fn alice_bound_dominates_d0() {
        let p = SyncParams::baseline();
        let s = TimeoutSchedule::derive(4, &p);
        assert!(s.alice_bound > s.d[0]);
    }

    proptest! {
        /// The derivation satisfies its own inequalities for arbitrary
        /// model parameters and chain lengths.
        #[test]
        fn prop_derived_schedule_valid(
            n in 1usize..12,
            delta_us in 100u64..100_000,
            sigma_us in 0u64..10_000,
            rho in 0u64..200_000, // up to 20% drift
            margin_us in 1u64..50_000,
        ) {
            let p = SyncParams {
                delta: SimDuration::from_ticks(delta_us),
                sigma: SimDuration::from_ticks(sigma_us),
                rho_ppm: rho,
                margin: SimDuration::from_ticks(margin_us),
            };
            let s = TimeoutSchedule::derive(n, &p);
            prop_assert!(s.validate(&p).is_ok(), "{:?}", s.validate(&p));
        }

        /// Deadlines grow monotonically with chain position distance and
        /// with drift.
        #[test]
        fn prop_monotonicity(n in 2usize..10, rho in 0u64..100_000) {
            let p_low = SyncParams { rho_ppm: rho, ..SyncParams::baseline() };
            let p_high = SyncParams { rho_ppm: rho + 50_000, ..SyncParams::baseline() };
            let s_low = TimeoutSchedule::derive(n, &p_low);
            let s_high = TimeoutSchedule::derive(n, &p_high);
            for i in 0..n {
                prop_assert!(s_high.a[i] >= s_low.a[i], "more drift ⇒ longer deadlines");
                if i + 1 < n {
                    prop_assert!(s_low.a[i] > s_low.a[i + 1]);
                }
            }
        }

        /// The chaining inequality is *tight* to within ~2 margins: the
        /// recursion shouldn't wildly over-provision.
        #[test]
        fn prop_schedule_not_wasteful(n in 2usize..8) {
            let p = SyncParams::baseline();
            let s = TimeoutSchedule::derive(n, &p);
            let four_h = p.hop() * 4;
            for i in 0..n - 1 {
                let need = p.inflate(p.inflate(s.a[i + 1]) + four_h);
                let slack = s.a[i] - need;
                prop_assert!(
                    slack <= p.margin + SimDuration::from_ticks(2),
                    "a[{i}] over-provisioned by {slack:?}"
                );
            }
        }
    }
}
