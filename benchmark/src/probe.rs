//! The host-speed probe: a fixed computation that uses nothing of the
//! program, timed between the chunks of measured work.
//!
//! The reference box is a shared 2-vCPU VM whose speed shifts by 30–50 %
//! for minutes at a time as neighbours come and go (a plain arithmetic loop
//! takes 0.42 s in one minute and 0.62 s in the next, its CPU time rising
//! with it). Per-chunk minima filter disturbances shorter than a run;
//! nothing inside a run filters a slow stretch longer than the run. So the
//! timed metrics are divided by [`HostSpeed::slowdown`]: how much slower
//! than [`CALM_SECONDS`] the probe ran during this run. That turns host
//! seconds into seconds at the reference box's calm speed (README, "Host
//! noise", has the measurements behind this).

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 256 KiB of `u32`, resident in L2, as the program's
/// working sets (a 1 024-venue book, an engine's queue) are.
const ENTRIES: usize = 1 << 16;
/// Dependent steps per probe: about a millisecond.
const STEPS: usize = 160_000;
/// What [`HostSpeed::level`] reads on the reference box when nothing
/// disturbs it.
pub const CALM_SECONDS: f64 = 1.26e-3;
/// The share of a run's probe samples that count: the slowest tenth are
/// descheduling spikes, which the per-chunk minima already drop.
const KEPT_SHARE: f64 = 0.9;

/// The probe and every sample it has taken in this run.
pub struct HostSpeed {
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// The table is a fixed pseudo-random permutation; no seed reaches it.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % (i as u64 + 1)) as usize);
        }
        HostSpeed {
            table,
            samples: Vec::new(),
        }
    }

    /// Times one probe: a chain of dependent loads from the table, each
    /// index mixed with a multiply-xor hash of the ones before it.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut i = 0usize;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..STEPS {
            i = self.table[(i ^ h as usize) & (ENTRIES - 1)] as usize;
            h = (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        black_box((i, h));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Seconds per probe over the run: the mean of the samples, the
    /// slowest tenth left out.
    pub fn level(&self) -> f64 {
        level(&self.samples)
    }

    /// How much slower than calm the host ran during this run.
    pub fn slowdown(&self) -> f64 {
        self.level() / CALM_SECONDS
    }
}

fn level(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no probe sample taken");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = ((v.len() as f64 * KEPT_SHARE).round() as usize).max(1);
    v[..kept].iter().sum::<f64>() / kept as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_the_mean_without_the_slowest_tenth() {
        let mut v = vec![1.0; 9];
        v.push(100.0);
        assert_eq!(level(&v), 1.0);
        assert_eq!(level(&[2.0, 4.0]), 3.0);
        assert_eq!(level(&[5.0]), 5.0);
    }

    #[test]
    fn the_table_is_a_permutation_and_every_probe_is_recorded() {
        let mut host = HostSpeed::new();
        host.sample();
        host.sample();
        assert_eq!(host.samples().len(), 2);
        assert!(host.samples().iter().all(|&s| s > 0.0));
        let mut seen = host.table.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &e)| i as u32 == e));
    }
}
