//! Nondeterminism oracles.
//!
//! Every nondeterministic choice the simulator makes — message delay bucket,
//! computation-time bucket, tie order — is funnelled through a single
//! [`Oracle`] trait. This gives three execution modes from one engine:
//!
//! * [`RandomOracle`] — seeded pseudo-random choices: Monte-Carlo sweeps;
//! * [`FixedOracle`] — always the same index: extremal/deterministic runs
//!   (e.g. "all messages take the maximum delay");
//! * [`ReplayOracle`] — replays a recorded choice prefix and records the
//!   branching degree at each step, which is what the exhaustive schedule
//!   explorer ([`crate::explore`]) iterates over.
//!
//! The oracle only ever picks **indices into finite option sets**; the
//! semantic meaning of an index (a delay bucket, an ordering) stays with the
//! component that asked. Quantising delays into buckets keeps random and
//! exhaustive modes semantically identical, merely at different resolutions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Source of all scheduler-level nondeterminism.
///
/// An oracle sees only how many options a choice has, never what the
/// choice decides or which process it touches. Under dead-branch elision
/// (reduced exploration) the engine pins the choices that cannot matter,
/// such as the delay of a message to a halted process, before drawing, so
/// the oracle never sees them.
pub trait Oracle {
    /// Chooses an index in `0..options`. `options` must be ≥ 1.
    fn choose(&mut self, options: usize) -> usize;
}

/// Seeded pseudo-random choices.
pub struct RandomOracle {
    rng: StdRng,
}

impl RandomOracle {
    /// Creates an oracle from a seed; equal seeds give equal runs.
    pub fn seeded(seed: u64) -> Self {
        RandomOracle {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Oracle for RandomOracle {
    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1, "oracle asked to choose among zero options");
        if options <= 1 {
            0
        } else {
            self.rng.gen_range(0..options)
        }
    }
}

/// Always returns the same index, clamped to the option count. Index 0 gives
/// "minimum" behaviour everywhere, `usize::MAX` gives "maximum".
pub struct FixedOracle {
    index: usize,
}

impl FixedOracle {
    /// Always choose `index` (clamped to `options − 1`).
    pub fn new(index: usize) -> Self {
        FixedOracle { index }
    }

    /// Always the first option (minimal delays).
    pub fn minimal() -> Self {
        Self::new(0)
    }

    /// Always the last option (maximal delays).
    pub fn maximal() -> Self {
        Self::new(usize::MAX)
    }
}

impl Oracle for FixedOracle {
    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1);
        self.index.min(options.saturating_sub(1))
    }
}

/// Replays a prescribed prefix of choices, then defaults to 0; records the
/// number of options seen at every step so a driver can enumerate the
/// complete choice tree lexicographically.
pub struct ReplayOracle {
    prefix: Vec<usize>,
    /// `(chosen, options)` for every step of the current run.
    pub log: Vec<(usize, usize)>,
}

impl ReplayOracle {
    /// Replays `prefix`, then chooses 0.
    pub fn new(prefix: Vec<usize>) -> Self {
        ReplayOracle {
            log: Vec::with_capacity(prefix.len() + 16),
            prefix,
        }
    }

    /// True once every prescribed prefix choice has been consumed — i.e.
    /// the run has left replayed territory and is making fresh choices.
    /// The reduced explorer arms state-hash deduplication exactly here:
    /// states reached *while replaying* were inserted by earlier runs, so
    /// probing them would falsely prune the branch being opened.
    pub fn replay_done(&self) -> bool {
        self.log.len() >= self.prefix.len()
    }

    /// Computes the lexicographically next path after this run's log, or
    /// `None` when the tree is exhausted. Standard DFS path enumeration:
    /// find the deepest step that can still be incremented, bump it, drop
    /// the suffix.
    pub fn next_path(&self) -> Option<Vec<usize>> {
        let mut path: Vec<usize> = self.log.iter().map(|&(c, _)| c).collect();
        loop {
            let (last_choice, last_options) = match path.len() {
                0 => return None,
                n => {
                    let (_, o) = self.log[n - 1];
                    (path[n - 1], o)
                }
            };
            if last_choice + 1 < last_options {
                let n = path.len();
                path[n - 1] += 1;
                return Some(path);
            }
            path.pop();
        }
    }
}

impl Oracle for ReplayOracle {
    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1);
        let step = self.log.len();
        let choice = if step < self.prefix.len() {
            // Replay can meet a smaller option set than when recorded if the
            // schedule diverged; clamp defensively (explorer treats the run
            // as a fresh leaf either way).
            self.prefix[step].min(options - 1)
        } else {
            0
        };
        self.log.push((choice, options));
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomOracle::seeded(9);
        let mut b = RandomOracle::seeded(9);
        let mut c = RandomOracle::seeded(10);
        let seq_a: Vec<usize> = (0..64).map(|_| a.choose(5)).collect();
        let seq_b: Vec<usize> = (0..64).map(|_| b.choose(5)).collect();
        let seq_c: Vec<usize> = (0..64).map(|_| c.choose(5)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        assert!(seq_a.iter().all(|&x| x < 5));
    }

    #[test]
    fn fixed_clamps() {
        let mut max = FixedOracle::maximal();
        assert_eq!(max.choose(4), 3);
        assert_eq!(max.choose(1), 0);
        let mut min = FixedOracle::minimal();
        assert_eq!(min.choose(4), 0);
        let mut mid = FixedOracle::new(2);
        assert_eq!(mid.choose(10), 2);
        assert_eq!(mid.choose(2), 1);
    }

    #[test]
    fn replay_replays_then_zero() {
        let mut o = ReplayOracle::new(vec![2, 1]);
        assert!(!o.replay_done());
        assert_eq!(o.choose(4), 2);
        assert_eq!(o.choose(3), 1);
        assert!(o.replay_done());
        assert_eq!(o.choose(3), 0);
        assert_eq!(o.log, vec![(2, 4), (1, 3), (0, 3)]);
    }

    #[test]
    fn next_path_enumerates_whole_tree() {
        // Tree: 3 steps of 2 options each → 8 leaves.
        let mut seen = Vec::new();
        let mut path = Vec::new();
        loop {
            let mut o = ReplayOracle::new(path.clone());
            let leaf: Vec<usize> = (0..3).map(|_| o.choose(2)).collect();
            seen.push(leaf);
            match o.next_path() {
                Some(p) => path = p,
                None => break,
            }
        }
        assert_eq!(seen.len(), 8);
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "all leaves distinct");
    }

    #[test]
    fn next_path_handles_uneven_branching() {
        // Step 1 has 2 options; under option 0 one more binary step,
        // under option 1 the run ends immediately.
        let mut count = 0;
        let mut path: Vec<usize> = Vec::new();
        loop {
            let mut o = ReplayOracle::new(path.clone());
            let first = o.choose(2);
            if first == 0 {
                let _ = o.choose(2);
            }
            count += 1;
            match o.next_path() {
                Some(p) => path = p,
                None => break,
            }
        }
        assert_eq!(count, 3, "paths: [0,0], [0,1], [1]");
    }
}
