//! Network timing models and adversaries.
//!
//! The paper's results split exactly along network assumptions \[1\]:
//!
//! * **Synchrony** ([`SyncNet`]) — every message arrives within a known
//!   bound δ. Theorem 1: time-bounded cross-chain payment is solvable.
//! * **Partial synchrony** ([`PartialSyncNet`]) — there is an *unknown*
//!   Global Stabilisation Time (GST); messages sent at `t` arrive by
//!   `max(t, GST) + δ`, but before GST the adversary controls delays.
//!   Theorem 2: no eventually terminating protocol exists. Theorem 3: the
//!   weak-liveness variant is solvable.
//! * **Adversarial** ([`AdversarialNet`]) — a programmable model used to
//!   build the Theorem 2 witness schedules and failure-injection tests;
//!   it may delay arbitrarily and (unlike partial synchrony) drop messages,
//!   modelling crashed links or a fully asynchronous adversary.
//!
//! Delays are quantised into `buckets` equal steps so that the same model
//! serves Monte-Carlo runs (many buckets, random oracle) and exhaustive
//! schedule exploration (two or three buckets, replay oracle).

use crate::oracle::Oracle;
use crate::process::Pid;
use crate::time::{SimDuration, SimTime};

/// Metadata of an in-flight message (payload is passed separately so models
/// that don't inspect contents stay monomorphisation-friendly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeMeta {
    /// Sender process id.
    pub from: Pid,
    /// Recipient process id.
    pub to: Pid,
    /// Real simulation time at which the send effect executed.
    pub sent_at: SimTime,
    /// Global sequence number of the send (unique, monotone).
    pub seq: u64,
}

/// A delivery decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver at the given real time (≥ send time).
    At(SimTime),
    /// Never deliver (dropped). Only adversarial models may do this.
    Never,
}

/// A network timing model. `M` is the message type; models may inspect
/// payloads (an adversary sees everything on the wire — signatures, not
/// secrecy, protect the protocols).
///
/// A model is its `route` decision and nothing else. Every nondeterministic
/// choice goes through the oracle, so the schedule explorer replays a path
/// by building a fresh engine (and a fresh model) and feeding it the
/// recorded choices; nothing ever clones a model.
pub trait NetModel<M>: 'static {
    /// Decides when (if ever) the message in `meta` is delivered.
    fn route(&mut self, meta: &EnvelopeMeta, msg: &M, oracle: &mut dyn Oracle) -> Delivery;
}

/// Picks a delay in `[min, max]` quantised into `buckets` steps via the
/// oracle. `buckets = 1` always yields `max` (the worst case — pessimistic
/// by default), and so does `min == max`: neither draws from the oracle.
fn quantised_delay(
    min: SimDuration,
    max: SimDuration,
    buckets: usize,
    oracle: &mut dyn Oracle,
) -> SimDuration {
    debug_assert!(min <= max);
    if min == max || buckets <= 1 {
        return max;
    }
    let span = max - min;
    let idx = oracle.choose(buckets) as u64;
    // idx = buckets-1 ⇒ exactly max; idx = 0 ⇒ exactly min.
    min + SimDuration::from_ticks(span.ticks() * idx / (buckets as u64 - 1))
}

/// Synchronous network: delivery within `[delta_min, delta_max]`, always.
#[derive(Debug, Clone)]
pub struct SyncNet {
    /// Minimum delivery delay.
    pub delta_min: SimDuration,
    /// Maximum delivery delay.
    pub delta_max: SimDuration,
    /// Delay quantisation (1 means always the maximum).
    pub buckets: usize,
}

impl SyncNet {
    /// Uniform-ish delays in `[0, delta]` at the given resolution.
    pub fn new(delta: SimDuration, buckets: usize) -> Self {
        SyncNet {
            delta_min: SimDuration::ZERO,
            delta_max: delta,
            buckets,
        }
    }

    /// Every message takes exactly δ (deterministic worst case).
    pub fn worst_case(delta: SimDuration) -> Self {
        SyncNet {
            delta_min: delta,
            delta_max: delta,
            buckets: 1,
        }
    }
}

impl<M: 'static> NetModel<M> for SyncNet {
    fn route(&mut self, meta: &EnvelopeMeta, _msg: &M, oracle: &mut dyn Oracle) -> Delivery {
        let d = quantised_delay(self.delta_min, self.delta_max, self.buckets, oracle);
        Delivery::At(meta.sent_at + d)
    }
}

/// Partially synchronous network in the DLS "unknown GST" formulation:
/// a message sent at `t` is delivered no later than `max(t, GST) + δ`.
/// Its delay is a bucket of `[0, deadline − t]`: before GST the adversary
/// holds a message up to GST + δ, after it the network is synchronous
/// with bound δ.
#[derive(Debug, Clone)]
pub struct PartialSyncNet {
    /// Global Stabilisation Time: from here on, delays are bounded.
    pub gst: SimTime,
    /// Post-GST delivery bound.
    pub delta: SimDuration,
    /// Delay quantisation (1 means always the deadline).
    pub buckets: usize,
}

impl PartialSyncNet {
    /// Canonical worst-case adversary: every message held to its deadline
    /// (the DLS adversary before GST, δ exactly after it).
    pub fn new(gst: SimTime, delta: SimDuration) -> Self {
        Self::randomized(gst, delta, 1)
    }

    /// Randomised pre- and post-GST delays at the given resolution.
    pub fn randomized(gst: SimTime, delta: SimDuration, buckets: usize) -> Self {
        PartialSyncNet {
            gst,
            delta,
            buckets,
        }
    }

    /// The DLS delivery deadline for a message sent at `t`.
    pub fn deadline(&self, sent_at: SimTime) -> SimTime {
        sent_at.max(self.gst) + self.delta
    }
}

impl<M: 'static> NetModel<M> for PartialSyncNet {
    fn route(&mut self, meta: &EnvelopeMeta, _msg: &M, oracle: &mut dyn Oracle) -> Delivery {
        let span = self.deadline(meta.sent_at) - meta.sent_at;
        Delivery::At(meta.sent_at + quantised_delay(SimDuration::ZERO, span, self.buckets, oracle))
    }
}

/// Fully programmable adversary; used for impossibility witnesses and
/// failure injection. The rule may delay arbitrarily or drop.
pub struct AdversarialNet<M> {
    #[allow(clippy::type_complexity)]
    rule: Box<dyn Fn(&EnvelopeMeta, &M, &mut dyn Oracle) -> Delivery + Send + Sync>,
}

impl<M> AdversarialNet<M> {
    /// Builds an adversary from a routing rule.
    pub fn new(
        rule: impl Fn(&EnvelopeMeta, &M, &mut dyn Oracle) -> Delivery + Send + Sync + 'static,
    ) -> Self {
        AdversarialNet {
            rule: Box::new(rule),
        }
    }

    /// Delays every message matching `pred` by `extra` beyond `delta`.
    pub fn delaying(
        delta: SimDuration,
        extra: SimDuration,
        pred: impl Fn(&EnvelopeMeta, &M) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self::new(move |meta, msg, _o| {
            let d = if pred(meta, msg) {
                delta + extra
            } else {
                delta
            };
            Delivery::At(meta.sent_at + d)
        })
    }
}

impl<M: 'static> NetModel<M> for AdversarialNet<M> {
    fn route(&mut self, meta: &EnvelopeMeta, msg: &M, oracle: &mut dyn Oracle) -> Delivery {
        (self.rule)(meta, msg, oracle)
    }
}

/// Message-level fault-injection parameters, layered over any inner model
/// by [`FaultyNet`]. All probabilities are per-mille (‰, `0..=1000`) and
/// drawn through the run's [`Oracle`], so fault patterns are deterministic
/// per seed and reproducible across thread counts.
///
/// This is the network half of a simulation *fault plan*: the Monte-Carlo
/// simulator composes it with Byzantine participant substitutions and
/// clock-drift sampling. It is intended for seeded Monte-Carlo runs; under
/// exhaustive exploration each fault draw multiplies the choice tree by
/// 1000, so explorers should keep [`NetFaults::NONE`] (which draws
/// nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaults {
    /// Per-message drop probability in per-mille. Dropping violates the
    /// synchrony assumption of Theorem 1 — protocols may lose liveness but
    /// must keep every safety/conservation property.
    pub drop_permille: u32,
    /// Per-message probability (per-mille) of adding extra delay beyond
    /// the inner model's delivery time.
    pub delay_permille: u32,
    /// Maximum extra delay added when the delay fault fires.
    pub extra_delay: SimDuration,
    /// Quantisation of the extra delay (≤ 1 ⇒ always the maximum).
    pub delay_buckets: usize,
}

impl NetFaults {
    /// No faults: [`FaultyNet`] becomes a transparent pass-through that
    /// consumes no oracle choices.
    pub const NONE: NetFaults = NetFaults {
        drop_permille: 0,
        delay_permille: 0,
        extra_delay: SimDuration::ZERO,
        delay_buckets: 1,
    };

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.drop_permille == 0 && (self.delay_permille == 0 || self.extra_delay.is_zero())
    }

    /// Per-mille resolution of the probability draws.
    const RESOLUTION: usize = 1000;

    /// Draws one per-mille event (true ⇒ the fault fires). No oracle
    /// choice is consumed when the probability is 0.
    fn fires(permille: u32, oracle: &mut dyn Oracle) -> bool {
        permille > 0 && oracle.choose(Self::RESOLUTION) < permille as usize
    }
}

/// Fault-injecting wrapper around any [`NetModel`]: first the inner model
/// decides the nominal delivery, then bounded extra delay and message
/// drops are applied on top, driven by the oracle per [`NetFaults`]. It
/// holds the inner model by value, so a faulty network is one allocation
/// when boxed for an engine.
pub struct FaultyNet<N> {
    inner: N,
    faults: NetFaults,
}

impl<N> FaultyNet<N> {
    /// Layers `faults` over `inner`. Panics if a probability exceeds
    /// 1000‰ — a silent clamp would turn a per-cent/per-mille mix-up into
    /// an always-firing fault.
    pub fn new(inner: N, faults: NetFaults) -> Self {
        assert!(
            faults.drop_permille <= 1000 && faults.delay_permille <= 1000,
            "NetFaults probabilities are per-mille (0..=1000): {faults:?}"
        );
        FaultyNet { inner, faults }
    }

    /// The fault parameters.
    pub fn faults(&self) -> NetFaults {
        self.faults
    }
}

impl<M, N: NetModel<M>> NetModel<M> for FaultyNet<N> {
    fn route(&mut self, meta: &EnvelopeMeta, msg: &M, oracle: &mut dyn Oracle) -> Delivery {
        let nominal = self.inner.route(meta, msg, oracle);
        let at = match nominal {
            Delivery::At(t) => t,
            Delivery::Never => return Delivery::Never,
        };
        // Draw order is fixed (drop, then delay, then bucket) so a given
        // oracle seed yields the same fault pattern regardless of which
        // faults actually fire.
        if NetFaults::fires(self.faults.drop_permille, oracle) {
            return Delivery::Never;
        }
        if !self.faults.extra_delay.is_zero()
            && NetFaults::fires(self.faults.delay_permille, oracle)
        {
            let extra = quantised_delay(
                SimDuration::ZERO,
                self.faults.extra_delay,
                self.faults.delay_buckets.max(1),
                oracle,
            );
            return Delivery::At(at + extra);
        }
        Delivery::At(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FixedOracle, RandomOracle};

    fn meta(sent: u64) -> EnvelopeMeta {
        EnvelopeMeta {
            from: 0,
            to: 1,
            sent_at: SimTime::from_ticks(sent),
            seq: 0,
        }
    }

    #[test]
    fn sync_respects_bounds() {
        let mut net = SyncNet::new(SimDuration::from_ticks(100), 16);
        let mut o = RandomOracle::seeded(1);
        for i in 0..200 {
            match NetModel::<u32>::route(&mut net, &meta(i), &0u32, &mut o) {
                Delivery::At(t) => {
                    assert!(t >= SimTime::from_ticks(i));
                    assert!(t <= SimTime::from_ticks(i + 100));
                }
                Delivery::Never => panic!("sync net never drops"),
            }
        }
    }

    #[test]
    fn sync_worst_case_is_exactly_delta() {
        let mut net = SyncNet::worst_case(SimDuration::from_ticks(70));
        let mut o = RandomOracle::seeded(1);
        match NetModel::<u32>::route(&mut net, &meta(5), &0u32, &mut o) {
            Delivery::At(t) => assert_eq!(t, SimTime::from_ticks(75)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn quantised_delay_hits_extremes() {
        let min = SimDuration::from_ticks(10);
        let max = SimDuration::from_ticks(20);
        let mut lo = FixedOracle::minimal();
        let mut hi = FixedOracle::maximal();
        assert_eq!(quantised_delay(min, max, 3, &mut lo), min);
        assert_eq!(quantised_delay(min, max, 3, &mut hi), max);
        // Middle bucket of 3 is the midpoint.
        let mut mid = FixedOracle::new(1);
        assert_eq!(
            quantised_delay(min, max, 3, &mut mid),
            SimDuration::from_ticks(15)
        );
    }

    #[test]
    fn partial_sync_pre_gst_held_to_deadline() {
        let gst = SimTime::from_ticks(1_000);
        let delta = SimDuration::from_ticks(50);
        let mut net = PartialSyncNet::new(gst, delta);
        let mut o = RandomOracle::seeded(2);
        match NetModel::<u32>::route(&mut net, &meta(10), &0u32, &mut o) {
            Delivery::At(t) => assert_eq!(t, SimTime::from_ticks(1_050)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn partial_sync_post_gst_is_synchronous() {
        let gst = SimTime::from_ticks(1_000);
        let delta = SimDuration::from_ticks(50);
        let mut net = PartialSyncNet::new(gst, delta);
        let mut o = RandomOracle::seeded(2);
        match NetModel::<u32>::route(&mut net, &meta(2_000), &0u32, &mut o) {
            Delivery::At(t) => {
                assert!(t >= SimTime::from_ticks(2_000) && t <= SimTime::from_ticks(2_050))
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn partial_sync_never_violates_dls_bound() {
        let gst = SimTime::from_ticks(500);
        let delta = SimDuration::from_ticks(30);
        let mut net = PartialSyncNet::randomized(gst, delta, 8);
        let mut o = RandomOracle::seeded(3);
        for i in (0..1_000).step_by(37) {
            let m = meta(i);
            match NetModel::<u32>::route(&mut net, &m, &0u32, &mut o) {
                Delivery::At(t) => assert!(t <= net.deadline(m.sent_at), "sent {i}"),
                _ => unreachable!(),
            }
        }
    }

    /// Drops every message to pid 9; the rest arrive after 5 ticks.
    fn drop_to_9() -> AdversarialNet<u32> {
        AdversarialNet::new(|m: &EnvelopeMeta, _: &u32, _o| {
            if m.to == 9 {
                Delivery::Never
            } else {
                Delivery::At(m.sent_at + SimDuration::from_ticks(5))
            }
        })
    }

    #[test]
    fn adversarial_drop_and_delay() {
        let mut dropper = drop_to_9();
        let mut o = RandomOracle::seeded(5);
        let victim = EnvelopeMeta {
            from: 0,
            to: 9,
            sent_at: SimTime::ZERO,
            seq: 0,
        };
        assert_eq!(dropper.route(&victim, &0u32, &mut o), Delivery::Never);
        assert_eq!(
            dropper.route(&meta(0), &0u32, &mut o),
            Delivery::At(SimTime::from_ticks(5))
        );

        let mut delayer = AdversarialNet::delaying(
            SimDuration::from_ticks(5),
            SimDuration::from_ticks(100),
            |_m: &EnvelopeMeta, msg: &u32| *msg == 7,
        );
        assert_eq!(
            delayer.route(&meta(0), &7u32, &mut o),
            Delivery::At(SimTime::from_ticks(105))
        );
        assert_eq!(
            delayer.route(&meta(0), &8u32, &mut o),
            Delivery::At(SimTime::from_ticks(5))
        );
    }

    #[test]
    fn faulty_net_none_is_transparent() {
        let delta = SimDuration::from_ticks(70);
        let mut plain = SyncNet::worst_case(delta);
        let mut wrapped = FaultyNet::new(SyncNet::worst_case(delta), NetFaults::NONE);
        assert!(NetFaults::NONE.is_none());
        let mut o1 = RandomOracle::seeded(1);
        let mut o2 = RandomOracle::seeded(1);
        for i in 0..50 {
            let a = NetModel::<u32>::route(&mut plain, &meta(i), &0u32, &mut o1);
            let b = wrapped.route(&meta(i), &0u32, &mut o2);
            assert_eq!(a, b, "NONE must not perturb delivery or the oracle");
        }
    }

    #[test]
    fn faulty_net_drop_rate_and_delay_bounds() {
        let delta = SimDuration::from_ticks(10);
        let extra = SimDuration::from_ticks(400);
        let faults = NetFaults {
            drop_permille: 250,
            delay_permille: 500,
            extra_delay: extra,
            delay_buckets: 8,
        };
        assert!(!faults.is_none());
        let mut net = FaultyNet::new(SyncNet::worst_case(delta), faults);
        let mut o = RandomOracle::seeded(7);
        let (mut dropped, mut delayed, total) = (0usize, 0usize, 4_000u64);
        for i in 0..total {
            match net.route(&meta(i), &0u32, &mut o) {
                Delivery::Never => dropped += 1,
                Delivery::At(t) => {
                    let nominal = SimTime::from_ticks(i) + delta;
                    assert!(t >= nominal, "faults never deliver early");
                    assert!(t <= nominal + extra, "extra delay is bounded");
                    if t > nominal {
                        delayed += 1;
                    }
                }
            }
        }
        // 25% drop, 50% of survivors delayed (minus the zero bucket):
        // generous windows keep this seed-stable without being vacuous.
        assert!((700..=1_300).contains(&dropped), "dropped {dropped}");
        assert!(delayed >= 800, "delayed {delayed}");
    }

    #[test]
    fn faulty_net_deterministic_per_seed() {
        let faults = NetFaults {
            drop_permille: 100,
            delay_permille: 300,
            extra_delay: SimDuration::from_ticks(50),
            delay_buckets: 4,
        };
        let run = |seed: u64| -> Vec<Delivery> {
            let mut net = FaultyNet::new(SyncNet::new(SimDuration::from_ticks(20), 8), faults);
            let mut o = RandomOracle::seeded(seed);
            (0..200)
                .map(|i| net.route(&meta(i), &0u32, &mut o))
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    #[should_panic(expected = "per-mille")]
    fn faulty_net_rejects_out_of_range_probabilities() {
        let _ = FaultyNet::new(
            SyncNet::worst_case(SimDuration::from_ticks(1)),
            NetFaults {
                drop_permille: 10_000,
                ..NetFaults::NONE
            },
        );
    }

    #[test]
    fn faulty_net_preserves_inner_drops() {
        let faults = NetFaults {
            delay_permille: 1_000,
            extra_delay: SimDuration::from_ticks(9),
            ..NetFaults::NONE
        };
        let inner = drop_to_9();
        let mut net = FaultyNet::new(inner, faults);
        let mut o = RandomOracle::seeded(5);
        let victim = EnvelopeMeta {
            from: 0,
            to: 9,
            sent_at: SimTime::ZERO,
            seq: 0,
        };
        assert_eq!(net.route(&victim, &0u32, &mut o), Delivery::Never);
        // Non-victims survive but always pick up the (certain) extra delay.
        match net.route(&meta(0), &0u32, &mut o) {
            Delivery::At(t) => assert!(t > SimTime::from_ticks(5)),
            Delivery::Never => panic!("inner model delivers this one"),
        }
    }
}
