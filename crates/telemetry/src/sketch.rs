//! Constant-memory streaming aggregates: a fixed-comb quantile sketch
//! whose merge is bit-identical in any order.
//!
//! Long campaigns cannot afford a collected `Vec<u64>` per metric — 10M
//! payments × a few columns is gigabytes. [`MergeableSketch`] replaces
//! the vector with a **fixed-comb log-scaled histogram** (~30 KiB,
//! independent of sample count) that also carries the exact online
//! aggregates: count, sum (hence mean), min and max.
//!
//! ## Why a fixed comb and not P²
//!
//! The workspace invariant is that every report is **bit-identical across
//! thread counts**. P²-style adaptive estimators interpolate, so merging
//! two of them depends on merge order. A fixed comb has no state other
//! than bucket counts over a predetermined grid: merging is element-wise
//! integer addition — commutative and associative — so per-worker and
//! per-shard sketches collapse to the same bytes whatever the thread
//! count or merge tree. Determinism is bought with a quantifiable
//! resolution loss (below), never with ordering sensitivity.
//!
//! ## Error bound
//!
//! Values below 64 map to their own bucket (exact). A value `v ≥ 64` with
//! `2^e ≤ v < 2^(e+1)` lands in a bucket of width `2^(e-6)`; quantiles
//! report the bucket's **upper edge**, so a reported percentile is never
//! below the exact nearest-rank percentile and overshoots it by less than
//! `1/64` (≈ 1.6%) relative. `min`/`max`/`count`/`mean` are exact, and
//! quantiles are clamped into `[min, max]`.

use crate::event::{Event, FieldValue};

/// Sub-bucket resolution: 2^6 = 64 buckets per octave ⇒ ≤ 1/64 relative
/// quantile overshoot.
const LOG_SUB: u32 = 6;
const SUB: u64 = 1 << LOG_SUB;
/// Buckets: `SUB` exact small values + 64−LOG_SUB octaves × SUB each.
const NUM_BUCKETS: usize = (SUB + (63 - LOG_SUB as u64) * SUB + SUB) as usize;

/// Bucket index of `v` (total, monotone in `v`).
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        ((e - LOG_SUB) as u64 * SUB + (v >> (e - LOG_SUB))) as usize
    }
}

/// The largest value mapping to bucket `b` (inverse of [`bucket_of`] at
/// the bucket's upper edge).
fn bucket_top(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        b
    } else {
        let e = LOG_SUB + (b / SUB) as u32 - 1;
        let m = b - (e - LOG_SUB) as u64 * SUB;
        (m << (e - LOG_SUB)) | ((1u64 << (e - LOG_SUB)) - 1)
    }
}

/// The `(n, min, max, mean, p50, p99)` view report tables print. Field
/// names and nearest-rank convention match `experiments::stats::Summary`
/// (which this crate cannot depend on — telemetry sits below everything);
/// the sketch does not track second moments, so there is no `stddev`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSummary {
    /// Sample count.
    pub n: usize,
    /// Exact smallest sample.
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank, ≤ 1/64 overshoot).
    pub p50: u64,
    /// 99th percentile (nearest rank, ≤ 1/64 overshoot).
    pub p99: u64,
}

/// A mergeable constant-memory quantile sketch over `u64` samples, plus
/// the exact online count/sum/min/max (see the module docs for the
/// resolution guarantee).
///
/// [`merge`](MergeableSketch::merge) is element-wise addition of bucket
/// counts: per-worker sketches built from any partition of the sample
/// stream, merged in any order, are **bit-identical** to one sketch fed
/// sequentially — the property the campaign layer's thread-count
/// determinism rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeableSketch {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for MergeableSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl MergeableSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        MergeableSketch {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` in. Addition of bucket counts and exact aggregates:
    /// commutative, associative, and lossless, so any merge tree over any
    /// partition of the samples yields identical bytes.
    pub fn merge(&mut self, other: &MergeableSketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Nearest-rank percentile estimate, `p ∈ [0, 100]`; `None` when
    /// empty. Rank is `max(1, ceil(p·n/100))` — the same convention as
    /// the workspace's exact percentiles; the reported value is the
    /// containing bucket's upper edge clamped into `[min, max]` — never
    /// below the exact percentile, less than 1/64 above it.
    pub fn quantile(&self, p: u32) -> Option<u64> {
        assert!(p <= 100);
        if self.count == 0 {
            return None;
        }
        if p == 0 {
            return Some(self.min);
        }
        let rank = (p as u128 * self.count as u128).div_ceil(100).max(1);
        let mut cum = 0u128;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c as u128;
            if cum >= rank {
                return Some(bucket_top(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The summary view of this sketch (`None` when empty).
    pub fn summary(&self) -> Option<SketchSummary> {
        (self.count > 0).then(|| SketchSummary {
            n: self.count as usize,
            min: self.min,
            max: self.max,
            mean: self.sum as f64 / self.count as f64,
            p50: self.quantile(50).unwrap_or(0),
            p99: self.quantile(99).unwrap_or(0),
        })
    }

    /// The full sketch state as one event of `kind`: `count`, `sum` (a
    /// [`with_u128`](Event::with_u128) string), `min` and `max`, then one
    /// field per non-zero bucket, named by its index. Lossless:
    /// `from_event(&s.to_event(k)) == Ok(s)`.
    pub fn to_event(&self, kind: &str) -> Event {
        let head = Event::new(kind)
            .with_u64("count", self.count)
            .with_u128("sum", self.sum)
            .with_u64("min", self.min)
            .with_u64("max", self.max);
        let buckets = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        buckets.fold(head, |e, (b, &c)| e.with_u64(&b.to_string(), c))
    }

    /// Reads an event written by [`to_event`](MergeableSketch::to_event),
    /// refusing buckets that do not sum to `count` and aggregates no
    /// sequence of [`record`](MergeableSketch::record) calls produces.
    pub fn from_event(e: &Event) -> Result<MergeableSketch, String> {
        let bad = |what: &str| format!("{} sketch: {what}", e.kind());
        let field = |name: &str| e.u64_field(name).ok_or_else(|| bad(name));
        let mut s = MergeableSketch {
            count: field("count")?,
            sum: e.u128_field("sum").ok_or_else(|| bad("sum"))?,
            min: field("min")?,
            max: field("max")?,
            ..MergeableSketch::new()
        };
        // The buckets follow the four aggregates, as `to_event` writes them.
        for (name, value) in e.fields().iter().skip(4) {
            let b = name.parse::<usize>().ok().filter(|&b| b < NUM_BUCKETS);
            match (b, value) {
                (Some(b), &FieldValue::U64(c)) => s.counts[b] = c,
                _ => return Err(bad(&format!("no bucket {name:?}"))),
            }
        }
        let total: u128 = s.counts.iter().map(|&c| u128::from(c)).sum();
        let empty = (s.sum, s.min, s.max) == (0, u64::MAX, 0);
        let consistent = if s.count == 0 { empty } else { s.min <= s.max };
        if total != u128::from(s.count) || !consistent {
            return Err(bad("buckets, count, sum, min and max disagree"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over a sorted slice — the workspace's
    /// exact convention, inlined so this crate stays dependency-free.
    fn percentile(sorted: &[u64], p: u32) -> u64 {
        assert!(p <= 100);
        let Some(&first) = sorted.first() else {
            return 0;
        };
        if p == 0 {
            return first;
        }
        let rank = (p as usize * sorted.len()).div_ceil(100);
        sorted[rank.saturating_sub(1)]
    }

    /// splitmix64 — a seeded generator good enough for test sample
    /// streams, inlined to avoid a dev-dependency on the rand shim.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = MergeableSketch::new();
        for v in 0..SUB {
            s.record(v);
        }
        for p in [0u32, 10, 50, 90, 99, 100] {
            let mut sorted: Vec<u64> = (0..SUB).collect();
            sorted.sort_unstable();
            assert_eq!(s.quantile(p), Some(percentile(&sorted, p)), "p{p}");
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(SUB - 1));
        assert_eq!(s.count(), SUB);
    }

    #[test]
    fn bucket_top_inverts_bucket_of() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            let top = bucket_top(b);
            assert!(top >= v, "top {top} < value {v}");
            assert_eq!(bucket_of(top), b, "top stays in its bucket (v={v})");
            if top < u64::MAX {
                assert!(bucket_of(top + 1) > b, "top is the upper edge (v={v})");
            }
        }
        // Buckets are monotone and contiguous.
        let mut last = 0usize;
        for e in 0..=63u32 {
            let v = 1u64 << e;
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantile_overshoot_is_bounded() {
        let mut rng = TestRng(0xC0FFEE);
        let samples: Vec<u64> = (0..10_000).map(|_| rng.below(5_000_000)).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut s = MergeableSketch::new();
        for &v in &samples {
            s.record(v);
        }
        for p in [1u32, 10, 25, 50, 75, 90, 99, 100] {
            let exact = percentile(&sorted, p);
            let est = s.quantile(p).unwrap();
            assert!(est >= exact, "p{p}: est {est} < exact {exact}");
            assert!(
                (est - exact) as f64 <= exact as f64 / 64.0 + 1.0,
                "p{p}: est {est} overshoots exact {exact} beyond 1/64"
            );
        }
        assert_eq!(s.min(), sorted.first().copied());
        assert_eq!(s.max(), sorted.last().copied());
        let exact_mean = sorted.iter().map(|&x| x as f64).sum::<f64>() / sorted.len() as f64;
        assert!((s.mean().unwrap() - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential_feed() {
        let mut rng = TestRng(7);
        let samples: Vec<u64> = (0..5_000).map(|_| rng.below(1_000_000)).collect();
        let mut whole = MergeableSketch::new();
        for &v in &samples {
            whole.record(v);
        }
        // Partition into uneven chunks, merge in reverse order.
        let mut parts: Vec<MergeableSketch> = Vec::new();
        for chunk in samples.chunks(777) {
            let mut s = MergeableSketch::new();
            for &v in chunk {
                s.record(v);
            }
            parts.push(s);
        }
        let mut merged = MergeableSketch::new();
        for p in parts.iter().rev() {
            merged.merge(p);
        }
        assert_eq!(merged, whole, "merge is order-independent and lossless");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let back = |s: &MergeableSketch| {
            let line = s.to_event("latency").to_json();
            MergeableSketch::from_event(&Event::parse(&line).expect("parses"))
        };
        let mut s = MergeableSketch::new();
        for v in [0u64, 1, 63, 64, 1_000_000, u64::MAX, 42, 42, 42] {
            s.record(v);
        }
        assert_eq!(back(&s), Ok(s));
        let e = MergeableSketch::new();
        assert_eq!(back(&e), Ok(e), "empty sketch");

        let forged = |tail: &str| {
            let line = format!(r#"{{"kind":"latency",{tail}}}"#);
            MergeableSketch::from_event(&Event::parse(&line).expect("parses"))
        };
        assert!(forged(r#""count":1,"sum":"5","min":5,"max":5,"5":1"#).is_ok());
        let out_of_range = format!(r#""count":1,"sum":"5","min":5,"max":5,"{NUM_BUCKETS}":1"#);
        for (bad, why) in [
            (
                r#""count":2,"sum":"10","min":5,"max":5,"0":1"#,
                "count mismatch",
            ),
            (&out_of_range, "bucket index ≥ NUM_BUCKETS"),
            (
                r#""count":1,"sum":"5","min":5,"max":5,"b5":1"#,
                "non-numeric bucket",
            ),
            (r#""count":1,"min":5,"max":5,"5":1"#, "missing sum"),
            (
                r#""count":1,"sum":5,"min":5,"max":5,"5":1"#,
                "sum not a string",
            ),
            (
                r#""count":1,"sum":"5","min":6,"max":5,"5":1"#,
                "min above max",
            ),
            (
                r#""count":1,"sum":"5","min":5,"max":5,"5":1,"5":0"#,
                "duplicate",
            ),
            (
                r#""count":1,"sum":"5","min":5,"max":5,"5":true"#,
                "bool count",
            ),
        ] {
            assert!(forged(bad).is_err(), "{why}: accepted {bad}");
        }
    }

    #[test]
    fn empty_sketch_has_no_stats() {
        let s = MergeableSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(50), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.summary(), None);
    }
}
