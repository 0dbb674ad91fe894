//! Lock-free log-bucketed latency histograms.
//!
//! The observability layer (core `obs`) and the per-node service
//! times in [`crate::stats`] both need a latency distribution that is
//! cheap enough to record on every batch — an atomic increment, no
//! allocation, no lock — yet precise enough to read p50/p99 off
//! directly. This is the classic HdrHistogram bucket layout, sized
//! for nanosecond durations:
//!
//! * values below [`LINEAR_MAX`] (32 ns) land in one linear bucket
//!   per nanosecond (exact);
//! * above that, each power-of-two octave is split into
//!   `2^SUB_BITS = 32` equal sub-buckets, so the bucket width is
//!   always ≤ value / 32 and the **relative error of any quantile is
//!   bounded by 1/32 ≈ 3.2 %** ([`REL_ERROR`]);
//! * the top octave covers 2^46..2^47 ns (≈ 39 h), far beyond any
//!   latency this codebase produces; larger values clamp into the
//!   last bucket.
//!
//! The layout is **fixed** — every histogram has the same
//! [`BUCKETS`] buckets — which makes snapshots mergeable by plain
//! bucket-wise addition: merging is associative and commutative, so
//! per-thread or per-node histograms can be combined in any order
//! and produce identical results (property-tested in
//! `crates/core/tests/obs.rs`).
//!
//! [`Histogram`] is the live, atomically-updated form;
//! [`HistSnapshot`] is a frozen copy with quantile/mean accessors and
//! an iterator over occupied buckets for exposition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS`
/// equal slices, bounding relative error at `1 / 2^SUB_BITS`.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Values below this are recorded exactly (one bucket per unit).
pub const LINEAR_MAX: u64 = SUB_COUNT;
/// Number of logarithmic octaves above the linear region. The last
/// octave ends at `2^(SUB_BITS + OCTAVES)` ns ≈ 39 hours.
pub const OCTAVES: u32 = 42;
/// Total bucket count of the fixed layout.
pub const BUCKETS: usize = (LINEAR_MAX + OCTAVES as u64 * SUB_COUNT) as usize;
/// Documented worst-case relative error of any recorded value's
/// bucket upper bound: `1 / 2^SUB_BITS`.
pub const REL_ERROR: f64 = 1.0 / SUB_COUNT as f64;

/// Maps a value (nanoseconds) to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    // Octave o covers [2^(SUB_BITS+o), 2^(SUB_BITS+o+1)); its 32
    // sub-buckets each span 2^o units.
    let octave = (63 - value.leading_zeros()) - SUB_BITS;
    let octave = octave.min(OCTAVES - 1);
    // The min() clamps out-of-range values (≥ 2^47 ns) into the top
    // sub-bucket of the last octave.
    let sub = ((value >> octave) - SUB_COUNT).min(SUB_COUNT - 1);
    (LINEAR_MAX + octave as u64 * SUB_COUNT + sub) as usize
}

/// Inclusive upper bound (ns) of the values mapped to bucket `idx`.
/// Every value in the bucket is ≤ this bound and > the previous
/// bucket's bound, so quantiles read off bucket bounds are monotone
/// and within [`REL_ERROR`] of the true value.
#[inline]
pub fn bucket_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        return idx;
    }
    let octave = (idx - LINEAR_MAX) / SUB_COUNT;
    let sub = (idx - LINEAR_MAX) % SUB_COUNT;
    // Upper edge of the sub-bucket, minus one to stay inclusive.
    ((SUB_COUNT + sub + 1) << octave) - 1
}

/// A fixed-layout, atomically-updated latency histogram.
///
/// Recording is a single relaxed `fetch_add` on one bucket plus the
/// count/sum counters — no allocation, no lock, safe to share behind
/// an `Arc` across the fetch pool's worker threads.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A clone is a point-in-time copy (each cell read relaxed, like
/// [`Histogram::snapshot`]) that later records into the original do
/// not reach — how a stats sample freezes a whole registry at once.
impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = Self::new();
        for (to, from) in copy.buckets.iter().zip(self.buckets.iter()) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        copy.count.store(self.count(), Ordering::Relaxed);
        copy.sum.store(self.sum_nanos(), Ordering::Relaxed);
        copy
    }
}

impl Histogram {
    pub fn new() -> Self {
        // Build the boxed bucket array without a stack round-trip:
        // a Vec of zeroed atomics converted into the fixed array.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64]> = v.into_boxed_slice();
        let buckets: Box<[AtomicU64; BUCKETS]> = boxed.try_into().ok().unwrap();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value in nanoseconds. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records a [`Duration`], saturating at `u64::MAX` ns.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the current contents into an immutable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], mergeable and queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of recorded values, zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum / self.count)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Within [`REL_ERROR`] of the true quantile; monotone in `q` by
    /// construction (cumulative counts never decrease).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(bucket_bound(idx));
            }
        }
        Duration::from_nanos(bucket_bound(BUCKETS - 1))
    }

    /// Bucket-wise merge. Addition is associative and commutative, so
    /// merging any permutation of snapshots yields identical results.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Iterates occupied buckets as `(upper_bound_nanos, count)` in
    /// ascending bound order — the exposition layer renders these as
    /// cumulative Prometheus `_bucket{le=...}` lines.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let s = h.snapshot();
        for (i, (bound, count)) in s.nonzero_buckets().enumerate() {
            assert_eq!(bound, i as u64);
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn bucket_bound_brackets_value() {
        for v in [0, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, u64::MAX >> 20] {
            let idx = bucket_index(v);
            let hi = bucket_bound(idx);
            assert!(v <= hi, "value {v} above bound {hi}");
            if idx > 0 {
                let lo = bucket_bound(idx - 1);
                assert!(v > lo, "value {v} not above previous bound {lo}");
            }
            // Documented relative-error bound.
            assert!(
                (hi - v) as f64 <= REL_ERROR * hi as f64 + 1.0,
                "bucket for {v} too wide: bound {hi}"
            );
        }
    }

    #[test]
    fn quantiles_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 17);
        }
        let s = h.snapshot();
        let mut last = Duration::ZERO;
        for i in 0..=100 {
            let q = s.quantile(i as f64 / 100.0);
            assert!(q >= last);
            last = q;
        }
        let p50 = s.quantile(0.5).as_nanos() as f64;
        let true_p50 = 5_000.0 * 17.0;
        assert!((p50 - true_p50).abs() / true_p50 <= REL_ERROR + 0.001);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..1_000u64 {
            let h = if v % 3 == 0 { &a } else { &b };
            h.record(v * v);
            all.record(v * v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn clamps_huge_values() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(1.0).as_nanos() as u64, bucket_bound(BUCKETS - 1));
    }
}
