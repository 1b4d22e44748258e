//! Log-linear latency histogram.
//!
//! Values (u64, conventionally nanoseconds) land in buckets that are
//! exact up to 15 and then log-linear: 16 sub-buckets per power of two,
//! HDR-histogram style. Bucket width at value `v` is `2^(msb(v)-4)`, so
//! a quantile estimate (bucket midpoint) is off by at most half a bucket
//! width: a **relative error ≤ 1/32 (3.125%)**, which the unit tests
//! assert. Recording is two relaxed atomic adds plus two atomic
//! min/max — no locks, safe to hammer from any number of threads.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS; // 16 sub-buckets per octave
const OCTAVES: usize = (u64::BITS - SUB_BITS) as usize; // 60
pub(crate) const BUCKETS: usize = SUB as usize + OCTAVES * SUB as usize; // 976

/// Guaranteed bound on the relative error of quantile estimates.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.0 / 32.0;

/// Map a value to its bucket index.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize + octave * SUB as usize + sub
}

/// The inclusive lower bound of a bucket.
pub(crate) fn bucket_lower(b: usize) -> u64 {
    if b < SUB as usize {
        return b as u64;
    }
    let octave = (b - SUB as usize) / SUB as usize;
    let sub = ((b - SUB as usize) % SUB as usize) as u64;
    (SUB + sub) << octave
}

/// The representative (midpoint) value reported for a bucket.
pub(crate) fn bucket_mid(b: usize) -> u64 {
    if b < SUB as usize {
        return b as u64;
    }
    let octave = (b - SUB as usize) / SUB as usize;
    let width = 1u64 << octave;
    bucket_lower(b) + width / 2
}

/// A concurrent log-linear histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a Vec.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> = v
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("BUCKETS-sized vec"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record an elapsed [`std::time::Duration`] in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimate quantile `q` in [0, 1]. Returns 0 for an empty histogram.
    /// The estimate is the midpoint of the bucket holding the target
    /// rank, with relative error ≤ [`QUANTILE_RELATIVE_ERROR`].
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= target {
                // Clamp the midpoint into the observed min..max range so
                // single-value histograms report that exact value. A read
                // racing a first `record` (count bumped, min/max not yet)
                // sees lo > hi; the midpoint stands then.
                let mid = bucket_mid(b);
                let lo = self.min.load(Ordering::Relaxed);
                let hi = self.max.load(Ordering::Relaxed);
                return if lo <= hi { mid.clamp(lo, hi) } else { mid };
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        HistogramSnapshot {
            name: name.to_owned(),
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Zero every cell (test/bench support; racing recorders may leave
    /// a partially applied record behind).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // Every bucket's lower bound must map back into that bucket, and
        // the bucket below must end just under it.
        for b in 0..BUCKETS {
            let lo = bucket_lower(b);
            assert_eq!(bucket_index(lo), b, "lower bound of bucket {b}");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), b - 1, "predecessor of bucket {b}");
            }
        }
        // Spot-check the log-linear transition.
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32); // first 2-wide bucket
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Uniform-ish values across several octaves: the estimate of any
        // quantile must be within the documented relative error of the
        // true order statistic.
        let h = Histogram::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 100 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort();
        for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            let rel = (est - truth).abs() / truth;
            assert!(
                rel <= QUANTILE_RELATIVE_ERROR,
                "q={q}: est {est} vs truth {truth} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn single_value_reports_exactly() {
        let h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.5), 1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
        let s = h.snapshot("x");
        assert_eq!((s.count, s.min, s.max), (1, 1_000_003, 1_000_003));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 25_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(1 + (t * per_thread + i) % 10_000);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let bucket_total: u64 = h
            .buckets
            .iter()
            .map(|b| b.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        assert_eq!(bucket_total, threads * per_thread);
        assert!(h.quantile(0.5) > 0);
    }

    #[test]
    fn torn_first_record_snapshots_without_panicking() {
        // A reader between a first record's `count` bump and its min/max
        // updates: the bucket and count are in, min/max still at rest.
        let h = Histogram::new();
        h.buckets[bucket_index(1_000)].store(1, Ordering::Relaxed);
        h.count.store(1, Ordering::Relaxed);
        h.sum.store(1_000, Ordering::Relaxed);
        assert_eq!(h.min.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(h.max.load(Ordering::Relaxed), 0);
        let s = h.snapshot("torn");
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, bucket_mid(bucket_index(1_000)));
        assert_eq!(s.p99, s.p50);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let h = Histogram::new();
        let s = h.snapshot("empty");
        assert_eq!((s.count, s.min, s.max, s.p99), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }
}
