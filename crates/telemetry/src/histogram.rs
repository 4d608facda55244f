//! A fixed-allocation log-bucketed histogram for streaming percentile
//! estimation over `u64` sim-time samples.

/// Sub-buckets per octave. 64 sub-buckets bound the relative quantization
/// error of any reported percentile at `1/64` (< 1.6%).
const SUBBUCKETS: u64 = 64;

/// Bucket index space: values below 64 map to themselves (exact); a value
/// with leading bit `e >= 6` maps to octave `e - 6` and the 6 mantissa
/// bits right below the leading bit.
const BUCKETS: usize = (SUBBUCKETS + (64 - 6) * SUBBUCKETS) as usize;

/// A log-bucketed histogram over `u64` samples with fixed allocation
/// (~30 KiB) and O(1) record, replacing clone-and-sort percentile scans.
///
/// The value→bucket map is monotone non-decreasing, so it commutes with
/// order statistics: `percentile(q)` returns exactly the lower bound of
/// the bucket holding the rank-`q` sample of an exact sort, which is at
/// most `1/64` below it. Values below 64 are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    /// Exact sum; 128 bits, because even two samples near `u64::MAX`
    /// overflow a 64-bit sum.
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    fn index(v: u64) -> usize {
        if v < SUBBUCKETS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as u64; // e >= 6
        let mantissa = (v >> (e - 6)) & (SUBBUCKETS - 1);
        (SUBBUCKETS + (e - 6) * SUBBUCKETS + mantissa) as usize
    }

    /// Smallest value mapping to bucket `idx` — what percentiles report.
    fn bucket_lo(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUBBUCKETS {
            return idx;
        }
        let e = idx / SUBBUCKETS - 1 + 6;
        let mantissa = idx % SUBBUCKETS;
        (SUBBUCKETS + mantissa) << (e - 6)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0 when empty, never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-th percentile (`0..=100`), using the same rank convention
    /// as an exact sort's `sorted[(len - 1) * q / 100]`: the returned
    /// value is the lower bound of the bucket holding that rank's sample.
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count - 1) * q.min(100) / 100;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Self::bucket_lo(idx);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact-sort reference the histogram replaces.
    fn exact_percentile(sorted: &[u64], q: u64) -> u64 {
        sorted[(sorted.len() - 1) * q as usize / 100]
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0), 0);
        assert_eq!(h.percentile(50), 31);
        assert_eq!(h.percentile(100), 63);
        assert_eq!(h.count(), 64);
        assert_eq!(h.sum(), (0..64).sum::<u128>());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn empty_histogram_reports_zeros_not_nan() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_bounds_roundtrip() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX] {
            let idx = LogHistogram::index(v);
            let lo = LogHistogram::bucket_lo(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            // Relative quantization error is bounded by one sub-bucket.
            assert!(v - lo <= lo / 64, "v {v} lo {lo}");
            assert_eq!(LogHistogram::index(lo), idx);
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let samples_a = [3u64, 99, 4096, 70000, 5];
        let samples_b = [12u64, 12, 1 << 30];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite contract: p50/p95/p99 land in the same bucket as
        /// the exact sort's answer — the histogram reports that bucket's
        /// lower bound, never more than 1/64 below the exact value.
        #[test]
        fn percentiles_stay_within_one_bucket_of_the_exact_sort(
            samples in proptest::collection::vec(0u64..2_000_000, 1..400),
        ) {
            let mut h = LogHistogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut samples = samples.clone();
            samples.sort_unstable();
            for q in [50u64, 95, 99] {
                let exact = exact_percentile(&samples, q);
                let approx = h.percentile(q);
                prop_assert_eq!(
                    LogHistogram::index(approx),
                    LogHistogram::index(exact),
                    "q {} exact {} approx {}", q, exact, approx
                );
                prop_assert!(approx <= exact);
                prop_assert!(exact - approx <= exact / 64);
            }
        }
    }
}
