//! Log-scaled latency histograms.
//!
//! FWQ analysis wants the *distribution* of sample latencies, not
//! just extremes: a noise signature is "a tight mode at the quantum plus
//! a tail". Buckets are power-of-two so six decades of latency fit in a
//! few dozen buckets with no allocation surprises.
//!
//! For SLO steering the log2 buckets are too coarse at the tail (a p999
//! read off a bucket boundary can be 2x off), so the histogram also
//! keeps the largest [`TAIL_KEEP`] samples exactly: `max()` is always
//! exact, and [`LogHistogram::percentile`] is exact whenever the
//! requested rank falls inside the reservoir — in particular p999 stays
//! exact up to ~1M samples, and *every* quantile is exact while the
//! histogram holds at most `TAIL_KEEP` samples (the per-window case).

/// Largest samples kept exactly (sorted ascending). 1024 keeps p999
/// exact up to `TAIL_KEEP * 1000` total samples.
pub const TAIL_KEEP: usize = 1024;

/// Histogram over `u64` values with log2 buckets.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    /// `counts[k]` counts values with `floor(log2(v)) == k`; index 0 also
    /// holds zeros.
    counts: Vec<u64>,
    total: u64,
    /// The largest [`TAIL_KEEP`] samples, sorted ascending. While fewer
    /// than `TAIL_KEEP` samples were recorded this holds all of them.
    tail: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; 64],
            total: 0,
            tail: Vec::new(),
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        if self.tail.len() < TAIL_KEEP {
            let pos = self.tail.partition_point(|&x| x <= v);
            self.tail.insert(pos, v);
        } else if v > self.tail[0] {
            let pos = self.tail.partition_point(|&x| x <= v);
            self.tail.insert(pos, v);
            self.tail.remove(0);
        }
    }

    /// Record a whole slice.
    pub fn record_all(&mut self, vs: &[u64]) {
        for &v in vs {
            self.record(v);
        }
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the bucket containing `v`.
    pub fn count_at(&self, v: u64) -> u64 {
        self.counts[Self::bucket_of(v)]
    }

    /// Fraction of samples strictly above `threshold`'s bucket — a quick
    /// tail mass estimate.
    pub fn tail_fraction_above(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let b = Self::bucket_of(threshold);
        let tail: u64 = self.counts[b + 1..].iter().sum();
        tail as f64 / self.total as f64
    }

    /// Merge another histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        // Merge the exact tails: union, keep the TAIL_KEEP largest.
        self.tail.extend_from_slice(&other.tail);
        self.tail.sort_unstable();
        if self.tail.len() > TAIL_KEEP {
            let drop = self.tail.len() - TAIL_KEEP;
            self.tail.drain(..drop);
        }
    }

    /// Exact maximum recorded value (`None` when empty). Always exact:
    /// the largest sample can never fall out of the tail reservoir.
    pub fn max(&self) -> Option<u64> {
        self.tail.last().copied()
    }

    /// The smallest value `v` such that at least `ceil(q * total)`
    /// samples are `<= v`.
    ///
    /// Exact whenever the rank falls inside the tail reservoir (see
    /// [`LogHistogram::percentile_is_exact`]); otherwise falls back to
    /// the log2 bucket upper bound, clamped to the exact maximum. For
    /// per-window histograms with at most [`TAIL_KEEP`] samples every
    /// quantile — p50 included — is exact.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let from_top = (self.total - rank) as usize;
        if from_top < self.tail.len() {
            return Some(self.tail[self.tail.len() - 1 - from_top]);
        }
        // Rank below the reservoir: answer from the buckets. The value
        // is somewhere in the bucket where the cumulative count crosses
        // the rank; report that bucket's upper bound (conservative for
        // an SLO check), clamped to the exact max.
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let hi = if k >= 63 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
                return Some(hi.min(self.max().expect("total > 0")));
            }
        }
        unreachable!("cumulative count reaches total");
    }

    /// Whether [`LogHistogram::percentile`] answers `q` exactly (the
    /// rank falls inside the tail reservoir) rather than from a bucket
    /// upper bound.
    pub fn percentile_is_exact(&self, q: f64) -> bool {
        if self.total == 0 {
            return false;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        ((self.total - rank) as usize) < self.tail.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_log_buckets() {
        let mut h = LogHistogram::new();
        h.record_all(&[0, 1, 2, 3, 4, 7, 8, 1000, 1023, 1024]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.count_at(0), 2); // 0 and 1 share bucket 0
        assert_eq!(h.count_at(2), 2); // bucket 2..3 holds {2, 3}
        assert_eq!(h.count_at(5), 2); // bucket 4..7 holds {4, 7}
        assert_eq!(h.count_at(4), h.count_at(7));
        assert_eq!(h.count_at(1000), 2); // 512..1023: 1000, 1023
        assert_eq!(h.count_at(1024), 1);
    }

    #[test]
    fn tail_fraction() {
        let mut h = LogHistogram::new();
        // 99 samples at ~4000, 1 at 64000.
        for _ in 0..99 {
            h.record(4000);
        }
        h.record(64_000);
        let tail = h.tail_fraction_above(8191);
        assert!((tail - 0.01).abs() < 1e-9, "{tail}");
        assert_eq!(h.tail_fraction_above(1 << 20), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = LogHistogram::new();
        a.record(5);
        let mut b = LogHistogram::new();
        b.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_at(5), 2);
    }

    #[test]
    fn exact_percentiles_while_reservoir_holds_everything() {
        let mut h = LogHistogram::new();
        // 1..=8: every quantile must be exact, not a bucket bound.
        h.record_all(&[3, 1, 4, 2, 8, 6, 5, 7]);
        assert_eq!(h.max(), Some(8));
        assert_eq!(h.percentile(0.5), Some(4), "exact median, not bucket hi 7");
        assert_eq!(h.percentile(1.0), Some(8));
        assert_eq!(h.percentile(0.0), Some(1), "rank clamps to 1");
        assert!(h.percentile_is_exact(0.5));
        assert_eq!(LogHistogram::new().percentile(0.5), None);
    }

    #[test]
    fn exact_p999_and_max_beyond_bucket_resolution() {
        let mut h = LogHistogram::new();
        // 10_000 @ 100, 10 @ 1000, 1 @ 9999: the log2 buckets cannot
        // separate 1000 from 1023, the reservoir can.
        for _ in 0..10_000 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        h.record(9999);
        // rank = ceil(0.999 * 10011) = 10001 -> the first of the 1000s.
        assert_eq!(h.percentile(0.999), Some(1000));
        assert!(h.percentile_is_exact(0.999));
        assert_eq!(h.max(), Some(9999), "exact max, not bucket bound 16383");
        // p50 rank is far below the reservoir: bucket fallback, pinned
        // to the 64..127 bucket's upper bound.
        assert!(!h.percentile_is_exact(0.5));
        assert_eq!(h.percentile(0.5), Some(127));
    }

    #[test]
    fn bucket_boundary_fallback_pins_upper_bound() {
        let mut h = LogHistogram::new();
        // Overflow the reservoir so p999 leaves the exact range:
        // 1_100_000 samples of 3 (bucket 2..3), one of 300.
        for _ in 0..1_100_000 {
            h.record(3);
        }
        h.record(300);
        assert!(!h.percentile_is_exact(0.999));
        // Fallback lands in the 2..3 bucket and reports its upper bound.
        assert_eq!(h.percentile(0.999), Some(3));
        // Max stays exact even past the reservoir.
        assert_eq!(h.max(), Some(300));
        assert_eq!(h.percentile(1.0), Some(300), "top ranks stay exact");
    }

    #[test]
    fn merge_keeps_exact_tail() {
        let mut a = LogHistogram::new();
        a.record_all(&[10, 20, 30]);
        let mut b = LogHistogram::new();
        b.record_all(&[15, 25, 99]);
        a.merge(&b);
        assert_eq!(a.max(), Some(99));
        assert_eq!(a.percentile(0.5), Some(20));
        assert_eq!(a.total(), 6);
    }
}
