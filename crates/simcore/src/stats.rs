//! Statistics used by the evaluation harness.
//!
//! The paper reports (i) per-sample latency series (Fig. 5), (ii) averages
//! with error bars over 15 runs (Fig. 6, 8), and (iii) "maximum performance
//! variation in percentage compared to the average value" (Fig. 7, 9). The
//! [`Summary`] type computes all of these from a sample slice; we take the
//! variation metric as `(max - min) / mean`, expressed in percent, which
//! matches the paper's described axis.

/// Summary of a sample slice: moments, extremes and percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarize `samples`. Returns a zeroed summary for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }

    /// The paper's Fig. 7/9 metric: `(max - min) / mean`, in percent.
    pub fn max_variation_pct(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.mean * 100.0
        }
    }

    /// Slowdown of the worst sample relative to the best (`max / min`).
    /// Fig. 5's "up to 16X slowdown" reads off this.
    pub fn worst_slowdown(&self) -> f64 {
        if self.min == 0.0 {
            0.0
        } else {
            self.max / self.min
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=100.0).contains(&p));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&xs);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn variation_metric() {
        let s = Summary::from_samples(&[90.0, 100.0, 110.0]);
        assert!((s.max_variation_pct() - 20.0).abs() < 1e-9);
        assert!((s.worst_slowdown() - 110.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Summary::from_samples(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.max_variation_pct(), 0.0);
        let one = Summary::from_samples(&[7.0]);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.std_dev, 0.0);
    }
}
