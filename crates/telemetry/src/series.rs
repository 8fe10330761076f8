//! Empirical CDFs and quantiles.
//!
//! Every figure in the paper's evaluation is either a CDF (Figs. 2, 3, 5, 6,
//! 8), a bar of fractions (Fig. 4, 10), or a time series (Figs. 12–22). This
//! module implements the first two; time series are printed directly from the
//! record vectors.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite values are dropped.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (0 ≤ p ≤ 1), linear interpolation between order
    /// statistics. Returns `None` on an empty CDF.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let pos = p * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x` — the CDF value F(x).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// (value, cumulative-fraction) pairs at the given quantile grid —
    /// the series the `repro` harness prints for CDF figures.
    pub fn series(&self, quantiles: &[f64]) -> Vec<(f64, f64)> {
        quantiles
            .iter()
            .filter_map(|&p| self.quantile(p).map(|v| (v, p)))
            .collect()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// The standard quantile grid used in the repro harness's CDF printouts.
pub const CDF_GRID: [f64; 13] = [
    0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.995, 0.999, 0.9999, 1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_known_set() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(0.5), Some(3.0));
        assert_eq!(c.quantile(1.0), Some(5.0));
        assert_eq!(c.quantile(0.25), Some(2.0));
        assert_eq!(c.median(), Some(3.0));
    }

    #[test]
    fn fraction_below_handles_ties() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_at_or_below(1.5), 0.25);
        assert_eq!(c.fraction_at_or_below(2.0), 0.75);
        assert_eq!(c.fraction_at_or_below(10.0), 1.0);
        assert_eq!(c.fraction_at_or_below(0.0), 0.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let c = Cdf::from_samples(vec![f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max(), Some(2.0));
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
    }

    proptest! {
        /// Quantile is monotone in p and bounded by min/max.
        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let c = Cdf::from_samples(samples);
            let mut last = f64::NEG_INFINITY;
            for i in 0..=20 {
                let q = c.quantile(i as f64 / 20.0).unwrap();
                prop_assert!(q >= last);
                prop_assert!(q >= c.min().unwrap() - 1e-9);
                prop_assert!(q <= c.max().unwrap() + 1e-9);
                last = q;
            }
        }

        /// fraction_at_or_below is a valid CDF: monotone, in [0,1].
        #[test]
        fn prop_fraction_below_monotone(samples in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let c = Cdf::from_samples(samples);
            let mut last = 0.0;
            for i in -10..=10 {
                let f = c.fraction_at_or_below(i as f64 * 100.0);
                prop_assert!((0.0..=1.0).contains(&f));
                prop_assert!(f >= last);
                last = f;
            }
        }
    }
}
