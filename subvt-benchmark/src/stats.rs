//! Nearest-rank quantiles: the one summary every timing in the
//! benchmark goes through.
//!
//! The artifact describes each timing sample by its count, fixed
//! quantiles, and the highest percentile of [`TAIL_LADDER`] that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it — so a "p99" is
//! never read off two or three samples.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A sorted sample with nearest-rank quantile lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Sorts `samples` (NaNs last, by total order).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile by nearest rank: the smallest sample with at
    /// least `p·n` samples at or below it. `NaN` for an empty sample.
    pub fn at(&self, p: f64) -> f64 {
        match self.rank(p) {
            Some(r) => self.sorted[r - 1],
            None => f64::NAN,
        }
    }

    /// The median (nearest rank: the lower middle for even counts).
    pub fn median(&self) -> f64 {
        self.at(0.5)
    }

    /// The arithmetic mean, `NaN` for an empty sample.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Relative half-width of a ~95 % normal confidence interval for the
    /// mean, `1.96·s/√n` over the mean. `NaN` below two samples.
    pub fn mean_spread(&self) -> f64 {
        let n = self.sorted.len() as f64;
        let mean = self.mean();
        let var = self.sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt() / mean.abs()
    }

    /// 1-based nearest rank of `p`, `None` for an empty sample.
    fn rank(&self, p: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let r = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        Some(r.clamp(1, n))
    }

    /// Samples strictly beyond the rank of `p`.
    fn beyond(&self, p: f64) -> usize {
        self.rank(p).map_or(0, |r| self.sorted.len() - r)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, as `(p, value)`; `None`
    /// when even the median lacks that many.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .rev()
            .find(|&&p| self.beyond(p) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, self.at(p)))
    }

    /// Relative half-width of a ~95 % distribution-free confidence
    /// interval for the `p`-quantile, from the order statistics
    /// `n·p ± 1.96·√(n·p·(1−p))`. `NaN` for an empty sample; infinite
    /// when the quantile is zero.
    pub fn spread(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        let half = 1.96 * (n as f64 * p * (1.0 - p)).sqrt();
        let centre = n as f64 * p;
        let lo = ((centre - half).floor() as usize).clamp(1, n);
        let hi = ((centre + half).ceil() as usize).clamp(1, n);
        let width = self.sorted[hi - 1] - self.sorted[lo - 1];
        width / (2.0 * self.at(p).abs())
    }
}

/// Median of an unsorted sample (nearest rank), `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    Quantiles::new(samples.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_every_quantile_and_has_no_tail() {
        let q = Quantiles::new(vec![4.0]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.median(), 4.0);
        assert_eq!(q.at(0.99), 4.0);
        assert_eq!(q.tail(), None);
    }

    #[test]
    fn even_counts_take_the_lower_middle() {
        let q = Quantiles::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(q.median(), 2.0);
        assert_eq!(q.at(0.75), 3.0);
        assert_eq!(q.at(1.0), 4.0);
        assert_eq!(q.at(0.0), 1.0);
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let q = Quantiles::new(vec![5.0, 1.0, 5.0, 5.0]);
        assert_eq!(q.median(), 5.0);
        assert_eq!(q.at(0.25), 1.0);
        assert_eq!(Quantiles::new(vec![2.0; 6]).median(), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let q = Quantiles::new((1..=19).map(f64::from).collect());
        assert_eq!(q.tail(), None, "19 samples: the median has only 9 beyond");
        let q = Quantiles::new((1..=20).map(f64::from).collect());
        assert_eq!(q.tail(), Some((0.5, 10.0)));
        let q = Quantiles::new((1..=100).map(f64::from).collect());
        assert_eq!(q.tail(), Some((0.9, 90.0)));
        let q = Quantiles::new((1..=1000).map(f64::from).collect());
        assert_eq!(q.tail(), Some((0.99, 990.0)));
    }

    #[test]
    fn mean_and_its_spread() {
        let q = Quantiles::new(vec![1.0, 2.0, 3.0, 6.0]);
        assert_eq!(q.mean(), 3.0);
        let sd = (14.0f64 / 3.0).sqrt();
        assert!((q.mean_spread() - 1.96 * sd / 2.0 / 3.0).abs() < 1e-12);
        assert!(Quantiles::new(vec![5.0]).mean_spread().is_nan());
        assert!(Quantiles::new(Vec::new()).mean().is_nan());
    }

    #[test]
    fn spread_shrinks_with_more_samples() {
        let small = Quantiles::new((1..=20).map(f64::from).collect());
        let large = Quantiles::new((1..=2000).map(|i| f64::from(i % 20 + 1)).collect());
        assert!(small.spread(0.5) > large.spread(0.5));
        assert!(Quantiles::new(Vec::new()).spread(0.5).is_nan());
        assert!(Quantiles::new(Vec::new()).median().is_nan());
    }
}
