//! Gaussian noise carriers.

use crate::carrier::{assert_fill_layout, CarrierBank};
use crate::rng::{RandomSource, Xoshiro256StarStar};

/// A bank of independent zero-mean Gaussian carriers.
///
/// Gaussian carriers model thermal (Johnson) noise amplified by the wideband
/// amplifiers the paper proposes as physical noise sources (§V). The NBL
/// algebra only requires zero mean and pairwise independence, so the engines
/// accept Gaussian carriers interchangeably with the uniform default.
#[derive(Debug, Clone)]
pub struct GaussianBank {
    rng: Xoshiro256StarStar,
    seed: u64,
    num_sources: usize,
    sigma: f64,
}

impl GaussianBank {
    /// Creates a bank of `num_sources` unit-variance Gaussian carriers.
    pub fn new(num_sources: usize, seed: u64) -> Self {
        Self::with_sigma(num_sources, seed, 1.0)
    }

    /// Creates a bank with standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn with_sigma(num_sources: usize, seed: u64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite"
        );
        GaussianBank {
            rng: Xoshiro256StarStar::new(seed),
            seed,
            num_sources,
            sigma,
        }
    }

    /// The per-source standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl CarrierBank for GaussianBank {
    fn num_sources(&self) -> usize {
        self.num_sources
    }

    fn fill(&mut self, out: &mut [f64], stride: usize, steps: usize) {
        assert_fill_layout(out, self.num_sources, stride, steps);
        for t in 0..steps {
            for slot in out.iter_mut().skip(t).step_by(stride) {
                *slot = self.rng.next_gaussian() * self.sigma;
            }
        }
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn reset(&mut self) {
        self.rng = Xoshiro256StarStar::new(self.seed);
    }

    fn family(&self) -> &'static str {
        "gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn unit_variance_by_default() {
        let bank = GaussianBank::new(1, 0);
        assert_eq!(bank.variance(), 1.0);
        assert_eq!(bank.sigma(), 1.0);
    }

    #[test]
    fn scaled_sigma() {
        let bank = GaussianBank::with_sigma(1, 0, 0.25);
        assert!((bank.variance() - 0.0625).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn non_positive_sigma_rejected() {
        let _ = GaussianBank::with_sigma(1, 0, -1.0);
    }

    #[test]
    fn empirical_moments() {
        let mut bank = GaussianBank::with_sigma(1, 17, 2.0);
        let mut buf = [0.0];
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            bank.next_sample(&mut buf);
            stats.push(buf[0]);
        }
        assert!(stats.mean().abs() < 0.03);
        assert!((stats.variance() - 4.0).abs() < 0.15);
    }

    #[test]
    fn independent_sources() {
        let mut bank = GaussianBank::new(2, 21);
        let mut buf = [0.0; 2];
        let mut cross = RunningStats::new();
        for _ in 0..100_000 {
            bank.next_sample(&mut buf);
            cross.push(buf[0] * buf[1]);
        }
        assert!(cross.mean().abs() < 0.02);
    }
}
