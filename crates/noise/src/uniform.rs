//! Uniform noise carriers (the paper's default basis sources).

use crate::carrier::{assert_fill_layout, CarrierBank};
use crate::rng::{RandomSource, Xoshiro256StarStar};

/// A bank of independent uniform noise carriers on `[-amplitude, amplitude]`.
///
/// The paper's simulations use `amplitude = 0.5`, giving per-source variance
/// `1/12`, which is also the value its SNR model is derived with.
///
/// ```
/// use nbl_noise::{CarrierBank, UniformBank};
/// let mut bank = UniformBank::new(2, 7);
/// assert!((bank.variance() - 1.0 / 12.0).abs() < 1e-12);
/// let mut buf = [0.0; 2];
/// bank.next_sample(&mut buf);
/// assert!(buf.iter().all(|x| (-0.5..0.5).contains(x)));
/// ```
#[derive(Debug, Clone)]
pub struct UniformBank {
    rng: Xoshiro256StarStar,
    seed: u64,
    num_sources: usize,
    amplitude: f64,
}

impl UniformBank {
    /// Creates a bank of `num_sources` uniform [-0.5, 0.5] carriers.
    pub fn new(num_sources: usize, seed: u64) -> Self {
        Self::with_amplitude(num_sources, seed, 0.5)
    }

    /// Creates a bank with a custom amplitude (half-range).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not strictly positive and finite.
    pub fn with_amplitude(num_sources: usize, seed: u64, amplitude: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude > 0.0,
            "amplitude must be positive and finite"
        );
        UniformBank {
            rng: Xoshiro256StarStar::new(seed),
            seed,
            num_sources,
            amplitude,
        }
    }

    /// The half-range of the carriers.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }
}

impl CarrierBank for UniformBank {
    fn num_sources(&self) -> usize {
        self.num_sources
    }

    fn fill(&mut self, out: &mut [f64], stride: usize, steps: usize) {
        assert_fill_layout(out, self.num_sources, stride, steps);
        // The generator runs in a local copy so its state stays in registers
        // across the stores into `out`.
        let mut rng = self.rng;
        for t in 0..steps {
            for slot in out.iter_mut().skip(t).step_by(stride) {
                *slot = rng.next_symmetric(self.amplitude);
            }
        }
        self.rng = rng;
    }

    fn variance(&self) -> f64 {
        // Var(U[-a, a]) = a^2 / 3
        self.amplitude * self.amplitude / 3.0
    }

    fn reset(&mut self) {
        self.rng = Xoshiro256StarStar::new(self.seed);
    }

    fn family(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn default_amplitude_matches_paper() {
        let bank = UniformBank::new(4, 0);
        assert_eq!(bank.amplitude(), 0.5);
        assert!((bank.variance() - 1.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn custom_amplitude_variance() {
        let bank = UniformBank::with_amplitude(1, 0, 2.0);
        assert!((bank.variance() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_amplitude_rejected() {
        let _ = UniformBank::with_amplitude(1, 0, 0.0);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_size_panics() {
        let mut bank = UniformBank::new(3, 0);
        let mut buf = [0.0; 2];
        bank.next_sample(&mut buf);
    }

    #[test]
    fn fourth_moment_matches_uniform_distribution() {
        // E[x^4] for U[-0.5,0.5] is (0.5)^4/5 = 1/80.
        let mut bank = UniformBank::new(1, 3);
        let mut buf = [0.0];
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            bank.next_sample(&mut buf);
            stats.push(buf[0].powi(4));
        }
        assert!((stats.mean() - 1.0 / 80.0).abs() < 5e-4, "{}", stats.mean());
    }

    #[test]
    fn sources_are_uncorrelated() {
        let mut bank = UniformBank::new(2, 9);
        let mut buf = [0.0; 2];
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            bank.next_sample(&mut buf);
            stats.push(buf[0] * buf[1]);
        }
        assert!(stats.mean().abs() < 2e-3);
    }
}
