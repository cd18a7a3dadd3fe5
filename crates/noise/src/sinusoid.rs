//! Sinusoidal carriers (sinusoid-based logic, SBL).

use crate::carrier::{assert_fill_layout, CarrierBank};
use crate::rng::{RandomSource, SplitMix64};
use std::f64::consts::TAU;

/// A bank of sinusoidal carriers with distinct integer frequencies.
///
/// The paper's §V proposes replacing the noise sources with sinusoids: if the
/// highest realizable frequency is `F` and adjacent carriers are spaced by
/// `f`, an SBL engine supports `F / f` variables. Over a full common period
/// distinct-frequency sinusoids are exactly orthogonal, and `⟨sin²⟩ = 1/2`,
/// so the correlation algebra of NBL carries over unchanged.
///
/// Source `i` is assigned frequency `i + 1` cycles per period; the period is
/// discretized into `samples_per_period` steps (which must exceed twice the
/// highest frequency to respect Nyquist). Each source gets a deterministic
/// pseudo-random phase so that different seeds give different (but still
/// orthogonal) carrier sets.
#[derive(Debug, Clone)]
pub struct SinusoidBank {
    frequencies: Vec<f64>,
    phases: Vec<f64>,
    samples_per_period: usize,
    step: usize,
    amplitude: f64,
}

impl SinusoidBank {
    /// Creates a bank of `num_sources` unit-amplitude sinusoids with an
    /// automatically chosen period of `8 * (num_sources + 1)` samples.
    pub fn new(num_sources: usize, seed: u64) -> Self {
        let samples_per_period = 8 * (num_sources + 1);
        Self::with_period(num_sources, seed, samples_per_period)
    }

    /// Creates a bank with an explicit number of samples per period.
    ///
    /// # Panics
    ///
    /// Panics if the period does not satisfy the Nyquist criterion
    /// (`samples_per_period <= 2 * num_sources`).
    pub fn with_period(num_sources: usize, seed: u64, samples_per_period: usize) -> Self {
        assert!(
            samples_per_period > 2 * num_sources,
            "samples_per_period must exceed twice the highest carrier frequency"
        );
        let mut rng = SplitMix64::new(seed);
        let frequencies = (0..num_sources).map(|i| (i + 1) as f64).collect();
        let phases = (0..num_sources).map(|_| rng.next_f64() * TAU).collect();
        SinusoidBank {
            frequencies,
            phases,
            samples_per_period,
            step: 0,
            amplitude: 1.0,
        }
    }

    /// The number of samples in one full period.
    pub fn samples_per_period(&self) -> usize {
        self.samples_per_period
    }

    /// The frequency (cycles per period) of source `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn frequency(&self, i: usize) -> f64 {
        self.frequencies[i]
    }
}

impl CarrierBank for SinusoidBank {
    fn num_sources(&self) -> usize {
        self.frequencies.len()
    }

    fn fill(&mut self, out: &mut [f64], stride: usize, steps: usize) {
        assert_fill_layout(out, self.frequencies.len(), stride, steps);
        for t in 0..steps {
            let time = self.step as f64 / self.samples_per_period as f64;
            let slots = out.iter_mut().skip(t).step_by(stride);
            for ((slot, &freq), &phase) in slots.zip(&self.frequencies).zip(&self.phases) {
                *slot = self.amplitude * (TAU * freq * time + phase).cos();
            }
            self.step += 1;
        }
    }

    fn variance(&self) -> f64 {
        self.amplitude * self.amplitude / 2.0
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn family(&self) -> &'static str {
        "sinusoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn distinct_frequencies() {
        let bank = SinusoidBank::new(5, 0);
        for i in 0..5 {
            assert_eq!(bank.frequency(i), (i + 1) as f64);
        }
    }

    #[test]
    fn zero_mean_over_full_periods() {
        let mut bank = SinusoidBank::new(3, 1);
        let period = bank.samples_per_period();
        let mut buf = [0.0; 3];
        let mut stats = RunningStats::new();
        for _ in 0..(period * 10) {
            bank.next_sample(&mut buf);
            stats.push(buf[0]);
        }
        assert!(stats.mean().abs() < 1e-10);
        assert!((stats.variance() - 0.5).abs() < 1e-2);
    }

    #[test]
    fn distinct_sinusoids_are_orthogonal_over_a_period() {
        let mut bank = SinusoidBank::new(4, 9);
        let period = bank.samples_per_period();
        let mut buf = [0.0; 4];
        let mut cross = RunningStats::new();
        for _ in 0..(period * 20) {
            bank.next_sample(&mut buf);
            cross.push(buf[1] * buf[3]);
        }
        assert!(cross.mean().abs() < 1e-10, "{}", cross.mean());
    }

    #[test]
    fn squared_sinusoid_has_mean_half() {
        let mut bank = SinusoidBank::new(2, 2);
        let period = bank.samples_per_period();
        let mut buf = [0.0; 2];
        let mut stats = RunningStats::new();
        for _ in 0..(period * 5) {
            bank.next_sample(&mut buf);
            stats.push(buf[0] * buf[0]);
        }
        assert!((stats.mean() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn reset_restarts_the_period() {
        let mut bank = SinusoidBank::new(2, 3);
        let mut a = [0.0; 2];
        let mut b = [0.0; 2];
        bank.next_sample(&mut a);
        bank.reset();
        bank.next_sample(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn nyquist_violation_rejected() {
        let _ = SinusoidBank::with_period(10, 0, 20);
    }
}
