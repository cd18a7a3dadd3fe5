//! Random telegraph wave (RTW) carriers.

use crate::carrier::{assert_fill_layout, CarrierBank};
use crate::rng::{RandomSource, Xoshiro256StarStar};

/// A bank of independent random telegraph waves.
///
/// An RTW takes values ±amplitude and, at every time step, independently
/// decides (with probability `switch_probability`) whether to flip sign.
/// RTWs are the carrier family of "instantaneous noise-based logic"
/// (paper §V and reference \[17\]); they are zero-mean and pairwise
/// independent, and products of independent RTWs are again RTWs, which keeps
/// the NBL product algebra exact even for a single sample — in the ±1 case
/// every squared source is identically 1.
#[derive(Debug, Clone)]
pub struct RtwBank {
    rng: Xoshiro256StarStar,
    seed: u64,
    states: Vec<f64>,
    amplitude: f64,
    switch_probability: f64,
}

impl RtwBank {
    /// Creates a bank of ±1 telegraph waves with switch probability 0.5
    /// (a fresh independent sign every step).
    pub fn new(num_sources: usize, seed: u64) -> Self {
        Self::with_parameters(num_sources, seed, 1.0, 0.5)
    }

    /// Creates a bank with a custom amplitude and per-step switch probability.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude <= 0`, or `switch_probability` is outside `(0, 1]`.
    pub fn with_parameters(
        num_sources: usize,
        seed: u64,
        amplitude: f64,
        switch_probability: f64,
    ) -> Self {
        assert!(
            amplitude.is_finite() && amplitude > 0.0,
            "amplitude must be positive and finite"
        );
        assert!(
            switch_probability > 0.0 && switch_probability <= 1.0,
            "switch probability must be in (0, 1]"
        );
        let mut bank = RtwBank {
            rng: Xoshiro256StarStar::new(seed),
            seed,
            states: Vec::new(),
            amplitude,
            switch_probability,
        };
        bank.init_states(num_sources);
        bank
    }

    fn init_states(&mut self, num_sources: usize) {
        self.states = (0..num_sources)
            .map(|_| {
                if self.rng.next_bool(0.5) {
                    self.amplitude
                } else {
                    -self.amplitude
                }
            })
            .collect();
    }

    /// The wave amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The per-step switching probability.
    pub fn switch_probability(&self) -> f64 {
        self.switch_probability
    }
}

impl CarrierBank for RtwBank {
    fn num_sources(&self) -> usize {
        self.states.len()
    }

    fn fill(&mut self, out: &mut [f64], stride: usize, steps: usize) {
        assert_fill_layout(out, self.states.len(), stride, steps);
        for t in 0..steps {
            let slots = out.iter_mut().skip(t).step_by(stride);
            for (slot, state) in slots.zip(self.states.iter_mut()) {
                if self.rng.next_bool(self.switch_probability) {
                    *state = -*state;
                }
                *slot = *state;
            }
        }
    }

    fn variance(&self) -> f64 {
        self.amplitude * self.amplitude
    }

    fn reset(&mut self) {
        let n = self.states.len();
        self.rng = Xoshiro256StarStar::new(self.seed);
        self.init_states(n);
    }

    fn family(&self) -> &'static str {
        "rtw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn values_are_plus_minus_amplitude() {
        let mut bank = RtwBank::with_parameters(3, 1, 2.5, 0.3);
        let mut buf = [0.0; 3];
        for _ in 0..100 {
            bank.next_sample(&mut buf);
            for &x in &buf {
                assert!(x == 2.5 || x == -2.5);
            }
        }
    }

    #[test]
    fn zero_mean_and_unit_variance() {
        let mut bank = RtwBank::new(1, 5);
        let mut buf = [0.0];
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            bank.next_sample(&mut buf);
            stats.push(buf[0]);
        }
        assert!(stats.mean().abs() < 0.02);
        assert!((stats.variance() - 1.0).abs() < 0.01);
    }

    #[test]
    fn product_of_independent_rtws_is_zero_mean() {
        let mut bank = RtwBank::new(2, 8);
        let mut buf = [0.0; 2];
        let mut stats = RunningStats::new();
        for _ in 0..50_000 {
            bank.next_sample(&mut buf);
            stats.push(buf[0] * buf[1]);
        }
        assert!(stats.mean().abs() < 0.02);
    }

    #[test]
    fn squared_rtw_is_identically_one() {
        let mut bank = RtwBank::new(1, 3);
        let mut buf = [0.0];
        for _ in 0..100 {
            bank.next_sample(&mut buf);
            assert!((buf[0] * buf[0] - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn low_switch_probability_produces_correlated_steps() {
        let mut bank = RtwBank::with_parameters(1, 4, 1.0, 0.05);
        let mut buf = [0.0];
        bank.next_sample(&mut buf);
        let mut flips = 0;
        let mut prev = buf[0];
        let steps = 10_000;
        for _ in 0..steps {
            bank.next_sample(&mut buf);
            if buf[0] != prev {
                flips += 1;
            }
            prev = buf[0];
        }
        let rate = flips as f64 / steps as f64;
        assert!((rate - 0.05).abs() < 0.01, "flip rate {rate}");
    }

    #[test]
    #[should_panic]
    fn invalid_switch_probability_rejected() {
        let _ = RtwBank::with_parameters(1, 0, 1.0, 0.0);
    }
}
