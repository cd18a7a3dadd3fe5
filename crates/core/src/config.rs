//! Engine configuration.

use nbl_noise::CarrierKind;

/// Configuration of the Monte-Carlo [`crate::SampledEngine`].
///
/// The defaults mirror the paper's §IV experimental protocol: uniform
/// [-0.5, 0.5] carriers, convergence to the third significant digit checked
/// periodically, and a hard cap on the number of noise samples (the paper
/// uses 10⁸; the default here is 10⁶ so tests and examples stay fast —
/// raise it for higher-fidelity runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Carrier family used for the basis sources.
    pub carrier: CarrierKind,
    /// PRNG seed; the whole simulation is deterministic given the seed.
    pub seed: u64,
    /// Hard cap on the number of noise samples per estimate.
    pub max_samples: u64,
    /// How often (in samples) the convergence criterion is evaluated.
    pub check_interval: u64,
    /// Number of significant digits the running mean must stabilize to.
    pub significant_digits: u32,
    /// Number of standard errors the mean must exceed for a "positive mean"
    /// (i.e. satisfiable) decision on sampled data.
    pub decision_sigmas: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            carrier: CarrierKind::Uniform,
            seed: 0,
            max_samples: 1_000_000,
            check_interval: 10_000,
            significant_digits: 3,
            decision_sigmas: 3.0,
        }
    }
}

impl EngineConfig {
    /// Creates the default configuration (paper defaults, 10⁶-sample cap).
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Sets the carrier family.
    pub fn with_carrier(mut self, carrier: CarrierKind) -> Self {
        self.carrier = carrier;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sample cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples == 0`.
    pub fn with_max_samples(mut self, max_samples: u64) -> Self {
        assert!(max_samples > 0, "sample cap must be positive");
        self.max_samples = max_samples;
        self
    }

    /// Sets the convergence check interval.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval == 0`.
    pub fn with_check_interval(mut self, check_interval: u64) -> Self {
        assert!(check_interval > 0, "check interval must be positive");
        self.check_interval = check_interval;
        self
    }

    /// Sets the decision threshold in standard errors.
    pub fn with_decision_sigmas(mut self, sigmas: f64) -> Self {
        self.decision_sigmas = sigmas;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.carrier, CarrierKind::Uniform);
        assert_eq!(cfg.significant_digits, 3);
        assert!(cfg.max_samples >= 100_000);
        assert_eq!(EngineConfig::new(), cfg);
    }

    #[test]
    fn builder_methods() {
        let cfg = EngineConfig::new()
            .with_carrier(CarrierKind::Rtw)
            .with_seed(7)
            .with_max_samples(500)
            .with_check_interval(50)
            .with_decision_sigmas(5.0);
        assert_eq!(cfg.carrier, CarrierKind::Rtw);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.max_samples, 500);
        assert_eq!(cfg.check_interval, 50);
        assert_eq!(cfg.decision_sigmas, 5.0);
    }

    #[test]
    #[should_panic]
    fn zero_sample_cap_rejected() {
        let _ = EngineConfig::new().with_max_samples(0);
    }
}
