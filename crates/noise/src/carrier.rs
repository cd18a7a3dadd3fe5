//! The [`CarrierBank`] abstraction and the [`CarrierKind`] selector.

use crate::gaussian::GaussianBank;
use crate::rtw::RtwBank;
use crate::sinusoid::SinusoidBank;
use crate::uniform::UniformBank;
use std::fmt;

/// A bank of pairwise-independent, zero-mean carrier processes.
///
/// A bank owns `num_sources` basis carriers. [`CarrierBank::fill`] advances
/// simulated time by any number of steps and writes the instantaneous value
/// of every carrier at every step into a source-major buffer: source `s` at
/// step `t` lands in `out[s * stride + t]`, so each source's run of steps is
/// one contiguous row that a consumer can walk lane by lane.
/// [`CarrierBank::next_sample`] is `fill(out, 1, 1)`: one step, one value per
/// source.
///
/// A bank produces the same stream however the steps are split between
/// calls: `fill(out, stride, k)` writes exactly the values of `k` consecutive
/// `next_sample` calls, because every bank draws step by step and, within a
/// step, source by source.
///
/// All implementations guarantee (in expectation over time):
///
/// * zero mean per source,
/// * variance [`CarrierBank::variance`] per source,
/// * vanishing cross-correlation between distinct sources,
///
/// which is exactly the algebra the NBL-SAT correlation check relies on.
pub trait CarrierBank: fmt::Debug {
    /// Number of basis sources in the bank.
    fn num_sources(&self) -> usize;

    /// Advances `steps` time steps and writes source `s` at step `t` into
    /// `out[s * stride + t]`; the slots `out[s * stride + steps..(s + 1) *
    /// stride]` are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_sources() * stride` or
    /// `steps > stride`.
    fn fill(&mut self, out: &mut [f64], stride: usize, steps: usize);

    /// Advances one time step and fills `out[i]` with the value of source `i`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_sources()`.
    fn next_sample(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_sources(), "buffer size mismatch");
        self.fill(out, 1, 1);
    }

    /// The per-source variance ⟨N_i²⟩ (e.g. `1/12` for uniform [-0.5, 0.5]).
    fn variance(&self) -> f64;

    /// Restarts the bank from its initial state (same seed, time zero).
    fn reset(&mut self);

    /// Human-readable carrier family name (for reports and benches).
    fn family(&self) -> &'static str;
}

/// Asserts the [`CarrierBank::fill`] layout contract for a bank of
/// `num_sources` sources.
pub(crate) fn assert_fill_layout(out: &[f64], num_sources: usize, stride: usize, steps: usize) {
    assert_eq!(out.len(), num_sources * stride, "buffer size mismatch");
    assert!(steps <= stride, "more steps than lanes per source");
}

/// Selector for the carrier families supported by the simulation engines.
///
/// `Uniform` is the paper's default (§III.F and §IV); the others realize the
/// alternatives discussed in §V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CarrierKind {
    /// Uniform noise on [-0.5, 0.5] (variance 1/12). The paper's default.
    #[default]
    Uniform,
    /// Zero-mean Gaussian noise with unit variance.
    Gaussian,
    /// Random telegraph waves: ±1 processes with memoryless switching.
    Rtw,
    /// Sinusoids of distinct frequencies (sinusoid-based logic, SBL).
    Sinusoid,
}

impl CarrierKind {
    /// Creates a boxed carrier bank of this family with `num_sources` sources
    /// seeded from `seed`.
    pub fn bank(self, num_sources: usize, seed: u64) -> Box<dyn CarrierBank> {
        match self {
            CarrierKind::Uniform => Box::new(UniformBank::new(num_sources, seed)),
            CarrierKind::Gaussian => Box::new(GaussianBank::new(num_sources, seed)),
            CarrierKind::Rtw => Box::new(RtwBank::new(num_sources, seed)),
            CarrierKind::Sinusoid => Box::new(SinusoidBank::new(num_sources, seed)),
        }
    }

    /// All supported carrier kinds, for ablation sweeps.
    pub fn all() -> [CarrierKind; 4] {
        [
            CarrierKind::Uniform,
            CarrierKind::Gaussian,
            CarrierKind::Rtw,
            CarrierKind::Sinusoid,
        ]
    }
}

impl fmt::Display for CarrierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CarrierKind::Uniform => "uniform",
            CarrierKind::Gaussian => "gaussian",
            CarrierKind::Rtw => "rtw",
            CarrierKind::Sinusoid => "sinusoid",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningStats;

    #[test]
    fn factory_builds_every_family() {
        for kind in CarrierKind::all() {
            let mut bank = kind.bank(3, 11);
            assert_eq!(bank.num_sources(), 3);
            assert!(bank.variance() > 0.0);
            let mut buf = [0.0; 3];
            bank.next_sample(&mut buf);
            assert!(!bank.family().is_empty());
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn every_family_has_zero_mean_and_declared_variance() {
        for kind in CarrierKind::all() {
            let mut bank = kind.bank(2, 123);
            let mut buf = [0.0; 2];
            let mut stats = RunningStats::new();
            let steps = 50_000;
            for _ in 0..steps {
                bank.next_sample(&mut buf);
                stats.push(buf[0]);
            }
            assert!(stats.mean().abs() < 0.02, "{kind}: mean {}", stats.mean());
            let declared = bank.variance();
            assert!(
                (stats.variance() - declared).abs() / declared < 0.1,
                "{kind}: variance {} vs declared {declared}",
                stats.variance()
            );
        }
    }

    #[test]
    fn reset_reproduces_the_same_stream() {
        for kind in CarrierKind::all() {
            let mut bank = kind.bank(2, 5);
            let mut buf = [0.0; 2];
            let mut first = Vec::new();
            for _ in 0..16 {
                bank.next_sample(&mut buf);
                first.push(buf);
            }
            bank.reset();
            for step in first {
                bank.next_sample(&mut buf);
                assert_eq!(buf, step, "{kind}");
            }
        }
    }

    #[test]
    fn fill_equals_consecutive_next_sample_calls() {
        // Three fills in a row per layout, so a bank that loses its state
        // between calls, or draws sources before steps, diverges from the
        // step-by-step stream. NaN marks the lanes a fill must not touch.
        for (kind, sources) in CarrierKind::all()
            .into_iter()
            .flat_map(|k| [(k, 5), (k, 0)])
        {
            for (stride, steps) in [(16, 7), (16, 16), (3, 3), (1, 1), (4, 0)] {
                let mut filled = kind.bank(sources, 17);
                let mut stepped = kind.bank(sources, 17);
                let mut step = vec![0.0; sources];
                for round in 0..3 {
                    let mut out = vec![f64::NAN; sources * stride];
                    filled.fill(&mut out, stride, steps);
                    let rows: Vec<&[f64]> = out.chunks_exact(stride).collect();
                    for t in 0..steps {
                        stepped.next_sample(&mut step);
                        for (row, value) in rows.iter().zip(&step) {
                            assert_eq!(
                                row[t].to_bits(),
                                value.to_bits(),
                                "{kind}: stride {stride}, steps {steps}, round {round}, step {t}"
                            );
                        }
                    }
                    assert!(
                        rows.iter()
                            .all(|row| row[steps..].iter().all(|x| x.is_nan())),
                        "{kind}: fill wrote past step {steps} of stride {stride}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more steps than lanes per source")]
    fn fill_rejects_more_steps_than_the_stride() {
        let mut bank = CarrierKind::Uniform.bank(2, 0);
        let mut out = [0.0; 8];
        bank.fill(&mut out, 4, 5);
    }

    #[test]
    fn default_kind_is_uniform() {
        assert_eq!(CarrierKind::default(), CarrierKind::Uniform);
    }
}
