//! Deterministic pseudo-random number generators.
//!
//! The library implements its own small PRNGs (SplitMix64 and
//! xoshiro256**) so that carrier generation is bit-reproducible across
//! platforms and independent of external crate versions. The `rand` crate is
//! still used at API boundaries where callers want to supply their own
//! generators (e.g. the random k-SAT generator in the `cnf` crate).

/// A deterministic source of uniformly distributed random bits and floats.
///
/// All carrier banks draw their randomness through this trait, which makes it
/// easy to substitute a different generator in tests.
pub trait RandomSource {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a float uniformly distributed in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a float uniformly distributed in `[-half_range, half_range)`.
    ///
    /// With `k = next_u64() >> 11` (53 random bits) the value is
    /// `((k − 2^52) · 2^-52) · half_range`: an integer subtraction, one
    /// conversion and two multiplications. It equals
    /// `(next_f64() − 0.5) · 2 · half_range`, the unit float shifted and
    /// scaled, in every bit including the sign of zero. In that form
    /// `k · 2^-53`, its difference with 0.5 and the doubling are all exact
    /// (each is an integer below 2^53 in magnitude times a power of two), so
    /// both forms multiply the same `f64` by `half_range`; a zero difference
    /// is `+0.0` in both.
    fn next_symmetric(&mut self, half_range: f64) -> f64 {
        const MIDPOINT: i64 = 1 << 52;
        let k = (self.next_u64() >> 11) as i64;
        ((k - MIDPOINT) as f64 * (1.0 / MIDPOINT as f64)) * half_range
    }

    /// Returns a standard-normal sample (Box–Muller transform).
    fn next_gaussian(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Returns `true` with probability `p`.
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// SplitMix64: a tiny, fast, well-distributed 64-bit generator.
///
/// Mainly used for seeding [`Xoshiro256StarStar`] and for cheap per-source
/// stream splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RandomSource for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose generator used for carrier sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed (expanded with SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // Avoid the all-zero state, which is a fixed point.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Jumps the generator forward by 2^128 steps, producing an independent
    /// stream. Useful for giving each basis noise source its own stream.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for &jump in &JUMP {
            for b in 0..64 {
                if (jump >> b) & 1 == 1 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                let _ = self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }
}

impl RandomSource for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(1);
        let mut c = Xoshiro256StarStar::new(2);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn uniform_floats_are_in_range_and_centered() {
        let mut rng = Xoshiro256StarStar::new(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn symmetric_floats_cover_requested_range() {
        let mut rng = Xoshiro256StarStar::new(4);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let x = rng.next_symmetric(0.5);
            assert!((-0.5..0.5).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < -0.45 && max > 0.45);
    }

    /// Replays a fixed list of raw 64-bit draws.
    struct Replay(Vec<u64>);

    impl RandomSource for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.pop().expect("replay exhausted")
        }
    }

    #[test]
    fn next_symmetric_equals_the_shifted_unit_float_bit_for_bit() {
        let shifted =
            |rng: &mut dyn RandomSource, half_range: f64| (rng.next_f64() - 0.5) * 2.0 * half_range;
        for half_range in [0.5, 1.0, 2.0, 0.1, 3.7] {
            let mut rng = Xoshiro256StarStar::new(12);
            let mut reference = rng;
            for _ in 0..1_000_000 {
                assert_eq!(
                    rng.next_symmetric(half_range).to_bits(),
                    shifted(&mut reference, half_range).to_bits(),
                    "half range {half_range}"
                );
            }
            // The ends of the range and the exact midpoint (k = 2^52, a +0.0
            // in both forms), which random draws almost never hit.
            let edges = [
                0,
                u64::MAX,
                1 << 63,
                (1 << 63) - (1 << 11),
                (1 << 63) + (1 << 11),
            ];
            let mut rng = Replay(edges.to_vec());
            let mut reference = Replay(edges.to_vec());
            for _ in edges {
                assert_eq!(
                    rng.next_symmetric(half_range).to_bits(),
                    shifted(&mut reference, half_range).to_bits(),
                    "half range {half_range}"
                );
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256StarStar::new(5);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = rng.next_gaussian();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn bernoulli_probability() {
        let mut rng = Xoshiro256StarStar::new(6);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn jump_produces_distinct_stream() {
        let mut a = Xoshiro256StarStar::new(9);
        let mut b = a;
        b.jump();
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = Xoshiro256StarStar::new(0);
        let x = rng.next_u64();
        let y = rng.next_u64();
        assert_ne!(x, y);
    }
}
