//! Order statistics over per-request samples.

/// Percentiles the tail is reported at, lowest first: the "nines". A finer
/// ladder would put the tail on whichever sample happens to be tenth from
/// the top, which moves with every seed.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples the tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The nearest rank of the `p`-th percentile among `samples`, computed in
/// hundredths of a percent so that `0.9 * 540` is exactly 486.
fn rank(samples: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * samples).div_ceil(10_000)
}

/// The `p`-th percentile (nearest rank) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it, and
/// how many samples lie beyond it.
pub fn tail_percentile(samples: usize) -> (f64, usize) {
    let beyond = |p: f64| samples - rank(samples, p);
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p) >= TAIL_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    (p, beyond(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), (90.0, 10));
        assert_eq!(tail_percentile(540), (90.0, 54));
        assert_eq!(tail_percentile(999), (90.0, 99));
        assert_eq!(tail_percentile(20_000), (99.9, 20));
    }
}
