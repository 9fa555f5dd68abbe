//! Order statistics over measured samples.

/// The `p`-th percentile (0..=100) of `xs`, interpolating linearly
/// between closest ranks. `xs` must be non-empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentiles the tail metric may report, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it, and how many it leaves. Falls back to the
/// median when `n < 20`.
pub fn tail_percentile(n: usize) -> (f64, usize) {
    let beyond = |permille: usize| n * (1000 - permille) / 1000;
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(500);
    (p as f64 / 10.0, beyond(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), (50.0, 5));
        assert_eq!(tail_percentile(20), (50.0, 10));
        assert_eq!(tail_percentile(40), (75.0, 10));
        assert_eq!(tail_percentile(100), (90.0, 10));
        assert_eq!(tail_percentile(264), (95.0, 13));
        assert_eq!(tail_percentile(1000), (99.0, 10));
    }
}
