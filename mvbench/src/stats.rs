//! Order statistics for operation timings.
//!
//! A timing is reported as its median and as the highest percentile of a
//! fixed ladder that leaves at least ten samples beyond it (nearest-rank).
//! Under forty samples not even the 75th percentile has ten beyond it, so
//! the tail is the median itself. The ladder skips p95: each step is then
//! ten times wider in sample count than the last (p90 from 100 samples,
//! p99 from 1,000), so a workload's run-to-run spread in operation count
//! does not switch its tail between percentiles.

/// Percentiles the tail may be, in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 4] = [999, 990, 900, 750];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest rank of the `permille` percentile among `n` samples (1-based).
fn nearest_rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000) as usize).max(1)
}

/// The tail percentile reported for `n` samples: the highest ladder entry
/// with at least [`TAIL_BEYOND`] samples ranked above it, or 50 (the
/// median) when no entry qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER_PERMILLE
        .iter()
        .find(|&&p| n >= TAIL_BEYOND && n - nearest_rank(n, p) >= TAIL_BEYOND)
        .map_or(50.0, |&p| p as f64 / 10.0)
}

/// `(percentile, value)` of the tail of `xs` under [`tail_percentile`].
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let p = tail_percentile(xs.len());
    if p == 50.0 {
        return (p, median(xs));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), (p * 10.0).round() as u64);
    (p, v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn under_forty_samples_the_tail_is_the_median() {
        for n in [1, 10, 20, 39] {
            assert_eq!(tail_percentile(n), 50.0, "n={n}");
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&xs), (50.0, median(&xs)));
        }
    }

    #[test]
    fn ladder_steps_leave_ten_samples_beyond() {
        let cases = [
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 90.0),
            (999, 90.0),
            (1000, 99.0),
            (9999, 99.0),
            (10000, 99.9),
        ];
        for (n, p) in cases {
            assert_eq!(tail_percentile(n), p, "n={n}");
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (_, v) = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond p{p}");
        }
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(tail(&xs), a);
        assert_eq!(a, (90.0, 179.0));
    }
}
