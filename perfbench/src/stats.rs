//! Order statistics used by every workload.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the samples at or below it. `q` in `[0, 1]`.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// p50 and p99 of an unsorted sample (sorted in place), nearest rank.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (nearest_rank(samples, 0.50), nearest_rank(samples, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 50);
        assert_eq!(nearest_rank(&xs, 0.99), 99);
        assert_eq!(nearest_rank(&xs, 1.0), 100);
        assert_eq!(nearest_rank(&xs, 0.0), 1);
        assert_eq!(nearest_rank(&xs, 0.001), 1);
        // Nearest rank never interpolates: the answer is a sample.
        let ys = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&ys, 0.50), 20);
        assert_eq!(nearest_rank(&ys, 0.51), 30);
        assert_eq!(nearest_rank(&ys, 0.99), 40);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    fn p99_of_1000_leaves_ten_above() {
        let mut xs: Vec<u64> = (0..1000).rev().collect();
        let (p50, p99) = p50_p99(&mut xs);
        assert_eq!(p50, 499);
        assert_eq!(p99, 989);
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
