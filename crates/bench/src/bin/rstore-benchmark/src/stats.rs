//! Order statistics for latency samples and run-to-run spreads.

/// Percentiles offered for the "highest percentile with at least ten
/// samples beyond it" diagnostic, ascending.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// Samples a percentile must leave beyond itself before it is
/// reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (total order; the benchmark never records
/// NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(f64::total_cmp);
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` of the samples at or below it. Empty
/// input yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile that still leaves [`MIN_BEYOND`]
/// samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median — quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Fewer than two values have no
/// spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        ((quartile(3) - quartile(1)) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // 200 samples: p95 has rank 190 and exactly 10 beyond.
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
