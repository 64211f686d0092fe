//! Order statistics for benchmark samples: a timing is reported as a
//! median, its quartiles and the highest percentile that still has ten
//! samples beyond it.

/// Percentiles a tail may be reported at, lowest first, in hundredths of a
/// percent.
const TAIL_LADDER: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN if empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the acceptance check uses
/// for run-to-run spread. Needs two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        // j, delta = divmod(i * (n + 1), 4), with j clamped into 1..=n-1.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest rank (1-based) of a percentile given in hundredths of a percent:
/// whole numbers, so that p99.9 of 1000 samples is rank 999 and not 1000 by
/// a rounding error.
fn rank(n: usize, centipercent: usize) -> usize {
    (n * centipercent).div_ceil(10_000).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, as `(percent, value)`; `None` under 20 samples (not even the
/// median qualifies).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| !v.is_empty() && v.len() - rank(v.len(), p) >= 10)
        .map(|&p| (p as f64 / 100.0, v[rank(v.len(), p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_rank_is_nearest_rank() {
        assert_eq!(rank(100, 5000), 50);
        assert_eq!(rank(100, 9900), 99);
        assert_eq!(rank(101, 5000), 51);
        assert_eq!(rank(1000, 9990), 999);
        assert_eq!(rank(3, 1), 1);
        assert_eq!(rank(3, 10_000), 3);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        // 100 samples: exactly 10 lie beyond p90, only 5 beyond p95.
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&v(100_000)).map(|t| t.0), Some(99.99));
    }
}
