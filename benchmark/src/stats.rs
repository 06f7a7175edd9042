//! Order statistics for timings: median, the percentile picker, and the
//! quartile spread the acceptance procedure uses.

/// Percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of `ladder` (ascending) that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the lowest rung when none
/// qualifies, so a short run still reports something (flagged by its
/// sample count).
pub fn pick_percentile(n: usize, ladder: &[f64]) -> f64 {
    ladder
        .iter()
        .copied()
        .filter(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
        .fold(ladder[0], f64::max)
}

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples. The epsilon keeps `99.9 % of 1000` at 999, not 1000, when the
/// product lands a hair above the integer.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// [`pick_percentile`] capped at `cap` — end-to-end tails stop at p99
/// because p99.9 moved 2–40× between repeats on a shared host.
pub fn pick_percentile_capped(n: usize, cap: f64) -> f64 {
    let rungs: Vec<f64> = LADDER.iter().copied().filter(|&p| p <= cap).collect();
    pick_percentile(n, &rungs)
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts in place (timings are finite) and returns the slice.
pub fn sort(xs: &mut [f64]) -> &[f64] {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    xs
}

/// Median of an unsorted sample (mean of the middle pair when even).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value; `NaN` for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest value; `NaN` for an empty sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the acceptance procedure's spread is `(q3 - q1) / median`.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `(q3 - q1) / median` — the run-to-run spread as a share of the median.
pub fn iqr_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_the_highest_rung_with_ten_samples_beyond() {
        // p50 needs 20 samples, p90 100, p99 1000, p99.9 10000.
        assert_eq!(pick_percentile(5, &LADDER), 50.0);
        assert_eq!(pick_percentile(20, &LADDER), 50.0);
        assert_eq!(pick_percentile(99, &LADDER), 50.0);
        assert_eq!(pick_percentile(100, &LADDER), 90.0);
        assert_eq!(pick_percentile(999, &LADDER), 90.0);
        assert_eq!(pick_percentile(1_000, &LADDER), 99.0);
        assert_eq!(pick_percentile(9_999, &LADDER), 99.0);
        assert_eq!(pick_percentile(10_000, &LADDER), 99.9);
        assert_eq!(pick_percentile(1_200_000, &LADDER), 99.9);
    }

    #[test]
    fn capped_picker_never_exceeds_its_cap() {
        assert_eq!(pick_percentile_capped(1_200_000, 99.0), 99.0);
        assert_eq!(pick_percentile_capped(150, 99.0), 90.0);
        assert_eq!(pick_percentile_capped(30, 99.0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 99.9), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 50, 90], n=4) == [15, 30, 70]
        let (q1, q3) = quartiles_exclusive(&[10.0, 20.0, 30.0, 50.0, 90.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 70.0).abs() < 1e-12);
    }
}
