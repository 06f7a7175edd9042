//! Property tests for the log-linear histogram against a sort oracle,
//! across the distribution shapes the simulator produces (uniform
//! queueing jitter, exponential waits, Pareto-tailed stretches, a single
//! atom), at stream lengths from one sample to 10⁵.
//!
//! The contract: every quantile is within relative
//! [`MAX_RELATIVE_ERROR`] (2⁻⁷) of the exact ceil-rank order statistic and
//! inside the samples' [min, max], p50 ≤ p95 ≤ p99, and merging split
//! streams equals recording the whole stream, counter for counter.

use proptest::prelude::*;

use hybridcast_sim::quantile::{Histogram, MAX_RELATIVE_ERROR, RANGE_END, RANGE_START};
use hybridcast_sim::rng::Xoshiro256;

/// Exact ceil-rank `q`-quantile of the sorted `v`.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn histogram(xs: &[f64]) -> Histogram {
    let mut h = Histogram::default();
    xs.iter().for_each(|&x| h.record(x));
    h
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    Exponential,
    /// Pareto with tail index 1.5 — the Zipf-shaped heavy tail of
    /// per-item stretch values.
    Pareto,
    /// Every sample the same value (a queue that always serves in
    /// exactly one broadcast cycle).
    Atom,
}

fn draw(shape: Shape, rng: &mut Xoshiro256) -> f64 {
    let u = rng.next_f64();
    match shape {
        Shape::Uniform => u * 100.0,
        Shape::Exponential => -(1.0 - u).ln() * 10.0,
        Shape::Pareto => (1.0 - u).max(1e-12).powf(-1.0 / 1.5),
        Shape::Atom => 5.3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every quantile within the bound of the sort oracle, inside
    /// [min, max], and p50 ≤ p95 ≤ p99 — at the lengths where an
    /// exact-then-streaming estimator would have switched algorithms
    /// (4 095 / 4 096) and beyond.
    #[test]
    fn histogram_tracks_exact_quantiles_within_relative_2_pow_minus_7(seed in 0u64..1_000_000) {
        for shape in [Shape::Uniform, Shape::Exponential, Shape::Pareto, Shape::Atom] {
            for n in [1usize, 2, 5, 4_095, 4_096, 100_000] {
                let mut rng = Xoshiro256::new(seed ^ n as u64);
                let mut xs: Vec<f64> = (0..n).map(|_| draw(shape, &mut rng)).collect();
                let h = histogram(&xs);
                xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let (lo, hi) = (h.min().unwrap(), h.max().unwrap());
                let mut last = lo;
                for q in [0.5, 0.95, 0.99] {
                    let got = h.quantile(q).unwrap();
                    let want = exact_quantile(&xs, q);
                    prop_assert!(
                        (got - want).abs() <= want * MAX_RELATIVE_ERROR,
                        "{:?} n={} q={}: {} vs exact {}", shape, n, q, got, want
                    );
                    prop_assert!((lo..=hi).contains(&got), "{:?} n={} q={}", shape, n, q);
                    prop_assert!(got >= last, "{:?} n={}: p{} {} below {}", shape, n, q, got, last);
                    last = got;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Split a stream at random points into k parts, record the parts in
    /// any order and merge: the result is the histogram of the whole
    /// stream, counter for counter.
    #[test]
    fn merged_parts_equal_the_whole_stream(
        xs in proptest::collection::vec(-10.0f64..1e7, 0..400),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        order_seed in 0u64..1_000,
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| (c * xs.len() as f64) as usize).collect();
        at.push(0);
        at.push(xs.len());
        at.sort_unstable();
        let mut parts: Vec<Histogram> = at.windows(2).map(|w| histogram(&xs[w[0]..w[1]])).collect();
        let mut rng = Xoshiro256::new(order_seed);
        let mut merged = Histogram::default();
        while !parts.is_empty() {
            let i = (rng.next_f64() * parts.len() as f64) as usize % parts.len();
            merged.merge(&parts.swap_remove(i));
        }
        prop_assert_eq!(merged, histogram(&xs));
    }
}

#[test]
fn percentiles_are_unknown_when_empty_and_again_after_clear() {
    let mut h = Histogram::default();
    assert_eq!(h.quantile(0.5), None);
    h.record(3.0);
    h.record(1e9);
    assert_eq!(h.quantile(0.5), Some(3.0));
    h.clear();
    assert_eq!(
        (h.count(), h.min(), h.max(), h.quantile(0.5)),
        (0, None, None, None)
    );
    assert_eq!(h, Histogram::default(), "clear zeroes every counter");
    h.record(7.0);
    assert_eq!(h.quantile(0.99), Some(7.0));
}

/// Empty, all-NaN, ±∞, zero and out-of-range samples.
#[test]
fn edge_samples_are_dropped_or_clamped() {
    let mut h = Histogram::default();
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        h.record(x);
    }
    assert_eq!(
        (h.count(), h.quantile(0.5)),
        (0, None),
        "all non-finite: empty"
    );
    // Zero and negatives underflow, huge values overflow: quantiles there
    // report the exact minimum / maximum.
    for x in [0.0, -3.0, RANGE_START / 4.0, 1.0, RANGE_END * 8.0, 1e300] {
        h.record(x);
    }
    assert_eq!(h.count(), 6);
    assert_eq!(h.quantile(0.0), Some(-3.0));
    assert_eq!(
        h.quantile(0.5),
        Some(-3.0),
        "rank 3 underflows: the minimum"
    );
    assert_eq!(h.quantile(0.6), Some(1.0), "rank 4");
    assert_eq!(
        h.quantile(0.8),
        Some(1e300),
        "rank 5 overflows: the maximum"
    );
    assert_eq!(h.quantile(1.0), Some(1e300));
    // The resolved range's ends land on bucket edges.
    assert_eq!(histogram(&[RANGE_START]).quantile(0.5), Some(RANGE_START));
    let just_below_end = RANGE_END * (1.0 - f64::EPSILON);
    let got = histogram(&[1.0, just_below_end]).quantile(1.0).unwrap();
    assert!((just_below_end - got) / just_below_end <= MAX_RELATIVE_ERROR);
}

#[test]
fn duplicate_heavy_stream_keeps_the_median_on_the_atom() {
    // 90% of the mass sits on a single atom at 5.0 (a queue that almost
    // always serves in exactly one broadcast cycle) — the median must
    // stay glued to it despite the uniform contamination.
    let mut rng = Xoshiro256::new(7);
    let mut h = Histogram::default();
    for i in 0..1_000 {
        h.record(if i % 10 == 0 {
            rng.next_f64() * 10.0
        } else {
            5.0
        });
    }
    assert_eq!(h.quantile(0.5), Some(5.0));
}

#[test]
fn constant_stream_is_recovered_exactly() {
    let h = histogram(&[42.0; 10_000]);
    assert_eq!(h.quantile(0.95), Some(42.0));
}
