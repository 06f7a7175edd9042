//! Fixed-memory quantiles: a log-linear histogram with exact merge.
//!
//! Every finite sample lands in one counter: 2⁷ linear sub-buckets per
//! power of two over [[`RANGE_START`], [`RANGE_END`]), plus an underflow
//! and an overflow counter. An in-range bucket is at most 2⁻⁷ of its lower
//! edge wide, so that edge, clamped into the samples' exact [min, max], is
//! within relative [`MAX_RELATIVE_ERROR`] of the exact ceil-rank order
//! statistic; a value with at most eight significant bits (an integer
//! below 256, a half, …) comes back exactly. Quantiles that fall in the
//! underflow (overflow) counter report the sample minimum (maximum).
//! Histograms merge counter by counter, so per-worker, per-window or
//! per-replication histograms combine into exactly the pooled one.

/// Sub-bucket bits: 2⁷ linear sub-buckets per power of two.
const SUB_BUCKET_BITS: u32 = 7;
/// Bound on a reported quantile's error relative to the exact order
/// statistic, for samples inside the range: 2⁻⁷ ≈ 0.78 %.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (1u64 << SUB_BUCKET_BITS) as f64;
/// Smallest value the histogram resolves, 2⁻¹⁶; smaller ones underflow.
pub const RANGE_START: f64 = 1.0 / 65_536.0;
/// First value past the resolved range, 2²⁴; larger ones overflow.
pub const RANGE_END: f64 = 16_777_216.0;

/// Mantissa bits below the sub-bucket bits: an `f64`'s bit pattern shifted
/// right by this many is `exponent · 2⁷ + sub-bucket`, monotone in value.
const SHIFT: u32 = 52 - SUB_BUCKET_BITS;
const FIRST: u64 = RANGE_START.to_bits() >> SHIFT;
/// Counters: 40 octaves × 2⁷ sub-buckets, plus underflow and overflow
/// (5 122 × 8 bytes = 40 KiB).
const BUCKETS: usize = ((RANGE_END.to_bits() >> SHIFT) - FIRST) as usize + 2;

/// The counter a finite sample belongs in.
#[inline]
fn bucket(x: f64) -> usize {
    if x < RANGE_START {
        0
    } else if x >= RANGE_END {
        BUCKETS - 1
    } else {
        ((x.to_bits() >> SHIFT) - FIRST) as usize + 1
    }
}

/// Counts of one sample stream in fixed log-linear buckets, with the exact
/// count, minimum and maximum. `default()` allocates the 40 KiB once;
/// [`Histogram::clear`] reuses it.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Folds one sample in. Non-finite samples (NaN, ±∞) are dropped
    /// without counting: they have no bucket and no place in [min, max].
    #[inline]
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.counts[bucket(x)] += 1;
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds `other`'s samples: afterwards `self` equals the histogram of
    /// both streams recorded into one, counter for counter.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forgets every sample, keeping the allocation. Only the counters
    /// between the minimum's and the maximum's can be non-zero.
    pub fn clear(&mut self) {
        if self.count > 0 {
            self.counts[bucket(self.min)..=bucket(self.max)].fill(0);
        }
        self.count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The ceil-rank `q`-quantile, within [`MAX_RELATIVE_ERROR`] of the
    /// exact order statistic (for in-range samples) and inside [min, max];
    /// `None` when empty.
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must lie in [0, 1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.counts.iter().enumerate().skip(bucket(self.min)) {
            seen += n;
            if seen >= rank {
                return Some(match i {
                    0 => self.min,
                    i if i == BUCKETS - 1 => self.max,
                    // the bucket's lower edge, inverting `bucket`
                    i => f64::from_bits((i as u64 - 1 + FIRST) << SHIFT).max(self.min),
                });
            }
        }
        unreachable!("the counters sum to `count`")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn exact_quantile(mut v: Vec<f64>, q: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    fn histogram(xs: &[f64]) -> Histogram {
        let mut h = Histogram::default();
        xs.iter().for_each(|&x| h.record(x));
        h
    }

    fn exponential(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = Xoshiro256::new(seed);
        (0..n).map(|_| -(1.0 - rng.next_f64()).ln()).collect()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        h.record(3.0);
        assert_eq!(h.quantile(0.5), Some(3.0));
        h.record(1.0);
        h.record(2.0);
        // ceil-rank median of {1,2,3} is rank 2; small integers sit on a
        // bucket edge, so it comes back exactly
        assert_eq!(h.quantile(0.5), Some(2.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut rng = Xoshiro256::new(1);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
        let m = histogram(&xs).quantile(0.5).unwrap();
        assert!((m - 0.5).abs() < 0.01, "median {m}");
    }

    #[test]
    fn p95_of_exponential_stream() {
        // p95 of Exp(1) is ln(20) ≈ 2.9957
        let got = histogram(&exponential(2, 200_000)).quantile(0.95).unwrap();
        let want = 20.0f64.ln();
        assert!((got - want).abs() / want < 0.02, "p95 {got} vs {want}");
    }

    #[test]
    fn agrees_with_exact_on_moderate_samples() {
        let mut rng = Xoshiro256::new(3);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.next_f64().powi(2) * 100.0).collect();
        let h = histogram(&xs);
        for q in [0.25, 0.5, 0.9, 0.99] {
            let (got, want) = (h.quantile(q).unwrap(), exact_quantile(xs.clone(), q));
            assert!(
                (got - want).abs() <= want * MAX_RELATIVE_ERROR && got <= want,
                "q={q}: {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn monotone_in_q() {
        let mut rng = Xoshiro256::new(4);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.next_f64() * 10.0).collect();
        let h = histogram(&xs);
        let est = |q: f64| h.quantile(q).unwrap();
        assert!(est(0.1) < est(0.5));
        assert!(est(0.5) < est(0.9));
    }

    #[test]
    fn extremes_are_tracked() {
        let h = histogram(&(0..100).map(f64::from).collect::<Vec<_>>());
        assert_eq!((h.min(), h.max()), (Some(0.0), Some(99.0)));
        assert_eq!(h.quantile(0.0), Some(0.0), "0 underflows: reported as min");
        assert_eq!(h.quantile(1.0), Some(99.0));
        let m = h.quantile(0.5).unwrap();
        assert!(m > 0.0 && m < 99.0);
    }

    #[test]
    #[should_panic(expected = "quantile must lie in [0, 1]")]
    fn invalid_q_rejected() {
        let _ = Histogram::default().quantile(1.5);
    }

    /// Two quantiles of one stream from one histogram, each within the
    /// bound of its own exact order statistic.
    #[test]
    fn dual_tracks_both_quantiles_of_an_exponential_stream() {
        let xs = exponential(9, 100_000);
        let h = histogram(&xs);
        for (q, theory) in [(0.5, 2.0f64.ln()), (0.95, 20.0f64.ln())] {
            let (got, exact) = (h.quantile(q).unwrap(), exact_quantile(xs.clone(), q));
            assert!((got - exact).abs() <= exact * MAX_RELATIVE_ERROR, "q={q}");
            assert!(
                (got - theory).abs() / theory < 0.05,
                "q={q}: {got} vs {theory}"
            );
        }
    }

    #[test]
    fn dual_estimates_stay_ordered_and_in_range() {
        let mut rng = Xoshiro256::new(11);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.next_f64() * 100.0).collect();
        let h = histogram(&xs);
        let (lo, hi) = (h.quantile(0.5).unwrap(), h.quantile(0.95).unwrap());
        assert!(lo <= hi, "p50 {lo} must not exceed p95 {hi}");
        assert!(lo > 0.0 && hi < 100.0);
    }

    #[test]
    fn zero_and_one_sample_edge_cases() {
        let h = Histogram::default();
        assert_eq!((h.count(), h.min(), h.max()), (0, None, None));
        assert_eq!([0.5, 0.95, 0.99].map(|q| h.quantile(q)), [None; 3]);
        for x in [42.0, 42.1, 0.0, 1e-9, 1e30] {
            let h = histogram(&[x]);
            assert_eq!([0.0, 0.5, 0.99, 1.0].map(|q| h.quantile(q)), [Some(x); 4]);
        }
    }

    #[test]
    fn all_equal_values_collapse_to_that_value() {
        // 3.3 is not a bucket edge: the clamp to [min, max] recovers it.
        let h = histogram(&[3.3; 1_000]);
        assert_eq!([0.5, 0.95, 0.99].map(|q| h.quantile(q)), [Some(3.3); 3]);
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        assert_eq!((h.count(), h.quantile(0.5)), (0, None));
        for i in 0..100 {
            h.record(f64::from(i));
            h.record(f64::NAN);
            h.record(f64::INFINITY);
            h.record(f64::NEG_INFINITY);
        }
        assert_eq!((h.count(), h.min(), h.max()), (100, Some(0.0), Some(99.0)));
        let m = h.quantile(0.5).unwrap();
        assert!(m.is_finite() && m > 0.0 && m < 99.0, "median {m}");
    }
}
